(** Query twig patterns (paper Section 2.1).

    A twig is a node-labeled tree; edges are parent-child ([Child]) or
    ancestor-descendant ([Descendant]). Node labels are element tags or
    attribute names; a node may carry an equality predicate on its leaf
    value ([value = Some "XML"]). Exactly one node is the {e output}
    node whose matched data-node ids a query returns (for an XPath
    expression, the last step of the trunk).

    Each twig node carries a dense [uid] (pre-order over the twig),
    which the decomposition and executor use to name join columns. *)

type axis = Child | Descendant

(** One bound of a value range; [binc] = inclusive. Comparison is
    lexicographic on the value strings (documented limitation: numeric
    comparison would need typed values; the paper's future-work pointer
    to multidimensional access methods applies). *)
type bound = { bval : string; binc : bool }

(** Range predicate on a node's leaf value, e.g. [. >= 'a' and . < 'm']. *)
type range = { rlo : bound option; rhi : bound option }

let range_matches r v =
  (match r.rlo with
  | None -> true
  | Some { bval; binc } ->
    let c = String.compare v bval in
    if binc then c >= 0 else c > 0)
  && (match r.rhi with
     | None -> true
     | Some { bval; binc } ->
       let c = String.compare v bval in
       if binc then c <= 0 else c < 0)

type node = {
  uid : int;
  name : string;
  value : string option;  (** equality predicate *)
  range : range option;  (** inequality predicate (never with [value]) *)
  output : bool;
  branches : (axis * node) list;
}

type t = { root_axis : axis; root : node }

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(** Unnumbered spec, turned into a twig by {!make} (which assigns uids
    and checks that exactly one output node exists). *)
type spec = {
  s_name : string;
  s_value : string option;
  s_range : range option;
  s_output : bool;
  s_branches : (axis * spec) list;
}

let spec ?value ?range ?(output = false) name branches =
  { s_name = name; s_value = value; s_range = range; s_output = output; s_branches = branches }

let make root_axis root_spec =
  let counter = ref 0 in
  let outputs = ref 0 in
  let rec go s =
    let uid = !counter in
    incr counter;
    if s.s_output then incr outputs;
    if Option.is_some s.s_value && Option.is_some s.s_range then
      invalid_arg "Twig.make: a node cannot have both an equality and a range predicate";
    let branches = List.map (fun (ax, c) -> (ax, go c)) s.s_branches in
    { uid; name = s.s_name; value = s.s_value; range = s.s_range; output = s.s_output; branches }
  in
  let root = go root_spec in
  if !outputs <> 1 then
    invalid_arg (Printf.sprintf "Twig.make: expected exactly 1 output node, found %d" !outputs);
  { root_axis; root }

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let rec fold_nodes f acc node =
  List.fold_left (fun acc (_, c) -> fold_nodes f acc c) (f acc node) node.branches

let node_count t = fold_nodes (fun acc _ -> acc + 1) 0 t.root

let output_node t =
  match fold_nodes (fun acc n -> if n.output then Some n else acc) None t.root with
  | Some n -> n
  | None -> assert false

(** Twig nodes where linear paths diverge — the join points. A node
    with several branches splits paths; so does a node with a value
    predicate {e and} at least one branch (its value path ends there
    while the branch continues, see {!Decompose.linear_paths}). *)
let branch_nodes t =
  List.rev
    (fold_nodes
       (fun acc n ->
         if
           List.length n.branches > 1
           || ((not (List.is_empty n.branches))
              && (Option.is_some n.value || Option.is_some n.range))
         then n :: acc
         else acc)
       [] t.root)

(** Number of leaf-to-root paths, i.e. the paper's "number of branches". *)
let leaf_count t =
  fold_nodes (fun acc n -> if List.is_empty n.branches then acc + 1 else acc) 0 t.root

let has_descendant_edge t =
  t.root_axis = Descendant
  || fold_nodes
       (fun acc n -> acc || List.exists (fun (ax, _) -> ax = Descendant) n.branches)
       false t.root

(* ------------------------------------------------------------------ *)
(* Printing (round-trips through the XPath parser for simple twigs)    *)
(* ------------------------------------------------------------------ *)

let axis_str = function Child -> "/" | Descendant -> "//"

let range_to_string r =
  String.concat ""
    [
      (match r.rlo with
      | Some { bval; binc } -> Printf.sprintf "[. %s '%s']" (if binc then ">=" else ">") bval
      | None -> "");
      (match r.rhi with
      | Some { bval; binc } -> Printf.sprintf "[. %s '%s']" (if binc then "<=" else "<") bval
      | None -> "");
    ]

let rec node_to_string n =
  let self = n.name in
  let preds =
    List.map (fun (ax, c) -> Printf.sprintf "[%s]" (branch_to_string ax c)) n.branches
  in
  self ^ String.concat "" preds
  ^ (match n.value with Some v -> Printf.sprintf "[. = '%s']" v | None -> "")
  ^ (match n.range with Some r -> range_to_string r | None -> "")

and branch_to_string ax c =
  let prefix = match ax with Child -> "" | Descendant -> ".//" in
  prefix ^ path_to_string c

and path_to_string n =
  match (n.branches, n.value, n.range) with
  | [ (ax, c) ], None, None -> n.name ^ axis_str ax ^ path_to_string c
  | _ -> node_to_string n

let to_string t = axis_str t.root_axis ^ path_to_string t.root

(* ------------------------------------------------------------------ *)
(* Shape normalization (plan-cache keys)                               *)
(* ------------------------------------------------------------------ *)

(* Two twigs share a shape when they have the same tags, axes and
   predicate *kinds* — the literal values are erased ("=?" / range-bound
   markers), and sibling branches are sorted, so [a[b='x'][c]] and
   [a[c][b='y']] normalize identically. The output node keeps its "!"
   marker: moving the output changes the needed join columns, hence the
   plan. *)
let rec shape_node n =
  let preds =
    (match n.value with Some _ -> "{=?}" | None -> "")
    ^
    match n.range with
    | Some r ->
      Printf.sprintf "{%s?%s}"
        (match r.rlo with Some { binc = true; _ } -> ">=" | Some _ -> ">" | None -> "")
        (match r.rhi with Some { binc = true; _ } -> "<=" | Some _ -> "<" | None -> "")
    | None -> ""
  in
  let branches =
    List.map (fun (ax, c) -> "(" ^ axis_str ax ^ shape_node c ^ ")") n.branches
    |> List.sort String.compare
  in
  n.name ^ (if n.output then "!" else "") ^ preds ^ String.concat "" branches

let shape t = axis_str t.root_axis ^ shape_node t.root
