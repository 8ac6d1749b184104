(** Naive in-memory twig matcher — the golden oracle.

    Evaluates a twig directly on the {!Tm_xml.Xml_tree} by recursive
    descent, with none of the indexing machinery. Every index-based
    strategy must return exactly this answer; the integration tests
    enforce it. Complexity is O(|data| * |twig|) per node in the worst
    case, fine for test-sized documents and still usable (seconds) on
    the benchmark datasets for validation runs. *)

module T = Tm_xml.Xml_tree

let name_matches (n : T.node) name =
  match n.T.label with
  | T.Elem t | T.Attr t -> String.equal name "*" || String.equal t name
  | T.Value _ -> false

let value_matches (n : T.node) = function
  | None -> true
  | Some v -> (match T.leaf_value n with Some v' -> String.equal v v' | None -> false)

let range_matches_node (n : T.node) = function
  | None -> true
  | Some r -> (
    match T.leaf_value n with Some v -> Twig.range_matches r v | None -> false)

(* Does some node in [nodes] (for Child) or some descendant (for
   Descendant) satisfy twig node [tn]? *)
let rec sat (n : T.node) (tn : Twig.node) =
  name_matches n tn.Twig.name
  && value_matches n tn.Twig.value
  && range_matches_node n tn.Twig.range
  && List.for_all (fun (ax, c) -> branch_sat n ax c) tn.Twig.branches

and branch_sat (n : T.node) axis c =
  match axis with
  | Twig.Child -> Array.exists (fun ch -> sat ch c) n.T.children
  | Twig.Descendant ->
    let rec any_desc (m : T.node) =
      Array.exists (fun ch -> sat ch c || any_desc ch) m.T.children
    in
    any_desc n

(* Ids of data nodes bound to the output twig node, over all matches of
   [tn] rooted at [n]. *)
let rec outputs (n : T.node) (tn : Twig.node) acc =
  if
    not
      (name_matches n tn.Twig.name
      && value_matches n tn.Twig.value
      && range_matches_node n tn.Twig.range)
  then acc
  else if not (List.for_all (fun (ax, c) -> branch_sat n ax c) tn.Twig.branches) then acc
  else if tn.Twig.output then n.T.id :: acc
  else
    (* exactly one branch leads to the output node *)
    List.fold_left
      (fun acc (ax, c) ->
        if contains_output c then branch_outputs n ax c acc else acc)
      acc tn.Twig.branches

and contains_output (tn : Twig.node) =
  tn.Twig.output || List.exists (fun (_, c) -> contains_output c) tn.Twig.branches

and branch_outputs (n : T.node) axis c acc =
  match axis with
  | Twig.Child -> Array.fold_left (fun acc ch -> outputs ch c acc) acc n.T.children
  | Twig.Descendant ->
    let rec go acc (m : T.node) =
      Array.fold_left (fun acc ch -> go (outputs ch c acc) ch) acc m.T.children
    in
    go acc n

(** Sorted, de-duplicated ids of data nodes matching the twig's output
    node. *)
let query (doc : T.document) (t : Twig.t) =
  let start_nodes =
    match t.Twig.root_axis with
    | Twig.Child -> Array.to_list doc.T.roots
    | Twig.Descendant ->
      let all = ref [] in
      T.iter doc (fun n -> if not (T.is_value n) then all := n :: !all);
      List.rev !all
  in
  List.fold_left (fun acc n -> outputs n t.Twig.root acc) [] start_nodes
  |> List.sort_uniq Int.compare
