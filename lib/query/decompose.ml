(** Twig decomposition (paper Section 2.3).

    A twig is covered by its root-to-leaf {e linear paths}; each linear
    path is evaluated with index lookups and the results are stitched
    together by joining on the data-node ids bound at shared twig nodes
    (the branch points). This module enumerates the linear paths and
    provides the pattern matcher used to (a) post-filter index rows
    whose schema paths must satisfy a pattern containing [//], and
    (b) locate the positions of branch-point nodes inside a matched
    data path so their ids can be pulled out of the IdList — the
    "extract the ids of the branch point from the IdLists" step of
    Section 5.2.2. *)

type step = { axis : Twig.axis; name : string; uid : int }

type linear = {
  steps : step list;  (** twig root first; [steps] is never empty *)
  value : string option;  (** equality predicate at the leaf, if any *)
  range : Twig.range option;  (** inequality predicate at the leaf *)
}

let step_uids l = List.map (fun s -> s.uid) l.steps

(** All root-to-leaf linear paths of [t], in twig pre-order. *)
let linear_paths (t : Twig.t) : linear list =
  let rec go prefix axis (n : Twig.node) =
    let prefix = { axis; name = n.Twig.name; uid = n.Twig.uid } :: prefix in
    match n.Twig.branches with
    | [] -> [ { steps = List.rev prefix; value = n.Twig.value; range = n.Twig.range } ]
    | branches ->
      let below = List.concat_map (fun (ax, c) -> go prefix ax c) branches in
      (* A value/range predicate on an internal node adds its own linear
         path ending at that node (e.g. .../quantity[. = '2']/extra). *)
      if Option.is_some n.Twig.value || Option.is_some n.Twig.range then
        { steps = List.rev prefix; value = n.Twig.value; range = n.Twig.range } :: below
      else below
  in
  go [] t.Twig.root_axis t.Twig.root

(** The uid of the deepest twig node shared by [a] and [b] (their common
    prefix — linear paths of one twig always share at least the root). *)
let deepest_shared_uid a b =
  let rec go last xs ys =
    match (xs, ys) with
    | x :: xs', y :: ys' when x.uid = y.uid -> go (Some x.uid) xs' ys'
    | _ -> last
  in
  match go None a.steps b.steps with
  | Some uid -> uid
  | None -> invalid_arg "Decompose.deepest_shared_uid: paths from different twigs"

(* ------------------------------------------------------------------ *)
(* Pattern matching against schema paths                               *)
(* ------------------------------------------------------------------ *)

(** A linear pattern over tag ids: steps of (axis, tag). *)
type tag_pattern = (Twig.axis * int) array

(** Tag id standing for a wildcard ([*]) step: matches any tag. *)
let wildcard = -1

let tag_matches want got = want = wildcard || want = got

(* Length, then lexicographic: the order [match_all] returns. *)
let compare_positions (a : int array) b =
  let n = Array.length a in
  let rec go i =
    if i = n then 0
    else
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  let c = Int.compare n (Array.length b) in
  if c <> 0 then c else go 0

(** [match_all pattern path] finds every way [pattern] matches [path]
    with {e both ends anchored}: the first step must match [path.(0)]
    (for [Child]) or any position (for [Descendant]); each later
    [Child] step consumes the next position, a [Descendant] step any
    strictly later one; and the final step must land on the last
    element. Returns the list of position vectors (pattern index ->
    path index), deduplicated, in lexicographic order. *)
let match_all (pattern : tag_pattern) (path : int array) : int array list =
  let np = Array.length pattern and nl = Array.length path in
  if np = 0 || nl = 0 then []
  else begin
    let results = ref [] in
    (* [go i j positions]: try to match pattern.(i..) with path positions
       > j (exclusive lower bound). *)
    let rec go i j positions =
      if i = np then begin
        (* all steps placed; accept iff the leaf landed at the end *)
        match positions with
        | last :: _ when last = nl - 1 -> results := List.rev positions :: !results
        | _ -> ()
      end
      else
        let axis, tag = pattern.(i) in
        match axis with
        | Twig.Child ->
          let pos = j + 1 in
          if pos < nl && tag_matches tag path.(pos) then go (i + 1) pos (pos :: positions)
        | Twig.Descendant ->
          (* try every later position; prune: remaining steps need at
             least (np - i) positions *)
          for pos = j + 1 to nl - (np - i) do
            if tag_matches tag path.(pos) then go (i + 1) pos (pos :: positions)
          done
    in
    go 0 (-1) [];
    List.rev !results |> List.map Array.of_list
    |> List.sort_uniq compare_positions
  end

(** Does [pattern] match [path] (both ends anchored)? *)
let matches pattern path = not (List.is_empty (match_all pattern path))

(** Longest trailing run of {e concrete} (non-wildcard), [Child]-linked
    tags — the part that can be evaluated as a B+-tree prefix scan on
    the reverse schema path. A leading [Descendant] step's own tag is
    included (its tag is fixed; only its distance from the root
    varies); a wildcard cannot appear in the scan key at all. The
    returned array is in root-to-leaf order. *)
let child_suffix (pattern : tag_pattern) =
  let n = Array.length pattern in
  let rec start i =
    if i = 0 then 0
    else if snd pattern.(i) = wildcard then i + 1
    else if snd pattern.(i - 1) = wildcard then i
    else if fst pattern.(i) = Twig.Descendant then i
    else start (i - 1)
  in
  let s = if n = 0 then 0 else if snd pattern.(n - 1) = wildcard then n else start (n - 1) in
  Array.sub pattern s (n - s) |> Array.map snd

(** [true] when the pattern is fully specified from its anchor: no
    [Descendant] edges except possibly at the very first step, and no
    wildcards. *)
let is_pcsubpath (pattern : tag_pattern) =
  let n = Array.length pattern in
  let rec go i = i >= n || (fst pattern.(i) = Twig.Child && go (i + 1)) in
  (n = 0 || go 1) && Array.for_all (fun (_, t) -> t <> wildcard) pattern
