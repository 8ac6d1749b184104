(** In-flight binding relations.

    A relation's columns are twig-node uids; each row binds those twig
    nodes to data-node ids. Linear-path evaluation produces one
    relation per path; twig answers come from natural-joining them on
    shared columns (the branch points) and projecting the output
    column. Relations live in memory, as intermediate results would in
    a relational executor's pipeline. *)

type t = {
  columns : int array;  (** twig uids, in path order *)
  rows : int array list;  (** each row has [Array.length columns] ids *)
}

let create columns rows = { columns; rows }
let empty columns = { columns; rows = [] }
let cardinality t = List.length t.rows
let columns t = t.columns

let column_index t uid =
  let rec go i =
    if i >= Array.length t.columns then None
    else if t.columns.(i) = uid then Some i
    else go (i + 1)
  in
  go 0

(** Values of column [uid], de-duplicated and sorted. *)
let column_values t uid =
  match column_index t uid with
  | None -> invalid_arg "Relation.column_values: no such column"
  | Some i -> List.map (fun row -> row.(i)) t.rows |> List.sort_uniq Int.compare

let shared_columns a b =
  Array.to_list a.columns |> List.filter (fun c -> Array.exists (( = ) c) b.columns)

(* Rows are uid vectors; order them lexicographically with typed
   comparisons (length first, like the polymorphic order on arrays). *)
let compare_row (a : int array) (b : int array) =
  match Int.compare (Array.length a) (Array.length b) with
  | 0 ->
    let rec go i =
      if i >= Array.length a then 0
      else match Int.compare a.(i) b.(i) with 0 -> go (i + 1) | c -> c
    in
    go 0
  | c -> c

let distinct t = { t with rows = List.sort_uniq compare_row t.rows }

(* Key of a row on columns [idx]. *)
let key_of row idx = List.map (fun i -> row.(i)) idx
let compare_key = List.compare Int.compare

(** Natural hash join of [a] and [b] on their shared columns. The output
    columns are [a]'s columns followed by [b]'s non-shared columns. If
    there are no shared columns this is a cross product (never needed by
    the planner, but well-defined). Calls [on_result] once per output
    row, letting the caller account work. *)
let hash_join ?(on_result = fun () -> ()) a b =
  let shared = shared_columns a b in
  let a_idx = List.map (fun c -> Option.get (column_index a c)) shared in
  let b_idx = List.map (fun c -> Option.get (column_index b c)) shared in
  let b_extra_cols =
    Array.to_list b.columns |> List.filter (fun c -> not (List.mem c shared))
  in
  let b_extra_idx = List.map (fun c -> Option.get (column_index b c)) b_extra_cols in
  let table = Hashtbl.create (max 16 (cardinality a)) in
  List.iter (fun row -> Hashtbl.add table (key_of row a_idx) row) a.rows;
  let out_columns = Array.append a.columns (Array.of_list b_extra_cols) in
  let rows =
    List.concat_map
      (fun brow ->
        Hashtbl.find_all table (key_of brow b_idx)
        |> List.map (fun arow ->
               on_result ();
               Array.append arow (Array.of_list (List.map (fun i -> brow.(i)) b_extra_idx))))
      b.rows
  in
  { columns = out_columns; rows }

(** Natural sort-merge join on shared columns — same result as
    {!hash_join} up to row order. Models the paper's merge-join plans
    for ROOTPATHS. *)
let merge_join ?(on_result = fun () -> ()) a b =
  let shared = shared_columns a b in
  let a_idx = List.map (fun c -> Option.get (column_index a c)) shared in
  let b_idx = List.map (fun c -> Option.get (column_index b c)) shared in
  let b_extra_cols =
    Array.to_list b.columns |> List.filter (fun c -> not (List.mem c shared))
  in
  let b_extra_idx = List.map (fun c -> Option.get (column_index b c)) b_extra_cols in
  let asorted = List.sort (fun r s -> compare_key (key_of r a_idx) (key_of s a_idx)) a.rows in
  let bsorted = List.sort (fun r s -> compare_key (key_of r b_idx) (key_of s b_idx)) b.rows in
  let out_columns = Array.append a.columns (Array.of_list b_extra_cols) in
  let rec groups rows idx =
    (* split sorted rows into (key, group) runs; runs are contiguous *)
    match rows with
    | [] -> []
    | r :: _ ->
      let k = key_of r idx in
      let rec split acc = function
        | s :: rest when compare_key (key_of s idx) k = 0 -> split (s :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let same, rest = split [] rows in
      (k, same) :: groups rest idx
  in
  let ga = groups asorted a_idx and gb = groups bsorted b_idx in
  let rec merge ga gb acc =
    match (ga, gb) with
    | [], _ | _, [] -> acc
    | (ka, rows_a) :: ga', (kb, rows_b) :: gb' ->
      let c = compare_key ka kb in
      if c < 0 then merge ga' gb acc
      else if c > 0 then merge ga gb' acc
      else
        let acc =
          List.fold_left
            (fun acc arow ->
              List.fold_left
                (fun acc brow ->
                  on_result ();
                  Array.append arow
                    (Array.of_list (List.map (fun i -> brow.(i)) b_extra_idx))
                  :: acc)
                acc rows_b)
            acc rows_a
        in
        merge ga' gb' acc
  in
  { columns = out_columns; rows = List.rev (merge ga gb []) }
