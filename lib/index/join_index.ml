(** Join Indices (Valduriez), adapted to XML paths as in the paper's
    Section 5.2.6 baseline.

    One join-index {e pair} per distinct subpath schema path present in
    the data: a join index stores only the (start, end) node-id pairs of
    a subpath, and to be able to return intermediate nodes (and to
    support both join directions) it must keep {e two} B+-trees per
    subpath — a forward index (start -> end) and a backward index
    (end -> start). This doubling is why the paper measures Join
    Indices as the most space-hungry structure (Figure 9), and the
    one-structure-per-schema-path layout is why [//] patterns touch
    many structures (Figure 13). *)

open Tm_storage
open Tm_xmldb

type pair = { jp_path : Schema_path.t; forward : Bptree.t; backward : Bptree.t }

type t = {
  pairs : (string, pair) Hashtbl.t; (* encoded subpath -> index pair *)
  catalog : Schema_catalog.t;
  pool : Buffer_pool.t; (* kept so updates can materialize new pairs *)
}

let build ~pool ~dict ~catalog doc =
  (* Collect (head, tail) per distinct subpath schema path. Subpaths of
     length 1 (head = tail) and the virtual-root rows are skipped: a
     join index relates two distinct path endpoints. *)
  let groups : (string, (int * int) list ref) Hashtbl.t = Hashtbl.create 1024 in
  Path_relation.fold_all_rows doc dict
    (fun () (row : Path_relation.row) ->
      if Option.is_none row.Path_relation.value && row.Path_relation.head <> 0 then begin
        match List.rev row.Path_relation.idlist with
        | [] -> () (* length-1 subpath: the head itself *)
        | tail :: _ ->
          let enc = Schema_path.encode row.Path_relation.schema in
          let bucket =
            match Hashtbl.find_opt groups enc with
            | Some b -> b
            | None ->
              let b = ref [] in
              Hashtbl.replace groups enc b;
              b
          in
          bucket := (row.Path_relation.head, tail) :: !bucket
      end)
    ();
  let pairs = Hashtbl.create (Hashtbl.length groups) in
  Hashtbl.iter
    (fun enc bucket ->
      let jp_path = Schema_path.decode enc in
      let fwd_entries =
        List.map (fun (h, t') -> (Codec.u32_to_string h, Codec.u32_to_string t')) !bucket
      in
      let bwd_entries =
        List.map (fun (h, t') -> (Codec.u32_to_string t', Codec.u32_to_string h)) !bucket
      in
      let forward =
        Bptree.bulk_load ~name:("ji_fwd:" ^ enc) pool (List.sort Codec.compare_kv fwd_entries)
      in
      let backward =
        Bptree.bulk_load ~name:("ji_bwd:" ^ enc) pool (List.sort Codec.compare_kv bwd_entries)
      in
      Hashtbl.replace pairs enc { jp_path; forward; backward })
    groups;
  { pairs; catalog; pool }

(** Number of subpath relations; the structure count is twice this. *)
let pair_count t = Hashtbl.length t.pairs

(** All forward/backward trees (fsck support). *)
let trees t = Hashtbl.fold (fun _ p acc -> p.forward :: p.backward :: acc) t.pairs []

let size_bytes t =
  Hashtbl.fold
    (fun _ p acc -> acc + Bptree.size_bytes p.forward + Bptree.size_bytes p.backward)
    t.pairs 0

let find_pair t path = Hashtbl.find_opt t.pairs (Schema_path.encode path)

(** Ends reachable from [start] along subpath [path] (forward lookup). *)
let forward_lookup t ~path ~start =
  match find_pair t path with
  | None -> []
  | Some p ->
    Bptree.lookup_all p.forward (Codec.u32_to_string start)
    |> List.map (fun s -> fst (Codec.read_u32 s 0))

(** Starts that reach [end_] along subpath [path] (backward lookup). *)
let backward_lookup t ~path ~end_ =
  match find_pair t path with
  | None -> []
  | Some p ->
    Bptree.lookup_all p.backward (Codec.u32_to_string end_)
    |> List.map (fun s -> fst (Codec.read_u32 s 0))

(** All (start, end) pairs of subpath [path] (full forward scan). *)
let all_pairs t ~path =
  match find_pair t path with
  | None -> []
  | Some p ->
    List.rev
      (Bptree.fold_range p.forward ~lo:"" ~hi:None
         (fun acc k v -> (fst (Codec.read_u32 k 0), fst (Codec.read_u32 v 0)) :: acc)
         [])

(** Fold over all materialized subpath schema paths. *)
let fold_paths t f acc = Hashtbl.fold (fun _ p acc -> f acc p.jp_path) t.pairs acc

(** Materialized subpath schemas whose first tag is [head_tag] and that
    match [pred] — the relations a bound [//] probe must consider. *)
(* ------------------------------------------------------------------ *)
(* Incremental maintenance                                             *)
(* ------------------------------------------------------------------ *)

(* The (subpath, head, tail) triples one node contributes: one per
   proper ancestor head (the same rows the bulk build groups). *)
let node_pairs (info : Tm_xmldb.Shred.node_info) =
  Path_relation.node_all_rows info
  |> List.filter_map (fun (row : Path_relation.row) ->
         if Option.is_some row.Path_relation.value || row.Path_relation.head = 0 then None
         else
           match List.rev row.Path_relation.idlist with
           | [] -> None
           | tail :: _ -> Some (row.Path_relation.schema, row.Path_relation.head, tail))

(** Index one new node, creating subpath pairs as needed. *)
let insert_node t info =
  List.iter
    (fun (schema, head, tail) ->
      let enc = Schema_path.encode schema in
      let pair =
        match Hashtbl.find_opt t.pairs enc with
        | Some p -> p
        | None ->
          let p =
            {
              jp_path = schema;
              forward = Bptree.create ~name:("ji_fwd:" ^ enc) t.pool;
              backward = Bptree.create ~name:("ji_bwd:" ^ enc) t.pool;
            }
          in
          Hashtbl.replace t.pairs enc p;
          p
      in
      Bptree.insert pair.forward (Codec.u32_to_string head) (Codec.u32_to_string tail);
      Bptree.insert pair.backward (Codec.u32_to_string tail) (Codec.u32_to_string head))
    (node_pairs info)

(** Un-index a node (empty pairs are kept; harmless). *)
let remove_node t info =
  List.iter
    (fun (schema, head, tail) ->
      match Hashtbl.find_opt t.pairs (Schema_path.encode schema) with
      | Some pair ->
        ignore (Bptree.delete pair.forward (Codec.u32_to_string head) (Codec.u32_to_string tail));
        ignore (Bptree.delete pair.backward (Codec.u32_to_string tail) (Codec.u32_to_string head))
      | None -> ())
    (node_pairs info)

let subpaths_from t ~head_tag pred =
  fold_paths t
    (fun acc p ->
      match Schema_path.to_list p with
      | t0 :: _ when t0 = head_tag && pred p -> p :: acc
      | _ -> acc)
    []
