(** Access Support Relations (Kemper-Moerkotte), adapted to XML as the
    paper does in Section 5.2.6: one relation per distinct rooted schema
    path present in the data (the ad-hoc-query configuration — "902 and
    235 tables for XMark and DBLP"), each holding the full tuple of node
    ids along the path.

    Differences from DATAPATHS that the paper calls out, and that this
    implementation preserves:
    - schema is encoded as the {e relation name} (here: which tree you
      open), so a [//] pattern must visit one structure per matching
      schema path, and the number of structures accessed is linear in
      the number of matching paths;
    - id columns are separate relational columns, so IdLists cannot be
      differentially encoded: payloads use the raw fixed-width codec.

    Each relation is a single B+-tree keyed on the leaf value (null
    sorts first), payload = the raw id tuple. *)

open Tm_storage
open Tm_xmldb

type relation = { rel_path : Schema_path.t; rel_tree : Bptree.t }

type t = {
  relations : (string, relation) Hashtbl.t; (* encoded rooted path -> relation *)
  catalog : Schema_catalog.t;
  pool : Buffer_pool.t; (* kept so updates can materialize new relations *)
}

let build ~pool ~dict ~catalog doc =
  (* Group root rows by schema path, then bulk load one tree per path. *)
  let groups : (string, (string * string) list ref) Hashtbl.t = Hashtbl.create 256 in
  Path_relation.fold_root_rows doc dict
    (fun () (row : Path_relation.row) ->
      let enc = Schema_path.encode row.Path_relation.schema in
      let bucket =
        match Hashtbl.find_opt groups enc with
        | Some b -> b
        | None ->
          let b = ref [] in
          Hashtbl.replace groups enc b;
          b
      in
      let key = Codec.encode_value row.Path_relation.value in
      let payload = Codec.idlist_raw_to_string row.Path_relation.idlist in
      bucket := (key, payload) :: !bucket)
    ();
  let relations = Hashtbl.create (Hashtbl.length groups) in
  Hashtbl.iter
    (fun enc bucket ->
      let rel_path = Schema_path.decode enc in
      let name = "asr:" ^ enc in
      let rel_tree = Bptree.bulk_load ~name pool (List.sort Codec.compare_kv !bucket) in
      Hashtbl.replace relations enc { rel_path; rel_tree })
    groups;
  { relations; catalog; pool }

(** Number of materialized relations (the paper's table count). *)
let relation_count t = Hashtbl.length t.relations

(** All relation trees (fsck support). *)
let trees t = Hashtbl.fold (fun _ r acc -> r.rel_tree :: acc) t.relations []

let size_bytes t =
  Hashtbl.fold (fun _ r acc -> acc + Bptree.size_bytes r.rel_tree) t.relations 0

let find_relation t path = Hashtbl.find_opt t.relations (Schema_path.encode path)

(* A relation scan is one structure accessed and one index lookup on
   the calling domain's query cost record, and each tuple handed to the
   caller one entry scanned. *)
let charged f =
  let q = Tm_exec.Stats.current () in
  q.Tm_exec.Stats.structures_accessed <- q.Tm_exec.Stats.structures_accessed + 1;
  q.Tm_exec.Stats.index_lookups <- q.Tm_exec.Stats.index_lookups + 1;
  fun acc ids ->
    q.Tm_exec.Stats.entries_scanned <- q.Tm_exec.Stats.entries_scanned + 1;
    f acc ids

(** Fold over the id tuples of relation [path] whose leaf value matches
    [value] ([Some None] = structural rows, [None] = all rows — a full
    relation scan). Each tuple is the rooted id list [i1..ik]. *)
let scan_relation t ~path ?value f acc =
  let f = charged f in
  match find_relation t path with
  | None -> acc
  | Some rel ->
    let fold_f acc _key payload = f acc (Codec.idlist_raw_of_string payload) in
    (match value with
    | None ->
      (* all rows; structural (null) rows duplicate value rows' tuples,
         so restrict to null rows to see each instance once *)
      Bptree.fold_range rel.rel_tree ~lo:"" ~hi:(Some "\x01") fold_f acc
    | Some v ->
      let key = Codec.encode_value v in
      Bptree.fold_range rel.rel_tree ~lo:key ~hi:(Some (key ^ "\x00")) fold_f acc)

(** Fold over the id tuples of relation [path] whose leaf value lies in
    the lexicographic range (bounds are (value, inclusive); [None] is
    open) — one contiguous scan of the value-ordered relation. *)
let scan_relation_range t ~path ~lo ~hi f acc =
  let f = charged f in
  match find_relation t path with
  | None -> acc
  | Some rel ->
    let lo_key =
      match lo with Some (v, _) -> Codec.encode_value (Some v) | None -> "\x02"
    in
    let hi_key =
      match hi with
      | Some (v, _) -> Codec.prefix_successor (Codec.encode_value (Some v))
      | None -> None
    in
    let in_bound ~is_lo b v =
      match b with
      | None -> true
      | Some (bv, inc) ->
        let c = String.compare v bv in
        if is_lo then if inc then c >= 0 else c > 0 else if inc then c <= 0 else c < 0
    in
    Bptree.fold_range rel.rel_tree ~lo:lo_key ~hi:hi_key
      (fun acc key payload ->
        match Codec.decode_value key with
        | Some v when in_bound ~is_lo:true lo v && in_bound ~is_lo:false hi v ->
          f acc (Codec.idlist_raw_of_string payload)
        | Some _ | None -> acc)
      acc

(** Rooted schema paths (catalog entries) ending in [suffix] — the
    relations a [//]-headed pattern must visit. *)
let matching_paths t suffix = Schema_catalog.paths_with_suffix t.catalog suffix

(* ------------------------------------------------------------------ *)
(* Incremental maintenance                                             *)
(* ------------------------------------------------------------------ *)

let rows_of_node (info : Tm_xmldb.Shred.node_info) = Path_relation.node_root_rows info

(** Index one new node, creating its relation if the rooted schema path
    is new. *)
let insert_node t info =
  List.iter
    (fun (row : Path_relation.row) ->
      let enc = Schema_path.encode row.Path_relation.schema in
      let rel =
        match Hashtbl.find_opt t.relations enc with
        | Some r -> r
        | None ->
          let r =
            { rel_path = row.Path_relation.schema; rel_tree = Bptree.create ~name:("asr:" ^ enc) t.pool }
          in
          Hashtbl.replace t.relations enc r;
          r
      in
      Bptree.insert rel.rel_tree
        (Codec.encode_value row.Path_relation.value)
        (Codec.idlist_raw_to_string row.Path_relation.idlist))
    (rows_of_node info)

(** Un-index a node (empty relations are kept; harmless). *)
let remove_node t info =
  List.iter
    (fun (row : Path_relation.row) ->
      match Hashtbl.find_opt t.relations (Schema_path.encode row.Path_relation.schema) with
      | Some rel ->
        ignore
          (Bptree.delete rel.rel_tree
             (Codec.encode_value row.Path_relation.value)
             (Codec.idlist_raw_to_string row.Path_relation.idlist))
      | None -> ())
    (rows_of_node info)
