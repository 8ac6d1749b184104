(** The Edge table storage format (Florescu-Kossmann), with the three
    indices the paper uses for the "Edge" baseline (Section 5.1.2):
    the Lore value index, the forward link index, and the backward link
    index.

    Base relation: one record per element/attribute node —
    [(node_id, parent_id, tag, leaf_value?)] in a heap file.

    Indices (all B+-trees):
    - value index:    [tag · value]      -> node_id
    - forward link:   [parent_id · tag]  -> node_id
    - backward link:  [node_id]          -> (parent_id, parent_tag, tag)

    The backward-link payload carries both the parent's id and both tags
    so that bottom-up climbs can check structural predicates without
    extra lookups — the relational plan would get the same from the Edge
    tuple it just joined with. *)

open Tm_storage

type t = {
  heap : Heap_file.t;
  value_index : Bptree.t;
  forward : Bptree.t;
  backward : Bptree.t;
  mutable n_nodes : int;
  stats_lock : Lock.t;
      (** guards [n_nodes] and [value_stats]: incremental maintenance
          during a durable ingest replaces entries while epoch-pinned
          readers fold over the table for selectivity estimates
          (ticketed {!Lock} so the table stays marshal-safe) *)
  value_stats : (string, int) Hashtbl.t;
      (** (tag, value) -> cardinality; the pre-collected statistics of
          paper Section 5.1.1 ("we collected detailed statistics on all
          relations and indices before running our queries"), used by
          the planner's selectivity estimates without touching pages *)
}

let encode_record info =
  let buf = Buffer.create 32 in
  Codec.add_varint buf info.Shred.id;
  Codec.add_varint buf info.Shred.parent_id;
  Codec.add_varint buf info.Shred.tag;
  Codec.add_lstring buf (match info.Shred.value with None -> "" | Some v -> "\x01" ^ v);
  Buffer.contents buf

let value_key tag value = Dictionary.designator tag ^ Codec.encode_value (Some value)
let forward_key parent_id tag = Codec.u32_to_string parent_id ^ Dictionary.designator tag
let backward_key node_id = Codec.u32_to_string node_id

let backward_payload ~parent_id ~parent_tag ~tag ~value =
  let buf = Buffer.create 8 in
  Codec.add_varint buf parent_id;
  Codec.add_signed_varint buf parent_tag;
  Codec.add_varint buf tag;
  Codec.add_lstring buf (match value with None -> "" | Some v -> "\x01" ^ v);
  Buffer.contents buf

let decode_backward s =
  let parent_id, pos = Codec.read_varint s 0 in
  let parent_tag, pos = Codec.read_signed_varint s pos in
  let tag, pos = Codec.read_varint s pos in
  let v, _ = Codec.read_lstring s pos in
  let value = if v = "" then None else Some (String.sub v 1 (String.length v - 1)) in
  (parent_id, parent_tag, tag, value)

(** Shred [doc] into an Edge table, bulk-loading all three indices. *)
let build pool dict doc =
  let rows = Shred.fold_nodes doc dict (fun acc info -> info :: acc) [] in
  let heap = Heap_file.build ~name:"edge_heap" pool (List.rev_map encode_record rows) in
  let n_nodes = List.length rows in
  let node_payload id = Codec.u32_to_string id in
  let value_entries =
    List.filter_map
      (fun info ->
        match info.Shred.value with
        | None -> None
        | Some v -> Some (value_key info.Shred.tag v, node_payload info.Shred.id))
      rows
  in
  let forward_entries =
    List.map
      (fun info -> (forward_key info.Shred.parent_id info.Shred.tag, node_payload info.Shred.id))
      rows
  in
  let backward_entries =
    List.map
      (fun info ->
        ( backward_key info.Shred.id,
          backward_payload ~parent_id:info.Shred.parent_id ~parent_tag:info.Shred.parent_tag
            ~tag:info.Shred.tag ~value:info.Shred.value ))
      rows
  in
  let value_stats = Hashtbl.create 4096 in
  List.iter
    (fun (key, _) ->
      Hashtbl.replace value_stats key
        (1 + Option.value ~default:0 (Hashtbl.find_opt value_stats key)))
    value_entries;
  let sorted = List.sort Codec.compare_kv in
  {
    heap;
    value_index = Bptree.bulk_load ~name:"edge_value" pool (sorted value_entries);
    forward = Bptree.bulk_load ~name:"edge_forward" pool (sorted forward_entries);
    backward = Bptree.bulk_load ~name:"edge_backward" pool (sorted backward_entries);
    n_nodes;
    stats_lock = Lock.create Lock.Inner;
    value_stats;
  }

let node_count t = Lock.with_lock t.stats_lock (fun () -> t.n_nodes)

(** Ids of nodes with tag [tag] and leaf value [value] (value index lookup). *)
let lookup_value t ~tag ~value =
  Bptree.lookup_all t.value_index (value_key tag value)
  |> List.map (fun p -> fst (Codec.read_u32 p 0))

(** Number of nodes with tag [tag] and value [value] — the selectivity
    statistic the planner uses. O(1): answered from pre-collected
    statistics, not from the index itself. *)
let value_cardinality t ~tag ~value =
  let key = value_key tag value in
  Lock.with_lock t.stats_lock (fun () ->
      Option.value ~default:0 (Hashtbl.find_opt t.value_stats key))

(** Ids of nodes with tag [tag] whose leaf value lies in the given
    lexicographic range (bounds are (value, inclusive); [None] is
    open). One contiguous value-index range scan plus a bound
    post-filter for prefix-extension false positives. *)
let lookup_value_range t ~tag ~lo ~hi =
  let prefix = Dictionary.designator tag in
  let lo_key =
    match lo with
    | Some (v, _) -> prefix ^ Codec.encode_value (Some v)
    | None -> prefix ^ "\x02"
  in
  let hi_key =
    match hi with
    | Some (v, _) -> Codec.prefix_successor (prefix ^ Codec.encode_value (Some v))
    | None -> Codec.prefix_successor prefix
  in
  let in_bound ~is_lo b v =
    match b with
    | None -> true
    | Some (bv, inc) ->
      let c = String.compare v bv in
      if is_lo then if inc then c >= 0 else c > 0 else if inc then c <= 0 else c < 0
  in
  List.rev
    (Bptree.fold_range t.value_index ~lo:lo_key ~hi:hi_key
       (fun acc key payload ->
         match Codec.decode_value (String.sub key 2 (String.length key - 2)) with
         | Some v when in_bound ~is_lo:true lo v && in_bound ~is_lo:false hi v ->
           fst (Codec.read_u32 payload 0) :: acc
         | Some _ | None -> acc)
       [])

(** Cardinality of a value range for tag [tag], from the pre-collected
    statistics (no page access). *)
let range_cardinality t ~tag ~lo ~hi =
  let prefix = Dictionary.designator tag in
  let in_bound ~is_lo b v =
    match b with
    | None -> true
    | Some (bv, inc) ->
      let c = String.compare v bv in
      if is_lo then if inc then c >= 0 else c > 0 else if inc then c <= 0 else c < 0
  in
  Lock.with_lock t.stats_lock (fun () ->
      Hashtbl.fold
        (fun key n acc ->
          if String.length key >= 2 && String.sub key 0 2 = prefix then
            match Codec.decode_value (String.sub key 2 (String.length key - 2)) with
            | Some v when in_bound ~is_lo:true lo v && in_bound ~is_lo:false hi v -> acc + n
            | Some _ | None -> acc
          else acc)
        t.value_stats 0)

(** Number of nodes with tag [tag] (any value) under any parent. *)
let children_of t ~parent ~tag =
  Bptree.lookup_all t.forward (forward_key parent tag)
  |> List.map (fun p -> fst (Codec.read_u32 p 0))

(** All children of [parent] regardless of tag (forward-index prefix
    scan) — the access path a relational engine would use to expand a
    [//] step downwards. *)
let all_children t ~parent =
  List.rev
    (Bptree.fold_prefix t.forward ~prefix:(Codec.u32_to_string parent)
       (fun acc _ p -> fst (Codec.read_u32 p 0) :: acc)
       [])

(** Parent of [node]: [(parent_id, parent_tag, own_tag)]. *)
let parent_of t node =
  match Bptree.lookup_first t.backward (backward_key node) with
  | None -> None
  | Some p ->
    let parent_id, parent_tag, tag, _ = decode_backward p in
    Some (parent_id, parent_tag, tag)

(** The Edge tuple of [node]: [(parent_id, parent_tag, own_tag,
    leaf_value)] — one backward-link lookup. *)
let node_record t node =
  Option.map decode_backward (Bptree.lookup_first t.backward (backward_key node))

(** Leaf value of [node] (one backward-link lookup). *)
let node_value t node =
  match node_record t node with Some (_, _, _, v) -> v | None -> None

(** Incremental maintenance: index one new node. *)
let insert_node t (info : Shred.node_info) =
  ignore (Heap_file.append t.heap (encode_record info));
  let id_payload = Codec.u32_to_string info.Shred.id in
  (match info.Shred.value with
  | Some v ->
    let key = value_key info.Shred.tag v in
    Bptree.insert t.value_index key id_payload;
    Lock.with_lock t.stats_lock (fun () ->
        Hashtbl.replace t.value_stats key
          (1 + Option.value ~default:0 (Hashtbl.find_opt t.value_stats key)))
  | None -> ());
  Bptree.insert t.forward (forward_key info.Shred.parent_id info.Shred.tag) id_payload;
  Bptree.insert t.backward (backward_key info.Shred.id)
    (backward_payload ~parent_id:info.Shred.parent_id ~parent_tag:info.Shred.parent_tag
       ~tag:info.Shred.tag ~value:info.Shred.value);
  Lock.with_lock t.stats_lock (fun () -> t.n_nodes <- t.n_nodes + 1)

(** Incremental maintenance: un-index a node. The heap record remains
    as a tombstone (heap space is reclaimed on rebuild); all three
    indices and the statistics are updated. *)
let remove_node t (info : Shred.node_info) =
  let id_payload = Codec.u32_to_string info.Shred.id in
  (match info.Shred.value with
  | Some v ->
    let key = value_key info.Shred.tag v in
    ignore (Bptree.delete t.value_index key id_payload);
    Lock.with_lock t.stats_lock (fun () ->
        match Hashtbl.find_opt t.value_stats key with
        | Some n when n > 1 -> Hashtbl.replace t.value_stats key (n - 1)
        | Some _ -> Hashtbl.remove t.value_stats key
        | None -> ())
  | None -> ());
  ignore (Bptree.delete t.forward (forward_key info.Shred.parent_id info.Shred.tag) id_payload);
  ignore
    (Bptree.delete t.backward (backward_key info.Shred.id)
       (backward_payload ~parent_id:info.Shred.parent_id ~parent_tag:info.Shred.parent_tag
          ~tag:info.Shred.tag ~value:info.Shred.value));
  Lock.with_lock t.stats_lock (fun () -> t.n_nodes <- t.n_nodes - 1)

(** The three link/value B+-trees (fsck support). *)
let indices t = [ t.value_index; t.forward; t.backward ]

(** The base heap file (fsck support). *)
let heap t = t.heap

(** Total space of the Edge strategy: heap + the three indices. *)
let size_bytes t =
  Heap_file.size_bytes t.heap + Bptree.size_bytes t.value_index + Bptree.size_bytes t.forward
  + Bptree.size_bytes t.backward
