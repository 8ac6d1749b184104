(** The Edge table storage format (Florescu-Kossmann), with the three
    indices the paper uses for the "Edge" baseline (Section 5.1.2):
    the Lore value index, the forward link index, and the backward link
    index.

    The Edge relation — one tuple [(node_id, parent_id, tag,
    leaf_value?)] per element/attribute node — is stored once: the
    backward-link B+-tree holds every tuple, clustered on node id.

    Indices (all B+-trees):
    - value index:    [tag · value]      -> node_id
    - forward link:   [parent_id · tag]  -> node_id
    - backward link:  [node_id]          -> (parent_id, parent_tag, tag, value)

    The backward-link payload carries both the parent's id and both tags
    so that bottom-up climbs can check structural predicates without
    extra lookups — the relational plan would get the same from the Edge
    tuple it just joined with. *)

open Tm_storage

type t = {
  value_index : Bptree.t;
  forward : Bptree.t;
  backward : Bptree.t;
  stats_lock : Lock.t;
      (** guards [value_stats]: incremental maintenance during a durable
          ingest replaces entries while epoch-pinned readers fold over
          the table for selectivity estimates (ticketed {!Lock} so the
          table stays marshal-safe) *)
  value_stats : (string, int) Hashtbl.t;
      (** (tag, value) -> cardinality; the pre-collected statistics of
          paper Section 5.1.1 ("we collected detailed statistics on all
          relations and indices before running our queries"), used by
          the planner's selectivity estimates without touching pages *)
}

let value_key tag value = Dictionary.designator tag ^ Codec.encode_value (Some value)
let forward_key parent_id tag = Codec.u32_to_string parent_id ^ Dictionary.designator tag
let backward_key node_id = Codec.u32_to_string node_id

let backward_payload (info : Shred.node_info) =
  let buf = Buffer.create 8 in
  Codec.add_varint buf info.parent_id;
  Codec.add_signed_varint buf info.parent_tag;
  Codec.add_varint buf info.tag;
  Codec.add_lstring buf (match info.value with None -> "" | Some v -> "\x01" ^ v);
  Buffer.contents buf

let decode_backward s =
  let parent_id, pos = Codec.read_varint s 0 in
  let parent_tag, pos = Codec.read_signed_varint s pos in
  let tag, pos = Codec.read_varint s pos in
  let v, _ = Codec.read_lstring s pos in
  let value = if v = "" then None else Some (String.sub v 1 (String.length v - 1)) in
  (parent_id, parent_tag, tag, value)

(* A node's (key, payload) entry in each index; valued nodes only have
   a value-index entry. *)
let value_entry (info : Shred.node_info) =
  Option.map (fun v -> (value_key info.tag v, Codec.u32_to_string info.id)) info.value

let forward_entry (info : Shred.node_info) =
  (forward_key info.parent_id info.tag, Codec.u32_to_string info.id)

let backward_entry (info : Shred.node_info) = (backward_key info.id, backward_payload info)

(* The sorted entries of the value, forward-link and backward-link
   indices for the Edge tuples of [doc]: [build]'s bulk-load input, and
   fsck's ground truth. *)
let entries_of dict doc =
  let rows = Shred.fold_nodes doc dict (fun acc info -> info :: acc) [] in
  let sorted = List.sort Codec.compare_kv in
  ( sorted (List.filter_map value_entry rows),
    sorted (List.map forward_entry rows),
    sorted (List.map backward_entry rows) )

let bump_stats t key delta =
  Lock.with_lock t.stats_lock (fun () ->
      match Option.value ~default:0 (Hashtbl.find_opt t.value_stats key) + delta with
      | n when n > 0 -> Hashtbl.replace t.value_stats key n
      | _ -> Hashtbl.remove t.value_stats key)

(** Shred [doc] into an Edge table, bulk-loading all three indices. *)
let build pool dict doc =
  let value_entries, forward_entries, backward_entries = entries_of dict doc in
  let t =
    {
      value_index = Bptree.bulk_load ~name:"edge_value" pool value_entries;
      forward = Bptree.bulk_load ~name:"edge_forward" pool forward_entries;
      backward = Bptree.bulk_load ~name:"edge_backward" pool backward_entries;
      stats_lock = Lock.create Lock.Inner;
      value_stats = Hashtbl.create 4096;
    }
  in
  List.iter (fun (key, _) -> bump_stats t key 1) value_entries;
  t

(** The three indices paired with the sorted entries the Edge tuples of
    [doc] give each (fsck support). *)
let expected_entries t dict doc =
  let value_entries, forward_entries, backward_entries = entries_of dict doc in
  [ (t.value_index, value_entries); (t.forward, forward_entries); (t.backward, backward_entries) ]

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

(* Whether the value-index key [key] (designator, encoded value) holds
   a value within the bounds ((value, inclusive); [None] is open). *)
let in_range ~lo ~hi key =
  let within ~is_lo v = function
    | None -> true
    | Some (bv, inc) ->
      let c = String.compare v bv in
      if is_lo then if inc then c >= 0 else c > 0 else if inc then c <= 0 else c < 0
  in
  match Codec.decode_value (String.sub key 2 (String.length key - 2)) with
  | Some v -> within ~is_lo:true v lo && within ~is_lo:false v hi
  | None -> false

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
  List.rev
    (Bptree.fold_range t.value_index ~lo:lo_key ~hi:hi_key
       (fun acc key payload ->
         if in_range ~lo ~hi key then fst (Codec.read_u32 payload 0) :: acc else acc)
       [])

(** Cardinality of a value range for tag [tag], from the pre-collected
    statistics (no page access). *)
let range_cardinality t ~tag ~lo ~hi =
  let prefix = Dictionary.designator tag in
  Lock.with_lock t.stats_lock (fun () ->
      Hashtbl.fold
        (fun key n acc ->
          if String.length key >= 2 && String.sub key 0 2 = prefix && in_range ~lo ~hi key then
            acc + n
          else acc)
        t.value_stats 0)

(** Ids of the children of [parent] with tag [tag] (forward-link
    lookup). *)
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
let insert_node t info =
  Option.iter
    (fun (key, payload) ->
      Bptree.insert t.value_index key payload;
      bump_stats t key 1)
    (value_entry info);
  List.iter
    (fun (tree, (key, payload)) -> Bptree.insert tree key payload)
    [ (t.forward, forward_entry info); (t.backward, backward_entry info) ]

(** Incremental maintenance: un-index a node from all three indices and
    the statistics. *)
let remove_node t info =
  Option.iter
    (fun (key, payload) ->
      ignore (Bptree.delete t.value_index key payload);
      bump_stats t key (-1))
    (value_entry info);
  List.iter
    (fun (tree, (key, payload)) -> ignore (Bptree.delete tree key payload))
    [ (t.forward, forward_entry info); (t.backward, backward_entry info) ]

(** The three link/value B+-trees. *)
let indices t = [ t.value_index; t.forward; t.backward ]

(** Total space of the Edge strategy: the three indices, the backward
    link holding the Edge tuples. *)
let size_bytes t = List.fold_left (fun acc tree -> acc + Bptree.size_bytes tree) 0 (indices t)
