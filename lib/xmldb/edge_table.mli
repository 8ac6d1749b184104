(** The Edge table storage format with the paper's three "Edge"
    baseline indices (Section 5.1.2): Lore value index, forward link,
    backward link — the degenerate (length-one-path) members of the
    index family. The backward link holds every Edge tuple, keyed by
    node id: it is the Edge relation. *)

type t

val build : Tm_storage.Buffer_pool.t -> Dictionary.t -> Tm_xml.Xml_tree.document -> t

val lookup_value : t -> tag:int -> value:string -> int list
(** Ids of nodes with this tag and leaf value (value-index lookup). *)

val value_cardinality : t -> tag:int -> value:string -> int
(** O(1) from pre-collected statistics (paper Section 5.1.1). *)

val lookup_value_range :
  t -> tag:int -> lo:(string * bool) option -> hi:(string * bool) option -> int list
(** Ids of nodes with this tag whose leaf value lies in the
    lexicographic range (bounds are (value, inclusive); [None] open) —
    one contiguous value-index range scan. *)

val range_cardinality :
  t -> tag:int -> lo:(string * bool) option -> hi:(string * bool) option -> int
(** Range selectivity from the pre-collected statistics. *)

val children_of : t -> parent:int -> tag:int -> int list
(** Forward-link lookup. [parent = 0] is the virtual root. *)

val all_children : t -> parent:int -> int list
(** All children regardless of tag (forward-index prefix scan). *)

val parent_of : t -> int -> (int * int * int) option
(** Backward-link lookup: [(parent_id, parent_tag, own_tag)];
    [parent_tag = -1] under the virtual root. *)

val node_record : t -> int -> (int * int * int * string option) option
(** The full Edge tuple: parent id, parent tag, own tag, leaf value. *)

val node_value : t -> int -> string option
(** Leaf value of a node (one backward-link lookup). *)

val insert_node : t -> Shred.node_info -> unit
(** Incremental maintenance: index one new node. *)

val remove_node : t -> Shred.node_info -> unit
(** Un-index a node from the three indices and the statistics. *)

val size_bytes : t -> int
(** The three indices (the Figure 9 "Edge" column). *)

(** {1 Raw structure access (fsck support)} *)

val indices : t -> Tm_storage.Bptree.t list
(** The value, forward-link and backward-link B+-trees. *)

val expected_entries :
  t -> Dictionary.t -> Tm_xml.Xml_tree.document -> (Tm_storage.Bptree.t * (string * string) list) list
(** Each of {!indices} paired with the sorted (key, payload) multiset
    the Edge tuples of a document give it — exactly [build]'s bulk-load
    input, recomputed. *)
