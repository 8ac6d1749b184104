(** Access Support Relations baseline (paper Section 5.2.6): one
    relation per distinct rooted schema path, holding raw
    (uncompressed) id tuples; [//] patterns must visit one structure
    per matching path. *)

type t

val build :
  pool:Tm_storage.Buffer_pool.t ->
  dict:Tm_xmldb.Dictionary.t ->
  catalog:Tm_xmldb.Schema_catalog.t ->
  Tm_xml.Xml_tree.document ->
  t

val relation_count : t -> int
(** The paper's "tables" count (902 / 235). *)

val trees : t -> Tm_storage.Bptree.t list
(** All relation B+-trees (fsck support). *)

val size_bytes : t -> int

val scan_relation :
  t ->
  path:Tm_xmldb.Schema_path.t ->
  ?value:string option ->
  ('a -> int list -> 'a) ->
  'a ->
  'a
(** Fold over the rooted id tuples of one relation. [~value:(Some v)]
    selects tuples whose leaf value is [v]; [~value:None] the
    structural rows; omitting scans every instance once. The scan is
    charged to the calling domain's {!Tm_exec.Stats.current} record:
    one structure, one index lookup, one entry per tuple folded. *)

val matching_paths : t -> Tm_xmldb.Schema_path.t -> Tm_xmldb.Schema_catalog.entry list
(** Rooted paths ending in the suffix — the relations a [//] pattern
    visits. *)

val insert_node : t -> Tm_xmldb.Shred.node_info -> unit
(** Incremental maintenance: index one new node, creating its relation
    if the rooted schema path is new. *)

val remove_node : t -> Tm_xmldb.Shred.node_info -> unit

val scan_relation_range :
  t ->
  path:Tm_xmldb.Schema_path.t ->
  lo:(string * bool) option ->
  hi:(string * bool) option ->
  ('a -> int list -> 'a) ->
  'a ->
  'a
(** Fold over the tuples of one relation whose leaf value lies in the
    lexicographic range — one contiguous scan, charged like
    {!scan_relation}. *)
