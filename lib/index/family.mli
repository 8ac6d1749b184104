(** The unified family of path indices (paper Section 3, Figure 3).

    A member stores a subset of the 4-ary relation's schema paths, a
    sublist of each IdList, and indexes a choice of columns. ROOTPATHS,
    DATAPATHS, the DataGuide and the Index Fabric are provided as
    configurations; the Section 4 compressions are build options. *)

type path_subset =
  | Root_prefixes  (** prefixes of root-to-leaf paths (head = virtual root) *)
  | Root_to_leaf_only  (** only paths reaching a leaf value *)
  | All_subpaths  (** every (ancestor-or-self head, descendant) subpath *)

type id_sublist = Last_id | First_id | Full_idlist

type component =
  | Head  (** fixed-width big-endian head id *)
  | Value  (** escaped leaf value; null = empty component *)
  | Schema_fwd  (** designators, root-to-leaf order *)
  | Schema_rev  (** designators, leaf-to-root order (suffix matching) *)
  | Schema_id  (** catalog path id (Section 4.2); no [//] support *)

type config = {
  cfg_name : string;
  paths : path_subset;
  ids : id_sublist;
  key : component list;
}

val dataguide : config
val index_fabric : config
val rootpaths : config
val datapaths : config
val rootpaths_schema_compressed : config
val datapaths_schema_compressed : config

type t

val build :
  ?idlist_codec:[ `Delta | `Raw ] ->
  ?prefix_compression:bool ->
  ?head_filter:(int -> bool) ->
  ?id_keep:(Tm_xmldb.Path_relation.row -> int list -> int list) ->
  ?par:Tm_par.Pool.t ->
  pool:Tm_storage.Buffer_pool.t ->
  dict:Tm_xmldb.Dictionary.t ->
  catalog:Tm_xmldb.Schema_catalog.t ->
  config ->
  Tm_xml.Xml_tree.document ->
  t
(** Build a family member. [idlist_codec] selects the Section 4.1
    encoding ([`Delta] default); [prefix_compression] (default true)
    toggles B+-tree leaf front-coding — the DB2 feature the paper
    credits for key-space efficiency; [head_filter] implements Section 4.3
    HeadId pruning (the virtual root is always kept); [id_keep]
    implements Section 4.1 IdList pruning. [par] parallelizes entry
    generation and sorting across the pool's domains (node-partitioned
    sorted runs, merged before the bulk load — the result is
    byte-identical to the sequential build). *)

val tree : t -> Tm_storage.Bptree.t
val config : t -> config
val size_bytes : t -> int
val entry_count : t -> int

val insert_node : t -> Tm_xmldb.Shred.node_info -> unit
(** Incremental maintenance (paper Section 7): add the rows one node
    contributes under this member's layout, respecting the build-time
    compression options. *)

val remove_node : t -> Tm_xmldb.Shred.node_info -> unit

(** {1 Probing} *)

type schema_probe =
  | Exact of Tm_xmldb.Schema_path.t  (** full head-anchored path *)
  | Suffix of Tm_xmldb.Schema_path.t  (** paths ending with these tags ([//]) *)
  | Any_schema

type hit = {
  h_schema : Tm_xmldb.Schema_path.t;
  h_value : string option;
  h_ids : int list;  (** the stored id sublist *)
}

exception Unsupported of string
(** The member's key layout cannot answer this probe shape (e.g. a
    [Suffix] probe on forward or dictionary-encoded schema keys, or a
    missing head on a head-keyed member). *)

val scan :
  t ->
  ?head:int ->
  ?value:string option ->
  schema:schema_probe ->
  ('a -> hit -> 'a) ->
  'a ->
  'a
(** One index lookup. [~value:(Some v)] selects value rows, [~value:None]
    the structural (null) rows; omitting it leaves the value
    unconstrained. The lookup and every hit passed to the fold are
    charged to the calling domain's {!Tm_exec.Stats.current} record
    ([index_lookups], [entries_scanned]).
    @raise Unsupported per the member's layout. *)

type vbound = string * bool
(** One bound of a value-range probe: (value, inclusive). *)

val scan_value_range :
  t ->
  ?head:int ->
  lo:vbound option ->
  hi:vbound option ->
  schema:schema_probe ->
  ('a -> hit -> 'a) ->
  'a ->
  'a
(** Range scan over the [Value] component (lexicographic bounds) — the
    "complex conditions on values" extension of paper Section 7,
    contiguous thanks to value-first key order. Charged like {!scan}.
    @raise Unsupported when the member's key lacks a [Value] component. *)

(** {1 Fsck support}

    Decoders and the recomputable ground truth that let {!Tm_check.Check}
    verify a member entry by entry without going through the scan API. *)

val decode_entry_key : t -> string -> int option * string option * Tm_xmldb.Schema_path.t
(** Decode a stored key into (head, value, schema) per the member's
    layout. @raise Invalid_argument on a malformed key. *)

val decode_idlist : t -> string -> int list
(** Decode a stored payload under the member's IdList codec. *)

val encode_idlist : t -> int list -> string
(** Canonical payload encoding (re-encode round-trip checks). *)

val expected_entries :
  t -> dict:Tm_xmldb.Dictionary.t -> Tm_xml.Xml_tree.document -> (string * string) list
(** The sorted (key, payload) multiset the member must hold for a
    document under its layout and pruning options — exactly [build]'s
    bulk-load input, recomputed. *)
