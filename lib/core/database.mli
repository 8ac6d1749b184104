(** A twig-indexed XML database: one document, one shared storage
    substrate, and the seven indexing strategies of the paper's
    evaluation (Section 5.1.2) built side by side. *)

open Tm_storage
open Tm_xmldb
open Tm_index

type strategy = Tm_plan.Strategy.t =
  | RP  (** ROOTPATHS: merge/hash-join plans *)
  | DP  (** DATAPATHS: index-nested-loop-join plans *)
  | Edge  (** Edge table with value / forward / backward link indices *)
  | DG_edge  (** simulated DataGuide + Edge *)
  | IF_edge  (** simulated Index Fabric + Edge *)
  | Asr  (** Access Support Relations *)
  | Ji  (** Join Indices *)
(** Transparent re-export of {!Tm_plan.Strategy.t}: the planner owns
    the enum, and [Database.RP] and [Tm_plan.Strategy.RP] are the same
    constructor. *)

val all_strategies : strategy list
val strategy_name : strategy -> string

type t = {
  doc : Tm_xml.Xml_tree.document;
  dict : Dictionary.t;
  catalog : Schema_catalog.t;
  pager : Pager.t;
  pool : Buffer_pool.t;
  edge : Edge_table.t;
  rootpaths : Family.t option;
  datapaths : Family.t option;
  dataguide : Family.t option;
  index_fabric : Family.t option;
  asr_rels : Asr.t option;
  ji : Join_index.t option;
  mutable next_id : int;  (** next fresh node id (see {!Updates}) *)
  mutable generation : int;
      (** process-unique index generation: minted at {!create} and by
          {!Persist.load}, bumped by {!note_index_change} — the plan
          cache's invalidation key *)
  mutable last_txn : int;
      (** highest durably committed transaction id folded into this
          image (0 = never durably updated); maintained by
          {!Durable} and marshalled with snapshots *)
}

val create :
  ?strategies:strategy list ->
  ?pool_capacity:int ->
  ?page_size:int ->
  ?checksums:bool ->
  ?idlist_codec:[ `Delta | `Raw ] ->
  ?schema_compressed:bool ->
  ?head_filter:(int -> bool) ->
  ?par:Tm_par.Pool.t ->
  Tm_xml.Xml_tree.document ->
  t
(** Build a database. [strategies] selects which index sets to
    materialize (default all; the Edge table is always built — it is
    the base storage format and supplies planner statistics).
    [checksums] (default true) controls per-page CRC32 verification in
    the underlying {!Pager}; disable only to measure its overhead.
    [idlist_codec], [schema_compressed] and [head_filter] are the
    Section 4 compression options for ROOTPATHS/DATAPATHS. [par]
    parallelizes ROOTPATHS/DATAPATHS/DataGuide/Index-Fabric
    construction across a domain pool; the resulting indices are
    byte-identical to a sequential build. *)

val built_strategies : t -> strategy list
(** The strategies whose index sets are materialized, in
    {!all_strategies} order (always includes [Edge]). *)

(** {1 Index-set access}

    {!require} is the single checked gateway from a strategy to the
    physical structures its plans need. *)

val find_rootpaths : t -> Family.t option
(** [None] when the ROOTPATHS index set was not materialized. *)

exception Index_not_built of strategy
(** A strategy was requested whose index set was not materialized at
    {!create} time. *)

type built =
  | Built_rootpaths of Family.t
  | Built_datapaths of Family.t
  | Built_edge  (** the Edge table is part of every database *)
  | Built_dataguide of Family.t
  | Built_index_fabric of { fabric : Family.t; dataguide : Family.t }
      (** IF+Edge plans fall back to the DataGuide for structure-only
          branches, so both are materialized together *)
  | Built_asr of Asr.t
  | Built_ji of Join_index.t

val require : t -> strategy -> built
(** The physical structures behind [strategy].
    @raise Index_not_built when they were not materialized. *)

val strategy_size_bytes : t -> strategy -> int
(** Index space per strategy, with Figure 9's accounting. *)

val trees : t -> Tm_storage.Bptree.t list
(** Every B+-tree of the database: the Edge table's three indices and
    each built index set's trees. *)

val drop_caches : t -> unit
(** Simulate a cold cache: the buffer pool forgets which pages are
    resident (it holds no page bytes, so nothing is written back).
    B+-tree decoded-node caches are kept. {!Persist.load} calls it, so
    a loaded database starts cold. *)

val generation : t -> int
(** The database's current index generation (see {!note_index_change}). *)

val fresh_generation : unit -> int
(** A generation no database of this process has had; {!Persist.load}
    gives one to every database it loads. *)

val note_index_change : t -> unit
(** Record that the physical indexes changed (incremental update,
    rebuild): drops this database's cached plans from the
    {!Tm_plan.Cache} and mints a fresh generation, so stale plans can
    never be served. *)

val document_stats : t -> int * int * int * int
(** (elements, values, depth, distinct schema paths). *)
