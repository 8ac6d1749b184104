(** A twig-indexed XML database: one document (forest), one shared
    storage substrate, and the seven indexing strategies of the paper's
    evaluation built side by side over it.

    Strategies (paper Section 5.1.2):
    - [RP]      — ROOTPATHS index, merge/hash-join plans
    - [DP]      — DATAPATHS index, index-nested-loop-join plans
    - [Edge]    — Edge table with value / forward-link / backward-link indices
    - [DG_edge] — simulated DataGuide for structure + Edge for values/climbs
    - [IF_edge] — simulated Index Fabric for (path, value) + Edge for climbs
    - [Asr]     — Access Support Relations (one relation per rooted schema path)
    - [Ji]      — Join Indices (two B+-trees per subpath schema path) *)

open Tm_storage
open Tm_xmldb
open Tm_index

(* The planner layer owns the strategy enum; this transparent
   re-export keeps [Database.RP] et al. valid for every existing
   caller while letting [Tm_plan] talk about strategies without
   depending on the core. *)
type strategy = Tm_plan.Strategy.t = RP | DP | Edge | DG_edge | IF_edge | Asr | Ji

let all_strategies = Tm_plan.Strategy.all
let strategy_name = Tm_plan.Strategy.name

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
  mutable next_id : int;  (** next node id for subtree insertion *)
  mutable generation : int;  (** index generation (plan-cache invalidation key) *)
  mutable last_txn : int;
      (** highest durably committed transaction id folded into this
          image (0 = never durably updated); maintained by the durable
          write path and marshalled with the snapshot so recovery knows
          which logged transactions are already applied *)
}

(* Generations are process-unique across databases, so the shared plan
   cache can never serve one database's plan to another. *)
let generation_counter = Atomic.make 1
let fresh_generation () = Atomic.fetch_and_add generation_counter 1

(** Build a database over [doc].

    @param strategies which index sets to materialize (default: all).
      The Edge table is always built — it is the base storage format
      (paper Section 5.1) and supplies the planner's value-frequency
      statistics.
    @param pool_capacity buffer-pool frames (default 4096, ~32 MB of
      8 KiB pages — scaled-down analogue of the paper's 40 MB pool).
    @param idlist_codec [`Delta] differential IdList encoding (default)
      or [`Raw] (Section 4.1 ablation) for ROOTPATHS/DATAPATHS.
    @param schema_compressed use the Section 4.2 dictionary-encoded
      schema-path keys for ROOTPATHS/DATAPATHS (disables [//]).
    @param head_filter Section 4.3 HeadId pruning predicate for
      DATAPATHS.
    @param par domain pool for parallel family-index construction
      (entry generation and sorting fan out; ASR/JI builds stay
      sequential). The built indices are byte-identical to a
      sequential build. *)
let create ?(strategies = all_strategies) ?(pool_capacity = 4096) ?(page_size = 8192)
    ?(checksums = true) ?(idlist_codec = `Delta) ?(schema_compressed = false) ?head_filter ?par
    doc =
  let pager = Pager.create ~page_size ~checksums () in
  let pool = Buffer_pool.create ~capacity:pool_capacity pager in
  let dict = Dictionary.create () in
  let catalog = Schema_catalog.build dict doc in
  let edge = Edge_table.build pool dict doc in
  let want s = List.mem s strategies in
  let build_family config =
    Family.build ~idlist_codec ?head_filter ?par ~pool ~dict ~catalog config doc
  in
  let rp_config = if schema_compressed then Family.rootpaths_schema_compressed else Family.rootpaths in
  let dp_config = if schema_compressed then Family.datapaths_schema_compressed else Family.datapaths in
  {
    doc;
    dict;
    catalog;
    pager;
    pool;
    edge;
    rootpaths = (if want RP then Some (build_family rp_config) else None);
    datapaths = (if want DP then Some (build_family dp_config) else None);
    (* IF+Edge plans fall back to the DataGuide for structure-only
       branches (the paper's "best of several plans" for Index Fabric),
       so requesting IF_edge also materializes the DataGuide. *)
    dataguide =
      (if want DG_edge || want IF_edge then Some (build_family Family.dataguide) else None);
    index_fabric = (if want IF_edge then Some (build_family Family.index_fabric) else None);
    asr_rels = (if want Asr then Some (Asr.build ~pool ~dict ~catalog doc) else None);
    ji = (if want Ji then Some (Join_index.build ~pool ~dict ~catalog doc) else None);
    next_id = doc.Tm_xml.Xml_tree.node_count;
    generation = fresh_generation ();
    last_txn = 0;
  }

(** The strategies whose index sets are materialized in [t]. *)
let built_strategies t =
  List.filter
    (fun s ->
      match s with
      | RP -> Option.is_some t.rootpaths
      | DP -> Option.is_some t.datapaths
      | Edge -> true
      | DG_edge -> Option.is_some t.dataguide
      | IF_edge -> Option.is_some t.index_fabric
      | Asr -> Option.is_some t.asr_rels
      | Ji -> Option.is_some t.ji)
    all_strategies

let find_rootpaths t = t.rootpaths

exception Index_not_built of strategy

let () =
  Printexc.register_printer (function
    | Index_not_built s ->
      Some
        (Printf.sprintf
           "Index_not_built(%s): the %s index set was not materialized for this database \
            (pass it in ~strategies to Database.create)"
           (strategy_name s) (strategy_name s))
    | _ -> None)

type built =
  | Built_rootpaths of Family.t
  | Built_datapaths of Family.t
  | Built_edge  (** the Edge table is part of every database *)
  | Built_dataguide of Family.t
  | Built_index_fabric of { fabric : Family.t; dataguide : Family.t }
  | Built_asr of Asr.t
  | Built_ji of Join_index.t

(* The one checked gateway from a strategy to its physical structures:
   callers destructure the result instead of dereferencing options. *)
let require t strategy =
  let need s = function Some x -> x | None -> raise (Index_not_built s) in
  match strategy with
  | RP -> Built_rootpaths (need RP t.rootpaths)
  | DP -> Built_datapaths (need DP t.datapaths)
  | Edge -> Built_edge
  | DG_edge -> Built_dataguide (need DG_edge t.dataguide)
  | IF_edge ->
    Built_index_fabric
      { fabric = need IF_edge t.index_fabric; dataguide = need IF_edge t.dataguide }
  | Asr -> Built_asr (need Asr t.asr_rels)
  | Ji -> Built_ji (need Ji t.ji)

(** Index space attributable to a strategy, in bytes (Figure 9's
    accounting: Edge-based strategies include the Edge table and its
    indices; RP/DP/ASR/JI are the index structures alone). *)
let strategy_size_bytes t strategy =
  match require t strategy with
  | Built_rootpaths f | Built_datapaths f -> Family.size_bytes f
  | Built_edge -> Edge_table.size_bytes t.edge
  | Built_dataguide f -> Edge_table.size_bytes t.edge + Family.size_bytes f
  | Built_index_fabric { fabric; _ } ->
    Edge_table.size_bytes t.edge + Family.size_bytes fabric
  | Built_asr a -> Asr.size_bytes a
  | Built_ji j -> Join_index.size_bytes j

let trees t =
  Edge_table.indices t.edge
  @ List.filter_map (Option.map Family.tree)
      [ t.rootpaths; t.datapaths; t.dataguide; t.index_fabric ]
  @ Option.fold ~none:[] ~some:Asr.trees t.asr_rels
  @ Option.fold ~none:[] ~some:Join_index.trees t.ji

(** Simulate a cold cache: the buffer pool forgets every resident page
    (it holds no bytes, so nothing is written back). {!Persist.load}
    calls it, so a loaded database starts cold. *)
let drop_caches t = Buffer_pool.clear t.pool

let generation t = t.generation

(** The indexes changed (incremental update, rebuild): drop this
    database's cached plans and mint a fresh generation so stale plans
    cannot be served. *)
let note_index_change t =
  Tm_plan.Cache.invalidate ~generation:t.generation;
  t.generation <- fresh_generation ()

let document_stats t =
  let module T = Tm_xml.Xml_tree in
  ( T.element_count t.doc,
    T.value_count t.doc,
    T.depth t.doc,
    Schema_catalog.path_count t.catalog )
