(** Join Indices baseline (paper Section 5.2.6): per distinct subpath
    schema path, a pair of B+-trees — forward (start -> end) and
    backward (end -> start). Two structures per subpath is why JI is
    the most space-hungry strategy (Figure 9); intermediate nodes
    require one extra lookup per position. *)

type t

val build :
  pool:Tm_storage.Buffer_pool.t ->
  dict:Tm_xmldb.Dictionary.t ->
  catalog:Tm_xmldb.Schema_catalog.t ->
  Tm_xml.Xml_tree.document ->
  t

val pair_count : t -> int
(** Subpath relations; structure count is twice this. *)

val trees : t -> Tm_storage.Bptree.t list
(** All forward/backward B+-trees (fsck support). *)

val size_bytes : t -> int

val forward_lookup : t -> path:Tm_xmldb.Schema_path.t -> start:int -> int list
(** Ends reachable from [start] along the subpath. *)

val backward_lookup : t -> path:Tm_xmldb.Schema_path.t -> end_:int -> int list
(** Starts reaching [end_] along the subpath (at most one per end). *)

val all_pairs : t -> path:Tm_xmldb.Schema_path.t -> (int * int) list

val fold_paths : t -> ('a -> Tm_xmldb.Schema_path.t -> 'a) -> 'a -> 'a

val subpaths_from :
  t -> head_tag:int -> (Tm_xmldb.Schema_path.t -> bool) -> Tm_xmldb.Schema_path.t list
(** Materialized subpaths starting with [head_tag] and satisfying the
    predicate — the relations a bound [//] probe considers. *)

val insert_node : t -> Tm_xmldb.Shred.node_info -> unit
(** Incremental maintenance: index one new node, creating subpath pairs
    as needed. *)

val remove_node : t -> Tm_xmldb.Shred.node_info -> unit
