(** Incremental subtree insertion and deletion with maintenance of
    every built index — the paper's Section 7 future work. Lookup of
    affected entries uses indexed ancestor climbs (O(depth)), per the
    paper's own suggestion; the per-structure write cost is exactly the
    update overhead the paper warns about (ROOTPATHS: one entry per new
    rooted path prefix; DATAPATHS: one per new subpath). *)

exception Writer_conflict of string
(** A second writer: an update on a database a live {!Durable} handle
    owns, from outside that handle, or a second live handle on the same
    database or directory. *)

val insert_subtree : Database.t -> parent:int -> Tm_xml.Xml_tree.node -> int
(** Attach a subtree as the last child of node [parent]; assigns fresh
    ids, updates document, Edge table, catalog, statistics and every
    built index; returns the subtree root's new id.
    @raise Invalid_argument for the virtual root, an unknown parent, or
    a value-leaf subtree root.
    @raise Writer_conflict when a live {!Durable} handle owns the database. *)

val delete_subtree : Database.t -> int -> int
(** Detach the subtree rooted at a node id, removing its entries from
    every built index; returns the number of element/attribute nodes
    removed.
    @raise Invalid_argument for a document root or an unknown id.
    @raise Writer_conflict as {!insert_subtree}. *)

val claim_durable : dir:string -> Database.t -> unit
(** Register a durable handle's directory (canonical path) and database
    ({!Durable} calls this).
    @raise Writer_conflict when a live handle has either. *)

val release_durable : Database.t -> unit
(** Drop the database's registration (idempotent). *)
