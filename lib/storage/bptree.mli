(** Disk-oriented B+-tree over byte-string keys and payloads — the
    access method realizing every member of the paper's index family.

    - Duplicate keys are allowed; entries with equal keys are returned
      in key order by scans (payload order across leaf boundaries is
      unspecified; {!lookup_all} sorts).
    - Nodes live in fixed-size pages accessed through a {!Buffer_pool},
      so operations incur realistic page costs. A decoded-node cache
      avoids re-parsing buffered pages; I/O accounting is unaffected.
      A cached node is served only while the page image it came from
      is installed, so a page whose image changes below the tree (a
      {!Buffer_pool.write}, an aborted transaction's restore) is
      decoded afresh. A node enters the cache when a read decodes the
      page's current image or a pager transaction writes it, so
      {!bulk_load} leaves it empty.
    - Leaves optionally front-code keys (prefix compression), the
      feature the paper credits for B+-tree space efficiency on path
      keys.
    - Deletion is lazy (no rebalancing).
    - Concurrent {e readers} are safe (the decode cache is locked and
      page reads go through the striped buffer pool). Decoded nodes are
      immutable, so a write never changes a node a reader holds. A
      writer inside a pager transaction may run beside epoch-pinned
      readers, which keep seeing the last committed tree. Outside a
      transaction, a write must still not overlap any other access: a
      split is several page writes, and a reader between them sees a
      half-split tree. *)

type t

val create : ?prefix_compression:bool -> name:string -> Buffer_pool.t -> t
(** Empty tree. [prefix_compression] defaults to [true]. *)

val bulk_load :
  ?prefix_compression:bool ->
  name:string ->
  Buffer_pool.t ->
  (string * string) list ->
  t
(** Bottom-up build from entries sorted by (key, payload); leaves are
    packed to 90% of a page.
    @raise Invalid_argument on unsorted input or an oversized entry. *)

val with_nodes_detached : t list -> (unit -> 'a) -> 'a
(** [with_nodes_detached trees f] runs [f] with every tree's
    decoded-node cache detached, holding each tree's cache lock, so a
    [Marshal] made by [f] holds no decoded node; the caches are
    reattached as they were when [f] returns or raises. A reader of one
    of the trees waits for [f] at its next cache lookup. *)

val name : t -> string
val entry_count : t -> int
val page_count : t -> int
val size_bytes : t -> int
val height : t -> int

val insert : t -> string -> string -> unit
(** Insert an entry. @raise Invalid_argument if the entry cannot fit in
    a quarter page. *)

val delete : t -> string -> string -> bool
(** Remove one entry equal to (key, payload); returns whether one was
    found. *)

val fold_range : t -> lo:string -> hi:string option -> ('a -> string -> string -> 'a) -> 'a -> 'a
(** Fold over entries with [lo <= key < hi] in key order ([hi = None]
    is unbounded). *)

val fold_prefix : t -> prefix:string -> ('a -> string -> string -> 'a) -> 'a -> 'a
(** Fold over entries whose key starts with [prefix] — the B+-tree
    prefix scan behind the paper's reversed-schema-path [//] support. *)

val lookup_all : t -> string -> string list
(** Sorted payloads of all entries with exactly this key. *)

val lookup_first : t -> string -> string option
val count_range : t -> lo:string -> hi:string option -> int
val count_prefix : t -> prefix:string -> int

val to_list : t -> (string * string) list
(** All entries in key order. *)

(** {1 Raw page views}

    Fsck support: the offline verifier ({!Tm_check.Check}) must read
    what is actually stored, bypassing the decoded-node cache, and
    re-encode it to verify the front-coding round-trip. *)

type view =
  | Leaf_view of { entries : (string * string) array; next : int option (** next leaf page *) }
  | Internal_view of { keys : string array; children : int array }

val root_page : t -> int
val pool : t -> Buffer_pool.t

val page_image : t -> int -> string
(** The stored page image, as the pager holds it (zero-padded to the
    page size). @raise Invalid_argument on a bad page id. *)

val view_page : t -> int -> (view, string) result
(** Decode a stored page image afresh (no cache). [Error] carries the
    decoder's complaint for undecodable images. *)

val encode_view : t -> view -> string
(** Canonical encoding of a view under this tree's settings — what the
    page image must equal (up to zero padding) if storage is sound. *)
