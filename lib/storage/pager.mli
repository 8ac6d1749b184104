(** Simulated disk: a growable array of fixed-size pages with physical
    I/O accounting and per-page CRC32 checksums. It holds the only copy
    of every page; structured access should go through {!Buffer_pool},
    which counts logical reads and residency and writes through. A
    single internal mutex makes every operation domain-safe.

    Failpoint sites (see {!Tm_fault.Fault}): [pager.read],
    [pager.write], [pager.alloc]. Hooks fire before the physical
    counters move, so failed calls are not counted transfers. *)

exception Corrupt_page of { page : int; detail : string }
(** Raised when a page image fails its checksum on read, or when a read
    or write names an unallocated page id. *)

type t

val default_page_size : int
(** 8 KiB. *)

val create : ?page_size:int -> ?checksums:bool -> unit -> t
(** [checksums] (default [true]) controls per-page CRC32 maintenance
    and verification; disable it only to measure its overhead. *)

val page_size : t -> int

val page_count : t -> int

val size_bytes : t -> int
(** Total bytes occupied on the simulated disk. *)

val alloc : t -> int
(** Allocate a fresh zeroed page; returns its id. *)

val read : t -> int -> bytes
(** Physical read of the current image: [read_at ~epoch:max_int].
    Counted on success; returns the installed image itself once it
    matches the stored checksum (a torn or bit-flipped [pager.read]
    fault corrupts a copy, never the image). Installed images are never
    changed in place; the caller must not mutate the result.
    @raise Corrupt_page on an unallocated page id or checksum mismatch.
    @raise Tm_fault.Fault.Io_error when the [pager.read] failpoint
    fires with the [Fail] action. *)

val write : t -> int -> bytes -> bytes
(** Physical write (counted); installs a padded or truncated copy of
    [data] and returns that image, which stays the page's image until
    the next write, abort or test hook replaces it. The checksum
    recorded is that of the intended image, so an injected torn or
    bit-flipped write installs bytes that fail it and leaves the page
    {!damaged}. [data] is not kept.
    @raise Corrupt_page on an unallocated page id. *)

val damaged : t -> int -> bool
(** Whether the page's stored image fails its checksum: a torn or
    bit-flipped [pager.write] fault, or a test hook below, altered it,
    and no write has replaced it since. The buffer pool verifies such a
    page on its next read, resident or not. Costs one atomic load while
    no page is damaged; always [false] when checksums are disabled. *)

val image : t -> int -> bytes
(** The current image, without a copy, a count, a failpoint or a
    checksum: the bytes of a buffer-pool hit. Allocates nothing. The
    caller must not mutate it.
    @raise Corrupt_page on an unallocated page id. *)

val verify_page : t -> int -> bool
(** Offline integrity check: does the stored image match its checksum?
    Bypasses failpoints and I/O accounting. [true] when checksums are
    disabled; [false] for unallocated ids. *)

val unsafe_flip_bit : t -> page:int -> bit:int -> unit
(** Test hook: store a copy of the page image with one bit flipped,
    leaving the sidecar checksum stale — the corruption reads and fsck
    must detect. The page becomes {!damaged}. *)

val unsafe_flip_crc_bit : t -> page:int -> bit:int -> unit
(** Test hook: flip one bit of the stored checksum itself; the page
    becomes {!damaged}. *)

val export : t -> (unit -> 'a) -> 'a * bytes array * int array
(** [export t f] runs [f] under the pager lock with the page images,
    their checksums and the version chains detached from [t], so a
    [Marshal] made by [f] of a structure reaching [t] holds none of
    them, then reattaches them (also when [f] raises). Returns [f]'s
    result with every page's stored image and CRC, page [i] at index
    [i]: the images are not copied, and the caller must not mutate
    them. A {!damaged} page keeps the sidecar CRC its image fails; a
    pager created with [~checksums:false] has its CRCs computed from
    the images. Readers that need page bytes wait for [f]. *)

val install : t -> bytes array -> int array -> unit
(** [install t images crcs] gives a pager that [Marshal] rebuilt from
    a structure {!export} detached its pages from the page store
    [images] under [crcs], one of each per page. The caller has checked
    every image against its CRC: no page is {!damaged} afterwards, and
    the pager has no version chain, pin or transaction.
    @raise Invalid_argument unless both arrays hold {!page_count}
    entries. *)

val reset_stats : t -> unit
val physical_reads : t -> int
val physical_writes : t -> int

(** {1 Epochs, snapshot reads and page-level transactions}

    A single writer may bracket a batch of page writes in a
    transaction: {!begin_txn} reserves epoch [e+1]; every write by the
    writer domain pushes the committed pre-image onto the page's
    version chain and tags the page with the reserved epoch;
    {!commit_txn} publishes the epoch in one atomic step. Readers that
    registered a {!pin} at epoch [e] keep reading the pre-images via
    {!read_at}, so in-flight transactions are invisible to them. *)

val snapshot_active : t -> bool
(** Lock-free hint: [true] iff a transaction is active or some page
    has a non-empty version chain. When [false], {!epoch_of_page}
    checks can be skipped entirely — the read fast path. *)

val epoch_of_page : t -> int -> int
(** Epoch that wrote the current image of the page.
    @raise Corrupt_page on an unallocated page id. *)

val read_at : t -> epoch:int -> int -> bytes
(** Snapshot read: the newest image whose epoch is [<= epoch]. Counted,
    failpointed, checked and returned uncopied like {!read}. The caller
    must hold a {!pin} at that epoch or the needed version may have
    been pruned.
    @raise Corrupt_page if no version covers the requested epoch. *)

val pin : t -> int
(** Register a snapshot pin at the current published epoch and return
    it. Keeps version chains reachable from that epoch alive. *)

val unpin : t -> int -> unit
(** Release one pin at the given epoch; unreachable versions are
    pruned (all of them, once no pins remain). *)

val in_txn : t -> bool
val in_txn_writer : t -> bool
(** [in_txn_writer t] is [true] iff a transaction is active {e and}
    the calling domain is its writer. *)

val begin_txn : t -> int
(** Start a transaction owned by the calling domain; returns the
    reserved epoch.
    @raise Invalid_argument if a transaction is already active. *)

val add_participant : t -> (committed:bool -> unit) -> unit
(** Register a commit/abort callback on the active transaction; runs
    outside the pager lock after the epoch flips (commit) or the
    pre-images are restored (abort).
    @raise Invalid_argument outside a transaction or from a non-writer
    domain. *)

val txn_clean : t -> bool
(** [true] while the active transaction has written no page — aborting
    at this point fully restores state. Registered participants do not
    disqualify: their staging is dropped by the abort. *)

val txn_dirty : t -> (int * int) list
(** Pages written by the active transaction as [(page, crc32 of its
    image)], sorted by page id — the page records to log before commit,
    and what recovery compares a replayed transaction against. No image
    is copied: recovery re-executes the logged operation, so the log
    needs each page's id and CRC, not its bytes. With checksums on, the
    sidecar CRC is returned for every page not {!damaged}; only damaged
    pages, or all pages of a pager without checksums, are checksummed. *)

val commit_txn : t -> unit
(** Publish the reserved epoch, prune version chains against live
    pins, then run participants with [~committed:true]. *)

val abort_txn : t -> unit
(** Restore every touched page to its pre-transaction image (pages
    allocated inside the transaction are re-zeroed) and run
    participants with [~committed:false]. Each restored page gets an
    image other than the one the transaction installed, so no cache
    above the pager needs invalidating: the buffer pool keeps no bytes,
    and a B+-tree serves a decoded node only with the image it was
    decoded from. *)
