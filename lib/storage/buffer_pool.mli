(** CLOCK buffer pool over a {!Pager}: the paper's fixed-size DB2
    buffer pool analogue, reduced to a record of which pages are
    resident. Logical reads, misses (simulated I/O) and evictions are
    counted.

    The pool holds no page bytes: the pager keeps the one copy of every
    page, a read hands out the image the pager has installed without
    copying it, and every write goes straight through to
    {!Pager.write}. Nothing is written back, flushed or invalidated;
    {!clear} forgets residency.

    Domain-safe via striped locks: frames are partitioned by
    [page id mod stripes], each stripe with its own mutex, CLOCK hand
    and capacity share, so concurrent readers on different pages
    proceed in parallel. *)

type t

val max_attempts : int
(** Bound on attempts per pager operation: transient faults (an
    injected {!Tm_fault.Fault.Io_error} or a {!Pager.Corrupt_page} from
    torn injected bytes) are retried with exponential relax-loop
    backoff up to this many times. When they run out, the last
    {!Pager.Corrupt_page} any attempt raised propagates, else the last
    error. Retries are counted in {!stats} and as
    [buffer_pool.retries]. The [buffer_pool.evict] failpoint fires at
    the head of each eviction and is covered by the same retry. *)

val create : ?capacity:int -> Pager.t -> t
(** [capacity] is a number of frames (default 1024).
    @raise Invalid_argument if capacity < 1. *)

val pager : t -> Pager.t

val read : t -> int -> bytes
(** One logical read, charged to the stripe and to the calling domain's
    query cost record ({!Tm_exec.Stats.current}): the page's image at
    the caller's {!Epoch} pin (its current image for an unpinned caller
    or the transaction's writer), not copied. A version older than the
    current image is read from the pager's version chain, counted as a
    miss and not made resident. A hit takes its stripe's lock, then the
    pager's, and allocates nothing; a hit on a page the pager marks
    {!Pager.damaged} re-reads it with its checksum, which raises
    {!Pager.Corrupt_page}. The bytes must not be mutated; use {!write}
    to modify a page. *)

val resident : t -> int -> bool
(** Whether the page is resident. Not counted as an access. *)

val write : t -> int -> bytes -> bytes
(** Replace a page's contents: the write goes straight through to
    {!Pager.write}, which installs a copy of [data] and, inside a
    transaction, keeps the pre-image for pinned readers. Returns the
    installed image, which {!read} returns to a caller reading the
    current image until another write or an abort replaces it. The
    page becomes resident. Counted as a logical read on the pool, not
    on the query record. *)

val in_txn_writer : t -> bool
(** Passthrough for {!Pager.in_txn_writer} on the underlying pager. *)

val add_participant : t -> (committed:bool -> unit) -> unit
(** Passthrough for {!Pager.add_participant} on the underlying pager. *)

val alloc : t -> int
(** Allocate a fresh zeroed page via the pager; it becomes resident, as
    if written. *)

val clear : t -> unit
(** Forget every resident page — simulates a cold cache. *)

type stats = { logical_reads : int; misses : int; evictions : int; retries : int }

val stats : t -> stats
val reset_stats : t -> unit
