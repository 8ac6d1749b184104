(** Fixed domain pool for fanning independent read-only work across
    OCaml 5 domains: [jobs - 1] worker domains plus the submitting
    domain drain one shared task queue (the submitter helps while it
    waits, so [jobs] tasks run at once and the caller never idles).

    [jobs = 1] spawns no domains and runs everything inline, so
    sequential call sites pay nothing. Pools are reusable and should be
    long-lived relative to the work (a domain spawn costs
    milliseconds).

    The pool schedules; it does not synchronize the work. Closures
    handed to it must only touch concurrency-safe state (the striped
    {!Tm_storage.Buffer_pool}, locked {!Tm_storage.Bptree} decode
    caches, read-only data). *)

type t

type wrap = { wrap : 'a. (unit -> 'a) -> 'a }
(** A wrapper re-installing some captured ambient state around a task
    body on the executing domain. *)

val register_propagator : (unit -> wrap) -> unit
(** Register an ambient-context propagator: [capture] runs at submit
    time on the submitting domain; the {!wrap} it returns is applied
    around the task body on whichever domain executes it. Used by
    layers above to carry domain-local state (e.g. snapshot-epoch pins)
    into the pool without this library depending on them. Global,
    append-only, and meant to be called from module initializers. *)

val create : jobs:int -> t
(** Spawn a pool of [jobs] total execution slots ([jobs - 1] domains).
    @raise Invalid_argument if [jobs < 1]. *)

val jobs : t -> int

val shutdown : t -> unit
(** Drain the queue, stop and join every worker domain. The pool must
    not be used afterwards. Idempotent. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, then {!shutdown} (also on exception). *)

type 'a future

val spawn : t -> (unit -> 'a) -> 'a future
(** Enqueue a task. With [jobs = 1] the task runs inline before
    [spawn] returns. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map]: spawn one task per element, await in order.
    Result order matches input order. The first failed task's exception
    is re-raised after all tasks were submitted. *)

val chunk : pieces:int -> 'a list -> 'a list list
(** Split into at most [pieces] contiguous non-empty slices whose sizes
    differ by at most one. *)

val map_chunked : t -> ('a list -> 'b) -> 'a list -> 'b list
(** Fan a long list of small work items out as [2 * jobs] contiguous
    chunks (two per job, to smooth skew); returns one result per chunk,
    in chunk order. With [jobs = 1], a single chunk processed inline. *)

val env_jobs : unit -> int option
(** [TWIGMATCH_JOBS] as a positive int, if set and well-formed. *)

val default_jobs : unit -> int
(** {!env_jobs}, defaulting to 1. *)
