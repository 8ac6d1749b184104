(** Admission counter: the bounded-admission primitive under the
    serving layer. It holds [capacity] permits; a connection (or any
    other unit of work) holds one permit from admission to completion,
    so [capacity] bounds the number simultaneously inside — executing
    or queued — and {!try_acquire} failing {e is} the load-shedding
    signal.

    Domain-safe: one atomic counter. Nothing blocks on a permit;
    {!await_idle} polls at ~1 ms granularity, plenty for a drain. *)

type t

val create : int -> t
(** A counter with that many permits (0 is allowed: every acquisition
    fails — a drained/closed gate).
    @raise Invalid_argument on a negative capacity. *)

val in_use : t -> int

val try_acquire : t -> bool
(** Take a permit if one is free; never blocks. *)

val release : t -> unit
(** Return a permit.
    @raise Invalid_argument when no permit is held (a release/acquire
    pairing bug, not a recoverable condition). *)

val await_idle : timeout_ms:float -> t -> bool
(** Wait (polling) until every permit is free — how graceful drain
    waits for in-flight requests. Returns [false] if [timeout_ms]
    elapsed first. *)
