(** Query-lifecycle journal: a process-global, fixed-capacity,
    lock-striped ring of structured completion events, one per
    executed query. Recording when disabled costs a single atomic
    load; when enabled, entries land in the stripe selected by
    [trace id mod stripes], so concurrent domains rarely contend.
    Oldest entries are overwritten per stripe. *)

(** How the query ended. *)
type outcome =
  | Completed
  | Timed_out of float  (** the expired deadline, ms *)
  | Failed of string  (** printable form of the escaping exception *)

type entry = {
  j_id : int;  (** trace id (process-unique, monotonically increasing) *)
  j_time : float;  (** wall-clock completion time (Unix epoch seconds) *)
  j_query : string;
  j_shape : string;  (** normalized twig shape (the planner's cache key) *)
  j_requested : string;  (** the planned strategy *)
  j_strategy : string;  (** the strategy that answered (= requested when healthy) *)
  j_reason : string;  (** planner justification *)
  j_fallbacks : (string * string) list;  (** losing plans, oldest first, with why *)
  j_via_naive : bool;
  j_rows : int;
  j_est_rows : int option;  (** the plan's estimated result rows, when planned *)
  j_latency_ms : float;
  j_stats : Tm_exec.Stats.t;  (** the query's cost record: §6 counts, buffer reads, minor words *)
  j_jobs : int;
  j_txn : int;
      (** last durably committed transaction folded into the database
          when the query ran (0 = a database never durably updated) *)
  j_outcome : outcome;
}

val next_id : unit -> int
(** Allocate a fresh trace id. Always cheap (one atomic increment) and
    independent of the enabled flag, so trace ids stay process-unique
    even across enable/disable cycles. *)

(** {1 Journal control} *)

val enabled : unit -> bool
val enable : ?capacity:int -> unit -> unit
(** Enable recording; [capacity] (default 512, spread over the
    stripes) resets the ring when given. Raises [Invalid_argument] on
    a capacity < 1. *)

val disable : unit -> unit

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run with the journal forced on/off, restoring the previous state. *)

val capacity : unit -> int
(** Total entries the ring can hold (rounded up to a stripe multiple). *)

val clear : unit -> unit
(** Drop every entry (capacity unchanged). *)

(** {1 Recording and reading} *)

val record : entry -> unit
(** Append an entry (no-op when disabled). *)

val entries : unit -> entry list
(** Retained entries, oldest first (ordered by trace id). *)

val length : unit -> int

val dropped : unit -> int
(** Entries overwritten by ring wrap-around since the last
    {!enable}/{!clear}. *)

(** {1 Slow-query view} *)

val slow : ?threshold_ms:float -> unit -> entry list
(** Retained entries at or above the latency threshold (default: the
    settable global threshold), slowest first. Timeouts and failures
    always qualify. *)

val slow_threshold_ms : unit -> float
val set_slow_threshold_ms : float -> unit

(** {1 Rendering} *)

val entry_to_string : entry -> string
(** Multi-line operator-facing form: id, latency, outcome, query, the
    winning strategy and each losing plan with its reason. *)

val entry_to_json : entry -> string

val to_json : entry list -> string
(** A JSON array of entries. *)
