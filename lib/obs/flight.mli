(** Always-on flight recorder: per-domain, lock-free rings of typed,
    nanosecond-stamped events, snapshotted seqlock-style. [Tm_wal.Blackbox]
    writes the snapshots as CRC-framed post-mortem dumps.

    Disabled by default; every {!emit} costs exactly one atomic load
    when off (the {!Obs} contract). When on, recording is one slot
    store plus one atomic counter bump on the emitting domain's own
    ring — no locks, no contention, safe on any hot path that can
    afford a clock read. *)

(** {1 Event vocabulary} *)

type kind =
  | Span_begin  (** trace-root span opened; [detail] = span name *)
  | Span_end  (** trace-root span closed; [detail] = span name, [a] = elapsed ns *)
  | Query_begin  (** [a] = jobs *)
  | Query_end  (** [a] = rows, [b] = replans *)
  | Replan  (** [a] = replan ordinal, [detail] = planner note *)
  | Fault_hit  (** [detail] = fault site *)
  | Wal_append  (** [a] = frame kind byte, [b] = frame bytes *)
  | Wal_fsync
  | Wal_commit  (** [a] = transaction id *)
  | Wal_truncate  (** [a] = surviving bytes *)
  | Txn_begin  (** [a] = pager transaction epoch *)
  | Txn_commit  (** [a] = published epoch, [b] = dirty pages *)
  | Txn_abort  (** [a] = abandoned epoch, [b] = pages restored *)
  | Epoch_publish  (** [a] = epoch now visible to new pins *)
  | Epoch_pin  (** [a] = pinned epoch *)
  | Epoch_unpin  (** [a] = released epoch *)
  | Epoch_prune  (** [a] = horizon epoch, [b] = versions reclaimed *)
  | Pool_evict  (** [a] = evicted page id *)
  | Pool_retry  (** [a] = attempt number, [detail] = why *)
  | Checkpoint  (** [a] = last transaction folded into the heap *)
  | Poisoned  (** [detail] = the poisoning error *)
  | Task_begin  (** pool task started on a worker domain *)
  | Task_end  (** [a] = elapsed ns *)
  | Sem_acquire  (** [a] = permits in use after the acquire *)
  | Cancel_deadline  (** [a] = expired budget, ms *)
  | Cancel_explicit  (** [detail] = reason *)
  | Breaker_open  (** [a] = consecutive failures, [detail] = failure class *)
  | Breaker_half_open
  | Breaker_close
  | Breaker_reject
  | Req_begin  (** [a] = request id, [b] = permits in use *)
  | Req_end  (** [a] = HTTP status *)
  | Shed  (** [a] = 0 queue-limit, 1 p99, 2 deadline; [detail] = note *)
  | Dump  (** [detail] = dump reason *)
  | Plan_build  (** [a] = estimated rows, [b] = override count, [detail] = reason *)
  | Unknown  (** decoded from a newer writer; never emitted *)

val kind_name : kind -> string
(** Stable dotted name, e.g. ["wal.append"]. *)

val kind_code : kind -> int
(** The on-disk code: append-only, never renumbered. *)

val kind_of_code : int -> kind
(** Inverse of {!kind_code}; unassigned and retired codes decode to
    {!Unknown}. *)

type event = {
  e_domain : int;  (** recording domain's id *)
  e_seq : int;  (** per-domain sequence number (dense, ascending) *)
  e_ts_ns : int;  (** monotonic-clock nanoseconds (comparable across domains) *)
  e_trace : int;  (** ambient trace id; 0 = none *)
  e_kind : kind;
  e_a : int;
  e_b : int;
  e_detail : string;
}

(** {1 Recorder control} *)

val enabled : unit -> bool

val enable : ?capacity:int -> unit -> unit
(** Turn the recorder on. [capacity] (default 1024, min 8) sizes rings
    created {e after} the call; existing domain rings keep theirs. *)

val disable : unit -> unit

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run with the recorder forced on/off, restoring the previous state. *)

val clear : unit -> unit
(** Drop every registered ring (testing). Only the calling domain's
    ring slot is reset; other live domains re-register on next emit. *)

(** {1 Recording} *)

val emit : kind -> int -> int -> string -> unit
(** [emit kind a b detail] records one event on this domain's ring,
    tagged with the ambient {!Context} trace id. When the recorder is
    disabled this is exactly one atomic load — callers building an
    expensive [detail] should guard on {!enabled}. *)

val emit_traced : int -> kind -> int -> int -> string -> unit
(** Like {!emit} with an explicit trace id (0 = none) — for sites that
    know the request id before the ambient context is installed. *)

(** {1 Snapshots} *)

val snapshot : unit -> event list
(** All domains merged onto one timeline ({!merge_events} of
    {!snapshot_domains}). Safe to call while every domain keeps
    emitting. *)

val snapshot_domains : unit -> (int * event list) list
(** Each non-empty domain ring's window, by ascending domain id. *)

val total_events : unit -> int
(** Events ever recorded across all registered rings (including ones
    since overwritten). *)

(** {1 Post-mortem dump path} *)

val set_dump_path : string option -> unit
(** Configure where automatic post-mortem dumps land. *)

val dump_path : unit -> string option

(** {1 Rendering} *)

val event_to_string : ?t0:int -> event -> string
(** One line per event; [t0] rebases timestamps (microseconds shown). *)

val merge_events : (int * event list) list -> event list
(** Per-domain windows merged onto one timeline, per-domain order
    preserved. *)

(** {1 Environment}

    At link time, [TWIGMATCH_FLIGHT] enables the recorder (a value of
    8 or more is the capacity) and [TWIGMATCH_FLIGHT_DUMP] sets the
    dump path and enables it. *)
