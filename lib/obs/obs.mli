(** Observability substrate: a global metrics sink (counters and
    histograms) plus monotonic-clock spans recorded into per-query
    trace trees. Disabled by default; every recording entry point costs
    one boolean branch when off.

    Domain-safe: counters are atomic, histograms are mutex-guarded, and
    the active trace stack is domain-local (worker-domain trees are
    grafted into the coordinator's trace with {!adopt}). Spans read the
    domain-local per-query cost record ({!Tm_exec.Stats}), so their
    numbers stay exact while other queries run. *)

(** {1 Sink control} *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run with the sink forced on/off, restoring the previous state. *)

(** {1 Counters}

    Counters are registered once by name (handles are memoized, so
    instrumented modules hold direct references and increments never
    hash). Values accumulate globally until {!reset}. *)

type counter

val counter : string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val counters : unit -> (string * int) list
(** All registered counters in registration order. *)

val add_query : Tm_exec.Stats.t -> unit
(** Add a finished query's cost record to the process-wide totals, one
    [query.<field>] counter per {!Tm_exec.Stats} field (no-op when the
    sink is off). The executor calls it once per query. *)

(** {1 Histograms} *)

type histogram = {
  h_name : string;
  h_bounds : float array;  (** bucket upper bounds, ascending *)
  h_counts : int array;  (** per bucket, plus one overflow slot *)
  mutable h_sum : float;
  mutable h_count : int;
}

val histogram : ?buckets:float array -> string -> histogram
val observe : histogram -> float -> unit
val histograms : unit -> histogram list

val reset : unit -> unit
(** Zero every registered counter and histogram. *)

(** {1 Gauges}

    A gauge is a registered thunk sampled at export time (journal
    depth, pool occupancy); nothing is recorded on the hot path, so
    gauges ignore the enabled flag. *)

val gauge : string -> (unit -> float) -> unit
(** Register a gauge (first registration of a name wins). *)

val gauges : unit -> (string * float) list
(** Sample every registered gauge, in registration order. A gauge whose
    thunk raises reads as [nan]. *)

(** {1 Warnings}

    Structured warnings (rare, operationally important events such as a
    malformed [TWIGMATCH_FAILPOINTS] spec). Always recorded into a
    small bounded ring regardless of the enabled flag, and passed to
    the handler — stderr by default, replaceable so a server can
    surface them. *)

type warning = {
  w_time : float;  (** wall-clock seconds (Unix epoch) *)
  w_ctx : int option;  (** ambient trace id when the warning fired *)
  w_site : string;  (** emitting subsystem, e.g. ["fault.env"] *)
  w_msg : string;
}

val warn : site:string -> string -> unit

val warnings : unit -> warning list
(** The most recent warnings (bounded ring), oldest first. *)

val set_warn_handler : (warning -> unit) option -> unit
(** Replace the warning handler ([None] restores the stderr default).
    The handler runs outside the ring's lock on the warning domain. *)

(** {1 Spans and traces}

    A trace is a tree of named spans capturing wall-clock time and the
    delta of the domain's installed cost record ({!Tm_exec.Stats}) over
    each span's extent — how EXPLAIN ANALYZE attributes buffer reads,
    entries, rows and allocation to individual plan operators. Spans
    are only recorded inside a {!trace} extent; {!with_span} outside
    one just runs its thunk. *)

type span = {
  s_name : string;
  mutable s_start_ns : int64;  (** monotonic-clock open time *)
  mutable s_elapsed_ns : int64;
  mutable s_meta : (string * string) list;  (** free-form annotations *)
  mutable s_stats : Tm_exec.Stats.t;
      (** the cost record's delta over the span: the query's own work
          (pool tasks' records are merged in), minor words included *)
  mutable s_children : span list;  (** execution order *)
}

val trace : ?meta:(string * string) list -> string -> (unit -> 'a) -> 'a * span option
(** Run under a fresh root span; [None] when the sink is disabled. *)

val with_span : ?meta:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Open a child span under the innermost open span for the duration of
    the thunk. No-op when disabled or outside a {!trace}. *)

val in_trace : unit -> bool
(** Whether a trace is being captured right now (lets callers skip
    building annotation strings that would be discarded). *)

val annotate : string -> string -> unit
(** Attach a key/value annotation to the innermost open span. *)

val adopt : span -> unit
(** Graft a finished span (typically a trace root captured on a worker
    domain) as a child of the innermost open span on this domain, in
    call order. No-op outside a {!trace}. *)

val elapsed_ms : span -> float
