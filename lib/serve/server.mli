(** An overload-safe concurrent HTTP/1.1 endpoint over a loaded
    database, built on stdlib [Unix] sockets only.

    Endpoints (all GET): [/metrics] (Prometheus text), [/healthz]
    (canary lookup + pager fsck-lite + WAL status when a durable handle
    is attached), [/journal] and [/slow?threshold_ms=N] (query-lifecycle
    journal, JSON), [/warnings] (structured warnings, JSON), [/stats]
    (serving/overload counters, JSON), [/drain] (graceful drain), and
    [/query?q=XPATH&hint=...&timeout_ms=N].

    {!handle} is pure request dispatch (no sockets), so the endpoint
    surface is unit-testable; {!create}/{!run}/{!stop}/{!drain} wrap it
    in a loopback listener that admits connections onto a
    {!Tm_par.Pool} behind a bounded admission queue, sheds load with
    typed 429/503 + Retry-After when the queue fills or the observed
    p99 climbs past target, propagates per-request deadlines through
    {!Tm_par.Cancel} into {!Twigmatch.Executor.run}, trips a
    {!Breaker} to degraded mode on repeated storage failures, and
    hardens request parsing (413 size caps, 400 malformed, 408
    slowloris read deadlines).

    Accounting invariant: every accepted connection ends in exactly one
    of {!stats}[.responses], [.write_failures], or [.accept_faults] —
    nothing is silently dropped, even under [serve.accept]/[serve.write]
    failpoints. *)

type response = {
  status : int;
  content_type : string;
  body : string;
  retry_after_s : int option;  (** rendered as a [Retry-After] header *)
}

val handle :
  ?canary:Tm_query.Twig.t ->
  ?durable:Twigmatch.Durable.t ->
  ?cancel:Tm_par.Cancel.t ->
  ?breaker:Breaker.t ->
  Twigmatch.Database.t ->
  meth:string ->
  target:string ->
  response
(** Dispatch one request. [target] is the raw request target, e.g.
    ["/slow?threshold_ms=5"]; parameters are percent-decoded. [canary]
    overrides the /healthz lookup (default: the root tag of the first
    catalogued path). [durable] adds WAL status to /healthz — a
    poisoned write path with healthy reads reports 200 ["degraded"],
    not 500. [cancel] is the request deadline token, propagated into
    {!Twigmatch.Executor.run} as the parent of its attempt tokens.
    [breaker] guards /query: storage-class failures count toward
    tripping it, and an open breaker answers 503 + Retry-After without
    running the query. Never raises: errors become 4xx/5xx
    responses. *)

val url_decode : string -> string
(** Percent-decoding (plus [+] for space), as applied to query
    parameters. *)

(** {1 Overload policy} *)

type config = {
  max_in_flight : int;  (** connections executing concurrently *)
  max_queue : int;  (** admitted-but-waiting bound (queue depth) *)
  request_timeout_ms : float;
      (** per-request budget, armed at accept; covers queue wait *)
  read_timeout_ms : float;  (** slowloris guard: max wall time per read *)
  write_timeout_ms : float;  (** max wall time per response write *)
  max_request_bytes : int;  (** request-header size cap (413 beyond) *)
  drain_deadline_ms : float;  (** graceful-drain budget for in-flight work *)
  shed_p99_ms : float;
      (** latency target: at p99 <= target the full queue is usable,
          shrinking linearly to zero at 2x target *)
  breaker_failures : int;  (** consecutive storage failures that trip *)
  breaker_cooldown_ms : float;  (** initial breaker cooldown (doubles) *)
}

val default_config : config
(** 8 in flight, 64 queued, 10 s budget, 5 s read/write deadlines,
    16 KiB header cap, 30 s drain, 500 ms p99 target, breaker 5/1 s. *)

val shed_queue_limit : max_queue:int -> target_ms:float -> p99_ms:float option -> int
(** The adaptive admission-queue bound (exposed for tests): [max_queue]
    while the observed p99 is at or under [target_ms], 0 at
    [2 * target_ms], linear in between; [max_queue] when no latency has
    been observed yet. *)

(** {1 The socket server} *)

type t

val create :
  ?port:int ->
  ?canary:Tm_query.Twig.t ->
  ?durable:Twigmatch.Durable.t ->
  ?config:config ->
  Twigmatch.Database.t ->
  t
(** Bind a loopback listener. [port] 0 (the default) picks an ephemeral
    port — read it back with {!port}.
    @raise Invalid_argument on a non-positive [max_in_flight] or a
    negative [max_queue]. *)

val port : t -> int

type outcome =
  | Drained  (** drain requested; all in-flight work completed *)
  | Drain_timed_out of int
      (** drain requested but that many requests were still inside the
          server when the drain deadline expired *)
  | Stopped  (** {!stop} was called: listener closed immediately *)

val run : ?pool:Tm_par.Pool.t -> t -> outcome
(** Accept connections on the calling domain and serve each admitted
    one as a task on [pool] (default: an internal pool with one worker
    per execution slot, so handlers never run inline on the accept
    domain — a jobs=1 [pool] would let one slow client stall every
    accept behind it). Returns when {!stop} or {!drain} ends the accept
    loop; on drain, waits for in-flight and queued requests under
    [drain_deadline_ms] first. *)

val drain : t -> unit
(** Graceful drain: stop accepting (closes the listener, unblocking
    {!run}'s accept) but let admitted requests finish. Also triggered
    by [GET /drain]. Idempotent; async-signal-safe enough for a
    [Sys.signal] handler (an atomic flag and a [close]). *)

val stop : t -> unit
(** Hard stop: closes the listening socket, unblocking the accept loop;
    {!run} returns {!Stopped} without waiting for in-flight work (their
    tasks still run to completion on the pool). Idempotent. *)

(** {1 Introspection} *)

type stats = {
  accepted : int;  (** connections returned by [accept] *)
  admitted : int;  (** granted a slot and spawned *)
  responses : int;  (** full responses written (sheds included) *)
  shed_queue : int;  (** 429: admission queue full *)
  shed_overload : int;  (** 429: adaptive limit under latency pressure *)
  shed_deadline : int;  (** 503: budget expired while queued *)
  shed_breaker : int;  (** 503: circuit breaker open *)
  read_timeouts : int;  (** 408: slowloris read deadline hit *)
  write_failures : int;  (** response write failed (logged, counted) *)
  accept_faults : int;  (** [serve.accept] failpoint fired (logged) *)
  in_flight : int;  (** currently executing *)
  queued : int;  (** admitted, waiting for a worker *)
}

val stats : t -> stats
(** A snapshot of the serving counters. The accounting invariant holds
    at quiescence: [accepted = responses + write_failures +
    accept_faults]. *)
