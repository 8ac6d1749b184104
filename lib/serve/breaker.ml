(* Circuit breaker for a degraded-mode handler: repeated storage-class
   failures (Corrupt_page, Io_error, Poisoned) trip the breaker open;
   while open, requests are rejected up front with a Retry-After instead
   of being run against an index that keeps failing. After a cooldown
   the breaker half-opens and admits exactly one probe: a successful
   probe closes it, a failing one re-opens it with the cooldown doubled
   (up to a cap). *)

(* A breaker transition is the serve layer's loudest distress signal,
   so each one lands in all three observability tiers: counters for
   /metrics, a warning carrying the failure class, and flight-recorder
   events (plus a post-mortem dump on open — by the time an operator
   looks, the events leading up to the trip are exactly what's
   wanted). *)
let c_opened = Tm_obs.Obs.counter "breaker.opened"
let c_closed = Tm_obs.Obs.counter "breaker.closed"
let c_rejections = Tm_obs.Obs.counter "breaker.rejections"

type state =
  | Closed of { mutable failures : int }
  | Open of { until_ns : int64; cooldown_ms : float }
  | Half_open of { cooldown_ms : float; mutable probing : bool }

type t = {
  lock : Mutex.t;
  failure_threshold : int;
  base_cooldown_ms : float;
  max_cooldown_ms : float;
  mutable state : state; [@analyze.guarded_by "lock"]
  mutable trips : int; [@analyze.guarded_by "lock"]
}

type decision = Allow | Reject of { retry_after_ms : float }

let create ?(failure_threshold = 5) ?(cooldown_ms = 1000.0) ?(max_cooldown_ms = 30_000.0) () =
  if failure_threshold < 1 then invalid_arg "Breaker.create: failure_threshold must be >= 1";
  if cooldown_ms <= 0.0 || max_cooldown_ms < cooldown_ms then
    invalid_arg "Breaker.create: need 0 < cooldown_ms <= max_cooldown_ms";
  {
    lock = Mutex.create ();
    failure_threshold;
    base_cooldown_ms = cooldown_ms;
    max_cooldown_ms;
    state = Closed { failures = 0 };
    trips = 0;
  }

let now () = Monotonic_clock.now ()
let ns_of_ms ms = Int64.of_float (ms *. 1e6)
let ms_until until_ns = Int64.to_float (Int64.sub until_ns (now ())) /. 1e6

let admit t =
  let d =
    Mutex.protect t.lock (fun () ->
        match t.state with
        | Closed _ -> `Allow
        | Open { until_ns; cooldown_ms } ->
          let remaining = ms_until until_ns in
          if remaining > 0.0 then `Reject remaining
          else begin
            (* Cooldown over: half-open, and this caller is the probe. *)
            t.state <- Half_open { cooldown_ms; probing = true };
            `Probe
          end
        | Half_open h ->
          if h.probing then `Reject h.cooldown_ms
          else begin
            h.probing <- true;
            `Allow
          end)
  in
  match d with
  | `Allow -> Allow
  | `Probe ->
    Tm_obs.Flight.emit Tm_obs.Flight.Breaker_half_open 0 0 "";
    Allow
  | `Reject retry_after_ms ->
    Tm_obs.Obs.incr c_rejections;
    Tm_obs.Flight.emit Tm_obs.Flight.Breaker_reject (int_of_float retry_after_ms) 0 "";
    Reject { retry_after_ms }

let success t =
  let closed =
    Mutex.protect t.lock (fun () ->
        match t.state with
        | Closed c ->
          c.failures <- 0;
          false
        | Open _ | Half_open _ ->
          t.state <- Closed { failures = 0 };
          true)
  in
  if closed then begin
    Tm_obs.Obs.incr c_closed;
    Tm_obs.Flight.emit Tm_obs.Flight.Breaker_close 0 0 ""
  end

let trip t cooldown_ms =
  t.trips <- t.trips + 1;
  t.state <- Open { until_ns = Int64.add (now ()) (ns_of_ms cooldown_ms); cooldown_ms }

let failure ?(cls = "unclassified") t =
  let opened =
    Mutex.protect t.lock (fun () ->
        match t.state with
        | Closed c ->
          c.failures <- c.failures + 1;
          if c.failures >= t.failure_threshold then begin
            trip t t.base_cooldown_ms;
            Some c.failures
          end
          else None
        | Half_open { cooldown_ms; _ } ->
          (* The probe failed: back off harder. *)
          trip t (Float.min (cooldown_ms *. 2.0) t.max_cooldown_ms);
          Some t.failure_threshold
        | Open _ -> None)
  in
  (* Side effects (warning handler, dump I/O) stay outside the lock. *)
  match opened with
  | None -> ()
  | Some failures ->
    Tm_obs.Obs.incr c_opened;
    Tm_obs.Obs.warn ~site:"serve.breaker"
      (Printf.sprintf "breaker opened after %d consecutive failures (%s)" failures cls);
    Tm_obs.Flight.emit Tm_obs.Flight.Breaker_open failures 0 cls;
    if Tm_obs.Flight.enabled () then
      ignore (Tm_wal.Blackbox.dump ~reason:("breaker-open: " ^ cls))

let state t =
  Mutex.protect t.lock (fun () ->
      match t.state with
      | Closed _ -> `Closed
      | Open { until_ns; _ } when ms_until until_ns > 0.0 -> `Open
      | Open _ | Half_open _ -> `Half_open)

let trips t = Mutex.protect t.lock (fun () -> t.trips)
