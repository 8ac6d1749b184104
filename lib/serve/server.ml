(** An overload-safe concurrent HTTP/1.1 serving layer over a loaded
    database.

    Request handling is separated from socket handling: {!handle} maps
    a (method, target) pair to a response with no I/O at all, so the
    endpoint surface is unit-testable without binding a port; {!create}
    / {!run} / {!stop} wrap it in a loopback listener that fans
    accepted connections out across a {!Tm_par.Pool} domain pool.

    Overload behaviour (see README "Serving"):

    - {e admission control}: an atomic counter ({!Tm_par.Semaphore})
      bounds the number of connections inside the server (executing
      plus queued); a full queue sheds with a typed 429 + Retry-After
      instead of queueing unboundedly;
    - {e adaptive shedding}: the admission queue shrinks as the
      observed p99 latency climbs past the configured target, so
      queueing stops amplifying latency exactly when it would;
    - {e per-request deadlines}: every accepted connection gets a
      {!Tm_par.Cancel} token armed with the request budget at accept
      time; the deadline covers queue wait and is propagated into
      {!Executor.run}, and a request whose budget died in the queue is
      shed (503) without running;
    - {e circuit breaker}: repeated storage-class failures
      ([Corrupt_page], [Io_error]) trip the /query handler to degraded
      mode (503 + Retry-After) with an exponential half-open schedule
      ({!Breaker});
    - {e graceful drain}: SIGTERM (wired in twigql) or [GET /drain]
      stops accepting, finishes in-flight and queued requests under the
      drain deadline, and {!run} returns {!Drained};
    - {e hardened parsing}: request size caps (413), malformed input
      (400), slowloris read deadlines (408) — never an uncaught
      exception, and the client fd is always closed.

    Accounting invariant (asserted by the chaos suite): every accepted
    connection ends in exactly one of [responses] (a full response was
    written, sheds included), [write_failures] (response write failed —
    logged), or [accept_faults] (the [serve.accept] failpoint fired —
    logged). Nothing is silently dropped. *)

open Twigmatch
module Cancel = Tm_par.Cancel
module Semaphore = Tm_par.Semaphore
module Fault = Tm_fault.Fault

type response = {
  status : int;
  content_type : string;
  body : string;
  retry_after_s : int option;
}

let c_requests = Tm_obs.Obs.counter "serve.requests"
let h_request_ms = Tm_obs.Obs.histogram "serve.request.ms"
let c_accepted = Tm_obs.Obs.counter "serve.accepted"
let c_responses = Tm_obs.Obs.counter "serve.responses"
let c_shed = Tm_obs.Obs.counter "serve.shed"
let c_write_failures = Tm_obs.Obs.counter "serve.write_failures"
let c_accept_faults = Tm_obs.Obs.counter "serve.accept_faults"
let h_queue_wait_ms = Tm_obs.Obs.histogram "serve.queue_wait.ms"

(* ------------------------------------------------------------------ *)
(* Target parsing                                                      *)
(* ------------------------------------------------------------------ *)

let hex_value c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let url_decode s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then begin
      (match s.[i] with
      | '+' -> Buffer.add_char buf ' '
      | '%' when i + 2 < n -> (
        match (hex_value s.[i + 1], hex_value s.[i + 2]) with
        | Some h, Some l -> Buffer.add_char buf (Char.chr ((h * 16) + l))
        | _ ->
          Buffer.add_char buf '%';
          Buffer.add_char buf s.[i + 1];
          Buffer.add_char buf s.[i + 2])
      | c -> Buffer.add_char buf c);
      go (i + if s.[i] = '%' && i + 2 < n && Option.is_some (hex_value s.[i + 1]) && Option.is_some (hex_value s.[i + 2]) then 3 else 1)
    end
  in
  go 0;
  Buffer.contents buf

(* "/slow?threshold_ms=5&x=1" -> ("/slow", [("threshold_ms","5"); ("x","1")]) *)
let split_target target =
  match String.index_opt target '?' with
  | None -> (target, [])
  | Some q ->
    let path = String.sub target 0 q in
    let rest = String.sub target (q + 1) (String.length target - q - 1) in
    let params =
      String.split_on_char '&' rest
      |> List.filter_map (fun kv ->
             if String.equal kv "" then None
             else
               match String.index_opt kv '=' with
               | None -> Some (url_decode kv, "")
               | Some e ->
                 Some
                   ( url_decode (String.sub kv 0 e),
                     url_decode (String.sub kv (e + 1) (String.length kv - e - 1)) ))
    in
    (path, params)

(* ------------------------------------------------------------------ *)
(* Endpoint bodies                                                     *)
(* ------------------------------------------------------------------ *)

let json = "application/json"
let text = "text/plain; charset=utf-8"
let respond ?retry_after_s status content_type body = { status; content_type; body; retry_after_s }
let json_string = Tm_obs.Export.json_string
let json_float = Tm_obs.Export.json_float

(* Every catch-all below converts a failure into an HTTP body. Fatal
   runtime conditions must not be laundered into a 500 the client
   retries against a dying process — re-raise them first. *)
let reraise_if_fatal e = match e with Out_of_memory | Stack_overflow -> raise e | _ -> ()

(* A canary twig for /healthz: the root tag of the first catalogued
   rooted path, so the lookup touches the live index structures but
   stays O(document roots). *)
let default_canary (db : Database.t) =
  match Tm_xmldb.Schema_catalog.entries db.Database.catalog with
  | [] -> None
  | e :: _ -> (
    match Tm_xmldb.Schema_path.to_list e.Tm_xmldb.Schema_catalog.path with
    | t :: _ ->
      Some (Tm_query.Xpath_parser.parse ("/" ^ Tm_xmldb.Dictionary.name db.Database.dict t))
    | [] -> None)

let healthz ?canary ?durable (db : Database.t) =
  (* fsck-lite: pager-level page checks only (checksums, bounds,
     decodability) — milliseconds, unlike the full structural fsck *)
  let violations = Tm_check.Check.check_pager db.Database.pager in
  let canary = match canary with Some _ as c -> c | None -> default_canary db in
  let canary_outcome =
    match canary with
    | None -> Ok 0
    | Some twig -> (
      match Executor.run db twig with
      | r -> Ok (List.length r.Executor.ids)
      | exception e ->
        reraise_if_fatal e;
        Error (Printexc.to_string e))
  in
  let wal = Option.map Durable.wal_status durable in
  let wal_field =
    match wal with
    | None -> ""
    | Some w ->
      Printf.sprintf ",\"wal\":{\"log_bytes\":%d,\"last_txn\":%d,\"poisoned\":%s}"
        w.Durable.log_bytes w.Durable.last_txn
        (match w.Durable.poisoned with None -> "false" | Some m -> json_string m)
  in
  let poisoned =
    match wal with Some { Durable.poisoned = Some _; _ } -> true | Some _ | None -> false
  in
  match (violations, canary_outcome) with
  | [], Ok rows when not poisoned ->
    respond 200 json
      (Printf.sprintf "{\"status\":\"ok\",\"canary_rows\":%d,\"pager_violations\":0%s}" rows
         wal_field)
  | [], Ok rows ->
    (* The write path is poisoned but reads still serve: degraded, not
       dead — reopening the durable directory is the recovery. *)
    respond 200 json
      (Printf.sprintf "{\"status\":\"degraded\",\"canary_rows\":%d,\"pager_violations\":0%s}"
         rows wal_field)
  | vs, outcome ->
    let canary_field =
      match outcome with
      | Ok rows -> Printf.sprintf "\"canary_rows\":%d" rows
      | Error msg -> Printf.sprintf "\"canary_error\":%s" (json_string msg)
    in
    respond 500 json
      (Printf.sprintf "{\"status\":\"unhealthy\",%s,\"pager_violations\":%d%s}" canary_field
         (List.length vs) wal_field)

let warnings_json () =
  let one (w : Tm_obs.Obs.warning) =
    Printf.sprintf "{\"time\":%s,\"trace\":%s,\"site\":%s,\"msg\":%s}" (json_float w.Tm_obs.Obs.w_time)
      (match w.Tm_obs.Obs.w_ctx with Some id -> string_of_int id | None -> "null")
      (json_string w.Tm_obs.Obs.w_site) (json_string w.Tm_obs.Obs.w_msg)
  in
  "[" ^ String.concat "," (List.map one (Tm_obs.Obs.warnings ())) ^ "]"

(* Outcome classification for the circuit breaker: only storage-class
   failures (a corrupt page, I/O that outlasted the bounded retries)
   count as breaker failures; parse errors, timeouts and empty results
   resolve the half-open probe as a success. *)
let breaker_ok breaker = match breaker with None -> () | Some b -> Breaker.success b

let breaker_fail ~cls breaker =
  match breaker with None -> () | Some b -> Breaker.failure ~cls b

let run_query ?cancel ?breaker (db : Database.t) params =
  match List.assoc_opt "q" params with
  | None | Some "" -> respond 400 json "{\"error\":\"missing q parameter\"}"
  | Some q -> (
    match Tm_query.Xpath_parser.parse q with
    | exception e ->
      reraise_if_fatal e;
      respond 400 json
        (Printf.sprintf "{\"error\":%s}" (json_string ("parse: " ^ Printexc.to_string e)))
    | twig -> (
      let hint =
        match List.assoc_opt "hint" params with
        | Some h -> Tm_plan.Hint.of_string h
        | None -> Ok Tm_plan.Hint.Auto
      in
      let deadline_ms =
        Option.bind (List.assoc_opt "timeout_ms" params) float_of_string_opt
      in
      match hint with
      | Error msg -> respond 400 json (Printf.sprintf "{\"error\":%s}" (json_string msg))
      | Ok hint -> (
        match
          match breaker with
          | None -> Breaker.Allow
          | Some b -> Breaker.admit b
        with
        | Breaker.Reject { retry_after_ms } ->
          respond
            ~retry_after_s:(max 1 (int_of_float (Float.ceil (retry_after_ms /. 1000.0))))
            503 json
            "{\"error\":\"degraded: circuit breaker open after repeated storage failures\"}"
        | Breaker.Allow -> (
          match Executor.run ~hint ?deadline_ms ?cancel db twig with
          | r ->
            breaker_ok breaker;
            respond 200 json
              (Printf.sprintf
                 "{\"trace_id\":%d,\"strategy\":%s,\"reason\":%s,\"rows\":%d,\"replans\":%d,\"plan\":%s,\"ids\":[%s]}"
                 r.Executor.trace_id
                 (json_string (Database.strategy_name r.Executor.strategy))
                 (json_string r.Executor.reason)
                 (List.length r.Executor.ids)
                 r.Executor.replans
                 (Tm_plan.Plan.to_json r.Executor.plan)
                 (String.concat "," (List.map string_of_int r.Executor.ids)))
          (* The HTTP edge is the sanctioned end of the typed-error chain:
             past here there is no caller left to degrade gracefully. *)
          | exception Executor.Timeout { ms; _ } ->
            ((breaker_ok breaker;
              respond ~retry_after_s:1 503 json
                (Printf.sprintf "{\"error\":\"deadline of %s ms expired\"}" (json_float ms)))
            [@analyze.boundary])
          | exception Tm_storage.Pager.Corrupt_page { page; detail } ->
            ((breaker_fail ~cls:"corrupt-page" breaker;
              respond 500 json
                (Printf.sprintf "{\"error\":%s}"
                   (json_string (Printf.sprintf "corrupt page %d: %s" page detail))))
            [@analyze.boundary])
          | exception Fault.Io_error { site; detail } ->
            (breaker_fail ~cls:"io-error" breaker;
             respond 500 json
               (Printf.sprintf "{\"error\":%s}"
                  (json_string (Printf.sprintf "io error at %s: %s" site detail)))
            [@analyze.boundary])))))

(* /plan?q=XPATH[&hint=...] — the planner's choice as JSON, without
   executing the query. *)
let plan_query (db : Database.t) params =
  match List.assoc_opt "q" params with
  | None | Some "" -> respond 400 json "{\"error\":\"missing q parameter\"}"
  | Some q -> (
    match Tm_query.Xpath_parser.parse q with
    | exception e ->
      reraise_if_fatal e;
      respond 400 json
        (Printf.sprintf "{\"error\":%s}" (json_string ("parse: " ^ Printexc.to_string e)))
    | twig -> (
      let hint =
        match List.assoc_opt "hint" params with
        | Some h -> Tm_plan.Hint.of_string h
        | None -> Ok Tm_plan.Hint.Auto
      in
      match hint with
      | Error msg -> respond 400 json (Printf.sprintf "{\"error\":%s}" (json_string msg))
      | Ok hint -> (
        match Executor.explain ~hint db twig with
        | text ->
          respond 200 json
            (Printf.sprintf "{\"query\":%s,\"explain\":%s}" (json_string q) (json_string text))
        | exception e ->
          reraise_if_fatal e;
          respond 500 json
            (Printf.sprintf "{\"error\":%s}" (json_string (Printexc.to_string e))))))

let index_body =
  String.concat "\n"
    [
      "twigql serve endpoints:";
      "  /metrics              Prometheus text metrics";
      "  /healthz              canary lookup + pager fsck-lite (+ WAL status with --wal)";
      "  /journal              query-lifecycle journal (JSON)";
      "  /slow[?threshold_ms=N]  slow-query log (JSON, slowest first)";
      "  /warnings             structured warnings (JSON)";
      "  /debug/flight[?format=json|chrome|text]  flight-recorder timeline";
      "  /debug/last-dump      metadata of the latest post-mortem dump (JSON)";
      "  /stats                serving/overload counters (JSON)";
      "  /drain                stop accepting, finish in-flight, exit";
      "  /query?q=XPATH[&hint=auto|STRATEGY][&timeout_ms=N]  run a twig query";
      "  /plan?q=XPATH[&hint=auto|STRATEGY]  explain the chosen plan (JSON)";
      "";
    ]

let handle ?canary ?durable ?cancel ?breaker (db : Database.t) ~meth ~target =
  Tm_obs.Obs.incr c_requests;
  let t0 = if Tm_obs.Obs.enabled () then Unix.gettimeofday () else 0.0 in
  let path, params = split_target target in
  let dispatch () =
    if not (String.equal meth "GET") then
      respond 405 text "method not allowed\n"
    else
      match path with
      | "/" -> respond 200 text index_body
      | "/metrics" -> respond 200 text (Tm_obs.Export.metrics_to_prometheus ())
      | "/healthz" -> healthz ?canary ?durable db
      | "/journal" -> respond 200 json (Tm_obs.Journal.to_json (Tm_obs.Journal.entries ()))
      | "/slow" ->
        let threshold_ms =
          Option.bind (List.assoc_opt "threshold_ms" params) float_of_string_opt
        in
        respond 200 json (Tm_obs.Journal.to_json (Tm_obs.Journal.slow ?threshold_ms ()))
      | "/warnings" -> respond 200 json (warnings_json ())
      | "/debug/flight" ->
        if not (Tm_obs.Flight.enabled ()) then
          respond 503 json
            "{\"error\":\"flight recorder disabled; enable with --flight or TWIGMATCH_FLIGHT=1\"}"
        else begin
          let events = Tm_obs.Flight.snapshot () in
          match List.assoc_opt "format" params with
          | Some "chrome" -> respond 200 json (Tm_obs.Export.flight_to_chrome events)
          | Some "text" ->
            let t0 =
              match events with [] -> 0 | e :: _ -> e.Tm_obs.Flight.e_ts_ns
            in
            respond 200 text
              (String.concat "\n"
                 (List.map (Tm_obs.Flight.event_to_string ~t0) events)
              ^ "\n")
          | Some _ | None -> respond 200 json (Tm_obs.Export.flight_to_json events)
        end
      | "/debug/last-dump" -> (
        match Tm_wal.Blackbox.last_dump () with
        | None -> respond 404 json "{\"error\":\"no post-mortem dump written yet\"}"
        | Some d ->
          respond 200 json
            (Printf.sprintf
               "{\"path\":%s,\"reason\":%s,\"time\":%s,\"events\":%d,\"domains\":%d}"
               (json_string d.Tm_wal.Blackbox.ld_path)
               (json_string d.Tm_wal.Blackbox.ld_reason)
               (json_float d.Tm_wal.Blackbox.ld_time)
               d.Tm_wal.Blackbox.ld_events d.Tm_wal.Blackbox.ld_domains))
      | "/query" -> run_query ?cancel ?breaker db params
      | "/plan" -> plan_query db params
      | _ -> respond 404 text "not found\n"
  in
  let response =
    try dispatch ()
    with e ->
      reraise_if_fatal e;
      respond 500 json (Printf.sprintf "{\"error\":%s}" (json_string (Printexc.to_string e)))
  in
  if t0 > 0.0 then Tm_obs.Obs.observe h_request_ms ((Unix.gettimeofday () -. t0) *. 1e3);
  response

(* ------------------------------------------------------------------ *)
(* Overload policy                                                     *)
(* ------------------------------------------------------------------ *)

type config = {
  max_in_flight : int;
  max_queue : int;
  request_timeout_ms : float;
  read_timeout_ms : float;
  write_timeout_ms : float;
  max_request_bytes : int;
  drain_deadline_ms : float;
  shed_p99_ms : float;
  breaker_failures : int;
  breaker_cooldown_ms : float;
}

let default_config =
  {
    max_in_flight = 8;
    max_queue = 64;
    request_timeout_ms = 10_000.0;
    read_timeout_ms = 5_000.0;
    write_timeout_ms = 5_000.0;
    max_request_bytes = 16_384;
    drain_deadline_ms = 30_000.0;
    shed_p99_ms = 500.0;
    breaker_failures = 5;
    breaker_cooldown_ms = 1_000.0;
  }

(* The adaptive admission-queue bound: the full [max_queue] while the
   observed p99 sits at or under the target, shrinking linearly to zero
   at twice the target. Queueing amplifies latency exactly when the
   server is already slow — so that is when we stop queueing. *)
let shed_queue_limit ~max_queue ~target_ms ~p99_ms =
  match p99_ms with
  | None -> max_queue
  | Some p when p <= target_ms -> max_queue
  | Some p when p >= 2.0 *. target_ms -> 0
  | Some p ->
    int_of_float (Float.ceil (float_of_int max_queue *. (1.0 -. ((p -. target_ms) /. target_ms))))

(* ------------------------------------------------------------------ *)
(* The socket server                                                   *)
(* ------------------------------------------------------------------ *)

type t = {
  db : Database.t;
  canary : Tm_query.Twig.t option;
  durable : Durable.t option;
  config : config;
  sock : Unix.file_descr;
  port : int;
  stopping : bool Atomic.t;
  draining : bool Atomic.t;
  listener_closed : bool Atomic.t;
  slots : Semaphore.t;  (** executing + queued connections; the admission bound *)
  breaker : Breaker.t;
  (* accounting: every accepted connection ends in exactly one of
     s_responses / s_write_failures / s_accept_faults *)
  s_accepted : int Atomic.t;
  s_admitted : int Atomic.t;
  s_responses : int Atomic.t;
  s_shed_queue : int Atomic.t;
  s_shed_overload : int Atomic.t;
  s_shed_deadline : int Atomic.t;
  s_shed_breaker : int Atomic.t;
  s_read_timeouts : int Atomic.t;
  s_write_failures : int Atomic.t;
  s_accept_faults : int Atomic.t;
  s_in_flight : int Atomic.t;
  s_queued : int Atomic.t;
  (* sliding window of client-observed latencies (ms) feeding the
     adaptive shed decision and the Retry-After estimate *)
  lat_lock : Mutex.t;
  lat : float array; [@analyze.guarded_by "lat_lock"]
  mutable lat_len : int; [@analyze.guarded_by "lat_lock"]
  mutable lat_pos : int; [@analyze.guarded_by "lat_lock"]
}

type stats = {
  accepted : int;
  admitted : int;
  responses : int;
  shed_queue : int;
  shed_overload : int;
  shed_deadline : int;
  shed_breaker : int;
  read_timeouts : int;
  write_failures : int;
  accept_faults : int;
  in_flight : int;
  queued : int;
}

let stats t =
  {
    accepted = Atomic.get t.s_accepted;
    admitted = Atomic.get t.s_admitted;
    responses = Atomic.get t.s_responses;
    shed_queue = Atomic.get t.s_shed_queue;
    shed_overload = Atomic.get t.s_shed_overload;
    shed_deadline = Atomic.get t.s_shed_deadline;
    shed_breaker = Atomic.get t.s_shed_breaker;
    read_timeouts = Atomic.get t.s_read_timeouts;
    write_failures = Atomic.get t.s_write_failures;
    accept_faults = Atomic.get t.s_accept_faults;
    in_flight = Atomic.get t.s_in_flight;
    queued = Atomic.get t.s_queued;
  }

let shed_total s = s.shed_queue + s.shed_overload + s.shed_deadline + s.shed_breaker

let stats_json t =
  let s = stats t in
  Printf.sprintf
    "{\"accepted\":%d,\"admitted\":%d,\"responses\":%d,\"shed\":{\"queue_full\":%d,\"overload\":%d,\"deadline\":%d,\"breaker\":%d,\"total\":%d},\"read_timeouts\":%d,\"write_failures\":%d,\"accept_faults\":%d,\"in_flight\":%d,\"queued\":%d,\"breaker_state\":%s,\"draining\":%b}"
    s.accepted s.admitted s.responses s.shed_queue s.shed_overload s.shed_deadline
    s.shed_breaker (shed_total s) s.read_timeouts s.write_failures s.accept_faults s.in_flight
    s.queued
    (json_string
       (match Breaker.state t.breaker with
       | `Closed -> "closed"
       | `Open -> "open"
       | `Half_open -> "half-open"))
    (Atomic.get t.draining)

let port t = t.port

(* Gauges read the most recently created server — registered once per
   process (Obs.gauge is first-registration-wins anyway). *)
let current : t option Atomic.t = Atomic.make None

let record_latency t ms =
  Mutex.protect t.lat_lock (fun () ->
      t.lat.(t.lat_pos) <- ms;
      t.lat_pos <- (t.lat_pos + 1) mod Array.length t.lat;
      if t.lat_len < Array.length t.lat then t.lat_len <- t.lat_len + 1)

(* (p99, mean) over the latency window, [None] until a request
   completed. *)
let recent_latency t =
  Mutex.protect t.lat_lock (fun () ->
      if t.lat_len = 0 then None
      else begin
        let a = Array.sub t.lat 0 t.lat_len in
        Array.sort Float.compare a;
        let idx = min (t.lat_len - 1) (int_of_float (Float.ceil (0.99 *. float_of_int t.lat_len)) - 1) in
        let p99 = a.(max 0 idx) in
        let sum = Array.fold_left ( +. ) 0.0 a in
        Some (p99, sum /. float_of_int t.lat_len)
      end)

let recent_p99 t = Option.map fst (recent_latency t)

(* Retry-After for shed responses: roughly how long the backlog ahead
   of this client needs at the recently observed service rate. *)
let retry_after_estimate t =
  let mean_ms = match recent_latency t with Some (_, m) -> m | None -> 50.0 in
  let backlog = Atomic.get t.s_queued + Atomic.get t.s_in_flight + 1 in
  let s =
    Float.ceil (mean_ms *. float_of_int backlog /. float_of_int (max 1 t.config.max_in_flight) /. 1000.0)
  in
  max 1 (min 30 (int_of_float s))

let gauges_registered = Atomic.make false

let register_gauges () =
  if Atomic.compare_and_set gauges_registered false true then begin
    let read f = match Atomic.get current with None -> 0.0 | Some t -> f t in
    Tm_obs.Obs.gauge "serve.in_flight" (fun () -> read (fun t -> float_of_int (Atomic.get t.s_in_flight)));
    Tm_obs.Obs.gauge "serve.queued" (fun () -> read (fun t -> float_of_int (Atomic.get t.s_queued)));
    Tm_obs.Obs.gauge "serve.p99_ms" (fun () ->
        read (fun t -> match recent_p99 t with Some p -> p | None -> 0.0));
    (* Queue depth from the admission semaphore itself (permits held
       beyond the execution slots), not the shadow atomics — the gauge
       and the admission decision can't drift apart. *)
    Tm_obs.Obs.gauge "serve.queue_depth" (fun () ->
        read (fun t ->
            float_of_int (max 0 (Semaphore.in_use t.slots - t.config.max_in_flight))))
  end

let create ?port:(want_port = 0) ?canary ?durable ?(config = default_config) db =
  if config.max_in_flight < 1 then invalid_arg "Server.create: max_in_flight must be >= 1";
  if config.max_queue < 0 then invalid_arg "Server.create: max_queue must be >= 0";
  let canary = match canary with Some c -> Some c | None -> default_canary db in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, want_port));
     Unix.listen sock (config.max_in_flight + config.max_queue + 16)
   with e ->
     Unix.close sock;
     raise e);
  let port =
    match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> want_port
  in
  let t =
    {
      db;
      canary;
      durable;
      config;
      sock;
      port;
      stopping = Atomic.make false;
      draining = Atomic.make false;
      listener_closed = Atomic.make false;
      slots = Semaphore.create (config.max_in_flight + config.max_queue);
      breaker =
        Breaker.create ~failure_threshold:config.breaker_failures
          ~cooldown_ms:config.breaker_cooldown_ms ();
      s_accepted = Atomic.make 0;
      s_admitted = Atomic.make 0;
      s_responses = Atomic.make 0;
      s_shed_queue = Atomic.make 0;
      s_shed_overload = Atomic.make 0;
      s_shed_deadline = Atomic.make 0;
      s_shed_breaker = Atomic.make 0;
      s_read_timeouts = Atomic.make 0;
      s_write_failures = Atomic.make 0;
      s_accept_faults = Atomic.make 0;
      s_in_flight = Atomic.make 0;
      s_queued = Atomic.make 0;
      lat_lock = Mutex.create ();
      lat = Array.make 512 0.0;
      lat_len = 0;
      lat_pos = 0;
    }
  in
  Atomic.set current (Some t);
  register_gauges ();
  t

let reason_phrase = function
  | 200 -> "OK"
  | 202 -> "Accepted"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Content Too Large"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Error"

let close_quiet fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

(* The [serve.write] failpoint guards the whole response write, so a
   chaos run exercises the "response lost on the wire" path; the
   failure is counted and logged by [finish], never silent. *)
let write_response fd (r : response) =
  Fault.guard "serve.write";
  let retry =
    match r.retry_after_s with
    | None -> ""
    | Some s -> Printf.sprintf "Retry-After: %d\r\n" s
  in
  let s =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n%sConnection: close\r\n\r\n%s"
      r.status (reason_phrase r.status) r.content_type (String.length r.body) retry r.body
  in
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

(* Exactly-once accounting for an accepted connection: a full response
   written ([s_responses]) or a logged write failure
   ([s_write_failures]). Returns whether the response reached the
   client. *)
let finish t fd resp =
  (* Close the request's flight window: the ambient context is only
     installed on the admitted path, so shed-at-accept responses (which
     never saw a [Req_begin]) don't produce an orphan end marker. *)
  if Tm_obs.Flight.enabled () then begin
    match Tm_obs.Context.get () with
    | Some rid -> Tm_obs.Flight.emit_traced rid Tm_obs.Flight.Req_end resp.status 0 ""
    | None -> ()
  end;
  match write_response fd resp with
  | () ->
    Atomic.incr t.s_responses;
    Tm_obs.Obs.incr c_responses;
    true
  | exception e ->
    reraise_if_fatal e;
    Atomic.incr t.s_write_failures;
    Tm_obs.Obs.incr c_write_failures;
    Tm_obs.Obs.warn ~site:"serve.write"
      (Printf.sprintf "response (%d) lost: %s" resp.status (Printexc.to_string e));
    false

type read_outcome =
  | Complete of string
  | Too_large
  | Read_timeout
  | Read_error of string

(* Read until the end of the request headers, under the read deadline
   (SO_RCVTIMEO on the client socket) and the total size cap. EOF
   before the header terminator yields what arrived — the request-line
   parse downstream turns garbage into a 400. *)
let read_request t fd =
  let cap = t.config.max_request_bytes in
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 1024 in
  let terminator_seen () =
    let s = Buffer.contents buf in
    let rec find i =
      if i + 3 >= String.length s then false
      else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n' then true
      else find (i + 1)
    in
    find 0
  in
  let rec go () =
    if Buffer.length buf > cap then Too_large
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> Complete (Buffer.contents buf)
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        if terminator_seen () then Complete (Buffer.contents buf) else go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> Read_timeout
      | exception Unix.Unix_error (e, _, _) -> Read_error (Unix.error_message e)
  in
  go ()

let request_line raw =
  let line =
    match String.index_opt raw '\r' with
    | Some i -> String.sub raw 0 i
    | None -> ( match String.index_opt raw '\n' with Some i -> String.sub raw 0 i | None -> raw)
  in
  match String.split_on_char ' ' line with
  | meth :: target :: _ when not (String.equal meth "") && not (String.equal target "") ->
    Some (meth, target)
  | _ -> None

let now_ns () = Monotonic_clock.now ()
let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6

(* Ending the accept loop: [shutdown] (not just [close]) on the
   listening socket — on Linux, closing an fd leaves a concurrently
   blocked [accept] asleep forever; shutting the socket down wakes it
   with EINVAL. *)
let close_listener t =
  if Atomic.compare_and_set t.listener_closed false true then begin
    (try Unix.shutdown t.sock Unix.SHUTDOWN_ALL with Unix.Unix_error (_, _, _) -> ());
    close_quiet t.sock
  end

let drain t =
  if not (Atomic.get t.draining) then begin
    Atomic.set t.draining true;
    close_listener t
  end

let stop t =
  Atomic.set t.stopping true;
  close_listener t

let live t = not (Atomic.get t.stopping) && not (Atomic.get t.draining)

(* The admitted path, running on a pool worker (inline only if the
   caller passed a jobs=1 pool to [run]): burn-down of the per-request
   deadline, hardened read, dispatch, response — with the slot released
   and the fd closed on every path, exceptions included. *)
let serve_admitted t client token t_accept =
  Fun.protect
    ~finally:(fun () ->
      Semaphore.release t.slots;
      close_quiet client)
  @@ fun () ->
  Atomic.decr t.s_queued;
  Atomic.incr t.s_in_flight;
  Fun.protect ~finally:(fun () -> Atomic.decr t.s_in_flight)
  @@ fun () ->
  (* Request-scoped flight window: a fresh process-unique id tags every
     event this request triggers (semaphore, executor, WAL, breaker) so
     a post-mortem can reconstruct each in-flight request's last
     moments. Installed as the ambient context; [finish] closes the
     window with the response status. *)
  let rid = if Tm_obs.Flight.enabled () then Tm_obs.Journal.next_id () else 0 in
  let body () =
    Tm_obs.Obs.observe h_queue_wait_ms (ms_since t_accept);
    if Cancel.cancelled token then begin
      (* The request spent its whole budget waiting: shed it instead of
         running work whose client-visible deadline already expired. *)
      Atomic.incr t.s_shed_deadline;
      Tm_obs.Obs.incr c_shed;
      Tm_obs.Flight.emit Tm_obs.Flight.Shed 2 0 "deadline expired in queue";
      ignore
        (finish t client
           (respond ~retry_after_s:(retry_after_estimate t) 503 json
              "{\"error\":\"deadline expired in the admission queue\"}"))
    end
    else
      match read_request t client with
      | Too_large ->
        ignore (finish t client (respond 413 json "{\"error\":\"request headers too large\"}"))
      | Read_timeout ->
        Atomic.incr t.s_read_timeouts;
        ignore (finish t client (respond 408 json "{\"error\":\"timed out reading request\"}"))
      | Read_error msg ->
        ignore
          (finish t client
             (respond 400 json (Printf.sprintf "{\"error\":%s}" (json_string ("read: " ^ msg)))))
      | Complete raw -> (
        match request_line raw with
        | None -> ignore (finish t client (respond 400 json "{\"error\":\"malformed request line\"}"))
        | Some (meth, target) -> (
          let path, _ = split_target target in
          match path with
          | "/drain" ->
            drain t;
            ignore
              (finish t client
                 (respond 202 json "{\"status\":\"draining\",\"note\":\"listener closed; finishing in-flight requests\"}"))
          | "/stats" -> ignore (finish t client (respond 200 json (stats_json t)))
          | _ ->
            let resp =
              handle ?canary:t.canary ?durable:t.durable ~cancel:token ~breaker:t.breaker t.db
                ~meth ~target
            in
            let delivered = finish t client resp in
            (* Shed decisions watch the client-observed latency of
               requests that actually ran (queue wait included). *)
            if delivered && resp.status <> 429 then record_latency t (ms_since t_accept)))
  in
  if rid = 0 then body ()
  else begin
    Tm_obs.Flight.emit_traced rid Tm_obs.Flight.Req_begin rid
      (Semaphore.in_use t.slots) "";
    Tm_obs.Context.with_context rid body
  end

(* Close a connection whose request was never read. Closing with unread
   bytes makes the kernel send RST, which can cost the client the
   response; half-closing first puts our FIN behind the response, and
   the non-blocking drain empties what already arrived. Never waits for
   a client that has sent nothing yet. *)
let close_unread t client =
  (try
     Unix.shutdown client Unix.SHUTDOWN_SEND;
     Unix.set_nonblock client;
     let chunk = Bytes.create 1024 in
     let rec drain budget =
       if budget > 0 then
         match Unix.read client chunk 0 (Bytes.length chunk) with
         | 0 -> ()
         | n -> drain (budget - n)
     in
     drain t.config.max_request_bytes
   with Unix.Unix_error (_, _, _) -> ());
  close_quiet client

(* Shed at the accept edge: a typed 429 with a Retry-After estimate,
   written from the accept domain (bounded by SO_SNDTIMEO). *)
let shed_at_accept t client kind =
  (match kind with
  | `Queue_full -> Atomic.incr t.s_shed_queue
  | `Overload -> Atomic.incr t.s_shed_overload);
  Tm_obs.Obs.incr c_shed;
  let why =
    match kind with
    | `Queue_full -> "admission queue full"
    | `Overload -> "shedding under latency pressure"
  in
  Tm_obs.Flight.emit Tm_obs.Flight.Shed
    (match kind with `Queue_full -> 0 | `Overload -> 1)
    0 why;
  Fun.protect
    ~finally:(fun () -> close_unread t client)
    (fun () ->
      ignore
        (finish t client
           (respond ~retry_after_s:(retry_after_estimate t) 429 json
              (Printf.sprintf "{\"error\":%s}" (json_string why)))))

let on_accept t pool client =
  Atomic.incr t.s_accepted;
  Tm_obs.Obs.incr c_accepted;
  match
    Fault.guard "serve.accept";
    Unix.setsockopt_float client Unix.SO_RCVTIMEO (t.config.read_timeout_ms /. 1000.0);
    Unix.setsockopt_float client Unix.SO_SNDTIMEO (t.config.write_timeout_ms /. 1000.0)
  with
  | exception e ->
    (* A faulted accept is a logged drop, never a silent one: the
       counter and warning are the audit trail the chaos suite sums. *)
    reraise_if_fatal e;
    Atomic.incr t.s_accept_faults;
    Tm_obs.Obs.incr c_accept_faults;
    Tm_obs.Obs.warn ~site:"serve.accept" (Printexc.to_string e);
    close_quiet client
  | () ->
    let t_accept = now_ns () in
    let queued = Atomic.get t.s_queued in
    let occupancy = Atomic.get t.s_in_flight + queued in
    let limit =
      shed_queue_limit ~max_queue:t.config.max_queue ~target_ms:t.config.shed_p99_ms
        ~p99_ms:(recent_p99 t)
    in
    (* The adaptive queue bound only gates connections that would have
       to queue: while execution slots are free, admit regardless. *)
    if occupancy >= t.config.max_in_flight && queued >= limit then
      shed_at_accept t client (if limit < t.config.max_queue then `Overload else `Queue_full)
    else if not (Semaphore.try_acquire t.slots) then shed_at_accept t client `Queue_full
    else begin
      (* Admitted: the request budget starts now and covers queue wait
         and execution; the slot travels with the task. *)
      Atomic.incr t.s_admitted;
      Atomic.incr t.s_queued;
      let token = Cancel.token () in
      Cancel.set_deadline_ms token t.config.request_timeout_ms;
      ignore (Tm_par.Pool.spawn pool (fun () -> serve_admitted t client token t_accept))
    end

type outcome = Drained | Drain_timed_out of int | Stopped

let run ?pool t =
  (* The fallback pool must keep handlers off the accept domain: a
     jobs=1 pool runs [spawn] inline, so one slow (or silent) client
     would stall [Unix.accept] for every connection behind it. One
     worker per execution slot, plus the submitting accept domain. *)
  let with_p f =
    match pool with
    | Some p -> f p
    | None -> Tm_par.Pool.with_pool ~jobs:(t.config.max_in_flight + 1) f
  in
  with_p @@ fun pool ->
  let rec loop () =
    match Unix.accept t.sock with
    | client, _ ->
      (* [on_accept] owns the fd on every internal path; this belt
         covers it raising before ownership transfers. *)
      (try on_accept t pool client
       with e ->
         (try Unix.close client with Unix.Unix_error (_, _, _) -> ());
         raise e);
      if live t then loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> if live t then loop ()
    | exception Unix.Unix_error (_, _, _) when not (live t) -> ()
  in
  loop ();
  if Atomic.get t.draining && not (Atomic.get t.stopping) then
    if Semaphore.await_idle ~timeout_ms:t.config.drain_deadline_ms t.slots then begin
      (* Everything in flight has finished: the accounting invariant
         must balance exactly now. A miss means a connection vanished
         without a response, a logged write failure, or a logged accept
         fault — capture the evidence while it is still in the rings. *)
      let s = stats t in
      let accounted = s.responses + s.write_failures + s.accept_faults in
      if accounted <> s.accepted then begin
        Tm_obs.Obs.warn ~site:"serve.accounting"
          (Printf.sprintf
             "accounting violation after drain: accepted=%d but responses=%d + write_failures=%d + accept_faults=%d"
             s.accepted s.responses s.write_failures s.accept_faults);
        if Tm_obs.Flight.enabled () then
          ignore (Tm_wal.Blackbox.dump ~reason:"accounting-violation")
      end;
      Drained
    end
    else Drain_timed_out (Semaphore.in_use t.slots)
  else Stopped
