(* Tests for the twigql serve endpoint surface. [Server.handle] is
   pure request dispatch, so most of the surface is exercised without
   a socket; the socket tests bind real loopback listeners and drive
   them from other domains — including the overload behaviours:
   admission-queue 429s, hardened parsing (400/408/413), graceful
   drain, the circuit breaker, and WAL-aware /healthz. *)

open Twigmatch
module T = Tm_xml.Xml_tree
module Server = Tm_serve.Server
module Breaker = Tm_serve.Breaker
module Fault = Tm_fault.Fault

let check = Alcotest.check

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let book_doc () =
  T.document
    [
      T.elem "book"
        [
          T.elem_text "title" "XML";
          T.elem "allauthors"
            [
              T.elem "author" [ T.elem_text "fn" "jane"; T.elem_text "ln" "poe" ];
              T.elem "author" [ T.elem_text "fn" "john"; T.elem_text "ln" "doe" ];
              T.elem "author" [ T.elem_text "fn" "jane"; T.elem_text "ln" "doe" ];
            ];
          T.elem_text "year" "2000";
        ];
    ]

(* /healthz and s-less /query plan under `Auto, which needs RP and DP *)
let mk_db () = Database.create ~strategies:[ Database.RP; Database.DP ] (book_doc ())

(* ------------------------------------------------------------------ *)
(* Pure dispatch                                                       *)
(* ------------------------------------------------------------------ *)

let test_url_decode () =
  check Alcotest.string "percent and plus" "a b/c d" (Server.url_decode "a%20b%2Fc+d");
  check Alcotest.string "untouched" "/book//author" (Server.url_decode "/book//author");
  check Alcotest.string "stray percent passes through" "100%" (Server.url_decode "100%")

let test_metrics_endpoint () =
  let db = mk_db () in
  let r = Server.handle db ~meth:"GET" ~target:"/metrics" in
  check Alcotest.int "status" 200 r.Server.status;
  check Alcotest.bool "text content type" true (contains r.Server.content_type "text/plain");
  check Alcotest.bool "prometheus types" true (contains r.Server.body "# TYPE ");
  check Alcotest.bool "request counter present" true
    (contains r.Server.body "twigmatch_serve_requests")

let test_healthz_endpoint () =
  let db = mk_db () in
  let r = Server.handle db ~meth:"GET" ~target:"/healthz" in
  check Alcotest.int "status" 200 r.Server.status;
  check Alcotest.bool "healthy" true (contains r.Server.body "\"status\":\"ok\"");
  check Alcotest.bool "pager checked" true (contains r.Server.body "\"pager_violations\":0");
  check Alcotest.bool "canary ran" true (contains r.Server.body "\"canary_rows\":1")

let test_query_endpoint () =
  let db = mk_db () in
  let r = Server.handle db ~meth:"GET" ~target:"/query?q=%2Fbook%2F%2Fauthor&hint=RP" in
  check Alcotest.int "status" 200 r.Server.status;
  check Alcotest.bool "row count" true (contains r.Server.body "\"rows\":3");
  check Alcotest.bool "strategy echoed" true (contains r.Server.body "\"strategy\":\"RP\"");
  check Alcotest.bool "ids listed" true (contains r.Server.body "\"ids\":[");
  check Alcotest.bool "trace id assigned" true (contains r.Server.body "\"trace_id\":")

let test_query_errors () =
  let db = mk_db () in
  let missing = Server.handle db ~meth:"GET" ~target:"/query" in
  check Alcotest.int "missing q" 400 missing.Server.status;
  let bad = Server.handle db ~meth:"GET" ~target:"/query?q=%5B%5Bnot-xpath" in
  check Alcotest.int "unparsable q" 400 bad.Server.status;
  check Alcotest.bool "parse error named" true (contains bad.Server.body "parse");
  let strat = Server.handle db ~meth:"GET" ~target:"/query?q=%2Fbook&hint=NOPE" in
  check Alcotest.int "unknown strategy" 400 strat.Server.status

let test_journal_endpoints () =
  let db = mk_db () in
  Tm_obs.Journal.with_enabled true (fun () ->
      Tm_obs.Journal.clear ();
      ignore (Server.handle db ~meth:"GET" ~target:"/query?q=%2Fbook&hint=RP");
      let j = Server.handle db ~meth:"GET" ~target:"/journal" in
      check Alcotest.int "journal status" 200 j.Server.status;
      check Alcotest.bool "journal has the query" true (contains j.Server.body "/book");
      let s = Server.handle db ~meth:"GET" ~target:"/slow?threshold_ms=0" in
      check Alcotest.int "slow status" 200 s.Server.status;
      check Alcotest.bool "slow is a JSON array" true
        (String.length s.Server.body >= 2 && s.Server.body.[0] = '[');
      Tm_obs.Journal.clear ())

let test_routing_errors () =
  let db = mk_db () in
  check Alcotest.int "unknown path" 404 (Server.handle db ~meth:"GET" ~target:"/nope").Server.status;
  check Alcotest.int "non-GET" 405 (Server.handle db ~meth:"POST" ~target:"/metrics").Server.status;
  let warnings = Server.handle db ~meth:"GET" ~target:"/warnings" in
  check Alcotest.int "warnings status" 200 warnings.Server.status;
  let index = Server.handle db ~meth:"GET" ~target:"/" in
  check Alcotest.int "index status" 200 index.Server.status;
  check Alcotest.bool "index lists endpoints" true (contains index.Server.body "/metrics")

(* ------------------------------------------------------------------ *)
(* The socket server                                                   *)
(* ------------------------------------------------------------------ *)

let fetch port target =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n" target
      in
      ignore (Unix.write_substring sock req 0 (String.length req));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec loop () =
        let n = Unix.read sock chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          loop ()
        end
      in
      loop ();
      Buffer.contents buf)

let test_socket_roundtrip () =
  let db = mk_db () in
  let t = Server.create ~port:0 db in
  check Alcotest.bool "ephemeral port picked" true (Server.port t > 0);
  let d = Domain.spawn (fun () -> Server.run t) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      ignore (Domain.join d))
    (fun () ->
      let health = fetch (Server.port t) "/healthz" in
      check Alcotest.bool "HTTP 200" true (contains health "HTTP/1.1 200");
      check Alcotest.bool "healthy over the wire" true (contains health "\"status\":\"ok\"");
      let metrics = fetch (Server.port t) "/metrics" in
      check Alcotest.bool "metrics over the wire" true
        (contains metrics "twigmatch_serve_requests");
      (* the admission semaphore's queue-depth gauge registers with the
         first server and exports alongside the shadow gauges *)
      check Alcotest.bool "queue depth gauge exported" true
        (contains metrics "# TYPE twigmatch_serve_queue_depth gauge\ntwigmatch_serve_queue_depth 0\n"))

(* Open a raw connection, send [send] verbatim, and read whatever the
   server answers until it closes — the hardened-parsing harness. *)
let raw_roundtrip port send =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      (try ignore (Unix.write_substring sock send 0 (String.length send))
       with Unix.Unix_error (Unix.EPIPE, _, _) -> () (* server already answered and closed *));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec loop () =
        match Unix.read sock chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          loop ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
      in
      loop ();
      Buffer.contents buf)

let with_server ?config ?durable ~jobs f =
  let db = mk_db () in
  let t = Server.create ~port:0 ?config ?durable db in
  Tm_par.Pool.with_pool ~jobs @@ fun pool ->
  let d = Domain.spawn (fun () -> Server.run ~pool t) in
  let result = ref None in
  let join_once () =
    match !result with
    | Some o -> o
    | None ->
      let o = Domain.join d in
      result := Some o;
      o
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      ignore (join_once ()))
    (fun () ->
      f t (fun () ->
          Server.drain t;
          join_once ()))

let test_hardened_parsing () =
  let config = { Server.default_config with Server.read_timeout_ms = 200.0; max_request_bytes = 256 } in
  with_server ~config ~jobs:2 @@ fun t _drain ->
  let port = Server.port t in
  let malformed = raw_roundtrip port "GARBAGE\r\n\r\n" in
  check Alcotest.bool "malformed request line is a 400" true (contains malformed "HTTP/1.1 400");
  let huge = raw_roundtrip port ("GET / HTTP/1.1\r\nX-Pad: " ^ String.make 2048 'a' ^ "\r\n\r\n") in
  check Alcotest.bool "oversized headers are a 413" true (contains huge "HTTP/1.1 413");
  (* slowloris: a partial request line and then silence — the read
     deadline must answer 408 rather than hold the worker hostage *)
  let slow = raw_roundtrip port "GET /heal" in
  check Alcotest.bool "stalled request is a 408" true (contains slow "HTTP/1.1 408");
  let s = Server.stats t in
  check Alcotest.int "read timeout counted" 1 s.Server.read_timeouts;
  check Alcotest.int "all three accounted as responses" 3 s.Server.responses

let test_shed_429 () =
  let config =
    { Server.default_config with Server.max_in_flight = 1; max_queue = 0; read_timeout_ms = 1_000.0 }
  in
  with_server ~config ~jobs:2 @@ fun t _drain ->
  let port = Server.port t in
  (* Occupy the only slot: connect and say nothing; the admitted task
     blocks in read until its 1 s deadline. *)
  let blocker = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close blocker with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      Unix.connect blocker (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      (* wait until the server has actually admitted it *)
      let rec settle n =
        if n = 0 then Alcotest.fail "blocker was never admitted"
        else if (Server.stats t).Server.in_flight < 1 then begin
          Unix.sleepf 0.01;
          settle (n - 1)
        end
      in
      settle 200;
      let shed = fetch port "/healthz" in
      check Alcotest.bool "second connection shed with 429" true (contains shed "HTTP/1.1 429");
      check Alcotest.bool "shed carries Retry-After" true (contains shed "Retry-After:");
      let s = Server.stats t in
      check Alcotest.bool "shed counted" true (s.Server.shed_queue >= 1))

let test_graceful_drain () =
  with_server ~jobs:2 @@ fun t drain ->
  let port = Server.port t in
  let ok = fetch port "/healthz" in
  check Alcotest.bool "served before drain" true (contains ok "HTTP/1.1 200");
  let resp = fetch port "/drain" in
  check Alcotest.bool "/drain acknowledged with 202" true (contains resp "HTTP/1.1 202");
  (match drain () with
  | Server.Drained -> ()
  | Server.Drain_timed_out n -> Alcotest.fail (Printf.sprintf "drain timed out with %d inside" n)
  | Server.Stopped -> Alcotest.fail "drain reported a hard stop");
  let s = Server.stats t in
  check Alcotest.int "every accepted connection answered" s.Server.accepted
    (s.Server.responses + s.Server.write_failures + s.Server.accept_faults)

let test_adaptive_shed_limit () =
  let f = Server.shed_queue_limit ~max_queue:64 ~target_ms:100.0 in
  check Alcotest.int "no signal: full queue" 64 (f ~p99_ms:None);
  check Alcotest.int "under target: full queue" 64 (f ~p99_ms:(Some 80.0));
  check Alcotest.int "at target: full queue" 64 (f ~p99_ms:(Some 100.0));
  check Alcotest.int "midway: half queue" 32 (f ~p99_ms:(Some 150.0));
  check Alcotest.int "at 2x target: no queue" 0 (f ~p99_ms:(Some 200.0));
  check Alcotest.int "beyond 2x: still none" 0 (f ~p99_ms:(Some 500.0))

let test_breaker_state_machine () =
  let b = Breaker.create ~failure_threshold:2 ~cooldown_ms:60.0 ~max_cooldown_ms:1_000.0 () in
  check Alcotest.bool "closed admits" true (Breaker.admit b = Breaker.Allow);
  Breaker.failure b;
  check Alcotest.bool "one failure stays closed" true (Breaker.state b = `Closed);
  Breaker.failure b;
  check Alcotest.bool "threshold trips open" true (Breaker.state b = `Open);
  (match Breaker.admit b with
  | Breaker.Reject { retry_after_ms } ->
    check Alcotest.bool "retry hint within cooldown" true
      (retry_after_ms > 0.0 && retry_after_ms <= 60.0)
  | Breaker.Allow -> Alcotest.fail "open breaker must reject");
  Unix.sleepf 0.09;
  check Alcotest.bool "cooled breaker admits the probe" true (Breaker.admit b = Breaker.Allow);
  check Alcotest.bool "second caller is rejected during the probe" true
    (match Breaker.admit b with Breaker.Reject _ -> true | Breaker.Allow -> false);
  Breaker.failure b;
  check Alcotest.bool "failed probe re-opens" true (Breaker.state b = `Open);
  Unix.sleepf 0.15 (* doubled cooldown: 120 ms *);
  check Alcotest.bool "re-cooled admits again" true (Breaker.admit b = Breaker.Allow);
  Breaker.success b;
  check Alcotest.bool "successful probe closes" true (Breaker.state b = `Closed);
  check Alcotest.int "two trips recorded" 2 (Breaker.trips b)

(* A success/failure burst from several domains must leave the breaker
   in a legal state and never raise. *)
let test_breaker_concurrent () =
  let b = Breaker.create ~failure_threshold:3 ~cooldown_ms:5.0 () in
  let domains =
    List.init 4 (fun i ->
        Domain.spawn (fun () ->
            for j = 1 to 500 do
              (match Breaker.admit b with
              | Breaker.Allow -> if (i + j) mod 3 = 0 then Breaker.failure b else Breaker.success b
              | Breaker.Reject _ -> ())
            done))
  in
  List.iter Domain.join domains;
  let s = Breaker.state b in
  check Alcotest.bool "legal terminal state" true
    (s = `Closed || s = `Open || s = `Half_open)

let test_healthz_wal_degraded () =
  let dir = Filename.temp_file "twigserve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let db = mk_db () in
  let d = Durable.create ~dir db in
  Fun.protect ~finally:(fun () -> Fault.clear ()) @@ fun () ->
  let healthy = Server.handle ~durable:d db ~meth:"GET" ~target:"/healthz" in
  check Alcotest.int "healthy status" 200 healthy.Server.status;
  check Alcotest.bool "wal section present" true (contains healthy.Server.body "\"wal\":");
  check Alcotest.bool "not poisoned yet" true (contains healthy.Server.body "\"poisoned\":false");
  (* Poison the write path: the armed commit failpoint crashes the
     transaction after pages were dirtied. *)
  let root = db.Database.doc.T.roots.(0).T.id in
  Fault.inject ~site:"wal.commit" (Fault.Every 1);
  (match Durable.insert_subtree d ~parent:root (T.elem_text "note" "x") with
  | exception Fault.Io_error _ -> ()
  | _ -> Alcotest.fail "armed wal.commit should fail the insert");
  Fault.clear ();
  let degraded = Server.handle ~durable:d db ~meth:"GET" ~target:"/healthz" in
  check Alcotest.int "degraded is still 200 (reads serve)" 200 degraded.Server.status;
  check Alcotest.bool "status says degraded" true
    (contains degraded.Server.body "\"status\":\"degraded\"");
  check Alcotest.bool "poison reason surfaced" true
    (contains degraded.Server.body "\"poisoned\":\"")

(* ------------------------------------------------------------------ *)
(* Breaker counters and the open-warning                               *)
(* ------------------------------------------------------------------ *)

let test_breaker_counters_and_warn () =
  let module Obs = Tm_obs.Obs in
  let opened = Obs.counter "breaker.opened"
  and closed = Obs.counter "breaker.closed"
  and rejections = Obs.counter "breaker.rejections" in
  let captured = ref [] in
  Obs.with_enabled true @@ fun () ->
  Obs.set_warn_handler (Some (fun w -> captured := w :: !captured));
  Fun.protect ~finally:(fun () -> Obs.set_warn_handler None) @@ fun () ->
  let o0 = Obs.value opened and c0 = Obs.value closed and r0 = Obs.value rejections in
  let b = Breaker.create ~failure_threshold:2 ~cooldown_ms:60.0 () in
  Breaker.failure ~cls:"io-error" b;
  check Alcotest.int "below threshold: no open counted" o0 (Obs.value opened);
  check Alcotest.int "below threshold: no warning" 0 (List.length !captured);
  Breaker.failure ~cls:"io-error" b;
  check Alcotest.int "threshold trip counted once" (o0 + 1) (Obs.value opened);
  (match Breaker.admit b with
  | Breaker.Reject _ -> ()
  | Breaker.Allow -> Alcotest.fail "open breaker must reject");
  ignore (Breaker.admit b);
  check Alcotest.int "every rejection counted" (r0 + 2) (Obs.value rejections);
  Unix.sleepf 0.09;
  check Alcotest.bool "cooled probe admitted" true (Breaker.admit b = Breaker.Allow);
  Breaker.success b;
  check Alcotest.int "close counted on the transition" (c0 + 1) (Obs.value closed);
  Breaker.success b;
  check Alcotest.int "steady-state success not re-counted" (c0 + 1) (Obs.value closed);
  match List.rev !captured with
  | [] -> Alcotest.fail "breaker open produced no warning"
  | w :: _ ->
    check Alcotest.string "warn site" "serve.breaker" w.Obs.w_site;
    check Alcotest.bool "warn names the failure class" true (contains w.Obs.w_msg "io-error");
    check Alcotest.bool "warn counts the failures" true
      (contains w.Obs.w_msg "2 consecutive failures")

(* ------------------------------------------------------------------ *)
(* /debug endpoints                                                    *)
(* ------------------------------------------------------------------ *)

let test_debug_flight_endpoint () =
  let module Flight = Tm_obs.Flight in
  let db = mk_db () in
  Flight.with_enabled false (fun () ->
      let r = Server.handle db ~meth:"GET" ~target:"/debug/flight" in
      check Alcotest.int "disabled recorder: 503" 503 r.Server.status;
      check Alcotest.bool "disabled body says how to enable" true
        (contains r.Server.body "TWIGMATCH_FLIGHT"));
  Flight.with_enabled true (fun () ->
      Flight.clear ();
      Flight.emit Flight.Wal_fsync 0 0 "";
      Flight.emit_traced 9 Flight.Req_begin 9 1 "";
      let r = Server.handle db ~meth:"GET" ~target:"/debug/flight" in
      check Alcotest.int "json timeline: 200" 200 r.Server.status;
      check Alcotest.bool "json content type" true (contains r.Server.content_type "json");
      check Alcotest.bool "kinds in the timeline" true
        (contains r.Server.body "\"wal.fsync\"" && contains r.Server.body "\"req.begin\"");
      check Alcotest.bool "trace id rides along" true (contains r.Server.body "\"trace\":9");
      let chrome = Server.handle db ~meth:"GET" ~target:"/debug/flight?format=chrome" in
      check Alcotest.bool "chrome format is a bare array" true
        (String.length chrome.Server.body >= 2
        && chrome.Server.body.[0] = '['
        && chrome.Server.body.[String.length chrome.Server.body - 1] = ']');
      let text = Server.handle db ~meth:"GET" ~target:"/debug/flight?format=text" in
      check Alcotest.bool "text content type" true (contains text.Server.content_type "text/plain");
      check Alcotest.bool "text timeline renders kinds" true
        (contains text.Server.body "wal.fsync"));
  Flight.clear ()

let test_debug_last_dump_endpoint () =
  let module Flight = Tm_obs.Flight in
  let db = mk_db () in
  let r = Server.handle db ~meth:"GET" ~target:"/debug/last-dump" in
  check Alcotest.int "no dump yet: 404" 404 r.Server.status;
  let path = Filename.temp_file "twigserve" ".dump" in
  Fun.protect
    ~finally:(fun () ->
      Flight.set_dump_path None;
      Flight.clear ();
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Flight.with_enabled true (fun () ->
      Flight.clear ();
      Flight.emit Flight.Wal_fsync 0 0 "";
      Flight.set_dump_path (Some path);
      match Tm_wal.Blackbox.dump ~reason:"test-trigger" with
      | None -> Alcotest.fail "configured dump path should produce a dump"
      | Some p -> check Alcotest.string "dump landed on the configured path" path p);
  let r = Server.handle db ~meth:"GET" ~target:"/debug/last-dump" in
  check Alcotest.int "dump metadata: 200" 200 r.Server.status;
  check Alcotest.bool "names the path" true (contains r.Server.body path);
  check Alcotest.bool "names the reason" true (contains r.Server.body "test-trigger");
  check Alcotest.bool "counts events" true (contains r.Server.body "\"events\":")

let () =
  Alcotest.run "serve"
    [
      ( "dispatch",
        [
          Alcotest.test_case "url decoding" `Quick test_url_decode;
          Alcotest.test_case "/metrics" `Quick test_metrics_endpoint;
          Alcotest.test_case "/healthz" `Quick test_healthz_endpoint;
          Alcotest.test_case "/query" `Quick test_query_endpoint;
          Alcotest.test_case "/query errors" `Quick test_query_errors;
          Alcotest.test_case "/journal and /slow" `Quick test_journal_endpoints;
          Alcotest.test_case "routing errors" `Quick test_routing_errors;
          Alcotest.test_case "/healthz reports WAL, degrades when poisoned" `Quick
            test_healthz_wal_degraded;
          Alcotest.test_case "/debug/flight formats and 503" `Quick test_debug_flight_endpoint;
          Alcotest.test_case "/debug/last-dump metadata" `Quick test_debug_last_dump_endpoint;
        ] );
      ( "overload",
        [
          Alcotest.test_case "adaptive shed limit" `Quick test_adaptive_shed_limit;
          Alcotest.test_case "breaker state machine" `Quick test_breaker_state_machine;
          Alcotest.test_case "breaker under concurrent callers" `Quick test_breaker_concurrent;
          Alcotest.test_case "breaker counters and open warning" `Quick
            test_breaker_counters_and_warn;
          Alcotest.test_case "hardened parsing: 400/408/413" `Quick test_hardened_parsing;
          Alcotest.test_case "admission full sheds 429 + Retry-After" `Quick test_shed_429;
          Alcotest.test_case "graceful drain" `Quick test_graceful_drain;
        ] );
      ("socket", [ Alcotest.test_case "loopback round-trip" `Quick test_socket_roundtrip ]);
    ]
