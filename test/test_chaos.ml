(* Chaos suite for the serving layer: four client domains drive >= 1000
   requests through a live loopback server while failpoints fire on the
   storage read path ([pager.read]), the accept edge ([serve.accept])
   and the response write ([serve.write]).

   The property under test is the accounting invariant: every accepted
   connection ends in exactly one of [responses] (a full response was
   written — 2xx/4xx/5xx sheds included), [write_failures] (the
   response was lost to an injected write fault — counted and logged),
   or [accept_faults] (the connection died at the accept edge — counted
   and logged). Nothing is silently dropped. The client side
   cross-checks: every connection either yielded a complete response or
   observably died; none hung.

   The suite ends with a graceful drain under the same faults: drain
   must finish all in-flight work and report [Drained]. *)

open Twigmatch
module T = Tm_xml.Xml_tree
module Server = Tm_serve.Server
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

let mk_db () = Database.create ~strategies:[ Database.RP; Database.DP ] (book_doc ())

(* One full client exchange. Distinguishes the three observable ends of
   a connection: a complete HTTP response, a connection that died
   without one (accept fault / write fault — the server logs those), or
   a refused connect. *)
type exchange = Response of string | Died | Refused

let exchange port target =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      match Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
      | exception Unix.Unix_error (_, _, _) -> Refused
      | () -> (
        let req =
          Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
            target
        in
        match Unix.write_substring sock req 0 (String.length req) with
        | exception Unix.Unix_error (_, _, _) -> Died
        | _ -> (
          let buf = Buffer.create 512 in
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
          match Buffer.contents buf with
          | "" -> Died
          | body when contains body "HTTP/1.1 " -> Response body
          | _ -> Died)))

let targets =
  [|
    "/query?q=%2Fbook%2F%2Fauthor";
    "/query?q=%2Fbook%2Fallauthors%2Fauthor%2Ffn";
    "/healthz";
    "/metrics";
    "/stats";
  |]

let quiesce t =
  let rec go n =
    let s = Server.stats t in
    if s.Server.in_flight = 0 && s.Server.queued = 0 then ()
    else if n = 0 then Alcotest.fail "server never quiesced after the client storm"
    else begin
      Unix.sleepf 0.02;
      go (n - 1)
    end
  in
  go 500

let test_chaos_no_silent_drops () =
  (* the storm is noisy by design; keep the warning ring but mute stderr *)
  Tm_obs.Obs.set_warn_handler (Some (fun _ -> ()));
  let db = mk_db () in
  let config =
    {
      Server.default_config with
      Server.max_in_flight = 4;
      max_queue = 8;
      request_timeout_ms = 5_000.0;
      read_timeout_ms = 2_000.0;
      drain_deadline_ms = 10_000.0;
    }
  in
  let t = Server.create ~port:0 ~config db in
  Tm_par.Pool.with_pool ~jobs:4 @@ fun pool ->
  let d = Domain.spawn (fun () -> Server.run ~pool t) in
  Fun.protect
    ~finally:(fun () ->
      Fault.clear ();
      Tm_obs.Obs.set_warn_handler None;
      Server.stop t)
    (fun () ->
      Fault.inject ~site:"pager.read" (Fault.Prob 0.01);
      Fault.inject ~site:"serve.accept" (Fault.Prob 0.02);
      Fault.inject ~site:"serve.write" (Fault.Prob 0.02);
      let per_client = 260 in
      let clients = 4 in
      let port = Server.port t in
      let domains =
        List.init clients (fun ci ->
            Domain.spawn (fun () ->
                let responses = ref 0 and died = ref 0 and refused = ref 0 in
                for i = 1 to per_client do
                  match exchange port targets.((ci + i) mod Array.length targets) with
                  | Response _ -> incr responses
                  | Died -> incr died
                  | Refused -> incr refused
                done;
                (!responses, !died, !refused)))
      in
      let results = List.map Domain.join domains in
      let total_responses = List.fold_left (fun a (r, _, _) -> a + r) 0 results in
      let total_died = List.fold_left (fun a (_, d, _) -> a + d) 0 results in
      let total_refused = List.fold_left (fun a (_, _, r) -> a + r) 0 results in
      check Alcotest.int "every client exchange terminated"
        (clients * per_client)
        (total_responses + total_died + total_refused);
      check Alcotest.int "loopback connects never refused" 0 total_refused;
      quiesce t;
      let s = Server.stats t in
      check Alcotest.bool "the storm was big enough" true (s.Server.accepted >= 1000);
      check Alcotest.bool "faults actually fired" true
        (s.Server.accept_faults > 0 && s.Server.write_failures > 0);
      (* The invariant: accepted connections are exhaustively accounted
         for — answered, or counted+logged as lost. Zero silent drops. *)
      check Alcotest.int "accepted = responses + write_failures + accept_faults"
        s.Server.accepted
        (s.Server.responses + s.Server.write_failures + s.Server.accept_faults);
      (* Client and server agree about every lost connection. *)
      check Alcotest.int "client-observed deaths match server-logged losses" total_died
        (s.Server.write_failures + s.Server.accept_faults);
      check Alcotest.int "client-observed responses match server-written ones" total_responses
        s.Server.responses;
      (* Drain under the same faults: everything in flight completes. *)
      Server.drain t;
      match Domain.join d with
      | Server.Drained -> ()
      | Server.Drain_timed_out n ->
        Alcotest.fail (Printf.sprintf "drain timed out with %d request(s) inside" n)
      | Server.Stopped -> Alcotest.fail "drain reported a hard stop")

(* Deadline chaos: a tight request budget plus injected storage delays
   force requests to die in the queue; they must still be answered
   (503) and counted — the invariant holds under timeout pressure. *)
let test_chaos_deadline_sheds_are_answered () =
  Tm_obs.Obs.set_warn_handler (Some (fun _ -> ()));
  let db = mk_db () in
  let config =
    {
      Server.default_config with
      Server.max_in_flight = 1;
      max_queue = 8;
      request_timeout_ms = 30.0;
      read_timeout_ms = 500.0;
      drain_deadline_ms = 10_000.0;
    }
  in
  let t = Server.create ~port:0 ~config db in
  Tm_par.Pool.with_pool ~jobs:2 @@ fun pool ->
  let d = Domain.spawn (fun () -> Server.run ~pool t) in
  Fun.protect
    ~finally:(fun () ->
      Fault.clear ();
      Tm_obs.Obs.set_warn_handler None;
      Server.stop t;
      ignore (Domain.join d))
    (fun () ->
      (* every query sits ~50 ms in the single execution slot, so a
         30 ms budget dies while queued behind it *)
      Fault.inject ~site:"serve.write" ~action:(Fault.Delay_ms 50) (Fault.Every 1);
      let port = Server.port t in
      let domains =
        List.init 4 (fun _ ->
            Domain.spawn (fun () ->
                let shed = ref 0 in
                for _ = 1 to 10 do
                  match exchange port "/healthz" with
                  | Response body when contains body "HTTP/1.1 503" -> incr shed
                  | Response _ | Died | Refused -> ()
                done;
                !shed))
      in
      let sheds = List.fold_left (fun a s -> a + Domain.join s) 0 domains in
      quiesce t;
      let s = Server.stats t in
      check Alcotest.bool "some requests died in the queue" true
        (s.Server.shed_deadline > 0 && sheds > 0);
      check Alcotest.int "still exhaustively accounted" s.Server.accepted
        (s.Server.responses + s.Server.write_failures + s.Server.accept_faults))

(* Shedding at the accept edge under a burst. Both admission places —
   the one execution slot and the one queue slot — are held by silent
   connections, so every arrival of the burst is past
   [max_in_flight + max_queue] and must be answered 429 from the accept
   domain. Clients read to EOF; a reset (or EOF) before any status line
   is a lost response, however the server counted it. *)
type shed_end = Status of int | Lost

let shed_exchange port target =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n" target
      in
      (try ignore (Unix.write_substring sock req 0 (String.length req))
       with Unix.Unix_error (_, _, _) -> () (* read what arrived before the failure *));
      let buf = Buffer.create 512 in
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
      let body = Buffer.contents buf in
      match String.index_opt body '\r' with
      | Some i when i >= 12 && String.sub body 0 9 = "HTTP/1.1 " -> (
        match int_of_string_opt (String.sub body 9 3) with Some code -> Status code | None -> Lost)
      | Some _ | None -> Lost)

let test_chaos_shed_at_accept () =
  Tm_obs.Obs.set_warn_handler (Some (fun _ -> ()));
  let db = mk_db () in
  let config =
    {
      Server.default_config with
      Server.max_in_flight = 1;
      max_queue = 1;
      request_timeout_ms = 30_000.0;
      read_timeout_ms = 10_000.0;
      drain_deadline_ms = 10_000.0;
    }
  in
  let t = Server.create ~port:0 ~config db in
  (* one worker: the execution slot's holder blocks it, so the queue
     slot's holder stays queued *)
  Tm_par.Pool.with_pool ~jobs:2 @@ fun pool ->
  let d = Domain.spawn (fun () -> Server.run ~pool t) in
  let port = Server.port t in
  let holders = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun s -> try Unix.close s with Unix.Unix_error (_, _, _) -> ()) !holders;
      Tm_obs.Obs.set_warn_handler None;
      Server.stop t;
      ignore (Domain.join d))
    (fun () ->
      let hold () =
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        holders := s :: !holders;
        Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
      in
      let rec settle n pred =
        if not (pred (Server.stats t)) then
          if n = 0 then Alcotest.fail "the holders were never admitted"
          else begin
            Unix.sleepf 0.01;
            settle (n - 1) pred
          end
      in
      hold ();
      settle 500 (fun s -> s.Server.in_flight = 1);
      hold ();
      settle 500 (fun s -> s.Server.queued = 1);
      let clients = 4 and per_client = 25 in
      let burst =
        List.init clients (fun _ ->
            Domain.spawn (fun () ->
                List.init per_client (fun _ -> shed_exchange port "/healthz")))
        |> List.concat_map Domain.join
      in
      let count p = List.length (List.filter p burst) in
      let lost = count (function Lost -> true | Status _ -> false) in
      let shed = count (function Status 429 -> true | Status _ | Lost -> false) in
      check Alcotest.int "no response lost to a reset" 0 lost;
      check Alcotest.int "every arrival past the bound answered 429" (clients * per_client) shed;
      let s = Server.stats t in
      check Alcotest.int "429s received = shed_queue + shed_overload" shed
        (s.Server.shed_queue + s.Server.shed_overload);
      (* release the holders: each sends a request that touches no
         storage (so it is served whatever failpoints are armed) *)
      List.iter
        (fun sock ->
          let req = "GET /stats HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n" in
          ignore (Unix.write_substring sock req 0 (String.length req)))
        (List.rev !holders);
      List.iter
        (fun sock ->
          let buf = Buffer.create 256 and chunk = Bytes.create 1024 in
          let rec loop () =
            match Unix.read sock chunk 0 (Bytes.length chunk) with
            | 0 -> ()
            | n ->
              Buffer.add_subbytes buf chunk 0 n;
              loop ()
          in
          loop ();
          check Alcotest.bool "held connection served" true
            (contains (Buffer.contents buf) "HTTP/1.1 200"))
        (List.rev !holders);
      quiesce t;
      let s = Server.stats t in
      check Alcotest.int "accepted = burst + holders"
        ((clients * per_client) + 2)
        s.Server.accepted;
      check Alcotest.int "accepted = responses + write_failures + accept_faults" s.Server.accepted
        (s.Server.responses + s.Server.write_failures + s.Server.accept_faults))

(* Flight-recorder post-mortem under load: with the recorder on, hold
   both execution slots mid-query (cold caches + delayed page reads),
   then dump the rings — exactly what the SIGQUIT handler does to a
   killed server. The post-mortem must parse with every CRC frame
   intact, keep each domain's window dense and time-ordered, and
   reconstruct each in-flight request as a [req.begin] (with its
   [query.begin]) that never reached [req.end]. *)
let test_chaos_flight_dump_reconstructs_in_flight () =
  let module Flight = Tm_obs.Flight in
  let module Blackbox = Tm_wal.Blackbox in
  Tm_obs.Obs.set_warn_handler (Some (fun _ -> ()));
  let db = mk_db () in
  let config =
    {
      Server.default_config with
      Server.max_in_flight = 2;
      max_queue = 4;
      request_timeout_ms = 30_000.0;
      read_timeout_ms = 2_000.0;
      drain_deadline_ms = 10_000.0;
    }
  in
  let dump_file = Filename.temp_file "twigchaos" ".dump" in
  Flight.with_enabled true @@ fun () ->
  Flight.clear ();
  Flight.set_dump_path (Some dump_file);
  let t = Server.create ~port:0 ~config db in
  (* roomy pool: the two admitted handlers and their executors' scan
     subtasks must all run concurrently for the overlap to be held *)
  Tm_par.Pool.with_pool ~jobs:6 @@ fun pool ->
  let d = Domain.spawn (fun () -> Server.run ~pool t) in
  Fun.protect
    ~finally:(fun () ->
      Fault.clear ();
      Flight.set_dump_path None;
      Flight.clear ();
      Tm_obs.Obs.set_warn_handler None;
      (try Sys.remove dump_file with Sys_error _ -> ());
      Server.stop t;
      ignore (Domain.join d))
    (fun () ->
      (* cold caches so the queries must visit the pager, where every
         read stalls long enough to straddle the dump *)
      Database.drop_caches db;
      Fault.inject ~site:"pager.read" ~action:(Fault.Delay_ms 150) (Fault.Every 1);
      let port = Server.port t in
      let clients =
        List.init 2 (fun _ ->
            Domain.spawn (fun () -> exchange port "/query?q=%2Fbook%2F%2Fauthor"))
      in
      (* wait until both requests opened their flight windows and began
         executing — from there each sits >= 150 ms in a page read.
         Requests and queries are separate windows: [req.begin] is keyed
         by the request id, the executor installs its own query trace. *)
      let open_windows bkind ekind events =
        let ended id =
          List.exists
            (fun (e : Flight.event) -> e.Flight.e_kind == ekind && e.Flight.e_trace = id)
            events
        in
        List.filter_map
          (fun (e : Flight.event) ->
            if e.Flight.e_kind == bkind && e.Flight.e_trace <> 0 && not (ended e.Flight.e_trace)
            then Some e.Flight.e_trace
            else None)
          events
        |> List.sort_uniq compare
      in
      let rec wait n =
        if n = 0 then Alcotest.fail "requests never reached mid-query execution";
        let live = Flight.snapshot () in
        if
          List.length (open_windows Flight.Req_begin Flight.Req_end live) < 2
          || List.length (open_windows Flight.Query_begin Flight.Query_end live) < 2
        then begin
          Unix.sleepf 0.002;
          wait (n - 1)
        end
      in
      wait 5_000;
      let live = Flight.snapshot () in
      let held_reqs = open_windows Flight.Req_begin Flight.Req_end live in
      let held_queries = open_windows Flight.Query_begin Flight.Query_end live in
      (match Blackbox.dump ~reason:"chaos-kill" with
      | None -> Alcotest.fail "enabled recorder with a configured path must dump"
      | Some p -> check Alcotest.string "dump path honoured" dump_file p);
      (* the storm keeps running; the post-mortem is already on disk *)
      List.iter (fun c -> ignore (Domain.join c)) clients;
      let dump = Blackbox.load_dump dump_file in
      check Alcotest.bool "every CRC frame intact" true (dump.Blackbox.d_damaged = None);
      check Alcotest.string "dump reason recorded" "chaos-kill" dump.Blackbox.d_reason;
      check Alcotest.int "footer count matches the frames" dump.Blackbox.d_total
        (List.fold_left (fun a (_, es) -> a + List.length es) 0 dump.Blackbox.d_domains);
      (* per-domain ordering: dense sequence numbers, monotone clock *)
      List.iter
        (fun (_, es) ->
          ignore
            (List.fold_left
               (fun prev (e : Flight.event) ->
                 (match prev with
                 | None -> ()
                 | Some (pseq, pts) ->
                   check Alcotest.int "dense per-domain seq" (pseq + 1) e.Flight.e_seq;
                   check Alcotest.bool "monotone per-domain clock" true
                     (e.Flight.e_ts_ns >= pts));
                 Some (e.Flight.e_seq, e.Flight.e_ts_ns))
               None es))
        dump.Blackbox.d_domains;
      (* reconstruction: every window held open at dump time appears in
         the post-mortem with its begin marker and no end *)
      let events = Flight.merge_events dump.Blackbox.d_domains in
      let has kind id =
        List.exists
          (fun (e : Flight.event) -> e.Flight.e_kind == kind && e.Flight.e_trace = id)
          events
      in
      check Alcotest.int "both held requests seen live" 2 (List.length held_reqs);
      check Alcotest.int "both held queries seen live" 2 (List.length held_queries);
      List.iter
        (fun rid ->
          check Alcotest.bool "req.begin survived" true (has Flight.Req_begin rid);
          check Alcotest.bool "no req.end: still in flight" false (has Flight.Req_end rid))
        held_reqs;
      List.iter
        (fun qid ->
          check Alcotest.bool "query.begin survived" true (has Flight.Query_begin qid);
          check Alcotest.bool "no query.end: still executing" false (has Flight.Query_end qid))
        held_queries)

let () =
  Alcotest.run "chaos"
    [
      ( "serve",
        [
          Alcotest.test_case "1000+ faulted requests, zero silent drops" `Quick
            test_chaos_no_silent_drops;
          Alcotest.test_case "queue-expired budgets still answered" `Quick
            test_chaos_deadline_sheds_are_answered;
          Alcotest.test_case "mid-storm dump reconstructs in-flight requests" `Quick
            test_chaos_flight_dump_reconstructs_in_flight;
          Alcotest.test_case "burst past the admission bound: every shed 429 delivered" `Quick
            test_chaos_shed_at_accept;
        ] );
    ]
