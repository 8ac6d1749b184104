(* Flight recorder: zero cost when off, lock-free per-domain rings,
   trace correlation, CRC-framed post-mortem dumps and their damage
   tolerance, and the Chrome export shape. *)

module Flight = Tm_obs.Flight
module Blackbox = Tm_wal.Blackbox
module Obs = Tm_obs.Obs
module Export = Tm_obs.Export

let check = Alcotest.check

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.equal (String.sub s i n) sub || go (i + 1)) in
  go 0

(* Every test leaves the recorder off and the rings empty. *)
let fresh f =
  Flight.disable ();
  Flight.clear ();
  Fun.protect
    ~finally:(fun () ->
      Flight.disable ();
      Flight.clear ())
    f

(* ------------------------------------------------------------------ *)
(* Disabled cost                                                       *)
(* ------------------------------------------------------------------ *)

(* The Obs contract extended to the recorder: a disabled emit is one
   atomic load — no ring registration, no clock read, no allocation.
   Minor-heap words are a direct allocation meter. *)
let test_disabled_allocates_nothing () =
  fresh @@ fun () ->
  let before_events = Flight.total_events () in
  (* warm up any lazy setup outside the measured window *)
  Flight.emit Flight.Wal_fsync 0 0 "";
  let w0 = Gc.minor_words () in
  for i = 1 to 100_000 do
    Flight.emit Flight.Wal_fsync i 0 ""
  done;
  let dw = Gc.minor_words () -. w0 in
  check Alcotest.bool
    (Printf.sprintf "no allocation across 100k disabled emits (%.0f words)" dw)
    true (dw < 256.0);
  check Alcotest.int "nothing recorded" before_events (Flight.total_events ())

let test_disabled_records_nothing () =
  fresh @@ fun () ->
  Flight.emit Flight.Poisoned 1 2 "should vanish";
  check Alcotest.int "empty snapshot" 0 (List.length (Flight.snapshot ()))

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let test_emit_and_snapshot () =
  fresh @@ fun () ->
  Flight.with_enabled true @@ fun () ->
  Flight.emit Flight.Wal_append 67 128 "";
  Flight.emit Flight.Txn_commit 7 3 "";
  Flight.emit Flight.Span_begin 0 0 "probe";
  match Flight.snapshot () with
  | [ a; b; c ] ->
    check Alcotest.bool "kinds in order" true
      (a.Flight.e_kind = Flight.Wal_append
      && b.Flight.e_kind = Flight.Txn_commit
      && c.Flight.e_kind = Flight.Span_begin);
    check Alcotest.int "a payload" 67 a.Flight.e_a;
    check Alcotest.int "b payload" 128 a.Flight.e_b;
    check Alcotest.string "detail payload" "probe" c.Flight.e_detail;
    check Alcotest.bool "timestamps non-decreasing" true
      (a.Flight.e_ts_ns <= b.Flight.e_ts_ns && b.Flight.e_ts_ns <= c.Flight.e_ts_ns);
    check Alcotest.bool "dense ascending seq" true
      (b.Flight.e_seq = a.Flight.e_seq + 1 && c.Flight.e_seq = b.Flight.e_seq + 1)
  | es -> Alcotest.failf "expected 3 events, got %d" (List.length es)

let test_trace_correlation () =
  fresh @@ fun () ->
  Flight.with_enabled true @@ fun () ->
  Flight.emit Flight.Sem_acquire 1 0 "";
  Tm_obs.Context.with_context 42 (fun () -> Flight.emit Flight.Sem_acquire 2 0 "");
  Flight.emit_traced 7 Flight.Sem_acquire 3 0 "";
  match Flight.snapshot () with
  | [ a; b; c ] ->
    check Alcotest.int "no ambient context -> 0" 0 a.Flight.e_trace;
    check Alcotest.int "ambient context picked up" 42 b.Flight.e_trace;
    check Alcotest.int "explicit trace wins" 7 c.Flight.e_trace
  | es -> Alcotest.failf "expected 3 events, got %d" (List.length es)

(* Ring wrap: a fresh domain picks up the capacity configured at enable
   time, and only the newest [capacity] events survive. *)
let test_ring_wrap () =
  fresh @@ fun () ->
  Flight.enable ~capacity:16 ();
  let events =
    Domain.join
      (Domain.spawn (fun () ->
           for i = 1 to 100 do
             Flight.emit Flight.Pool_evict i 0 ""
           done;
           List.filter
             (fun e -> e.Flight.e_kind = Flight.Pool_evict)
             (Flight.snapshot ())))
  in
  (* The snapshot conservatively discards the one slot a concurrent
     write could be tearing, so a quiescent full ring yields
     capacity - 1 events. *)
  check Alcotest.int "window is the ring capacity minus the write slot" 15
    (List.length events);
  let a_values = List.map (fun e -> e.Flight.e_a) events in
  check Alcotest.(list int) "newest events survive the wrap"
    (List.init 15 (fun i -> 86 + i))
    a_values;
  let seqs = List.map (fun e -> e.Flight.e_seq) events in
  check Alcotest.(list int) "seq stays dense across the wrap"
    (List.init 15 (fun i -> 85 + i))
    seqs

let test_obs_span_emits_flight_events () =
  fresh @@ fun () ->
  Flight.with_enabled true @@ fun () ->
  Obs.with_enabled true (fun () ->
      ignore (Obs.trace "root" (fun () -> Obs.with_span "inner" (fun () -> 42))));
  let names =
    List.map
      (fun e -> (Flight.kind_name e.Flight.e_kind, e.Flight.e_detail))
      (Flight.snapshot ())
  in
  (* only the trace root reaches the flight ring; operator-level spans
     stay in the trace tree (they would dominate the timeline) *)
  List.iter
    (fun expected ->
      check Alcotest.bool
        (Printf.sprintf "(%s, %s) recorded" (fst expected) (snd expected))
        true (List.mem expected names))
    [ ("span.begin", "root"); ("span.end", "root") ];
  List.iter
    (fun absent ->
      check Alcotest.bool
        (Printf.sprintf "(%s, %s) not recorded" (fst absent) (snd absent))
        false (List.mem absent names))
    [ ("span.begin", "inner"); ("span.end", "inner") ]

let test_kind_codes_roundtrip () =
  Array.iter
    (fun k ->
      check Alcotest.bool (Flight.kind_name k ^ " round-trips") true
        (Flight.kind_of_code (Flight.kind_code k) == k))
    (Array.init 37 Flight.kind_of_code);
  check Alcotest.bool "unknown future code decodes to Unknown" true
    (Flight.kind_of_code 200 = Flight.Unknown);
  check Alcotest.bool "retired semaphore codes decode to Unknown" true
    (Flight.kind_of_code 24 = Flight.Unknown && Flight.kind_of_code 25 = Flight.Unknown)

(* ------------------------------------------------------------------ *)
(* Post-mortem dumps                                                   *)
(* ------------------------------------------------------------------ *)

let temp_dump () = Filename.temp_file "twigql-flight" ".dump"

let test_dump_roundtrip () =
  fresh @@ fun () ->
  Flight.with_enabled true @@ fun () ->
  Flight.emit_traced 9 Flight.Wal_append 67 4096 "";
  Flight.emit Flight.Txn_abort (-3) 2 "rolled back";
  Flight.emit Flight.Breaker_open 5 0 "io-error";
  let path = temp_dump () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Blackbox.dump_to ~path ~reason:"unit-test";
  let d = Blackbox.load_dump path in
  check Alcotest.int "version" 2 d.Blackbox.d_version;
  check Alcotest.int "pid" (Unix.getpid ()) d.Blackbox.d_pid;
  check Alcotest.string "reason" "unit-test" d.Blackbox.d_reason;
  check Alcotest.bool "footer intact" true (d.Blackbox.d_damaged = None);
  check Alcotest.int "footer counts every event" 3 d.Blackbox.d_total;
  let live = Flight.snapshot () in
  let dumped = Flight.merge_events d.Blackbox.d_domains in
  check Alcotest.int "all events round-trip" (List.length live) (List.length dumped);
  List.iter2
    (fun (l : Flight.event) (r : Flight.event) ->
      check Alcotest.bool "event identical" true
        (l.Flight.e_kind = r.Flight.e_kind
        && l.Flight.e_ts_ns = r.Flight.e_ts_ns
        && l.Flight.e_trace = r.Flight.e_trace
        && l.Flight.e_a = r.Flight.e_a
        && l.Flight.e_b = r.Flight.e_b
        && String.equal l.Flight.e_detail r.Flight.e_detail))
    live dumped

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Damage past the header parses up to the damage; a clobbered header
   is not a dump at all. *)
let test_dump_damage () =
  fresh @@ fun () ->
  Flight.with_enabled true @@ fun () ->
  for i = 1 to 50 do
    Flight.emit Flight.Epoch_pin i 0 ""
  done;
  let path = temp_dump () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Blackbox.dump_to ~path ~reason:"to-be-damaged";
  let raw = read_file path in
  (* flip one byte near the end: inside the domain frame or the footer *)
  let damaged = Bytes.of_string raw in
  let pos = Bytes.length damaged - 6 in
  Bytes.set damaged pos (Char.chr (Char.code (Bytes.get damaged pos) lxor 0xff));
  write_file path (Bytes.to_string damaged);
  let d = Blackbox.load_dump path in
  check Alcotest.bool "damage detected" true (d.Blackbox.d_damaged <> None);
  check Alcotest.string "header survives" "to-be-damaged" d.Blackbox.d_reason;
  (* truncation to garbage headers refuses to parse *)
  (match Blackbox.parse_dump "XY not a dump" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "headerless blob accepted");
  (* an empty reason for concern: CRC catches a single flipped payload
     byte mid-file too *)
  let mid = Bytes.of_string raw in
  let mpos = (Bytes.length mid / 2) + 7 in
  Bytes.set mid mpos (Char.chr (Char.code (Bytes.get mid mpos) lxor 0x01));
  write_file path (Bytes.to_string mid);
  match Blackbox.load_dump path with
  | d -> check Alcotest.bool "mid-file flip flagged" true (d.Blackbox.d_damaged <> None)
  | exception Failure _ -> () (* flipped inside the header frame: also caught *)

(* Writers keep emitting on their own domains while the main domain
   snapshots and dumps: the seqlock must never yield a torn event, so
   every dumped ring parses with dense ascending seq and non-decreasing
   timestamps. *)
let test_concurrent_dump_consistency () =
  fresh @@ fun () ->
  Flight.enable ~capacity:128 ();
  let stop = Atomic.make false in
  let writers =
    List.init 3 (fun w ->
        Domain.spawn (fun () ->
            let n = ref 0 in
            while not (Atomic.get stop) do
              incr n;
              Flight.emit Flight.Sem_acquire !n w "writer-storm"
            done;
            !n))
  in
  let path = temp_dump () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let dumps =
    List.init 10 (fun i ->
        ignore (Flight.snapshot ());
        Blackbox.dump_to ~path ~reason:(Printf.sprintf "storm-%d" i);
        Blackbox.load_dump path)
  in
  Atomic.set stop true;
  let written = List.fold_left ( + ) 0 (List.map Domain.join writers) in
  check Alcotest.bool "writers made progress" true (written > 0);
  List.iter
    (fun d ->
      check Alcotest.bool "no damage under concurrency" true (d.Blackbox.d_damaged = None);
      List.iter
        (fun (_dom, events) ->
          ignore
            (List.fold_left
               (fun prev (e : Flight.event) ->
                 (match prev with
                 | None -> ()
                 | Some (pseq, pts) ->
                   check Alcotest.int "seq dense within a domain" (pseq + 1) e.Flight.e_seq;
                   check Alcotest.bool "ts non-decreasing within a domain" true
                     (pts <= e.Flight.e_ts_ns));
                 Some (e.Flight.e_seq, e.Flight.e_ts_ns))
               None events))
        d.Blackbox.d_domains)
    dumps

let test_automatic_dump_trigger () =
  fresh @@ fun () ->
  let path = temp_dump () in
  Fun.protect
    ~finally:(fun () ->
      Flight.set_dump_path None;
      if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  (* disabled, or no path: the trigger stays quiet *)
  Flight.set_dump_path None;
  check Alcotest.bool "no path -> no dump" true (Blackbox.dump ~reason:"x" = None);
  Flight.with_enabled true @@ fun () ->
  Flight.set_dump_path (Some path);
  Flight.emit Flight.Poisoned 0 0 "wal: short write";
  (match Blackbox.dump ~reason:"durable-poison" with
  | None -> Alcotest.fail "expected a dump path"
  | Some p -> check Alcotest.string "dumped to the configured path" path p);
  let d = Blackbox.load_dump path in
  check Alcotest.string "reason recorded" "durable-poison" d.Blackbox.d_reason;
  let kinds =
    List.map (fun e -> e.Flight.e_kind) (Flight.merge_events d.Blackbox.d_domains)
  in
  check Alcotest.bool "the trigger logs itself as a Dump event" true
    (List.mem Flight.Dump kinds);
  match Blackbox.last_dump () with
  | None -> Alcotest.fail "last_dump metadata missing"
  | Some ld ->
    check Alcotest.string "last_dump path" path ld.Blackbox.ld_path;
    check Alcotest.string "last_dump reason" "durable-poison" ld.Blackbox.ld_reason

(* ------------------------------------------------------------------ *)
(* Exports                                                             *)
(* ------------------------------------------------------------------ *)

let test_chrome_export_shape () =
  fresh @@ fun () ->
  Flight.with_enabled true @@ fun () ->
  Tm_obs.Context.with_context 5 (fun () ->
      Flight.emit Flight.Req_begin 5 1 "";
      Flight.emit Flight.Wal_fsync 0 0 "";
      Flight.emit Flight.Req_end 200 0 "");
  let chrome = Export.flight_to_chrome (Flight.snapshot ()) in
  check Alcotest.bool "bare trace-event array" true
    (String.length chrome > 1 && chrome.[0] = '[' && chrome.[String.length chrome - 1] = ']');
  check Alcotest.bool "request spans pair B/E" true
    (contains chrome "\"ph\":\"B\"" && contains chrome "\"ph\":\"E\"");
  check Alcotest.bool "instants are thread-scoped" true
    (contains chrome "\"ph\":\"i\"" && contains chrome "\"s\":\"t\"");
  check Alcotest.bool "trace id correlates" true (contains chrome "\"trace\":5");
  let j = Export.flight_to_json (Flight.snapshot ()) in
  check Alcotest.bool "json names kinds" true
    (contains j "\"kind\":\"req.begin\"" && contains j "\"kind\":\"wal.fsync\"")

let () =
  Alcotest.run "flight"
    [
      ( "disabled",
        [
          Alcotest.test_case "allocates nothing" `Quick test_disabled_allocates_nothing;
          Alcotest.test_case "records nothing" `Quick test_disabled_records_nothing;
        ] );
      ( "recording",
        [
          Alcotest.test_case "emit and snapshot" `Quick test_emit_and_snapshot;
          Alcotest.test_case "trace correlation" `Quick test_trace_correlation;
          Alcotest.test_case "ring wrap" `Quick test_ring_wrap;
          Alcotest.test_case "obs spans emit events" `Quick test_obs_span_emits_flight_events;
          Alcotest.test_case "kind codes round-trip" `Quick test_kind_codes_roundtrip;
        ] );
      ( "dumps",
        [
          Alcotest.test_case "round-trip" `Quick test_dump_roundtrip;
          Alcotest.test_case "damage tolerance" `Quick test_dump_damage;
          Alcotest.test_case "concurrent dump consistency" `Quick
            test_concurrent_dump_consistency;
          Alcotest.test_case "automatic trigger" `Quick test_automatic_dump_trigger;
        ] );
      ( "exports",
        [ Alcotest.test_case "chrome and json shape" `Quick test_chrome_export_shape ] );
    ]
