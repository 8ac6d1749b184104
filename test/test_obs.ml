(* Tests for the observability substrate (Tm_obs) and its wiring
   through the storage and execution layers: span nesting, buffer-pool
   counter fidelity against drop_caches, EXPLAIN ANALYZE / Stats
   reconciliation, the disabled sink recording nothing, the exporters
   (Prometheus text, quantiles, Chrome trace events), the
   query-lifecycle journal, and warning routing. *)

open Twigmatch

module T = Tm_xml.Xml_tree
module Obs = Tm_obs.Obs
module Export = Tm_obs.Export
module Journal = Tm_obs.Journal

let check = Alcotest.check

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let count_occ hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else if String.sub hay i nn = needle then go (i + nn) (acc + 1)
    else go (i + 1) acc
  in
  if nn = 0 then 0 else go 0 0

(* The paper's running example (Figure 1). *)
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
          T.elem "chapter"
            [
              T.elem_text "title" "XML";
              T.elem "section" [ T.elem_text "head" "Origins" ];
            ];
        ];
    ]

let query = "/book[year = '2000']//author[fn = 'jane']"

(* ------------------------------------------------------------------ *)
(* Span trees                                                          *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let (), tr =
    Obs.with_enabled true (fun () ->
        Obs.trace "root" (fun () ->
            Obs.with_span "a" (fun () ->
                Obs.with_span "a1" ignore;
                Obs.with_span "a2" ignore);
            Obs.with_span "b" ignore))
  in
  let tr = Option.get tr in
  check Alcotest.string "root name" "root" tr.Obs.s_name;
  check
    Alcotest.(list string)
    "children in execution order" [ "a"; "b" ]
    (List.map (fun (s : Obs.span) -> s.Obs.s_name) tr.Obs.s_children);
  let a = List.hd tr.Obs.s_children in
  check
    Alcotest.(list string)
    "grandchildren nested under a" [ "a1"; "a2" ]
    (List.map (fun (s : Obs.span) -> s.Obs.s_name) a.Obs.s_children);
  let b = List.nth tr.Obs.s_children 1 in
  check Alcotest.int "b has no children" 0 (List.length b.Obs.s_children)

let test_span_outside_trace () =
  (* with_span outside a trace is a transparent no-op *)
  Obs.with_enabled true (fun () ->
      check Alcotest.int "value passes through" 7 (Obs.with_span "orphan" (fun () -> 7));
      check Alcotest.bool "not in a trace" false (Obs.in_trace ()))

let test_query_trace_shape () =
  let db = Database.create ~strategies:[ Database.RP ] (book_doc ()) in
  let twig = Tm_query.Xpath_parser.parse query in
  let r =
    Obs.with_enabled true (fun () -> Executor.run ~hint:(Tm_plan.Hint.Force Database.RP) db twig)
  in
  let tr = Option.get r.Executor.trace in
  check Alcotest.string "root span is the query" "query:RP" tr.Obs.s_name;
  (* two linear paths plus one merge join, in execution order *)
  check
    Alcotest.(list string)
    "plan children" [ "path:1"; "path:2"; "join:merge" ]
    (List.map (fun (s : Obs.span) -> s.Obs.s_name) tr.Obs.s_children);
  (* the rendering contains every operator *)
  let rendered = Export.trace_to_string tr in
  List.iter
    (fun needle ->
      check Alcotest.bool (needle ^ " rendered") true
        (let nh = String.length rendered and nn = String.length needle in
         let rec go i = i + nn <= nh && (String.sub rendered i nn = needle || go (i + 1)) in
         go 0))
    [ "query:RP"; "path:1"; "join:merge"; "ms" ]

(* ------------------------------------------------------------------ *)
(* Buffer-pool counters vs. drop_caches                                *)
(* ------------------------------------------------------------------ *)

let test_pool_counters_cold_vs_warm () =
  let db = Database.create ~strategies:[ Database.RP ] (book_doc ()) in
  let twig = Tm_query.Xpath_parser.parse query in
  (* the pool's own stats count from creation (sink on or off), so all
     comparisons are deltas over each run *)
  let pool () =
    let s = Tm_storage.Buffer_pool.stats db.Database.pool in
    (s.Tm_storage.Buffer_pool.logical_reads, s.Tm_storage.Buffer_pool.misses)
  in
  let total name = List.assoc ("query." ^ name) (Obs.counters ()) in
  let run () = Executor.run ~hint:(Tm_plan.Hint.Force Database.RP) db twig in
  Obs.with_enabled true (fun () ->
      (* cold: every page the query touches must miss *)
      Database.drop_caches db;
      let pr0, pm0 = pool () and tr0 = total "logical_reads" and tm0 = total "pool_misses" in
      let cold = (run ()).Executor.stats in
      let pr1, pm1 = pool () in
      (* first touch of every page must miss (later touches of the same
         page within the run may hit) *)
      check Alcotest.bool "cold run misses at least once" true (cold.Tm_exec.Stats.pool_misses > 0);
      check Alcotest.int "cold record reads = pool reads" (pr1 - pr0)
        cold.Tm_exec.Stats.logical_reads;
      check Alcotest.int "cold record misses = pool misses" (pm1 - pm0)
        cold.Tm_exec.Stats.pool_misses;
      check Alcotest.int "metrics total adds the record's reads" cold.Tm_exec.Stats.logical_reads
        (total "logical_reads" - tr0);
      check Alcotest.int "metrics total adds the record's misses" cold.Tm_exec.Stats.pool_misses
        (total "pool_misses" - tm0);
      (* warm: the same query touches the same pages, now resident *)
      let warm = (run ()).Executor.stats in
      let pr2, pm2 = pool () in
      check Alcotest.int "warm run never misses" 0 warm.Tm_exec.Stats.pool_misses;
      check Alcotest.int "warm pool misses" pm1 pm2;
      check Alcotest.int "warm record reads = pool reads" (pr2 - pr1)
        warm.Tm_exec.Stats.logical_reads;
      check Alcotest.int "same pages warm and cold" cold.Tm_exec.Stats.logical_reads
        warm.Tm_exec.Stats.logical_reads)

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE vs. Stats                                           *)
(* ------------------------------------------------------------------ *)

let test_trace_reconciles_with_stats () =
  let db = Database.create ~strategies:[ Database.RP; Database.DP ] (book_doc ()) in
  let twig = Tm_query.Xpath_parser.parse query in
  List.iter
    (fun s ->
      let r = Obs.with_enabled true (fun () -> Executor.run ~hint:(Tm_plan.Hint.Force s) db twig) in
      let tr = Option.get r.Executor.trace in
      let st = r.Executor.stats and sp = tr.Obs.s_stats in
      let name = Database.strategy_name s in
      check Alcotest.int (name ^ ": trace rows = Stats.rows_produced")
        st.Tm_exec.Stats.rows_produced sp.Tm_exec.Stats.rows_produced;
      check Alcotest.int (name ^ ": trace joins = Stats.join_steps") st.Tm_exec.Stats.join_steps
        sp.Tm_exec.Stats.join_steps;
      check Alcotest.int (name ^ ": trace entries = Stats.entries_scanned")
        st.Tm_exec.Stats.entries_scanned sp.Tm_exec.Stats.entries_scanned;
      (* operator spans partition the root's entries: every scan runs
         under a path span *)
      check Alcotest.int (name ^ ": path spans sum to the root's entries")
        sp.Tm_exec.Stats.entries_scanned
        (List.fold_left
           (fun acc (c : Obs.span) -> acc + c.Obs.s_stats.Tm_exec.Stats.entries_scanned)
           0 tr.Obs.s_children))
    [ Database.RP; Database.DP ]

let test_explain_analyze_output () =
  let db = Database.create ~strategies:[ Database.RP ] (book_doc ()) in
  let twig = Tm_query.Xpath_parser.parse query in
  let out = Executor.explain ~analyze:true ~hint:(Tm_plan.Hint.Force Database.RP) db twig in
  let contains needle =
    let nh = String.length out and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub out i nn = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "has analyze section" true (contains "EXPLAIN ANALYZE: 2 results");
  check Alcotest.bool "has span tree" true (contains "query:RP");
  check Alcotest.bool "has stats line" true (contains "stats:");
  (* analyze must not leave the global sink enabled *)
  check Alcotest.bool "sink restored" false (Obs.enabled ())

(* ------------------------------------------------------------------ *)
(* One query's numbers while another domain runs queries               *)
(* ------------------------------------------------------------------ *)

(* A cold query is held in flight by a delay on every physical page
   read while this domain runs warm queries against the same database
   and buffer pool. The warm queries are counted only when they start
   after the cold query entered its first read and end before it entered
   its last, so the overlap is established, not hoped for. The in-flight
   query's root span and journal entry must read exactly as when it ran
   alone from the same cache state. *)
let test_inflight_query_exact_under_concurrency () =
  let doc = Tm_datasets.Xmark_gen.generate { Tm_datasets.Xmark_gen.seed = 3; scale = 0.05 } in
  (* small pages: the cold query's scans span several leaves *)
  let db = Database.create ~strategies:[ Database.RP ] ~page_size:1024 doc in
  let cold = Tm_datasets.Workload.(parse (find "Q12x")) in
  let warm = Tm_datasets.Workload.(parse (find "Q1x")) in
  let run twig = Executor.run ~hint:(Tm_plan.Hint.Force Database.RP) db twig in
  (* the same cache state before both runs: nothing resident but the
     warm query's pages *)
  let prepare () =
    Database.drop_caches db;
    ignore (run warm)
  in
  let deterministic (s : Tm_exec.Stats.t) = { s with Tm_exec.Stats.minor_words = 0 } in
  let observed (r : Executor.result) =
    let root = Option.get r.Executor.trace in
    let entry = List.find (fun e -> e.Journal.j_id = r.Executor.trace_id) (Journal.entries ()) in
    ( Tm_exec.Stats.fields (deterministic root.Obs.s_stats),
      Tm_exec.Stats.pool_hit_rate entry.Journal.j_stats,
      Tm_exec.Stats.fields (deterministic r.Executor.stats) )
  in
  Obs.with_enabled true @@ fun () ->
  Journal.with_enabled true @@ fun () ->
  prepare ();
  let alone = run cold in
  let span_alone, rate_alone, stats_alone = observed alone in
  let misses = alone.Executor.stats.Tm_exec.Stats.pool_misses in
  check Alcotest.bool "the cold query reads at least three pages from the pager" true (misses >= 3);
  prepare ();
  Tm_fault.Fault.inject ~site:"pager.read" ~action:(Tm_fault.Fault.Delay_ms 40)
    (Tm_fault.Fault.Every 1);
  Fun.protect ~finally:Tm_fault.Fault.install_env @@ fun () ->
  let in_flight = Domain.spawn (fun () -> run cold) in
  let reads () = Tm_fault.Fault.calls "pager.read" in
  let overlapped = ref 0 in
  let rec storm () =
    let before = reads () in
    if before < misses then begin
      if before >= 1 then begin
        ignore (run warm);
        if reads () < misses then incr overlapped
      end
      else Domain.cpu_relax ();
      storm ()
    end
  in
  storm ();
  let concurrent = Domain.join in_flight in
  check Alcotest.bool "warm queries ran while the cold one was in flight" true (!overlapped >= 1);
  check Alcotest.int "only the cold query read from the pager" misses (reads ());
  let span_conc, rate_conc, stats_conc = observed concurrent in
  check Alcotest.(list (pair string int)) "root-span counts as when run alone" span_alone span_conc;
  check Alcotest.(option (float 0.0)) "journal hit rate as when run alone" rate_alone rate_conc;
  check Alcotest.(list (pair string int)) "query record as when run alone" stats_alone stats_conc

(* ------------------------------------------------------------------ *)
(* Disabled sink records nothing                                       *)
(* ------------------------------------------------------------------ *)

let test_disabled_sink_is_silent () =
  let db = Database.create ~strategies:[ Database.RP; Database.DP ] (book_doc ()) in
  let twig = Tm_query.Xpath_parser.parse query in
  Obs.with_enabled true (fun () -> Obs.reset ());
  let before = Obs.with_enabled true (fun () -> Obs.counters ()) in
  Obs.with_enabled false (fun () ->
      List.iter
        (fun s ->
          let r = Executor.run ~hint:(Tm_plan.Hint.Force s) db twig in
          check Alcotest.(option reject) (Database.strategy_name s ^ ": no trace") None
            (Option.map (fun _ -> ()) r.Executor.trace))
        [ Database.RP; Database.DP ]);
  let after = Obs.with_enabled true (fun () -> Obs.counters ()) in
  check
    Alcotest.(list (pair string int))
    "no counter moved while disabled" before after;
  List.iter
    (fun (h : Obs.histogram) ->
      check Alcotest.int (h.Obs.h_name ^ " untouched") 0 h.Obs.h_count)
    (Obs.histograms ())

(* ------------------------------------------------------------------ *)
(* Prometheus exporter                                                 *)
(* ------------------------------------------------------------------ *)

let test_prometheus_name_mangling () =
  check Alcotest.string "dots become underscores" "twigmatch_buffer_pool_hits"
    (Export.prometheus_name "buffer_pool.hits");
  check Alcotest.string "arbitrary punctuation" "twigmatch_a_b_c_d"
    (Export.prometheus_name "a-b/c d")

let test_prometheus_label_escape () =
  check Alcotest.string "backslash, quote, newline" "a\\\\b\\\"c\\nd"
    (Export.prometheus_label_escape "a\\b\"c\nd");
  check Alcotest.string "clean value untouched" "plain" (Export.prometheus_label_escape "plain")

let test_prometheus_output () =
  Obs.with_enabled true (fun () ->
      Obs.reset ();
      Obs.add (Obs.counter "test.prom.counter") 5;
      (* make the derived pool-wide hit-rate gauge well-defined: one
         finished query that read 4 pages and missed 1 *)
      let q = Tm_exec.Stats.create () in
      q.Tm_exec.Stats.logical_reads <- 4;
      q.Tm_exec.Stats.pool_misses <- 1;
      Obs.add_query q;
      let h = Obs.histogram ~buckets:[| 1.0; 2.0; 4.0 |] "test.prom.ms" in
      List.iter (Obs.observe h) [ 0.5; 1.5; 3.0; 9.0 ]);
  let out = Export.metrics_to_prometheus () in
  check Alcotest.bool "typed counter with value" true
    (contains out "# TYPE twigmatch_test_prom_counter counter\ntwigmatch_test_prom_counter 5\n");
  check Alcotest.bool "derived hit-rate gauge" true
    (contains out "# TYPE twigmatch_buffer_pool_hit_rate gauge\ntwigmatch_buffer_pool_hit_rate 0.75\n");
  (* buckets are cumulative and end at le="+Inf" = the total count *)
  check Alcotest.bool "cumulative buckets" true
    (contains out
       ("twigmatch_test_prom_ms_bucket{le=\"1\"} 1\n"
      ^ "twigmatch_test_prom_ms_bucket{le=\"2\"} 2\n"
      ^ "twigmatch_test_prom_ms_bucket{le=\"4\"} 3\n"
      ^ "twigmatch_test_prom_ms_bucket{le=\"+Inf\"} 4\n"
      ^ "twigmatch_test_prom_ms_sum 14\n" ^ "twigmatch_test_prom_ms_count 4\n"));
  (* registration order is stable, so back-to-back exports are
     byte-identical (nothing recorded in between) *)
  check Alcotest.string "stable across exports" out (Export.metrics_to_prometheus ())

(* ------------------------------------------------------------------ *)
(* Histogram quantiles                                                 *)
(* ------------------------------------------------------------------ *)

let test_quantile_estimation () =
  let bounds = [| 1.0; 2.0; 4.0 |] in
  let near label expected got =
    match got with
    | None -> Alcotest.fail (label ^ ": expected a quantile")
    | Some v -> check (Alcotest.float 1e-9) label expected v
  in
  (* all mass in the (1,2] bucket: the median interpolates to its middle *)
  near "p50 interpolates" 1.5 (Export.quantile_of_counts ~bounds ~counts:[| 0; 10; 0; 0 |] 0.5);
  (* the overflow bucket clamps to the largest finite bound *)
  near "overflow clamps" 4.0 (Export.quantile_of_counts ~bounds ~counts:[| 0; 0; 0; 5 |] 0.5);
  check Alcotest.bool "empty counts yield None" true
    (Export.quantile_of_counts ~bounds ~counts:[| 0; 0; 0; 0 |] 0.5 = None);
  (match Export.quantile_of_counts ~bounds ~counts:[| 1; 0; 0; 0 |] 1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "q outside [0,1] accepted")

let test_summary_labels () =
  let h = Obs.histogram ~buckets:[| 1.0; 10.0; 100.0 |] "test.summary.ms" in
  check Alcotest.(list (pair string (float 1.0))) "no observations, no summary" []
    (Export.summary h);
  Obs.with_enabled true (fun () -> List.iter (Obs.observe h) [ 0.5; 0.6; 0.7; 50.0 ]);
  check
    Alcotest.(list string)
    "p50/p95/p99 in order" [ "p50"; "p95"; "p99" ]
    (List.map fst (Export.summary h))

(* ------------------------------------------------------------------ *)
(* Chrome trace events                                                 *)
(* ------------------------------------------------------------------ *)

let test_chrome_trace_shape () =
  let db = Database.create ~strategies:[ Database.RP ] (book_doc ()) in
  let twig = Tm_query.Xpath_parser.parse query in
  let r =
    Obs.with_enabled true (fun () -> Executor.run ~hint:(Tm_plan.Hint.Force Database.RP) db twig)
  in
  let tr = Option.get r.Executor.trace in
  let out = Export.trace_to_chrome tr in
  check Alcotest.bool "JSON array" true
    (String.length out > 2 && out.[0] = '[' && out.[String.length out - 1] = ']');
  let rec spans (s : Obs.span) =
    1 + List.fold_left (fun acc c -> acc + spans c) 0 s.Obs.s_children
  in
  check Alcotest.int "one complete event per span" (spans tr) (count_occ out "\"ph\":\"X\"");
  check Alcotest.bool "microsecond timestamps" true
    (contains out "\"ts\":" && contains out "\"dur\":");
  check Alcotest.bool "trace id rides in args" true
    (contains out (Printf.sprintf "\"trace\":\"%d\"" r.Executor.trace_id))

(* ------------------------------------------------------------------ *)
(* GC attribution                                                      *)
(* ------------------------------------------------------------------ *)

let test_span_gc_delta () =
  let (), tr =
    Obs.with_enabled true (fun () ->
        Obs.trace "root" (fun () ->
            Obs.with_span "alloc" (fun () ->
                ignore (Sys.opaque_identity (List.init 10_000 (fun i -> i + 1))))))
  in
  let tr = Option.get tr in
  let alloc = List.hd tr.Obs.s_children in
  (* 10k 3-word cons cells: the span's record delta must see them *)
  check Alcotest.bool "minor allocation attributed" true
    (alloc.Obs.s_stats.Tm_exec.Stats.minor_words >= 10_000);
  check Alcotest.bool "root includes its child's allocation" true
    (tr.Obs.s_stats.Tm_exec.Stats.minor_words >= alloc.Obs.s_stats.Tm_exec.Stats.minor_words)

(* ------------------------------------------------------------------ *)
(* Query-lifecycle journal                                             *)
(* ------------------------------------------------------------------ *)

let mk_entry ?(latency = 1.0) ?(outcome = Journal.Completed) ?(fallbacks = []) () =
  {
    Journal.j_id = Journal.next_id ();
    j_time = 0.0;
    j_query = "//synthetic";
    j_shape = "//synthetic";
    j_requested = "RP";
    j_strategy = "RP";
    j_reason = "test";
    j_fallbacks = fallbacks;
    j_via_naive = false;
    j_rows = 0;
    j_est_rows = None;
    j_latency_ms = latency;
    j_stats = Tm_exec.Stats.create ();
    j_jobs = 0;
    j_txn = 0;
    j_outcome = outcome;
  }

(* The acceptance property: with the journal off, Executor.run leaves
   no trace in it (the recording path is a single atomic load). Forced
   off explicitly so the test also holds under TWIGMATCH_JOURNAL=N. *)
let test_journal_disabled_stays_empty () =
  let db = Database.create ~strategies:[ Database.RP; Database.DP ] (book_doc ()) in
  let twig = Tm_query.Xpath_parser.parse query in
  Journal.with_enabled false (fun () ->
      Journal.clear ();
      check Alcotest.bool "journal off" false (Journal.enabled ());
      List.iter
        (fun s -> ignore (Executor.run ~hint:(Tm_plan.Hint.Force s) db twig))
        [ Database.RP; Database.DP ];
      check Alcotest.int "no entries" 0 (Journal.length ());
      check Alcotest.int "entries list empty" 0 (List.length (Journal.entries ())))

(* Each of Executor.run's three exits — an answer, an expired deadline
   and an escaping failure — records the query once: one journal entry
   holding the query's cost record, that record added to the [query.*]
   totals, and (answer and deadline) a flight event under its trace id. *)
let test_journal_records_completion () =
  let module Flight = Tm_obs.Flight in
  let db = Database.create ~strategies:[ Database.RP ] (book_doc ()) in
  let twig = Tm_query.Xpath_parser.parse query in
  let fields = Tm_exec.Stats.fields in
  let totals () =
    List.filter
      (fun (name, _) -> String.length name > 6 && String.sub name 0 6 = "query.")
      (Obs.counters ())
  in
  Obs.with_enabled true @@ fun () ->
  Flight.with_enabled true @@ fun () ->
  Journal.with_enabled true (fun () ->
      Journal.clear ();
      Flight.clear ();
      let before = totals () in
      let r = Executor.run ~hint:(Tm_plan.Hint.Force Database.RP) db twig in
      check Alcotest.int "one entry" 1 (Journal.length ());
      (match Journal.entries () with
      | [ e ] ->
        check Alcotest.int "entry id is the trace id" r.Executor.trace_id e.Journal.j_id;
        check Alcotest.string "strategy" (Database.strategy_name Database.RP) e.Journal.j_strategy;
        check Alcotest.int "rows" (List.length r.Executor.ids) e.Journal.j_rows;
        check Alcotest.bool "completed" true (e.Journal.j_outcome = Journal.Completed);
        check Alcotest.bool "latency non-negative" true (e.Journal.j_latency_ms >= 0.0);
        check Alcotest.bool "not via naive" false e.Journal.j_via_naive;
        check Alcotest.bool "entry holds the result's record" true
          (fields e.Journal.j_stats = fields r.Executor.stats)
      | es -> Alcotest.failf "expected exactly one entry, got %d" (List.length es));
      let expired =
        match Executor.run ~deadline_ms:0.0001 ~hint:(Tm_plan.Hint.Force Database.RP) db twig with
        | _ -> Alcotest.fail "a 0.0001 ms deadline did not expire"
        | exception Executor.Timeout { stats; _ } -> stats
      in
      (match
         Executor.run ~strict:true ~hint:(Tm_plan.Hint.Force Database.DP) db twig
       with
      | _ -> Alcotest.fail "strict forced DP answered without its index"
      | exception Database.Index_not_built Database.DP -> ());
      match Journal.entries () with
      | [ c; t; f ] ->
        check Alcotest.bool "timed out" true
          (match t.Journal.j_outcome with Journal.Timed_out _ -> true | _ -> false);
        check Alcotest.bool "timed-out entry holds the Timeout payload's record" true
          (fields t.Journal.j_stats = fields expired);
        check Alcotest.bool "failed" true
          (match f.Journal.j_outcome with Journal.Failed _ -> true | _ -> false);
        let recorded name =
          List.fold_left
            (fun acc (e : Journal.entry) ->
              acc
              + List.fold_left
                  (fun acc (field, v) -> if "query." ^ field = name then acc + v else acc)
                  0 (fields e.Journal.j_stats))
            0 [ c; t; f ]
        in
        check
          Alcotest.(list (pair string int))
          "query.* totals grow by each run's record"
          (List.map (fun (name, v) -> (name, v + recorded name)) before)
          (totals ());
        let events = Flight.snapshot () in
        let traced kind id =
          List.exists (fun e -> e.Flight.e_kind = kind && e.Flight.e_trace = id) events
        in
        check Alcotest.bool "query.end carries the trace id" true
          (traced Flight.Query_end c.Journal.j_id);
        check Alcotest.bool "cancel.deadline carries the trace id" true
          (traced Flight.Cancel_deadline t.Journal.j_id)
      | es -> Alcotest.failf "expected three entries, got %d" (List.length es))

let test_journal_wraps_and_orders () =
  Journal.with_enabled true (fun () ->
      let saved = Journal.capacity () in
      (match Journal.enable ~capacity:0 () with
      | () -> Alcotest.fail "capacity 0 accepted"
      | exception Invalid_argument _ -> ());
      Journal.enable ~capacity:8 ();
      for _ = 1 to 100 do
        Journal.record (mk_entry ())
      done;
      check Alcotest.int "full ring" (Journal.capacity ()) (Journal.length ());
      check Alcotest.int "overwrites counted" (100 - Journal.capacity ()) (Journal.dropped ());
      let ids = List.map (fun e -> e.Journal.j_id) (Journal.entries ()) in
      check Alcotest.bool "entries ordered by id" true (List.sort compare ids = ids);
      Journal.enable ~capacity:saved ())

let test_journal_slow_view () =
  Journal.with_enabled true (fun () ->
      Journal.clear ();
      Journal.record (mk_entry ~latency:1.0 ());
      Journal.record (mk_entry ~latency:25.0 ());
      Journal.record (mk_entry ~latency:0.5 ~outcome:(Journal.Timed_out 50.0) ());
      Journal.record (mk_entry ~latency:12.0 ());
      let s = Journal.slow ~threshold_ms:10.0 () in
      check Alcotest.int "two slow + the timeout" 3 (List.length s);
      check Alcotest.bool "timeout qualifies despite low latency" true
        (List.exists
           (fun e -> match e.Journal.j_outcome with Journal.Timed_out _ -> true | _ -> false)
           s);
      (match s with
      | a :: b :: _ ->
        check Alcotest.bool "slowest first" true (a.Journal.j_latency_ms >= b.Journal.j_latency_ms)
      | _ -> ());
      Journal.clear ())

let test_journal_rendering () =
  let e = mk_entry ~latency:3.25 ~fallbacks:[ ("DP", "index corrupt") ] () in
  let s = Journal.entry_to_string e in
  check Alcotest.bool "query shown" true (contains s "//synthetic");
  check Alcotest.bool "losing plan narrated" true (contains s "DP");
  check Alcotest.bool "losing reason narrated" true (contains s "index corrupt");
  let j = Journal.entry_to_json e in
  check Alcotest.bool "json query field" true (contains j "\"query\":\"//synthetic\"");
  check Alcotest.string "empty journal is an empty array" "[]" (Journal.to_json [])

(* ------------------------------------------------------------------ *)
(* Warning routing                                                     *)
(* ------------------------------------------------------------------ *)
(* Registered gauges: the wal.* health mirror and the flight pair      *)
(* ------------------------------------------------------------------ *)

let fresh_dir () =
  let path = Filename.temp_file "twigobs" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let find_id doc name =
  T.fold doc (fun acc n -> if T.label_name n = name && acc = None then Some n.T.id else acc) None
  |> Option.get

let wal_gauge_names = [ "wal.log_bytes_since_checkpoint"; "wal.last_txn"; "wal.poisoned" ]

let test_wal_gauges () =
  (* with no live Durable handle the gauges read NaN: registered but
     sampling nothing, skipped by Prometheus, null in JSON *)
  let g = Export.all_gauges () in
  List.iter
    (fun name ->
      match List.assoc_opt name g with
      | None -> Alcotest.fail (name ^ " not registered")
      | Some v -> check Alcotest.bool (name ^ " reads NaN without a handle") true (Float.is_nan v))
    wal_gauge_names;
  check Alcotest.bool "NaN gauge absent from Prometheus" false
    (contains (Export.metrics_to_prometheus ()) "twigmatch_wal_last_txn");
  check Alcotest.bool "NaN gauge null in JSON" true
    (contains (Export.metrics_to_json ()) "\"wal.last_txn\":null");
  (* the most recently opened handle becomes the gauges' source *)
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let db = Database.create ~strategies:[ Database.RP ] (book_doc ()) in
  let d = Durable.create ~dir db in
  Fun.protect ~finally:(fun () -> Durable.close d) @@ fun () ->
  let sample name = List.assoc name (Export.all_gauges ()) in
  (* a fresh log is just the WAL header *)
  let base = sample "wal.log_bytes_since_checkpoint" in
  check Alcotest.bool "fresh log: header only" true (base > 0.0 && base < 64.0);
  check (Alcotest.float 0.0) "fresh log: no transactions" 0.0 (sample "wal.last_txn");
  check (Alcotest.float 0.0) "healthy handle: not poisoned" 0.0 (sample "wal.poisoned");
  check Alcotest.bool "live gauge exported to Prometheus" true
    (contains (Export.metrics_to_prometheus ())
       "# TYPE twigmatch_wal_poisoned gauge\ntwigmatch_wal_poisoned 0\n");
  (* a committed transaction moves both the log-growth and txn gauges,
     and the gauges must agree with the handle's own wal_status *)
  let book = find_id db.Database.doc "book" in
  ignore (Durable.insert_subtree d ~parent:book (T.elem_text "note" "g"));
  let s = Durable.wal_status d in
  check (Alcotest.float 0.0) "gauge mirrors wal_status" (float_of_int s.Durable.log_bytes)
    (sample "wal.log_bytes_since_checkpoint");
  check Alcotest.bool "log grew past the header" true (float_of_int s.Durable.log_bytes > base);
  check (Alcotest.float 0.0) "one transaction committed" 1.0 (sample "wal.last_txn");
  (* checkpoint truncates the log back to its header *)
  Durable.checkpoint d;
  check (Alcotest.float 0.0) "checkpoint resets log growth" base
    (sample "wal.log_bytes_since_checkpoint")

let test_wal_gauges_deregister () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let db = Database.create ~strategies:[ Database.RP ] (book_doc ()) in
  let d = Durable.create ~dir db in
  check Alcotest.bool "live handle: gauge is a number" false
    (Float.is_nan (List.assoc "wal.last_txn" (Export.all_gauges ())));
  Durable.close d;
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " NaN again after close") true
        (Float.is_nan (List.assoc name (Export.all_gauges ()))))
    wal_gauge_names

let test_flight_gauges () =
  let module Flight = Tm_obs.Flight in
  Flight.with_enabled false (fun () ->
      check (Alcotest.float 0.0) "recorder off" 0.0
        (List.assoc "flight.enabled" (Export.all_gauges ())));
  Flight.with_enabled true (fun () ->
      Flight.clear ();
      check (Alcotest.float 0.0) "recorder on" 1.0
        (List.assoc "flight.enabled" (Export.all_gauges ()));
      let before = List.assoc "flight.events" (Export.all_gauges ()) in
      Flight.emit Flight.Wal_fsync 0 0 "";
      Flight.emit Flight.Wal_fsync 0 0 "";
      let after = List.assoc "flight.events" (Export.all_gauges ()) in
      check (Alcotest.float 0.0) "event gauge counts emits" 2.0 (after -. before);
      check Alcotest.bool "exported to Prometheus" true
        (contains (Export.metrics_to_prometheus ())
           "# TYPE twigmatch_flight_enabled gauge\ntwigmatch_flight_enabled 1\n"));
  Flight.clear ()

(* ------------------------------------------------------------------ *)

let test_warn_routing_from_fault_env () =
  let captured = ref [] in
  Obs.set_warn_handler (Some (fun w -> captured := w :: !captured));
  Fun.protect
    ~finally:(fun () ->
      Obs.set_warn_handler None;
      Unix.putenv Tm_fault.Fault.env_var "";
      Tm_fault.Fault.install_env ())
    (fun () ->
      Unix.putenv Tm_fault.Fault.env_var "definitely not a failpoint spec";
      Tm_fault.Fault.install_env ());
  match !captured with
  | [] -> Alcotest.fail "malformed failpoint spec produced no warning"
  | w :: _ ->
    check Alcotest.string "site" "fault.env" w.Obs.w_site;
    check Alcotest.bool "names the env var" true (contains w.Obs.w_msg Tm_fault.Fault.env_var);
    check Alcotest.bool "ring retains it" true
      (List.exists (fun (r : Obs.warning) -> r.Obs.w_site = "fault.env") (Obs.warnings ()))

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "outside trace" `Quick test_span_outside_trace;
          Alcotest.test_case "query trace shape" `Quick test_query_trace_shape;
        ] );
      ( "counters",
        [ Alcotest.test_case "pool cold/warm vs drop_caches" `Quick test_pool_counters_cold_vs_warm ]
      );
      ( "analyze",
        [
          Alcotest.test_case "trace reconciles with Stats" `Quick test_trace_reconciles_with_stats;
          Alcotest.test_case "explain ~analyze output" `Quick test_explain_analyze_output;
          Alcotest.test_case "in-flight query exact beside concurrent queries" `Quick
            test_inflight_query_exact_under_concurrency;
        ] );
      ( "disabled",
        [ Alcotest.test_case "sink off records nothing" `Quick test_disabled_sink_is_silent ] );
      ( "prometheus",
        [
          Alcotest.test_case "name mangling" `Quick test_prometheus_name_mangling;
          Alcotest.test_case "label escaping" `Quick test_prometheus_label_escape;
          Alcotest.test_case "text exposition" `Quick test_prometheus_output;
        ] );
      ( "quantiles",
        [
          Alcotest.test_case "estimation" `Quick test_quantile_estimation;
          Alcotest.test_case "summary labels" `Quick test_summary_labels;
        ] );
      ( "chrome",
        [ Alcotest.test_case "trace event shape" `Quick test_chrome_trace_shape ] );
      ("gc", [ Alcotest.test_case "span allocation delta" `Quick test_span_gc_delta ]);
      ( "journal",
        [
          Alcotest.test_case "disabled stays empty" `Quick test_journal_disabled_stays_empty;
          Alcotest.test_case "records completions" `Quick test_journal_records_completion;
          Alcotest.test_case "ring wraps in id order" `Quick test_journal_wraps_and_orders;
          Alcotest.test_case "slow view" `Quick test_journal_slow_view;
          Alcotest.test_case "rendering" `Quick test_journal_rendering;
        ] );
      ( "gauges",
        [
          Alcotest.test_case "wal health mirror" `Quick test_wal_gauges;
          Alcotest.test_case "deregister on close" `Quick test_wal_gauges_deregister;
          Alcotest.test_case "flight pair" `Quick test_flight_gauges;
        ] );
      ( "warnings",
        [ Alcotest.test_case "fault env routes through warn" `Quick test_warn_routing_from_fault_env ]
      );
    ]
