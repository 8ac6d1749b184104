(* twigql — command-line twig query processor.

     twigql query   [SOURCE] [--hint auto|force:RP] [--analyze] [--jobs N]
                    [--timeout-ms MS] [--strict] 'XPATH'   run a query
     twigql explain [SOURCE] [--hint H] [--analyze] 'XPATH'   plan (+ EXPLAIN ANALYZE)
     twigql plan    [SOURCE] [--hint H] 'XPATH'   cost-based plan, no execution
     twigql compare [SOURCE] 'XPATH'           run under every strategy + oracle
     twigql metrics [SOURCE] [--format json] 'XPATH'   counters and histograms
     twigql trace   [SOURCE] [--hint H] [--chrome] [-o F] 'XPATH'   span tree / Chrome JSON
     twigql slow    [SOURCE] [--threshold-ms N] 'XPATH'...   run queries, print slow log
     twigql serve   [SOURCE] [--port N]        HTTP metrics/health/query endpoint
     twigql blackbox render FILE               human-readable post-mortem timeline
     twigql blackbox dump FILE [-o OUT]        post-mortem -> Chrome trace JSON
     twigql blackbox tail FILE [-n N]          last N events of a post-mortem
     twigql info    [SOURCE]                   document / catalog / index stats
     twigql generate (--xmark F | --dblp F) -o FILE   write a dataset as XML
     twigql snapshot [save] [SOURCE] -o FILE   build a database, save atomically
     twigql snapshot verify FILE               frame + checksum check, no unmarshal
     twigql fsck    [SOURCE] [--jobs N] [--format json]   verify index structure invariants
     twigql wal init DIR [SOURCE]              make a database durable (snapshot + log)
     twigql wal ingest DIR [-n N] [--batch]    recover, insert N logged subtrees
     twigql wal status DIR                     scan snapshot framing + log frames
     twigql wal checkpoint DIR                 recover, fold log into a fresh snapshot
     twigql wal fsck DIR [--format json]       recover, then full structure verify

   SOURCE is one of: --file doc.xml, --xmark SCALE, --dblp SCALE,
   --snapshot FILE (default: --xmark 0.1).

   Exit codes: 0 ok, 1 fsck violations, 2 corruption detected
   (checksum mismatch or bad snapshot), 3 query deadline expired. *)

open Twigmatch
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Source selection                                                    *)
(* ------------------------------------------------------------------ *)

let file_arg =
  Arg.(value & opt (some string) None & info [ "file"; "f" ] ~docv:"FILE" ~doc:"Load an XML file.")

let xmark_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "xmark" ] ~docv:"SCALE" ~doc:"Generate an XMark-like dataset at SCALE.")

let dblp_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "dblp" ] ~docv:"SCALE" ~doc:"Generate a DBLP-like dataset at SCALE.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Dataset generator seed.")

let snap_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot" ] ~docv:"FILE" ~doc:"Load a database snapshot (see the snapshot command).")

let load_doc file xmark dblp seed =
  match (file, xmark, dblp) with
  | Some f, _, _ ->
    let ic = open_in_bin f in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Tm_xml.Xml_parser.parse s
  | None, Some scale, _ -> Tm_datasets.Xmark_gen.generate { Tm_datasets.Xmark_gen.seed; scale }
  | None, None, Some scale -> Tm_datasets.Dblp_gen.generate { Tm_datasets.Dblp_gen.seed; scale }
  | None, None, None ->
    Tm_datasets.Xmark_gen.generate { Tm_datasets.Xmark_gen.seed; scale = 0.1 }

(* ------------------------------------------------------------------ *)
(* query                                                               *)
(* ------------------------------------------------------------------ *)

let strategy_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Tm_plan.Strategy.of_string s) in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Database.strategy_name s))

let hint_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Tm_plan.Hint.of_string s) in
  Arg.conv (parse, fun ppf h -> Format.pp_print_string ppf (Tm_plan.Hint.to_string h))

let hint_arg =
  Arg.(
    value
    & opt (some hint_conv) None
    & info [ "hint" ] ~docv:"HINT"
        ~doc:
          "Plan hint: $(b,auto) lets the cost-based planner choose (and adapt mid-query); \
           $(b,force:STRATEGY) (or a bare strategy name) pins one of RP, DP, Edge, DG+Edge, \
           IF+Edge, ASR, JI. Defaults to $(b,force:RP), except for $(b,plan).")

(* query, explain, metrics and trace default to a forced RP plan. *)
let hint_or_rp = Option.value ~default:(Tm_plan.Hint.Force Database.RP)

let xpath_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"XPATH")

let load_db ?par snap file xmark dblp seed =
  match snap with
  | Some path -> Persist.load path
  | None -> Database.create ?par (load_doc file xmark dblp seed)

(* Scope a domain pool around [f] when more than one job is requested;
   [None] keeps everything on the calling domain. *)
let with_par jobs f =
  if jobs > 1 then Tm_par.Pool.with_pool ~jobs (fun p -> f (Some p)) else f None

let jobs_arg =
  Arg.(
    value
    & opt int (Tm_par.Pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Domains for parallel index construction and query execution (default: \
           $(b,TWIGMATCH_JOBS) or 1).")

let run_query snap file xmark dblp seed hint analyze strict timeout_ms jobs xpath =
  with_par jobs @@ fun par ->
  let db = load_db ?par snap file xmark dblp seed in
  let twig = Tm_query.Xpath_parser.parse xpath in
  let hint = hint_or_rp hint in
  let t0 = Monotonic_clock.now () in
  let r =
    Tm_obs.Obs.with_enabled analyze (fun () ->
        Executor.run ~hint ~strict ?deadline_ms:timeout_ms ?pool:par db twig)
  in
  let ms = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6 in
  Printf.printf "%d results in %.2f ms under %s (%s) [trace #%d]\n"
    (List.length r.Executor.ids) ms
    (Database.strategy_name r.Executor.strategy) r.Executor.reason r.Executor.trace_id;
  if r.Executor.replans > 0 then
    Printf.printf "replans: %d (estimates blown mid-query; final plan shown above)\n"
      r.Executor.replans;
  List.iter
    (fun (s, why) ->
      Printf.printf "fallback: %s was unusable: %s\n" (Database.strategy_name s) why)
    r.Executor.fallbacks;
  if r.Executor.via_naive then print_endline "degraded to the naive in-memory matcher";
  Printf.printf "node ids: %s\n"
    (String.concat ", " (List.map string_of_int r.Executor.ids));
  Format.printf "stats: %a@." Tm_exec.Stats.pp r.Executor.stats;
  match r.Executor.trace with
  | Some tr when analyze -> print_string (Tm_obs.Export.trace_to_string tr)
  | _ -> ()

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Disable graceful degradation: an unusable index (missing, corrupt, lossy) aborts the \
           query instead of falling back to the next strategy.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:"Per-query deadline in milliseconds. Expiry exits with code 3.")

let analyze_arg =
  Arg.(
    value & flag
    & info [ "analyze" ]
        ~doc:
          "Record the execution under the observability sink and print the span tree \
           (per-path and per-join timings, buffer-pool hit rates, row counts).")

let query_cmd =
  Cmd.v
    (Cmd.info "query" ~doc:"Run a twig query under a plan hint (--hint auto|force:STRATEGY)")
    Term.(
      const run_query $ snap_arg $ file_arg $ xmark_arg $ dblp_arg $ seed_arg $ hint_arg
      $ analyze_arg $ strict_arg $ timeout_arg $ jobs_arg $ xpath_arg)

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

(* Materialize only the index sets this explain can touch (the Edge
   table is always built and carries the planner statistics) instead of
   all seven; under [Auto] that is the planner's candidate set. *)
let explain_db snap file xmark dblp seed hint =
  match snap with
  | Some path -> Persist.load path
  | None ->
    let strategies =
      match hint with
      | Tm_plan.Hint.Auto -> [ Database.RP; Database.DP; Database.Ji ]
      | Tm_plan.Hint.Force s -> [ s ]
      | Tm_plan.Hint.Pin p -> [ p.Tm_plan.Plan.strategy ]
    in
    Database.create ~strategies (load_doc file xmark dblp seed)

let run_explain snap file xmark dblp seed hint analyze xpath =
  let hint = hint_or_rp hint in
  let db = explain_db snap file xmark dblp seed hint in
  let twig = Tm_query.Xpath_parser.parse xpath in
  print_string (Executor.explain ~analyze ~hint db twig)

let explain_cmd =
  Cmd.v
    (Cmd.info "explain" ~doc:"Describe the physical plan for a query (EXPLAIN ANALYZE with --analyze)")
    Term.(
      const run_explain $ snap_arg $ file_arg $ xmark_arg $ dblp_arg $ seed_arg $ hint_arg
      $ analyze_arg $ xpath_arg)

(* ------------------------------------------------------------------ *)
(* plan                                                                *)
(* ------------------------------------------------------------------ *)

let run_plan snap file xmark dblp seed hint xpath =
  let hint = match hint with Some h -> h | None -> Tm_plan.Hint.Auto in
  let db = explain_db snap file xmark dblp seed hint in
  let twig = Tm_query.Xpath_parser.parse xpath in
  print_string (Executor.explain ~hint db twig)

let plan_cmd =
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Show the cost-based planner's choice for a query without executing it: PCsubpath \
          cover, per-path estimates, join order, cost comparison (--hint defaults to auto)")
    Term.(
      const run_plan $ snap_arg $ file_arg $ xmark_arg $ dblp_arg $ seed_arg $ hint_arg
      $ xpath_arg)

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let run_compare snap file xmark dblp seed xpath =
  let db = load_db snap file xmark dblp seed in
  let doc = db.Database.doc in
  let twig = Tm_query.Xpath_parser.parse xpath in
  let expected = Tm_query.Naive.query doc twig in
  Printf.printf "oracle (naive matcher): %d results\n" (List.length expected);
  List.iter
    (fun strategy ->
      let t0 = Monotonic_clock.now () in
      match Executor.run ~hint:(Tm_plan.Hint.Force strategy) db twig with
      | r ->
        let ms = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6 in
        let ok = if r.Executor.ids = expected then "ok" else "MISMATCH" in
        Printf.printf "%-8s %4d results  %8.2f ms  %s\n" (Database.strategy_name strategy)
          (List.length r.Executor.ids) ms ok
      | exception Tm_index.Family.Unsupported m ->
        Printf.printf "%-8s unsupported: %s\n" (Database.strategy_name strategy) m)
    Database.all_strategies

let compare_cmd =
  Cmd.v
    (Cmd.info "compare" ~doc:"Run a twig query under every strategy and check the answers")
    Term.(const run_compare $ snap_arg $ file_arg $ xmark_arg $ dblp_arg $ seed_arg $ xpath_arg)

(* ------------------------------------------------------------------ *)
(* metrics                                                             *)
(* ------------------------------------------------------------------ *)

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json); ("prometheus", `Prometheus) ]) `Text
    & info [ "format" ] ~docv:"FORMAT" ~doc:"Output format: $(b,text), $(b,json) or $(b,prometheus).")

let run_metrics snap file xmark dblp seed hint fmt xpath =
  let db = load_db snap file xmark dblp seed in
  let twig = Tm_query.Xpath_parser.parse xpath in
  let hint = hint_or_rp hint in
  ignore (Tm_obs.Obs.with_enabled true (fun () -> Executor.run ~hint db twig));
  match fmt with
  | `Json -> print_endline (Tm_obs.Export.metrics_to_json ())
  | `Prometheus -> print_string (Tm_obs.Export.metrics_to_prometheus ())
  | `Text ->
    List.iter
      (fun (name, v) -> if v <> 0 then Printf.printf "%-28s %d\n" name v)
      (Tm_obs.Obs.counters ());
    List.iter
      (fun (h : Tm_obs.Obs.histogram) ->
        if h.Tm_obs.Obs.h_count > 0 then
          Printf.printf "%-28s count=%d sum=%.2f\n" h.Tm_obs.Obs.h_name h.Tm_obs.Obs.h_count
            h.Tm_obs.Obs.h_sum)
      (Tm_obs.Obs.histograms ())

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a query with the observability sink enabled and dump the accumulated counters and \
          histograms (buffer-pool traffic, B+-tree node visits, pager I/O, join latencies)")
    Term.(
      const run_metrics $ snap_arg $ file_arg $ xmark_arg $ dblp_arg $ seed_arg $ hint_arg
      $ format_arg $ xpath_arg)

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let chrome_arg =
  Arg.(
    value & flag
    & info [ "chrome" ]
        ~doc:
          "Emit Chrome trace-event JSON (an array of complete events with microsecond \
           timestamps) instead of the text tree; open it in chrome://tracing or Perfetto.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the trace to FILE instead of stdout.")

let run_trace snap file xmark dblp seed hint jobs chrome out xpath =
  with_par jobs @@ fun par ->
  let db = load_db ?par snap file xmark dblp seed in
  let twig = Tm_query.Xpath_parser.parse xpath in
  let hint = hint_or_rp hint in
  let r = Tm_obs.Obs.with_enabled true (fun () -> Executor.run ~hint ?pool:par db twig) in
  match r.Executor.trace with
  | None -> prerr_endline "twigql: no trace was recorded"
  | Some tr ->
    let rendered =
      if chrome then Tm_obs.Export.trace_to_chrome tr ^ "\n"
      else Tm_obs.Export.trace_to_string tr
    in
    (match out with
    | None -> print_string rendered
    | Some f ->
      let oc = open_out_bin f in
      output_string oc rendered;
      close_out oc);
    Printf.eprintf "trace #%d: %d results under %s\n" r.Executor.trace_id
      (List.length r.Executor.ids)
      (Database.strategy_name r.Executor.strategy)

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a query with the observability sink enabled and export its span tree (text, or \
          Chrome trace-event JSON with --chrome)")
    Term.(
      const run_trace $ snap_arg $ file_arg $ xmark_arg $ dblp_arg $ seed_arg $ hint_arg
      $ jobs_arg $ chrome_arg $ trace_out_arg $ xpath_arg)

(* ------------------------------------------------------------------ *)
(* slow                                                                *)
(* ------------------------------------------------------------------ *)

let threshold_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "threshold-ms" ] ~docv:"MS"
        ~doc:"Latency threshold for the slow log (default 10; timeouts always qualify).")

let slow_format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FMT" ~doc:"Report format: $(b,text) or $(b,json).")

let xpaths_arg = Arg.(non_empty & pos_all string [] & info [] ~docv:"XPATH")

let run_slow snap file xmark dblp seed jobs threshold fmt xpaths =
  with_par jobs @@ fun par ->
  let db = load_db ?par snap file xmark dblp seed in
  Tm_obs.Journal.with_enabled true @@ fun () ->
  List.iter
    (fun x ->
      let twig = Tm_query.Xpath_parser.parse x in
      match Executor.run ~hint:Tm_plan.Hint.Auto ?pool:par db twig with
      | _ -> ()
      | exception Executor.Timeout _ -> () (* journaled as a timeout; keep going *))
    xpaths;
  let slow = Tm_obs.Journal.slow ?threshold_ms:threshold () in
  match fmt with
  | `Json -> print_endline (Tm_obs.Journal.to_json slow)
  | `Text ->
    if slow = [] then
      Printf.printf "no queries at or above %.0f ms (of %d journaled)\n"
        (match threshold with Some t -> t | None -> Tm_obs.Journal.slow_threshold_ms ())
        (Tm_obs.Journal.length ())
    else List.iter (fun e -> print_endline (Tm_obs.Journal.entry_to_string e)) slow

let slow_cmd =
  Cmd.v
    (Cmd.info "slow"
       ~doc:
         "Run queries with the journal enabled and print the slow-query log (latency, winning \
          and losing plans, fallback chain)")
    Term.(
      const run_slow $ snap_arg $ file_arg $ xmark_arg $ dblp_arg $ seed_arg $ jobs_arg
      $ threshold_arg $ slow_format_arg $ xpaths_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let port_arg =
  Arg.(value & opt int 8080 & info [ "port"; "p" ] ~docv:"PORT" ~doc:"Listening port (0 = ephemeral).")

let journal_cap_arg =
  Arg.(
    value
    & opt int 512
    & info [ "journal-capacity" ] ~docv:"N" ~doc:"Query journal ring capacity.")

let slow_ms_arg =
  Arg.(
    value
    & opt float 10.0
    & info [ "slow-ms" ] ~docv:"MS" ~doc:"Slow-query threshold for the /slow endpoint.")

let serve_wal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal" ] ~docv:"DIR"
        ~doc:
          "Serve the write-ahead-logged database under $(docv) (recovers first); /healthz then \
           reports WAL status and degrades — not dies — when the write path is poisoned.")

let max_in_flight_arg =
  Arg.(
    value
    & opt int Tm_serve.Server.default_config.Tm_serve.Server.max_in_flight
    & info [ "max-in-flight" ] ~docv:"N" ~doc:"Connections executing concurrently.")

let max_queue_arg =
  Arg.(
    value
    & opt int Tm_serve.Server.default_config.Tm_serve.Server.max_queue
    & info [ "max-queue" ] ~docv:"N"
        ~doc:"Admission queue bound; beyond it connections are shed with 429.")

let request_timeout_arg =
  Arg.(
    value
    & opt float Tm_serve.Server.default_config.Tm_serve.Server.request_timeout_ms
    & info [ "request-timeout-ms" ] ~docv:"MS"
        ~doc:"Per-request budget (queue wait included), propagated into the executor.")

let drain_deadline_arg =
  Arg.(
    value
    & opt float Tm_serve.Server.default_config.Tm_serve.Server.drain_deadline_ms
    & info [ "drain-deadline-ms" ] ~docv:"MS"
        ~doc:"On SIGTERM or /drain, how long to wait for in-flight requests before exiting 1.")

let no_flight_arg =
  Arg.(
    value & flag
    & info [ "no-flight" ]
        ~doc:
          "Disable the flight recorder (on by default under serve: a per-domain in-memory ring \
           of cross-layer events, dumped to a post-mortem file on SIGQUIT, breaker-open or a \
           poisoned write path).")

let flight_dump_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-dump" ] ~docv:"FILE"
        ~doc:
          "Where automatic post-mortem dumps land (default: $(b,flight.dump) inside --wal DIR, \
           else $(b,twigql-flight.dump)). Inspect with $(b,twigql blackbox).")

let run_serve snap file xmark dblp seed jobs port journal_cap slow_ms wal_dir max_in_flight
    max_queue request_timeout_ms drain_deadline_ms no_flight flight_dump =
  with_par jobs @@ fun par ->
  let durable, db =
    match wal_dir with
    | Some dir ->
      let d, r = Durable.open_ dir in
      Printf.printf "recovery: replayed %d txn(s), skipped %d already in snapshot, discarded %d \
                     tail byte(s)\n"
        r.Durable.replayed r.Durable.skipped r.Durable.discarded_bytes;
      (Some d, Durable.database d)
    | None -> (None, load_db ?par snap file xmark dblp seed)
  in
  (* A long-running process is what the telemetry exists for: metrics
     sink, journal and flight recorder are on for the server's
     lifetime. *)
  Tm_obs.Obs.enable ();
  Tm_obs.Journal.enable ~capacity:journal_cap ();
  Tm_obs.Journal.set_slow_threshold_ms slow_ms;
  if not no_flight then begin
    let dump_path =
      match flight_dump with
      | Some p -> p
      | None -> (
        match wal_dir with
        | Some dir -> Filename.concat dir "flight.dump"
        | None -> "twigql-flight.dump")
    in
    Tm_obs.Flight.enable ();
    Tm_obs.Flight.set_dump_path (Some dump_path)
  end;
  let config =
    {
      Tm_serve.Server.default_config with
      Tm_serve.Server.max_in_flight;
      max_queue;
      request_timeout_ms;
      drain_deadline_ms;
    }
  in
  let server = Tm_serve.Server.create ~port ?durable ~config db in
  (* SIGTERM and Ctrl-C drain gracefully: stop accepting, finish
     in-flight requests under the drain deadline, exit 0. *)
  let on_signal = Sys.Signal_handle (fun _ -> Tm_serve.Server.drain server) in
  ignore (Sys.signal Sys.sigterm on_signal);
  ignore (Sys.signal Sys.sigint on_signal);
  (* SIGQUIT is the post-mortem trigger: dump the flight rings and die
     with the conventional 128+SIGQUIT status. OCaml handlers run at
     safepoints in normal code, not inside the faulting instruction, so
     this is safe for SIGQUIT; a genuine SIGSEGV kills the runtime
     before any OCaml handler could run, which is why the recorder
     offers no SIGSEGV hook. *)
  ignore
    (Sys.signal Sys.sigquit
       (Sys.Signal_handle
          (fun _ ->
            (match Tm_wal.Blackbox.dump ~reason:"SIGQUIT" with
            | Some p -> Printf.eprintf "twigql serve: flight recorder dumped to %s\n%!" p
            | None -> ());
            exit 131)));
  Printf.printf
    "twigql serve: listening on http://127.0.0.1:%d (/metrics /healthz /journal /slow /query \
     /stats /debug/flight /drain; %d in flight, queue %d)\n%!"
    (Tm_serve.Server.port server)
    max_in_flight max_queue;
  let outcome = Tm_serve.Server.run ?pool:par server in
  (try Option.iter Durable.close durable
   with Durable.Poisoned _ -> () (* poisoned write path: nothing left to sync *));
  match outcome with
  | Tm_serve.Server.Drained ->
    Printf.printf "drained: all in-flight requests completed\n%!";
    exit 0
  | Tm_serve.Server.Stopped -> exit 0
  | Tm_serve.Server.Drain_timed_out n ->
    Printf.eprintf "drain deadline expired with %d request(s) still inside the server\n%!" n;
    exit 1

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve /metrics (Prometheus), /healthz, /journal, /slow, /query, /stats and /drain over \
          HTTP from a loaded database — bounded admission, adaptive load shedding, graceful \
          drain on SIGTERM/Ctrl-C")
    Term.(
      const run_serve $ snap_arg $ file_arg $ xmark_arg $ dblp_arg $ seed_arg $ jobs_arg
      $ port_arg $ journal_cap_arg $ slow_ms_arg $ serve_wal_arg $ max_in_flight_arg
      $ max_queue_arg $ request_timeout_arg $ drain_deadline_arg $ no_flight_arg
      $ flight_dump_arg)

(* ------------------------------------------------------------------ *)
(* blackbox — flight-recorder post-mortems                             *)
(* ------------------------------------------------------------------ *)

let blackbox_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Post-mortem dump file (written on SIGQUIT, breaker-open, ...).")

(* Damage in a post-mortem is expected — the process was dying — but a
   missing header means the file is not a dump at all: exit 2 like any
   other corrupt input. *)
let load_blackbox path =
  match Tm_wal.Blackbox.load_dump path with
  | d -> d
  | exception Failure msg ->
    Printf.eprintf "twigql blackbox: %s: %s\n" path msg;
    exit 2
  | exception Sys_error msg ->
    Printf.eprintf "twigql blackbox: %s\n" msg;
    exit 124

let describe_dump (d : Tm_wal.Blackbox.dump_file) =
  let events =
    List.fold_left (fun acc (_, es) -> acc + List.length es) 0 d.Tm_wal.Blackbox.d_domains
  in
  let tm = Unix.localtime d.Tm_wal.Blackbox.d_time in
  Printf.eprintf "post-mortem v%d from pid %d at %04d-%02d-%02d %02d:%02d:%02d: %s\n"
    d.Tm_wal.Blackbox.d_version d.Tm_wal.Blackbox.d_pid (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
    d.Tm_wal.Blackbox.d_reason;
  Printf.eprintf "%d domain ring(s), %d event(s)%s\n"
    (List.length d.Tm_wal.Blackbox.d_domains)
    events
    (match d.Tm_wal.Blackbox.d_damaged with
    | None -> ""
    | Some why -> Printf.sprintf " — truncated by the dying process (%s)" why)

let run_blackbox_render file =
  let d = load_blackbox file in
  describe_dump d;
  print_string (Tm_wal.Blackbox.render_dump d)

let run_blackbox_dump file out =
  let d = load_blackbox file in
  describe_dump d;
  let chrome =
    Tm_obs.Export.flight_to_chrome (Tm_obs.Flight.merge_events d.Tm_wal.Blackbox.d_domains)
  in
  match out with
  | None -> print_endline chrome
  | Some f ->
    let oc = open_out_bin f in
    output_string oc chrome;
    output_char oc '\n';
    close_out oc;
    Printf.eprintf "wrote %s (open in chrome://tracing or Perfetto)\n" f

let run_blackbox_tail file n =
  let d = load_blackbox file in
  describe_dump d;
  let events = Tm_obs.Flight.merge_events d.Tm_wal.Blackbox.d_domains in
  let len = List.length events in
  let t0 = match events with [] -> 0 | e :: _ -> e.Tm_obs.Flight.e_ts_ns in
  List.iteri
    (fun i e ->
      if i >= len - n then print_endline (Tm_obs.Flight.event_to_string ~t0 e))
    events

let blackbox_tail_arg =
  Arg.(value & opt int 40 & info [ "n"; "lines" ] ~docv:"N" ~doc:"Events to show (default 40).")

let blackbox_cmd =
  Cmd.group
    (Cmd.info "blackbox"
       ~doc:
         "Inspect flight-recorder post-mortem dumps: the merged cross-domain event timeline a \
          dying server wrote on SIGQUIT, breaker-open or write-path poisoning")
    [
      Cmd.v
        (Cmd.info "render" ~doc:"Print a dump as a human-readable merged timeline")
        Term.(const run_blackbox_render $ blackbox_file_arg);
      Cmd.v
        (Cmd.info "dump"
           ~doc:"Decode a dump into Chrome trace-event JSON for chrome://tracing / Perfetto")
        Term.(const run_blackbox_dump $ blackbox_file_arg $ trace_out_arg);
      Cmd.v
        (Cmd.info "tail" ~doc:"Show the final N events of a dump's merged timeline")
        Term.(const run_blackbox_tail $ blackbox_file_arg $ blackbox_tail_arg);
    ]

(* ------------------------------------------------------------------ *)
(* info                                                                *)
(* ------------------------------------------------------------------ *)

let run_info snap file xmark dblp seed =
  let db = load_db snap file xmark dblp seed in
  let els, vals, depth, paths = Database.document_stats db in
  Printf.printf "elements/attributes: %d\nvalues: %d\ndepth: %d\ndistinct schema paths: %d\n" els
    vals depth paths;
  Printf.printf "\nindex space (bytes):\n";
  List.iter
    (fun s ->
      Printf.printf "  %-8s %10d\n" (Database.strategy_name s)
        (Database.strategy_size_bytes db s))
    Database.all_strategies

let info_cmd =
  Cmd.v
    (Cmd.info "info" ~doc:"Show document, catalog and index statistics")
    Term.(const run_info $ snap_arg $ file_arg $ xmark_arg $ dblp_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let out_arg =
  Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")

let run_generate xmark dblp seed out =
  let doc = load_doc None xmark dblp seed in
  let oc = open_out_bin out in
  output_string oc (Tm_xml.Xml_tree.to_string doc);
  close_out oc;
  Printf.printf "wrote %s (%d element nodes)\n" out (Tm_xml.Xml_tree.element_count doc)

let generate_cmd =
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a dataset and write it as XML")
    Term.(const run_generate $ xmark_arg $ dblp_arg $ seed_arg $ out_arg)

let run_snapshot file xmark dblp seed out =
  let doc = load_doc file xmark dblp seed in
  let db = Database.create doc in
  Persist.save db out;
  Printf.printf "snapshot written to %s\n" out

(* Frame-level verification: magic, section lengths and CRCs, every
   page image against its CRC, footer — without unmarshalling. Damage
   raises Bad_snapshot -> exit 2. *)
let run_snapshot_verify path =
  let { Persist.sections; pages } = Persist.verify path in
  Printf.printf "%s: snapshot format v%d, %d sections, %d pages, frame and checksums ok\n" path
    Persist.version (List.length sections) pages;
  List.iter
    (fun { Persist.name; length; crc } ->
      Printf.printf "  %-10s %10d bytes  crc32 0x%08x\n" name length crc)
    sections

let snapshot_save_term =
  Term.(const run_snapshot $ file_arg $ xmark_arg $ dblp_arg $ seed_arg $ out_arg)

let snapshot_save_cmd =
  Cmd.v (Cmd.info "save" ~doc:"Build a database and save it as a snapshot (atomic rename)")
    snapshot_save_term

let snapshot_verify_cmd =
  Cmd.v
    (Cmd.info "verify" ~doc:"Check a snapshot's framing and checksums without loading it")
    Term.(
      const run_snapshot_verify
      $ Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"))

let snapshot_cmd =
  Cmd.group ~default:snapshot_save_term
    (Cmd.info "snapshot" ~doc:"Save or verify database snapshots")
    [ snapshot_save_cmd; snapshot_verify_cmd ]

(* ------------------------------------------------------------------ *)
(* wal — the durable write path                                        *)
(* ------------------------------------------------------------------ *)

let dir_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Database directory.")

let run_wal_init dir file xmark dblp seed force =
  let doc = load_doc file xmark dblp seed in
  let db = Database.create doc in
  match Durable.create ~force ~dir db with
  | d ->
    Printf.printf "initialized %s (snapshot + empty log, %d element nodes)\n" dir
      (Tm_xml.Xml_tree.element_count doc);
    Durable.close d
  | exception Invalid_argument _ ->
    Printf.eprintf
      "twigql wal init: %s already holds a database (its log may carry un-checkpointed \
       transactions); recover it with `wal fsck` or `wal ingest`, or pass --force to overwrite\n"
      dir;
    exit 124

let run_wal_status dir =
  let wpath = Durable.wal_path dir in
  let spath = Durable.snapshot_path dir in
  (match Persist.verify spath with
  | { Persist.sections; pages } ->
    Printf.printf "snapshot: %s (%d sections, %d pages, %d bytes, checksums ok)\n" spath
      (List.length sections) pages (Unix.stat spath).Unix.st_size
  | exception Persist.Bad_snapshot msg -> Printf.printf "snapshot: DAMAGED (%s)\n" msg);
  let scan = Tm_wal.Wal.scan wpath in
  let size = if Sys.file_exists wpath then (Unix.stat wpath).Unix.st_size else 0 in
  Printf.printf "log: %s (%d bytes, %d valid frames%s)\n" wpath size
    (List.length scan.Tm_wal.Wal.frames)
    (if scan.Tm_wal.Wal.damaged then
       Printf.sprintf ", DAMAGED tail after byte %d" scan.Tm_wal.Wal.valid_bytes
     else "");
  Printf.printf "committed transactions in log: %d%s\n"
    (List.length scan.Tm_wal.Wal.committed)
    (match List.rev scan.Tm_wal.Wal.committed with
    | last :: _ -> Printf.sprintf " (last txn %d)" last
    | [] -> "");
  Printf.printf "committed prefix: %d bytes; uncommitted/damaged tail: %d bytes\n"
    scan.Tm_wal.Wal.committed_bytes
    (max 0 (size - scan.Tm_wal.Wal.committed_bytes))

let report_recovery (r : Durable.recovery) =
  Printf.printf "recovery: replayed %d txn(s), skipped %d already in snapshot, discarded %d \
                 tail byte(s)\n"
    r.Durable.replayed r.Durable.skipped r.Durable.discarded_bytes

let run_wal_checkpoint dir =
  let d, r = Durable.open_ dir in
  report_recovery r;
  Durable.checkpoint d;
  Printf.printf "checkpoint complete: snapshot at txn %d, log truncated\n"
    (Durable.database d).Database.last_txn;
  Durable.close d

let run_wal_ingest dir count batch seed =
  let d, r = Durable.open_ dir in
  report_recovery r;
  let db = Durable.database d in
  let roots = db.Database.doc.Tm_xml.Xml_tree.roots in
  if Array.length roots = 0 then begin
    Printf.eprintf "twigql wal ingest: empty document\n";
    exit 124
  end;
  let parent = roots.(0).Tm_xml.Xml_tree.id in
  let subtree i =
    Tm_xml.Xml_tree.elem "ingest"
      [ Tm_xml.Xml_tree.elem_text "note" (Printf.sprintf "seed%d-%d" seed i) ]
  in
  let insert i = ignore (Durable.insert_subtree d ~parent (subtree i)) in
  let t0 = Unix.gettimeofday () in
  if batch then Durable.batch d (fun () -> for i = 1 to count do insert i done)
  else for i = 1 to count do insert i done;
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "ingested %d subtree(s)%s in %.1f ms (last txn %d)\n" count
    (if batch then " (group commit)" else "")
    (1000.0 *. dt) db.Database.last_txn;
  Durable.close d

(* Recover, then run the full offline checker over the recovered
   database: the crash-matrix smoke's final verdict. *)
let run_wal_fsck dir fmt =
  let d, r = Durable.open_ dir in
  report_recovery r;
  let report = Tm_check.Check.check_database (Durable.database d) in
  (match fmt with
  | `Text -> print_endline (Tm_check.Check.report_to_string report)
  | `Json -> print_endline (Tm_check.Check.report_to_json report));
  Durable.close d;
  if not (Tm_check.Check.is_clean report) then exit 1

let wal_force_arg =
  Arg.(
    value & flag
    & info [ "force" ]
        ~doc:
          "Overwrite an existing database in DIR. Without it, init refuses a directory that \
           already holds a snapshot or a non-empty log (its un-checkpointed transactions would \
           be destroyed).")

let wal_count_arg =
  Arg.(value & opt int 100 & info [ "count"; "n" ] ~docv:"N" ~doc:"Subtrees to insert.")

let wal_batch_arg =
  Arg.(value & flag & info [ "batch" ] ~doc:"Group-commit the whole ingest with one fsync.")

let wal_fsck_format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FMT" ~doc:"Report format: $(b,text) or $(b,json).")

let wal_cmd =
  Cmd.group
    (Cmd.info "wal"
       ~doc:
         "Durable write path: initialize, inspect, checkpoint, ingest into and verify a \
          write-ahead-logged database directory")
    [
      Cmd.v
        (Cmd.info "init" ~doc:"Build a database and make it durable under DIR (snapshot + log)")
        Term.(
          const run_wal_init $ dir_arg $ file_arg $ xmark_arg $ dblp_arg $ seed_arg
          $ wal_force_arg);
      Cmd.v
        (Cmd.info "status" ~doc:"Scan DIR's snapshot framing and log frames without recovering")
        Term.(const run_wal_status $ dir_arg);
      Cmd.v
        (Cmd.info "checkpoint" ~doc:"Recover DIR and fold its log into a fresh snapshot")
        Term.(const run_wal_checkpoint $ dir_arg);
      Cmd.v
        (Cmd.info "ingest" ~doc:"Recover DIR and insert N logged subtrees (optionally batched)")
        Term.(const run_wal_ingest $ dir_arg $ wal_count_arg $ wal_batch_arg $ seed_arg);
      Cmd.v
        (Cmd.info "fsck" ~doc:"Recover DIR and verify every index structure invariant")
        Term.(const run_wal_fsck $ dir_arg $ wal_fsck_format_arg);
    ]

(* ------------------------------------------------------------------ *)
(* fsck                                                                *)
(* ------------------------------------------------------------------ *)

(* Exit codes: 0 = clean, 1 = violations found; cmdliner's usual 124 on
   CLI misuse. Corruption (Corrupt_page, Bad_snapshot) exits 2 via the
   top-level handler. *)
let run_fsck snap file xmark dblp seed strategies jobs fmt =
  with_par jobs @@ fun par ->
  let db =
    match snap with
    | Some path -> Persist.load path
    | None -> (
      let doc = load_doc file xmark dblp seed in
      match strategies with
      | [] -> Database.create ?par doc
      | ss -> Database.create ?par ~strategies:ss doc)
  in
  let report = Tm_check.Check.check_database db in
  (match fmt with
  | `Text -> print_endline (Tm_check.Check.report_to_string report)
  | `Json -> print_endline (Tm_check.Check.report_to_json report));
  if not (Tm_check.Check.is_clean report) then exit 1

let fsck_strategies_arg =
  Arg.(
    value
    & opt_all strategy_conv []
    & info [ "strategy"; "s" ] ~docv:"STRATEGY"
        ~doc:"Verify only these strategies' structures (repeatable; default: all).")

let fsck_format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FMT" ~doc:"Report format: $(b,text) or $(b,json).")

let fsck_cmd =
  Cmd.v
    (Cmd.info "fsck" ~doc:"Verify index structure invariants (offline checker)")
    Term.(
      const run_fsck $ snap_arg $ file_arg $ xmark_arg $ dblp_arg $ seed_arg
      $ fsck_strategies_arg $ jobs_arg $ fsck_format_arg)

let () =
  let info =
    Cmd.info "twigql" ~version:"1.0.0"
      ~doc:"XML twig matching with relational index structures (Chen et al., ICDE 2005)"
  in
  let group =
    Cmd.group info
      [
        query_cmd;
        explain_cmd;
        plan_cmd;
        compare_cmd;
        metrics_cmd;
        trace_cmd;
        slow_cmd;
        serve_cmd;
        blackbox_cmd;
        info_cmd;
        generate_cmd;
        snapshot_cmd;
        wal_cmd;
        fsck_cmd;
      ]
  in
  (* Typed failure -> distinct exit codes, so scripts and CI can tell
     "corrupt data" (2) and "deadline expired" (3) from CLI misuse. *)
  match Cmd.eval ~catch:false group with
  | code -> exit code
  | exception Persist.Bad_snapshot msg ->
    Printf.eprintf "twigql: bad snapshot: %s\n" msg;
    exit 2
  | exception Tm_storage.Pager.Corrupt_page { page; detail } ->
    Printf.eprintf "twigql: corrupt page %d: %s\n" page detail;
    exit 2
  | exception Durable.Recovery_error msg ->
    Printf.eprintf "twigql: recovery failed: %s\n" msg;
    exit 2
  | exception Executor.Timeout { ms; stats } ->
    Format.eprintf "twigql: query deadline of %.0f ms expired (partial stats: %a)@." ms
      Tm_exec.Stats.pp stats;
    exit 3
  | exception e ->
    Printf.eprintf "twigql: internal error: %s\n" (Printexc.to_string e);
    Printexc.print_backtrace stderr;
    exit 125
