(* perfbench: the repository's fixed end-to-end and per-layer benchmark.

     bench.exe --workload point|ingest --seed N --seconds S --trace 0|1
     bench.exe --smoke        # both workloads at a tiny scale, every check
     bench.exe --reference --seed N --seconds S   # Q1x in the library and served

   One process, one client thread, no sockets. The last line of
   standard output is the result object; the lines before it describe
   the run. See README.md for the workloads, metrics and how each time
   metric is read. *)

open Twigmatch
module T = Tm_xml.Xml_tree
module P = Pbstats
module Obs = Tm_obs.Obs
module Journal = Tm_obs.Journal
module Flight = Tm_obs.Flight
module Bp = Tm_storage.Buffer_pool
module Pager = Tm_storage.Pager

let now_ns () = Int64.to_float (Monotonic_clock.now ())
let progress fmt = Printf.eprintf ("[perfbench] " ^^ fmt ^^ "\n%!")

(* ---- fixed settings (README.md states each) ------------------------- *)

let scale = 0.5 (* XMark scale of every run *)
let smoke_scale = 0.05
let per_template = 128 (* constants per served template *)
let setup_reps = 3 (* set-ups per run; setup_s is their median *)
let restart_reps = 5 (* restarts per run; restart_s is the median of the faster half *)
let warmup_s = 1.0
let pool_capacity = 16384 (* frames: more than any database here has pages *)
let ckpt_every = 32 (* ingest transactions per checkpoint; even *)
let tail_txns = 4 (* transactions after the last checkpoint; even *)
let prefill = 8 (* auctions inserted before the measured ingest sequence *)
let journal_capacity = 512
let out_dir = ".perfbench-out" (* run directories and trace files, in the checkout *)
let trace_span_limit = 20_000

let refused_env =
  [ "TWIGMATCH_FAILPOINTS"; "TWIGMATCH_JOURNAL"; "TWIGMATCH_FLIGHT"; "TWIGMATCH_FLIGHT_DUMP";
    "TWIGMATCH_JOBS" ]

type workload = Point | Ingest

let workloads = [ ("point", Point); ("ingest", Ingest) ]
let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* Obs, the journal and the flight recorder together, as `twigql serve`
   turns them on. *)
let telemetry on f =
  Obs.with_enabled on (fun () -> Journal.with_enabled on (fun () -> Flight.with_enabled on f))

(* ---- small helpers --------------------------------------------------- *)

let median_of l = P.median (Array.of_list l)
let secs ns = ns /. 1e9

let time_ns f =
  let t0 = now_ns () in
  let v = f () in
  (v, now_ns () -. t0)

let url_encode s =
  let b = Buffer.create (String.length s * 2) in
  String.iter
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' | '.' | '~' | '/' -> Buffer.add_char b c
      | c -> Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents b

(* The ids of a /query response body: {"...","ids":[1,2,3]}. *)
let ids_of_body body =
  let key = "\"ids\":[" in
  let kl = String.length key and n = String.length body in
  let rec find i = if i + kl > n then None else if String.sub body i kl = key then Some (i + kl) else find (i + 1) in
  match find 0 with
  | None -> None
  | Some start -> (
    match String.index_from_opt body start ']' with
    | None -> None
    | Some stop ->
      let inner = String.sub body start (stop - start) in
      if inner = "" then Some []
      else
        try Some (List.map int_of_string (String.split_on_char ',' inner)) with Failure _ -> None)

let equal_ids = List.equal Int.equal

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

(* The filesystem type holding [dir], as `stat -f` reports it. *)
let fs_type dir =
  match Unix.open_process_args_in "stat" [| "stat"; "-f"; "-c"; "%T"; dir |] with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
    let line = try String.trim (input_line ic) with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    line

(* ---- result accounting ---------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let record ~what ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    progress "FAILED: %s" what
  end

(* A span hook that is polymorphic in the wrapped call's result: the
   traced run passes Trace.with_span, the measured run the identity. *)
type spanner = { span : 'a. string -> (unit -> 'a) -> 'a }

let no_span = { span = (fun _ f -> f ()) }
let tsp = { span = Trace.with_span }

(* ---- inputs and set-up ---------------------------------------------- *)

type built = { xdb : Database.t; durable : Durable.t option }

let build ?(sp = no_span) w text ~wal_dir =
  let xdb = Database.create ~pool_capacity (Tm_xml.Xml_parser.parse text) in
  let durable =
    match w with
    | Ingest -> Some (sp.span "durable.create" (fun () -> Durable.create ~force:true ~dir:wal_dir xdb))
    | Point -> None
  in
  { xdb; durable }

(* Set up [setup_reps] times; returns the last database and the median
   set-up time in seconds. *)
let setup w text ~wal_dir =
  let last = ref None and times = ref [] in
  for _ = 1 to setup_reps do
    Option.iter (fun b -> Option.iter Durable.close b.durable) !last;
    last := None;
    Gc.full_major ();
    let b, ns = time_ns (fun () -> build w text ~wal_dir) in
    times := secs ns :: !times;
    last := Some b
  done;
  (Option.get !last, median_of !times)

let space_amp (db : Database.t) text =
  float_of_int (Pager.size_bytes db.Database.pager) /. float_of_int (String.length text)

(* ---- operations ------------------------------------------------------ *)

(* An operation runs its timed part and returns its untimed check. *)
type op = { label : string; run : unit -> unit -> bool }

let served_op db (r : Inputs.request) =
  let target = "/query?q=" ^ url_encode r.Inputs.xpath in
  {
    label = r.Inputs.xpath;
    run =
      (fun () ->
        let resp = Tm_serve.Server.handle db ~meth:"GET" ~target in
        fun () ->
          resp.Tm_serve.Server.status = 200
          && Option.equal equal_ids (ids_of_body resp.Tm_serve.Server.body) (Some r.Inputs.expected));
  }

(* ---- the closed loop ------------------------------------------------- *)

(* Words one pair of Gc.counters readings allocates by itself. *)
let counter_overhead =
  lazy
    (let m = ref Float.infinity in
     for _ = 1 to 16 do
       let c0 = Gc.counters () in
       let c1 = Gc.counters () in
       m := Float.min !m (P.words_between c0 c1)
     done;
     !m)

type loop = {
  lat : float array;  (** ns per operation *)
  busy : float;  (** seconds inside the timed calls *)
  ops : int;
  words : float;  (** words allocated inside the timed calls, net of counter overhead *)
}

let attempt (o : op) =
  match o.run () with
  | check -> ( fun () -> try check () with _ -> false)
  | exception _ -> fun () -> false

(* Whole rounds over [ops] until [seconds] have passed, after a warm-up
   of at least one round and [warmup_s] seconds. *)
let closed_loop ~seconds (ops : op array) =
  let t_w = now_ns () in
  let warm = ref true in
  while !warm do
    Array.iter (fun o -> ignore (attempt o ())) ops;
    warm := now_ns () -. t_w < warmup_s *. 1e9
  done;
  let overhead = Lazy.force counter_overhead in
  let lat = P.Fbuf.create () and busy = ref 0.0 and words = ref 0.0 and n = ref 0 in
  let t_start = now_ns () in
  while now_ns () -. t_start < seconds *. 1e9 do
    Array.iter
      (fun o ->
        let c0 = Gc.counters () in
        let t0 = now_ns () in
        let check = attempt o in
        let t1 = now_ns () in
        let c1 = Gc.counters () in
        words := !words +. P.words_between c0 c1 -. overhead;
        P.Fbuf.push lat (t1 -. t0);
        busy := !busy +. (t1 -. t0);
        incr n;
        record ~what:o.label (check ()))
      ops
  done;
  { lat = P.Fbuf.to_array lat; busy = secs !busy; ops = !n; words = !words }

(* ---- restart (point) ------------------------------------------------ *)

(* The median of the faster half of restart times; NaN when every
   attempt raised (each of those already counted as failed). *)
let best_restart = function
  | [] -> Float.nan
  | times -> P.lower_half_median (Array.of_list times)

(* Snapshot the database, then load it [restart_reps] times; each load
   answers the first operation's query as a check. *)
let restart_read (db : Database.t) ~dir ~check =
  let path = Filename.concat dir "xmark.snap" in
  Persist.save db path;
  let times = ref [] in
  for _ = 1 to restart_reps do
    Gc.full_major ();
    match time_ns (fun () -> Persist.load path) with
    | exception _ -> record ~what:"restart: Persist.load" false
    | db2, ns ->
      times := secs ns :: !times;
      record ~what:"restart: reloaded database answers" (try check db2 with _ -> false)
  done;
  Sys.remove path;
  best_restart !times

(* ---- ingest ------------------------------------------------------------ *)

type ingest = {
  d : Durable.t;
  parent : int;
  st : Random.State.t;
  live : Inputs.auction Queue.t;
  mutable next : int;  (** next auction number *)
  mutable txns : int;
  mutable last_deleted : Inputs.auction option;
  q10x : Tm_query.Twig.t;
  q10x_expected : int list;
  nodes : (int, T.node) Hashtbl.t;  (** the document's nodes before the sequence *)
}

let ingest_state d ~seed =
  let db = Durable.database d in
  let q10x = Tm_datasets.Workload.parse (Tm_datasets.Workload.find "Q10x") in
  {
    d;
    parent = Inputs.open_auctions_id db.Database.doc;
    st = Random.State.make [| seed; 0x1a9e |];
    live = Queue.create ();
    next = 0;
    txns = 0;
    last_deleted = None;
    q10x;
    q10x_expected = Tm_query.Naive.query db.Database.doc q10x;
    nodes = Inputs.node_index db.Database.doc;
  }

type txn_result = {
  ok : bool;  (** the call returned, with the root id or node count it should *)
  ns : float;
  words : float;
  pages : int;
  read_checks : (string * (unit -> bool)) list;
}

(* One transaction of the fixed sequence (insert when [txns] is even,
   else delete the oldest live auction), then its reads: the touched
   auction's Q10x-shaped read, the paper's Q10x, and the same read for
   every other live auction. Reads are timed into [read_lat]. An
   insert must return the new root's id, a delete the number of nodes
   the auction has; a call that raises is a failed transaction, and
   the sequence goes on. *)
let ingest_txn ?(sp = no_span) s ~read_lat =
  let db = Durable.database s.d in
  let overhead = Lazy.force counter_overhead in
  let insert = s.txns mod 2 = 0 in
  let touched = if insert then Inputs.new_auction s.st s.next else Queue.pop s.live in
  let pw0 = Pager.physical_writes db.Database.pager in
  let c0 = Gc.counters () in
  let t0 = now_ns () in
  let returned =
    try
      Some
        (if insert then
           sp.span "durable.insert" (fun () -> Durable.insert_subtree s.d ~parent:s.parent touched.Inputs.node)
         else sp.span "durable.delete" (fun () -> Durable.delete_subtree s.d touched.Inputs.node.T.id))
    with _ -> None
  in
  let t1 = now_ns () in
  let c1 = Gc.counters () in
  s.txns <- s.txns + 1;
  let ok =
    match returned with
    | None -> false
    | Some v -> if insert then v = touched.Inputs.node.T.id else v = Inputs.node_count touched.Inputs.node
  in
  if insert then begin
    s.next <- s.next + 1;
    if ok then Queue.push touched s.live
  end
  else s.last_deleted <- Some touched;
  let pages = Pager.physical_writes db.Database.pager - pw0 in
  let read twig =
    let r, ns = time_ns (fun () -> sp.span "executor.read" (fun () -> try Some (Executor.run db twig) with _ -> None)) in
    P.Fbuf.push read_lat ns;
    r
  in
  let author_check what (a : Inputs.auction) want =
    let r = read (Tm_query.Xpath_parser.parse (Inputs.author_read a.Inputs.author)) in
    (what, fun () -> match r with Some r -> equal_ids r.Executor.ids want | None -> false)
  in
  let touched_check =
    author_check "ingest: read of the touched auction" touched
      (if insert then [ touched.Inputs.time.T.id ] else [])
  in
  let r2 = read s.q10x in
  let q10x_check =
    ( "ingest: Q10x beside writes",
      fun () ->
        match r2 with
        | Some r ->
          equal_ids r.Executor.ids s.q10x_expected
          && Inputs.answer_properties_ok s.nodes s.q10x r.Executor.ids
        | None -> false )
  in
  let others =
    Queue.fold
      (fun acc (a : Inputs.auction) ->
        if a == touched then acc
        else author_check "ingest: read of a live auction" a [ a.Inputs.time.T.id ] :: acc)
      [] s.live
  in
  {
    ok;
    ns = t1 -. t0;
    words = P.words_between c0 c1 -. overhead;
    pages;
    read_checks = touched_check :: q10x_check :: others;
  }

let run_txn ?sp s ~read_lat =
  let r = ingest_txn ?sp s ~read_lat in
  record ~what:"ingest: transaction" r.ok;
  List.iter (fun (what, f) -> record ~what (try f () with _ -> false)) r.read_checks;
  r

(* The answers a recovered database must give, taken from the live one. *)
let recovery_checks s =
  let db = Durable.database s.d in
  let q twig = (Executor.run db twig).Executor.ids in
  let authors =
    Queue.fold (fun acc a -> a :: acc) [] s.live
    @ (match s.last_deleted with Some a -> [ a ] | None -> [])
  in
  (s.q10x, q s.q10x)
  :: List.map
       (fun (a : Inputs.auction) ->
         let t = Tm_query.Xpath_parser.parse (Inputs.author_read a.Inputs.author) in
         (t, q t))
       authors

type ingest_loop = {
  txn_ns : float list;  (** per transaction in whole cycles *)
  ckpt_ns : float list;
  tail_ns : float list;
  words : float;
  txn_pages : int;
  log_bytes : int;  (** WAL growth over the transactions of whole cycles *)
  cycle_txns : int;
}

(* Cycles of [every] transactions plus a checkpoint until [seconds]
   have passed (at least [min_cycles]), then [tail] transactions. *)
let ingest_cycles ?(sp = no_span) ?(min_cycles = 1) ?max_cycles s ~seconds ~every ~tail ~read_lat =
  let txn_ns = ref [] and ckpt_ns = ref [] and words = ref 0.0 and pages = ref 0 and log = ref 0 in
  let txn () = run_txn ~sp s ~read_lat in
  let cycles = ref 0 in
  let t_start = now_ns () in
  let more () =
    !cycles < min_cycles
    || (now_ns () -. t_start < seconds *. 1e9
       && match max_cycles with Some m -> !cycles < m | None -> true)
  in
  while more () do
    let log0 = (Durable.wal_status s.d).Durable.log_bytes in
    for _ = 1 to every do
      let r = txn () in
      txn_ns := r.ns :: !txn_ns;
      words := !words +. r.words;
      pages := !pages + r.pages
    done;
    log := !log + ((Durable.wal_status s.d).Durable.log_bytes - log0);
    let (), ns = time_ns (fun () -> sp.span "durable.checkpoint" (fun () -> Durable.checkpoint s.d)) in
    ckpt_ns := ns :: !ckpt_ns;
    incr cycles
  done;
  let tail_ns = List.init tail (fun _ -> (txn ()).ns) in
  {
    txn_ns = List.rev !txn_ns;
    ckpt_ns = List.rev !ckpt_ns;
    tail_ns;
    words = !words;
    txn_pages = !pages;
    log_bytes = !log;
    cycle_txns = !cycles * every;
  }

(* Close, reopen [restart_reps] times (each replays the same tail), and
   check every reopened handle; fsck the last. Returns the
   Durable.open_ seconds, read as the median of the faster half. *)
let recover ?(fsck = true) s ~tail =
  let checks = recovery_checks s in
  let dir = Durable.dir s.d in
  Durable.close s.d;
  let times = ref [] and last = ref None in
  for i = 1 to restart_reps do
    Gc.full_major ();
    match time_ns (fun () -> Durable.open_ dir) with
    | exception _ -> record ~what:"recovery: Durable.open_" false
    | (d2, rcv), ns ->
      times := secs ns :: !times;
      record ~what:"recovery: replayed = transactions since the last checkpoint"
        (rcv.Durable.replayed = tail);
      let db2 = Durable.database d2 in
      List.iter
        (fun (twig, want) ->
          record ~what:"recovery: recovered database answers as the live one"
            (try equal_ids (Executor.run db2 twig).Executor.ids want with _ -> false))
        checks;
      if i = restart_reps then last := Some d2 else Durable.close d2
  done;
  Option.iter
    (fun d2 ->
      if fsck then
        record ~what:"recovery: fsck clean"
          (try Tm_check.Check.is_clean (Tm_check.Check.check_database (Durable.database d2)) with _ -> false);
      Durable.close d2)
    !last;
  best_restart !times

(* ---- metrics output -------------------------------------------------- *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct metrics =
  List.iter (fun (n, v, u) -> Printf.printf "# %-36s %16.6f %s\n" n v u) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    tally.attempted tally.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_num v) u)
          metrics))

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. (1024.0 *. 1024.0)

(* Whole-run p50 and p95 of [lat] (ns), in microseconds. *)
let p50_p95_us lat =
  let a = P.sorted_copy lat in
  progress "%d latency samples" (Array.length a);
  (P.percentile_sorted a 0.5 /. 1e3, P.percentile_sorted a 0.95 /. 1e3)

(* The end-to-end metrics of point's closed loop, over the whole run. *)
let loop_metrics (l : loop) =
  let p50, p95 = p50_p95_us l.lat in
  (float_of_int l.ops /. l.busy, p50, p95, P.kb_per_op ~words:l.words ~ops:l.ops)

let environment w ~seed ~scale ~wal_dir =
  Printf.printf
    "# env {\"workload\": \"%s\", \"seed\": %d, \"xmark_scale\": %g, \"nproc\": %d, \"ocaml\": \"%s\", \"OCAMLRUNPARAM\": \"%s\", \"page_size\": %d, \"pool_capacity\": %d, \"wal_fs\": \"%s\", \"jobs\": 1}\n%!"
    (workload_name w) seed scale
    (Domain.recommended_domain_count ()) Sys.ocaml_version
    (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM"))
    Pager.default_page_size pool_capacity (fs_type wal_dir)

(* ---- the measured (untraced) run ------------------------------------ *)

let prefill_auctions s =
  for _ = 1 to prefill do
    let a = Inputs.new_auction s.st s.next in
    s.next <- s.next + 1;
    ignore (Durable.insert_subtree s.d ~parent:s.parent a.Inputs.node);
    Queue.push a s.live
  done;
  Durable.checkpoint s.d

let measured w ~seed ~seconds ~scale ~dir =
  let text = Inputs.xmark_text ~seed ~scale in
  let b, setup_s = setup w text ~wal_dir:dir in
  let amp = space_amp b.xdb text in
  progress "%s: set-up %.3f s (median of %d), space_amp %.2f" (workload_name w) setup_s setup_reps amp;
  let throughput, p50, p95, kb_per_op, restart_s =
    match w with
    | Point ->
      let reqs = Inputs.point_requests ~seed ~per_template b.xdb.Database.doc in
      let first = List.hd reqs in
      let check db =
        equal_ids (Executor.run db (Tm_query.Xpath_parser.parse first.Inputs.xpath)).Executor.ids
          first.Inputs.expected
      in
      let l = telemetry true (fun () -> closed_loop ~seconds (Array.of_list (List.map (served_op b.xdb) reqs))) in
      let rate, p50, p95, kb = loop_metrics l in
      (rate, p50, p95, kb, restart_read b.xdb ~dir ~check)
    | Ingest ->
      let s = ingest_state (Option.get b.durable) ~seed in
      prefill_auctions s;
      let read_lat = P.Fbuf.create () in
      let l = ingest_cycles s ~seconds ~every:ckpt_every ~tail:tail_txns ~read_lat in
      let durable_s = secs (List.fold_left ( +. ) 0.0 (l.txn_ns @ l.ckpt_ns)) in
      progress "ingest: %d transactions in %d cycles" (l.cycle_txns + tail_txns) (List.length l.ckpt_ns);
      let p50, p95 = p50_p95_us (P.Fbuf.to_array read_lat) in
      let recovery_s = recover s ~tail:tail_txns in
      (float_of_int l.cycle_txns /. durable_s, p50, p95, P.kb_of_words (l.words /. float_of_int l.cycle_txns), recovery_s)
  in
  [
    ("setup_s", setup_s, "s");
    ("throughput_ops", throughput, "op/s");
    ("latency_p50_us", p50, "us");
    ("latency_p95_us", p95, "us");
    ("alloc_kb_per_op", kb_per_op, "KB");
    ("heap_peak_mb", heap_peak_mb (), "MB");
    ("space_amp", amp, "ratio");
    ("restart_s", restart_s, "s");
  ]

(* ---- the traced run ---------------------------------------------------- *)

let sp name f = Trace.with_span name f

(* Database.create's steps, one public call at a time. *)
let layer_setup text =
  let module F = Tm_index.Family in
  let doc = sp "xml.parse" (fun () -> Tm_xml.Xml_parser.parse text) in
  let pool = Bp.create ~capacity:pool_capacity (Pager.create ()) in
  let dict = Tm_xmldb.Dictionary.create () in
  let catalog = sp "xmldb.catalog" (fun () -> Tm_xmldb.Schema_catalog.build dict doc) in
  ignore (sp "xmldb.edge" (fun () -> Tm_xmldb.Edge_table.build pool dict doc));
  List.iter
    (fun (name, cfg) -> ignore (sp name (fun () -> F.build ~pool ~dict ~catalog cfg doc)))
    [
      ("index.build_rootpaths", F.rootpaths);
      ("index.build_datapaths", F.datapaths);
      ("index.build_dataguide", F.dataguide);
      ("index.build_fabric", F.index_fabric);
    ];
  ignore (sp "index.build_asr" (fun () -> Tm_index.Asr.build ~pool ~dict ~catalog doc));
  ignore (sp "index.build_ji" (fun () -> Tm_index.Join_index.build ~pool ~dict ~catalog doc))

(* A request of the query-layer analysis. *)
type treq = { xpath : string; target : string }

let treq xpath = { xpath; target = "/query?q=" ^ url_encode xpath }

(* The workload's own posture: served with telemetry on for point,
   Executor.run with telemetry off for ingest's reads. *)
let posture_call w db (r : treq) =
  match w with
  | Point -> telemetry true (fun () -> ignore (Tm_serve.Server.handle db ~meth:"GET" ~target:r.target))
  | Ingest -> ignore (Executor.run db (Tm_query.Xpath_parser.parse r.xpath))

type qstats = {
  mutable n : int;
  mutable entries : int;
  mutable probes : int;
  mutable hits : int;
  mutable walked : int;
  mutable words : float;
  mutable join_rows : int;
  mutable skipped : int;
  mutable mismatches : int;
}

(* Plan-cache, buffer-pool and GC counters, read before and after a
   stretch of the workload's operations. *)
type counters = { cache : Tm_plan.Cache.stats; pool : Bp.stats; gc : Gc.stat }

let counters (db : Database.t) =
  { cache = Tm_plan.Cache.stats (); pool = Bp.stats db.Database.pool; gc = Gc.quick_stat () }

let counter_metrics c0 c1 ~ops =
  let n = float_of_int ops in
  let d f = float_of_int (f c1 - f c0) in
  let hits = d (fun c -> c.cache.Tm_plan.Cache.hits) in
  let lookups = hits +. d (fun c -> c.cache.Tm_plan.Cache.misses) in
  let reads = d (fun c -> c.pool.Bp.logical_reads) and misses = d (fun c -> c.pool.Bp.misses) in
  [
    ("plan.cache_hit_ratio", (if lookups > 0.0 then hits /. lookups else 0.0), "ratio");
    ("storage.logical_reads_per_query", reads /. n, "count");
    ("storage.misses_per_query", misses /. n, "count");
    ("storage.evictions_per_query", d (fun c -> c.pool.Bp.evictions) /. n, "count");
    ("storage.hit_ratio", (if reads > 0.0 then 1.0 -. (misses /. reads) else 1.0), "ratio");
    ("gc.minor_per_kop", d (fun c -> c.gc.Gc.minor_collections) /. n *. 1000.0, "count");
    ("gc.major_per_run", d (fun c -> c.gc.Gc.major_collections), "count");
    ("gc.promoted_kb_per_op", P.kb_of_words ((c1.gc.Gc.promoted_words -. c0.gc.Gc.promoted_words) /. n), "KB");
  ]

(* Phase A: the workload's posture, untraced; phase B: every request
   traced and its plan re-executed layer by layer; phase C: planning
   after the plan cache is cleared. Returns phase A's counters and
   request count beside its untraced latency. *)
let query_layers w (db : Database.t) ~seconds (reqs : treq list) =
  List.iter (posture_call w db) reqs;
  let c0 = counters db in
  let lat = P.Fbuf.create () in
  let t_a = now_ns () in
  while P.Fbuf.length lat = 0 || now_ns () -. t_a < seconds /. 4.0 *. 1e9 do
    List.iter
      (fun r ->
        let (), ns = time_ns (fun () -> posture_call w db r) in
        P.Fbuf.push lat ns)
      reqs
  done;
  let c1 = counters db in
  let n_a = P.Fbuf.length lat in
  let q = { n = 0; entries = 0; probes = 0; hits = 0; walked = 0; words = 0.0; join_rows = 0; skipped = 0; mismatches = 0 } in
  let t_b = now_ns () in
  let round = ref 0 and nreq = List.length reqs in
  (* Each call kind gets its own pass over the stream, so every pass
     sees the requests in the measured run's order. Spans of one
     request share its request id. *)
  let pass f = List.iteri (fun i r -> Trace.set_request ((!round * nreq) + i + 1); f r) reqs in
  while q.n = 0 || now_ns () -. t_b < seconds /. 4.0 *. 1e9 do
    telemetry true (fun () ->
        pass (fun r -> ignore (sp "serve.handle" (fun () -> Tm_serve.Server.handle db ~meth:"GET" ~target:r.target)));
        pass (fun r ->
            let twig = Tm_query.Xpath_parser.parse r.xpath in
            ignore (sp "executor.run_telemetry" (fun () -> Executor.run db twig))));
    pass (fun r ->
        let twig = sp "query.parse" (fun () -> Tm_query.Xpath_parser.parse r.xpath) in
        let res = sp "executor.run" (fun () -> Executor.run db twig) in
        q.n <- q.n + 1;
        q.entries <- q.entries + res.Executor.stats.Tm_exec.Stats.entries_scanned;
        sp "reexec" (fun () ->
            match Reexec.compile db twig with
            | exception Reexec.Not_reexecutable _ -> q.skipped <- q.skipped + 1
            | cpaths -> (
              ignore (sp "plan.hit" (fun () -> Reexec.plan_call db twig cpaths));
              match Reexec.run db twig res.Executor.plan with
              | exception Reexec.Not_reexecutable _ -> q.skipped <- q.skipped + 1
              | ids, t ->
                q.probes <- q.probes + t.Reexec.probes;
                q.hits <- q.hits + t.Reexec.hits;
                q.walked <- q.walked + t.Reexec.walked;
                q.words <- q.words +. t.Reexec.words;
                q.join_rows <- q.join_rows + t.Reexec.join_rows;
                if res.Executor.replans = 0 && res.Executor.fallbacks = [] && not res.Executor.via_naive
                then begin
                  let st = res.Executor.stats in
                  let ok =
                    t.Reexec.hits = st.Tm_exec.Stats.entries_scanned
                    && t.Reexec.probes = st.Tm_exec.Stats.inlj_probes
                    && equal_ids ids res.Executor.ids
                  in
                  if not ok then q.mismatches <- q.mismatches + 1;
                  record ~what:("trace self-check: " ^ r.xpath) ok
                end
                else q.skipped <- q.skipped + 1)));
    incr round
  done;
  Trace.set_request 0;
  List.iter
    (fun r ->
      let twig = Tm_query.Xpath_parser.parse r.xpath in
      match Reexec.compile db twig with
      | exception Reexec.Not_reexecutable _ -> ()
      | cpaths ->
        Tm_plan.Cache.clear ();
        ignore (sp "plan.miss" (fun () -> Reexec.plan_call db twig cpaths)))
    reqs;
  let untraced_us = Array.fold_left ( +. ) 0.0 (P.Fbuf.to_array lat) /. float_of_int n_a /. 1e3 in
  (q, (c0, c1, n_a), untraced_us)

(* Buffer-pool miss, pager read and CRC32 cost per page, on a side pool
   over the database's own pager. *)
let storage_probes (db : Database.t) =
  let pager = db.Database.pager in
  let pages = min 512 (Pager.page_count pager) in
  let side = Bp.create ~capacity:16 pager in
  let each name f =
    let (), ns = time_ns (fun () -> sp name (fun () -> for p = 0 to pages - 1 do f p done)) in
    ns /. float_of_int pages /. 1e3
  in
  let miss = each "storage.pool_miss" (fun p -> ignore (Bp.read side p)) in
  let read = each "storage.page_read" (fun p -> ignore (Pager.read pager p)) in
  let page = Pager.read pager 0 in
  let crc = each "storage.crc" (fun _ -> ignore (Tm_storage.Codec.crc32 page)) in
  [ ("storage.pool_miss_us", miss, "us"); ("storage.page_read_us", read, "us"); ("storage.crc_us_per_page", crc, "us") ]

(* The ingest sequence through Updates on a non-durable database. *)
let updates_twin (db : Database.t) ~seed ~txns =
  let parent = Inputs.open_auctions_id db.Database.doc in
  let st = Random.State.make [| seed; 0x7a11 |] in
  let live = Queue.create () and next = ref 1_000_000 in
  let insert () =
    let a = Inputs.new_auction st !next in
    incr next;
    ignore (Updates.insert_subtree db ~parent a.Inputs.node);
    Queue.push a live
  in
  for _ = 1 to prefill do insert () done;
  let times =
    List.init txns (fun i ->
        snd
          (time_ns (fun () ->
               sp "updates.txn" (fun () ->
                   if i mod 2 = 0 then insert ()
                   else ignore (Updates.delete_subtree db (Queue.pop live).Inputs.node.T.id)))))
  in
  List.fold_left ( +. ) 0.0 times /. float_of_int txns /. 1e6

(* Wal.append + Wal.sync of [bytes] in page images, on a side log. *)
let wal_sync_ms ~dir ~bytes =
  let path = Filename.concat dir "side.log" in
  let w = Tm_wal.Wal.create path in
  let image = String.make Pager.default_page_size 'w' in
  let frames = max 1 (bytes / Pager.default_page_size) in
  let times =
    List.init 5 (fun i ->
        snd
          (time_ns (fun () ->
               sp "wal.append_sync" (fun () ->
                   for p = 1 to frames do
                     Tm_wal.Wal.append w (Tm_wal.Wal.Page { txn = i; page = p; crc = 0; image })
                   done;
                   Tm_wal.Wal.sync w))))
  in
  Tm_wal.Wal.close w;
  Sys.remove path;
  median_of times /. 1e6

let ms ns = ns /. 1e6

let write_layers s (l : ingest_loop) ~twin ~seed ~dir ~fsck =
  let txns = l.cycle_txns + tail_txns in
  let commits = P.sorted_copy (Array.of_list (l.txn_ns @ l.tail_ns)) in
  let commit_mean = ms (Array.fold_left ( +. ) 0.0 commits /. float_of_int txns) in
  let bytes_per_txn = l.log_bytes / max 1 l.cycle_txns in
  let sync = wal_sync_ms ~dir ~bytes:bytes_per_txn in
  let snapshot = Durable.snapshot_path (Durable.dir s.d) in
  (* read like the reopens below, so replay = reopen - load compares
     like with like *)
  let load_s =
    P.lower_half_median
      (Array.init restart_reps (fun _ ->
           Gc.full_major ();
           secs (snd (time_ns (fun () -> sp "persist.load" (fun () -> Persist.load snapshot))))))
  in
  let recovery_s = sp "durable.recover" (fun () -> recover ~fsck s ~tail:tail_txns) in
  let updates_ms = twin ~seed ~txns in
  [
    ("updates.ms_per_txn", updates_ms, "ms");
    ("durable.log_ms_per_txn", commit_mean -. updates_ms, "ms");
    ("durable.commit_p50_ms", ms (P.percentile_sorted commits 0.5), "ms");
    ("durable.commit_p95_ms", ms (P.percentile_sorted commits 0.95), "ms");
    ("wal.kb_per_txn", float_of_int l.log_bytes /. float_of_int (max 1 l.cycle_txns) /. 1024.0, "KB");
    ("storage.pages_written_per_txn", float_of_int l.txn_pages /. float_of_int (max 1 l.cycle_txns), "count");
    ("wal.sync_ms", sync, "ms");
    ("durable.checkpoint_s", secs (median_of l.ckpt_ns), "s");
    ("persist.load_s", load_s, "s");
    ("durable.replay_ms_per_txn", (recovery_s -. load_s) *. 1e3 /. float_of_int tail_txns, "ms");
    ("durable.recovery_s", recovery_s, "s");
  ]

let traced w ~seed ~seconds ~scale ~dir =
  let text = Inputs.xmark_text ~seed ~scale in
  sp "setup.layers" (fun () -> layer_setup text);
  Gc.full_major ();
  let b = sp "setup.database" (fun () -> build ~sp:tsp w text ~wal_dir:dir) in
  let read_lat = P.Fbuf.create () in
  let q, cmetrics, untraced_us, wmetrics =
    match w with
    | Ingest ->
      let s = ingest_state (Option.get b.durable) ~seed in
      prefill_auctions s;
      let db = Durable.database s.d in
      (* The counters of the workload's own posture: commits, each
         followed by its reads, with checkpoints between. *)
      let c0 = counters db in
      let l =
        sp "ingest" (fun () ->
            ingest_cycles ~sp:tsp ~max_cycles:2 s ~seconds ~every:ckpt_every ~tail:tail_txns ~read_lat)
      in
      let c1 = counters db in
      let reqs =
        treq (Tm_datasets.Workload.find "Q10x").Tm_datasets.Workload.xpath
        :: Queue.fold (fun acc (a : Inputs.auction) -> treq (Inputs.author_read a.Inputs.author) :: acc) [] s.live
      in
      let q, _, un = query_layers w db ~seconds reqs in
      let twin ~seed ~txns =
        let db = Database.create ~pool_capacity (Tm_xml.Xml_parser.parse text) in
        updates_twin db ~seed ~txns
      in
      ( q,
        counter_metrics c0 c1 ~ops:(l.cycle_txns + tail_txns),
        un,
        write_layers s l ~twin ~seed ~dir ~fsck:true )
    | Point ->
      let reqs =
        List.map (fun (r : Inputs.request) -> treq r.Inputs.xpath)
          (Inputs.point_requests ~seed ~per_template b.xdb.Database.doc)
      in
      let q, (c0, c1, n_a), un = query_layers w b.xdb ~seconds reqs in
      (* The write path on this workload's own XMark database: a short
         run of the ingest sequence, so every layer is reported. *)
      let d = sp "durable.create" (fun () -> Durable.create ~force:true ~dir b.xdb) in
      let s = ingest_state d ~seed in
      prefill_auctions s;
      let l = sp "ingest" (fun () -> ingest_cycles ~sp:tsp ~max_cycles:1 s ~seconds:0.0 ~every:8 ~tail:tail_txns ~read_lat) in
      (q, counter_metrics c0 c1 ~ops:n_a, un, write_layers s l ~twin:(updates_twin b.xdb) ~seed ~dir ~fsck:false)
  in
  let smetrics = storage_probes b.xdb in
  let totals = Trace.totals () in
  let total name = match List.assoc_opt name totals with Some (_, t, _) -> t | None -> 0.0 in
  let calls name = match List.assoc_opt name totals with Some (c, _, _) -> c | None -> 0 in
  let per_call name = if calls name = 0 then 0.0 else total name /. float_of_int (calls name) in
  let n = float_of_int (max 1 q.n) in
  let fdiv a b = if b <= 0.0 then 0.0 else a /. b in
  let covered =
    List.fold_left (fun acc k -> acc +. total k) 0.0
      [ "plan.hit"; "storage.walk"; "index.key_decode"; "index.idlist_decode"; "query.match"; "exec.bind"; "exec.join" ]
  in
  (* INLJ probe time net of the harness's own entry collection *)
  let by_id = Hashtbl.create 4096 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace by_id s.Trace.id s) (Trace.all ());
  let probe_collect =
    List.fold_left
      (fun acc (s : Trace.span) ->
        match Hashtbl.find_opt by_id s.Trace.parent with
        | Some p when String.equal s.Trace.name "trace.collect" && String.equal p.Trace.name "index.inlj_probe" ->
          acc +. (s.Trace.t1 -. s.Trace.t0)
        | _ -> acc)
      0.0 (Trace.all ())
  in
  let traced_posture = match w with Point -> total "serve.handle" | Ingest -> total "executor.run" in
  let metrics =
    [
      ("xml.parse_s", secs (total "xml.parse"), "s");
      ("xmldb.catalog_s", secs (total "xmldb.catalog"), "s");
      ("xmldb.edge_s", secs (total "xmldb.edge"), "s");
      ("index.build_rootpaths_s", secs (total "index.build_rootpaths"), "s");
      ("index.build_datapaths_s", secs (total "index.build_datapaths"), "s");
      ("index.build_dataguide_s", secs (total "index.build_dataguide"), "s");
      ("index.build_fabric_s", secs (total "index.build_fabric"), "s");
      ("index.build_asr_s", secs (total "index.build_asr"), "s");
      ("index.build_ji_s", secs (total "index.build_ji"), "s");
      ("durable.create_s", secs (per_call "durable.create"), "s");
      ("query.parse_us", total "query.parse" /. n /. 1e3, "us");
      ("plan.hit_us", per_call "plan.hit" /. 1e3, "us");
      ("plan.miss_us", per_call "plan.miss" /. 1e3, "us");
    ]
    @ List.filter (fun (k, _, _) -> String.equal k "plan.cache_hit_ratio") cmetrics
    @ [
        ("index.entries_per_query", float_of_int q.entries /. n, "count");
        ("storage.walk_ns_per_entry", fdiv (total "storage.walk") (float_of_int q.walked), "ns");
        ("index.key_decode_ns_per_entry", fdiv (total "index.key_decode") (float_of_int q.walked), "ns");
        ("index.idlist_decode_ns_per_entry", fdiv (total "index.idlist_decode") (float_of_int q.hits), "ns");
        ("query.match_ns_per_hit", fdiv (total "query.match") (float_of_int q.hits), "ns");
        ("index.words_per_entry", fdiv q.words (float_of_int q.hits), "words");
        ("index.inlj_probes_per_query", float_of_int q.probes /. n, "count");
        ("index.inlj_probe_us", fdiv (total "index.inlj_probe" -. probe_collect) (float_of_int q.probes) /. 1e3, "us");
        ("exec.bind_us_per_query", total "exec.bind" /. n /. 1e3, "us");
        ("exec.join_us_per_query", total "exec.join" /. n /. 1e3, "us");
        ("exec.join_rows_per_query", float_of_int q.join_rows /. n, "count");
        ("executor.other_us_per_query", (total "executor.run" -. covered) /. n /. 1e3, "us");
        ("obs.us_per_query", (total "executor.run_telemetry" -. total "executor.run") /. n /. 1e3, "us");
        ("serve.us_per_query", (total "serve.handle" -. total "executor.run_telemetry") /. n /. 1e3, "us");
      ]
    @ List.filter (fun (k, _, _) -> not (String.equal k "plan.cache_hit_ratio")) cmetrics
    @ smetrics @ wmetrics
    @ [
        ("trace.coverage", fdiv covered (total "executor.run"), "ratio");
        ("trace.overhead_us_per_query", (traced_posture /. n /. 1e3) -. untraced_us, "us");
        ("trace.selfcheck_mismatches", float_of_int q.mismatches, "count");
        ("trace.reexec_skipped", float_of_int q.skipped, "count");
      ]
  in
  let base = Filename.concat (Filename.dirname dir) (Printf.sprintf "%s-seed%d" (workload_name w) seed) in
  Trace.write_chrome ~path:(base ^ ".trace.json") ~limit:trace_span_limit;
  let oc = open_out (base ^ ".layers.txt") in
  Printf.fprintf oc "%-28s %8s %14s %14s\n" "span" "calls" "total_ms" "self_ms";
  List.iter
    (fun (name, (c, t, s)) -> Printf.fprintf oc "%-28s %8d %14.3f %14.3f\n" name c (ms t) (ms s))
    totals;
  close_out oc;
  progress "trace: %s.trace.json (Perfetto / chrome://tracing), layers: %s.layers.txt; %d requests traced, spans cover %.1f%% of Executor.run"
    base base q.n (100.0 *. fdiv covered (total "executor.run"));
  (metrics, q.mismatches = 0)

(* ---- reference figures ------------------------------------------------ *)

(* Q1x through Executor.run with telemetry off, and served with
   telemetry on: the figures README.md quotes. *)
let reference ~seed ~seconds =
  let db = Database.create ~pool_capacity (Tm_xml.Xml_parser.parse (Inputs.xmark_text ~seed ~scale)) in
  let q = Tm_datasets.Workload.find "Q1x" in
  let twig = Tm_datasets.Workload.parse q in
  let expected = Tm_query.Naive.query db.Database.doc twig in
  let lib =
    { label = "Q1x"; run = (fun () -> let r = Executor.run db twig in fun () -> equal_ids r.Executor.ids expected) }
  in
  let srv = served_op db { Inputs.xpath = q.Tm_datasets.Workload.xpath; expected } in
  let p50 l = P.median l.lat /. 1e3 in
  let l_lib = closed_loop ~seconds [| lib |] in
  let l_srv = telemetry true (fun () -> closed_loop ~seconds [| srv |]) in
  [ ("q1x_library_p50_us", p50 l_lib, "us"); ("q1x_served_p50_us", p50 l_srv, "us") ]

(* ---- command line ----------------------------------------------------- *)

let usage =
  "usage: bench.exe --workload point|ingest --seed N --seconds S --trace 0|1\n\
  \       bench.exe --smoke\n\
  \       bench.exe --reference --seed N --seconds S"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let run_one w ~seed ~seconds ~scale ~trace =
  let dir = Filename.concat out_dir (Printf.sprintf "%s-%d" (workload_name w) (Unix.getpid ())) in
  rm_rf dir;
  mkdir_p dir;
  environment w ~seed ~scale ~wal_dir:dir;
  let result =
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        if trace then begin
          Trace.reset ();
          traced w ~seed ~seconds ~scale ~dir
        end
        else (measured w ~seed ~seconds ~scale ~dir, true))
  in
  result

let () =
  List.iter
    (fun v ->
      if Option.is_some (Sys.getenv_opt v) then
        die "refusing to run: %s is set; failpoints and link-time telemetry switches change what is measured" v)
    refused_env;
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let smoke = ref false and reference_mode = ref false in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "--reference" :: rest ->
      reference_mode := true;
      parse rest
    | flag :: v :: rest ->
      (match flag with
      | "--workload" -> (
        match List.assoc_opt v workloads with
        | Some w -> workload := Some w
        | None -> die "unknown workload %S (point or ingest)" v)
      | "--seed" -> seed := int_of_string_opt v
      | "--seconds" -> seconds := float_of_string_opt v
      | "--trace" -> trace := (match v with "0" -> Some false | "1" -> Some true | _ -> die "--trace takes 0 or 1")
      | _ -> die "unknown argument %S\n%s" flag usage);
      parse rest
    | [ flag ] -> die "%s needs a value\n%s" flag usage
  in
  parse (List.tl (Array.to_list Sys.argv));
  Obs.disable ();
  Journal.enable ~capacity:journal_capacity ();
  Journal.set_slow_threshold_ms 10.0;
  Journal.disable ();
  Flight.disable ();
  Flight.set_dump_path (Some (Filename.concat out_dir "flight.dump"));
  if !smoke then begin
    let t0 = now_ns () in
    let ok = ref true in
    List.iteri
      (fun i (name, w) ->
        List.iter
          (fun trace ->
            let metrics, checks_ok = run_one w ~seed:(i + 1) ~seconds:0.5 ~scale:smoke_scale ~trace in
            ok := !ok && checks_ok && List.length metrics > 0;
            progress "smoke %s trace=%b: %d metrics" name trace (List.length metrics))
          [ false; true ])
      workloads;
    let correct = !ok && tally.failed = 0 in
    Printf.printf "smoke: %s, %d operations, %d failed, %.1f s\n%!"
      (if correct then "ok" else "FAILED") tally.attempted tally.failed (secs (now_ns () -. t0));
    exit (if correct then 0 else 1)
  end;
  match (!workload, !seed, !seconds, !trace) with
  | _, Some seed, Some seconds, _ when !reference_mode ->
    print_result ~correct:(tally.failed = 0) (reference ~seed ~seconds)
  | Some w, Some seed, Some seconds, Some trace ->
    let metrics, checks_ok = run_one w ~seed ~seconds ~scale ~trace in
    print_result ~correct:(checks_ok && tally.failed = 0) metrics
  | _ -> die "missing or malformed arguments\n%s" usage
