(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5) on the generated datasets.

     dune exec bench/main.exe                 # all figures
     dune exec bench/main.exe -- --figure 12a # one figure
     dune exec bench/main.exe -- --bechamel   # Bechamel micro-suite

   Timing follows the paper's protocol: queries run with a warm cache
   and we report the total time of N runs (default 10, like the
   paper's "Time of 10 runs"), in milliseconds. Absolute numbers are
   not comparable to the paper's DB2-on-2001-hardware seconds; the
   claims under reproduction are relative (who wins, by what factor,
   where the crossovers are). *)

open Twigmatch

let runs = ref 10
let xmark_scale = ref 0.5
let dblp_scale = ref 0.5
let figures = ref []
let run_bechamel = ref false
let metrics_out : string option ref = ref None
let seed = ref 42
let gate_regret : float option ref = ref None

let jobs =
  ref
    (match Tm_par.Pool.env_jobs () with
    | Some j -> j
    | None -> 4)

let say fmt = Printf.printf (fmt ^^ "\n%!")
let progress fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Datasets and databases                                              *)
(* ------------------------------------------------------------------ *)

let xmark_doc =
  lazy
    (progress "[bench] generating XMark-like dataset (scale %.2f)..." !xmark_scale;
     Tm_datasets.Xmark_gen.generate { Tm_datasets.Xmark_gen.seed = !seed; scale = !xmark_scale })

let dblp_doc =
  lazy
    (progress "[bench] generating DBLP-like dataset (scale %.2f)..." !dblp_scale;
     Tm_datasets.Dblp_gen.generate { Tm_datasets.Dblp_gen.seed = !seed; scale = !dblp_scale })

let build_db name doc =
  progress "[bench] building all indices over %s..." name;
  let t0 = Monotonic_clock.now () in
  let db = Database.create (Lazy.force doc) in
  let t1 = Monotonic_clock.now () in
  progress "[bench] %s ready in %.1fs" name (Int64.to_float (Int64.sub t1 t0) /. 1e9);
  db

let xmark_db = lazy (build_db "XMark" xmark_doc)
let dblp_db = lazy (build_db "DBLP" dblp_doc)

let db_of = function
  | Tm_datasets.Workload.Xmark -> Lazy.force xmark_db
  | Tm_datasets.Workload.Dblp -> Lazy.force dblp_db

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

(* Total wall-clock of [!runs] warm executions, in ms; also returns the
   result cardinality and last-run stats. *)
let time_query db strategy twig =
  ignore (Executor.run ~hint:(Tm_plan.Hint.Force strategy) db twig);
  (* warm-up *)
  let t0 = Monotonic_clock.now () in
  for _ = 2 to !runs do
    ignore (Executor.run ~hint:(Tm_plan.Hint.Force strategy) db twig)
  done;
  let r = Executor.run ~hint:(Tm_plan.Hint.Force strategy) db twig in
  let t1 = Monotonic_clock.now () in
  let ms = Int64.to_float (Int64.sub t1 t0) /. 1e6 in
  (ms, List.length r.Executor.ids, r.Executor.stats)

let mb bytes = float_of_int bytes /. 1e6

(* Table printing helpers. *)
let print_header title columns =
  say "";
  say "== %s ==" title;
  say "%s" (String.concat " | " (List.map (Printf.sprintf "%12s") columns));
  say "%s" (String.make ((List.length columns * 15) - 3) '-')

let fmt_cell = Printf.sprintf "%12s"

(* ------------------------------------------------------------------ *)
(* Figure 9: index space                                               *)
(* ------------------------------------------------------------------ *)

let figure_9 () =
  print_header "Figure 9: space (MB) for different indices"
    [ "dataset"; "RP"; "DP"; "Edge"; "DG+Edge"; "IF+Edge"; "ASR"; "JI" ];
  let row name db paper =
    let cells =
      List.map
        (fun s -> fmt_cell (Printf.sprintf "%.2f" (mb (Database.strategy_size_bytes db s))))
        Database.all_strategies
    in
    say "%s | %s" (fmt_cell name) (String.concat " | " cells);
    say "%s   (%s)" (fmt_cell "") paper
  in
  row "XMark" (Lazy.force xmark_db) "paper: 119 | 431 | 127 | 169 | 167 | 464 | 822";
  row "DBLP" (Lazy.force dblp_db) "paper:  80 |  83 | 106 | 133 | 151 |  93 | 318";
  let xdb = Lazy.force xmark_db in
  let els, vals, depth, paths = Database.document_stats xdb in
  say "XMark: %d elements, %d values, depth %d, %d distinct schema paths (paper: 902)" els vals
    depth paths;
  let ddb = Lazy.force dblp_db in
  let els, vals, depth, paths = Database.document_stats ddb in
  say "DBLP:  %d elements, %d values, depth %d, %d distinct schema paths (paper: 235)" els vals
    depth paths

(* ------------------------------------------------------------------ *)
(* Figure 10 / Figures 7-8: workload and per-branch result sizes       *)
(* ------------------------------------------------------------------ *)

let figure_10 () =
  print_header "Figures 7-8/10: workload queries and per-branch result sizes"
    [ "query"; "dataset"; "branches"; "result sizes per branch" ];
  List.iter
    (fun (q : Tm_datasets.Workload.query) ->
      let db = db_of q.Tm_datasets.Workload.dataset in
      let twig = Tm_datasets.Workload.parse q in
      let cards = Executor.path_cardinalities db twig in
      say "%s | %s | %s | %s"
        (fmt_cell q.Tm_datasets.Workload.name)
        (fmt_cell
           (match q.Tm_datasets.Workload.dataset with
           | Tm_datasets.Workload.Xmark -> "XMark"
           | Tm_datasets.Workload.Dblp -> "DBLP"))
        (fmt_cell (string_of_int q.Tm_datasets.Workload.branches))
        (String.concat ", " (List.map string_of_int cards)))
    Tm_datasets.Workload.all

(* ------------------------------------------------------------------ *)
(* Figure 11: single-path selectivity sweep                            *)
(* ------------------------------------------------------------------ *)

let xml_strategies = Database.[ RP; DP; Edge; DG_edge; IF_edge ]

let run_query_row ~strategies db (q : Tm_datasets.Workload.query) =
  let twig = Tm_datasets.Workload.parse q in
  let card = ref 0 in
  let cells =
    List.map
      (fun s ->
        let ms, n, _ = time_query db s twig in
        card := n;
        fmt_cell (Printf.sprintf "%.2f" ms))
      strategies
  in
  say "%s | %s | %s" (fmt_cell q.Tm_datasets.Workload.name) (fmt_cell (string_of_int !card))
    (String.concat " | " cells)

let figure_11 () =
  let cols = "query" :: "result" :: List.map Database.strategy_name xml_strategies in
  print_header
    (Printf.sprintf "Figure 11(a): XMark single-path, increasing result size (ms, %d runs)" !runs)
    cols;
  let xdb = Lazy.force xmark_db in
  List.iter
    (fun n -> run_query_row ~strategies:xml_strategies xdb (Tm_datasets.Workload.find n))
    [ "Q1x"; "Q2x"; "Q3x" ];
  print_header
    (Printf.sprintf "Figure 11(b): DBLP single-path, increasing result size (ms, %d runs)" !runs)
    cols;
  let ddb = Lazy.force dblp_db in
  List.iter
    (fun n -> run_query_row ~strategies:xml_strategies ddb (Tm_datasets.Workload.find n))
    [ "Q1d"; "Q2d"; "Q3d" ]

(* ------------------------------------------------------------------ *)
(* Figure 12: twig queries, varying branches and selectivity           *)
(* ------------------------------------------------------------------ *)

let figure_12 sub =
  let xdb = Lazy.force xmark_db in
  let cols = "query" :: "result" :: List.map Database.strategy_name xml_strategies in
  let table title queries =
    print_header (title ^ Printf.sprintf " (ms, %d runs)" !runs) cols;
    List.iter
      (fun n -> run_query_row ~strategies:xml_strategies xdb (Tm_datasets.Workload.find n))
      queries
  in
  (match sub with
  | `A | `All ->
    table "Figure 12(a): twigs with selective branches (1-3 branches)" [ "B1"; "Q4x"; "Q5x" ]
  | _ -> ());
  (match sub with
  | `B | `All -> table "Figure 12(b): selective + unselective branches" [ "B2"; "Q6x"; "Q7x" ]
  | _ -> ());
  (match sub with
  | `C | `All -> table "Figure 12(c): unselective branches" [ "B2"; "Q8x"; "Q9x" ]
  | _ -> ());
  match sub with
  | `D | `All ->
    (* the 1-branch baseline for (d): the selective low branch alone *)
    let base =
      {
        Tm_datasets.Workload.name = "B3";
        dataset = Tm_datasets.Workload.Xmark;
        xpath = "/site/open_auctions/open_auction[annotation/author/@person = 'person22082']";
        branches = 1;
        group = "twig-low-branch";
      }
    in
    print_header
      (Printf.sprintf "Figure 12(d): twigs with low branch points (ms, %d runs)" !runs)
      cols;
    run_query_row ~strategies:xml_strategies xdb base;
    List.iter
      (fun n -> run_query_row ~strategies:xml_strategies xdb (Tm_datasets.Workload.find n))
      [ "Q10x"; "Q11x" ]
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Section 5.2.4: recursive query overhead for RP / DP                 *)
(* ------------------------------------------------------------------ *)

let figure_recursion () =
  (* sub-millisecond queries need more repetitions for a stable ratio *)
  let saved_runs = !runs in
  runs := !runs * 10;
  print_header
    (Printf.sprintf
       "Section 5.2.4: '//'-variant overhead for RP and DP (ms, %d runs; paper: < 5%%)" !runs)
    [ "query"; "RP"; "RP(//)"; "overhead"; "DP"; "DP(//)"; "overhead" ];
  let xdb = Lazy.force xmark_db in
  List.iter
    (fun name ->
      let q = Tm_datasets.Workload.find name in
      let twig = Tm_datasets.Workload.parse q in
      let rtwig = Tm_datasets.Workload.parse (Tm_datasets.Workload.recursive_variant q) in
      let rp, _, _ = time_query xdb Database.RP twig in
      let rp', _, _ = time_query xdb Database.RP rtwig in
      let dp, _, _ = time_query xdb Database.DP twig in
      let dp', _, _ = time_query xdb Database.DP rtwig in
      let pct a b = Printf.sprintf "%+.1f%%" ((b -. a) /. a *. 100.0) in
      say "%s | %s | %s | %s | %s | %s | %s" (fmt_cell name)
        (fmt_cell (Printf.sprintf "%.2f" rp))
        (fmt_cell (Printf.sprintf "%.2f" rp'))
        (fmt_cell (pct rp rp'))
        (fmt_cell (Printf.sprintf "%.2f" dp))
        (fmt_cell (Printf.sprintf "%.2f" dp'))
        (fmt_cell (pct dp dp')))
    [ "Q4x"; "Q5x"; "Q6x"; "Q7x"; "Q8x"; "Q9x" ];
  runs := saved_runs

(* ------------------------------------------------------------------ *)
(* Section 5.2.5: space optimizations                                  *)
(* ------------------------------------------------------------------ *)

(* Branch-point node ids for the paper's workload: every node whose tag
   can be a twig branch point in Figures 7-8 (site, item,
   open_auction). Used for HeadId pruning. *)
let workload_branch_ids doc =
  let module T = Tm_xml.Xml_tree in
  let branch_tags = [ "site"; "item"; "open_auction" ] in
  let set = Hashtbl.create 4096 in
  T.iter doc (fun n ->
      match n.T.label with
      | T.Elem tag when List.mem tag branch_tags -> Hashtbl.replace set n.T.id ()
      | _ -> ());
  set

let figure_compression () =
  print_header "Section 5.2.5: space optimizations (MB)"
    [ "dataset"; "variant"; "RP"; "DP"; "notes" ];
  let strategies = Database.[ RP; DP ] in
  let variant name ~dataset ~notes build =
    let db = build () in
    say "%s | %s | %s | %s | %s" (fmt_cell dataset) (fmt_cell name)
      (fmt_cell (Printf.sprintf "%.2f" (mb (Database.strategy_size_bytes db Database.RP))))
      (fmt_cell (Printf.sprintf "%.2f" (mb (Database.strategy_size_bytes db Database.DP))))
      notes
  in
  let xdoc = Lazy.force xmark_doc and ddoc = Lazy.force dblp_doc in
  variant "raw idlists" ~dataset:"XMark" ~notes:"no Section 4.1 encoding" (fun () ->
      Database.create ~strategies ~idlist_codec:`Raw xdoc);
  variant "delta idlists" ~dataset:"XMark" ~notes:"default (lossless, ~30% in paper)" (fun () ->
      Database.create ~strategies xdoc);
  variant "schema-compressed" ~dataset:"XMark" ~notes:"Section 4.2; '//' unsupported" (fun () ->
      Database.create ~strategies ~schema_compressed:true xdoc);
  (let branch_ids = workload_branch_ids xdoc in
   variant "headid-pruned" ~dataset:"XMark" ~notes:"Section 4.3; workload branch points only"
     (fun () -> Database.create ~strategies ~head_filter:(Hashtbl.mem branch_ids) xdoc));
  variant "raw idlists" ~dataset:"DBLP" ~notes:"" (fun () ->
      Database.create ~strategies ~idlist_codec:`Raw ddoc);
  variant "delta idlists" ~dataset:"DBLP" ~notes:"default" (fun () ->
      Database.create ~strategies ddoc);
  variant "schema-compressed" ~dataset:"DBLP" ~notes:"" (fun () ->
      Database.create ~strategies ~schema_compressed:true ddoc);
  (* Demonstrate the functionality loss of Section 4.2: a '//' query on
     the schema-compressed index must be rejected. *)
  let db = Database.create ~strategies ~schema_compressed:true xdoc in
  let twig = Tm_query.Xpath_parser.parse "//item[quantity = '2']" in
  match Executor.run ~hint:(Tm_plan.Hint.Force Database.RP) db twig with
  | exception Tm_index.Family.Unsupported msg ->
    say "schema-compressed RP correctly rejects '//' queries: %s" msg
  | _ -> say "WARNING: schema-compressed RP unexpectedly answered a '//' query"

(* ------------------------------------------------------------------ *)
(* Figure 13: '//' branch points vs ASR and Join Indices               *)
(* ------------------------------------------------------------------ *)

let fig13_strategies = Database.[ RP; DP; Asr; Ji ]

let figure_13 () =
  let xdb = Lazy.force xmark_db in
  let cols = "query" :: "result" :: List.map Database.strategy_name fig13_strategies in
  let baseline name xpath =
    {
      Tm_datasets.Workload.name;
      dataset = Tm_datasets.Workload.Xmark;
      xpath;
      branches = 1;
      group = "recursive";
    }
  in
  print_header
    (Printf.sprintf "Figure 13(a): '//' branch point, selective+unselective (ms, %d runs)" !runs)
    cols;
  run_query_row ~strategies:fig13_strategies xdb
    (baseline "B4" "/site//item[incategory/category = 'category440']");
  List.iter
    (fun n -> run_query_row ~strategies:fig13_strategies xdb (Tm_datasets.Workload.find n))
    [ "Q12x"; "Q13x" ];
  print_header
    (Printf.sprintf "Figure 13(b): '//' branch point, unselective branches (ms, %d runs)" !runs)
    cols;
  run_query_row ~strategies:fig13_strategies xdb (baseline "B5" "/site//item[quantity = '2']");
  List.iter
    (fun n -> run_query_row ~strategies:fig13_strategies xdb (Tm_datasets.Workload.find n))
    [ "Q14x"; "Q15x" ];
  (* the structures-accessed effect the paper attributes the gap to *)
  let twig = Tm_datasets.Workload.parse (Tm_datasets.Workload.find "Q12x") in
  List.iter
    (fun s ->
      let r = Executor.run ~hint:(Tm_plan.Hint.Force s) xdb twig in
      say "%s on Q12x: %d structures accessed, %d index lookups" (Database.strategy_name s)
        r.Executor.stats.Tm_exec.Stats.structures_accessed
        r.Executor.stats.Tm_exec.Stats.index_lookups)
    fig13_strategies

(* ------------------------------------------------------------------ *)
(* Ablations (design choices called out in DESIGN.md)                  *)
(* ------------------------------------------------------------------ *)

(* How much of Figure 12(d) is the index-nested-loop join itself?
   DP(noINLJ) evaluates every branch as a FreeIndex lookup and hash
   joins — DATAPATHS data layout with ROOTPATHS-style planning. *)
let ablation_inlj () =
  print_header
    (Printf.sprintf "Ablation: INLJ contribution on low-branch twigs (ms, %d runs)" !runs)
    [ "query"; "RP"; "DP"; "DP(noINLJ)" ];
  let xdb = Lazy.force xmark_db in
  let time ?dp_use_inlj strategy twig =
    ignore (Executor.run ?dp_use_inlj ~hint:(Tm_plan.Hint.Force strategy) xdb twig);
    let t0 = Monotonic_clock.now () in
    for _ = 1 to !runs do
      ignore (Executor.run ?dp_use_inlj ~hint:(Tm_plan.Hint.Force strategy) xdb twig)
    done;
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6
  in
  List.iter
    (fun name ->
      let twig = Tm_datasets.Workload.parse (Tm_datasets.Workload.find name) in
      say "%s | %s | %s | %s" (fmt_cell name)
        (fmt_cell (Printf.sprintf "%.2f" (time Database.RP twig)))
        (fmt_cell (Printf.sprintf "%.2f" (time Database.DP twig)))
        (fmt_cell (Printf.sprintf "%.2f" (time ~dp_use_inlj:false Database.DP twig))))
    [ "Q10x"; "Q11x"; "Q12x"; "Q15x" ]

(* B+-tree leaf front-coding: the paper leans on DB2's prefix
   compression to make path keys affordable; measure it. *)
let ablation_prefix_compression () =
  print_header "Ablation: B+-tree leaf prefix compression (MB)"
    [ "index"; "front-coded"; "raw keys"; "saving" ];
  let doc = Lazy.force xmark_doc in
  let dict = Tm_xmldb.Dictionary.create () in
  let catalog = Tm_xmldb.Schema_catalog.build dict doc in
  let build pc config =
    let pool =
      Tm_storage.Buffer_pool.create ~capacity:4096 (Tm_storage.Pager.create ~page_size:8192 ())
    in
    Tm_index.Family.build ~prefix_compression:pc ~pool ~dict ~catalog config doc
  in
  List.iter
    (fun (label, config) ->
      let with_pc = mb (Tm_index.Family.size_bytes (build true config)) in
      let without = mb (Tm_index.Family.size_bytes (build false config)) in
      say "%s | %s | %s | %s" (fmt_cell label)
        (fmt_cell (Printf.sprintf "%.2f" with_pc))
        (fmt_cell (Printf.sprintf "%.2f" without))
        (fmt_cell (Printf.sprintf "%.0f%%" ((without -. with_pc) /. without *. 100.0))))
    [
      ("ROOTPATHS", Tm_index.Family.rootpaths);
      ("DATAPATHS", Tm_index.Family.datapaths);
      ("DataGuide", Tm_index.Family.dataguide);
    ]

(* Update cost (paper Section 7): maintaining ROOTPATHS means one entry
   per new rooted-path prefix, DATAPATHS one per new subpath; the Edge
   table only one per node. *)
let ablation_update_cost () =
  print_header
    (Printf.sprintf "Ablation: subtree insert+delete cost, XMark scale %.2f (ms per cycle, %d cycles)"
       !xmark_scale !runs)
    [ "indices built"; "ms/cycle" ];
  let subtree () =
    Tm_xml.Xml_tree.(
      elem "author" [ elem_text "fn" "temp"; elem_text "ln" "author"; elem_text "note" "inserted" ])
  in
  List.iter
    (fun (label, strategies) ->
      let doc =
        Tm_datasets.Xmark_gen.generate { Tm_datasets.Xmark_gen.seed = !seed; scale = !xmark_scale }
      in
      let db = Database.create ~strategies doc in
      let parent =
        Tm_xml.Xml_tree.fold doc
          (fun acc n ->
            if acc = None && Tm_xml.Xml_tree.label_name n = "person" then Some n.Tm_xml.Xml_tree.id
            else acc)
          None
        |> Option.get
      in
      let t0 = Monotonic_clock.now () in
      for _ = 1 to !runs do
        let id = Updates.insert_subtree db ~parent (subtree ()) in
        ignore (Updates.delete_subtree db id)
      done;
      let ms = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6 in
      say "%s | %s" (fmt_cell label) (fmt_cell (Printf.sprintf "%.3f" (ms /. float_of_int !runs))))
    [
      ("Edge only", []);
      ("RP", Database.[ RP ]);
      ("DP", Database.[ DP ]);
      ("all 7 sets", Database.all_strategies);
    ]

(* Durability cost (extension): the same subtree-insert transaction
   through the WAL, per-txn fsync vs group commit, against the unlogged
   baseline — then crash recovery: reopen from the snapshot and replay
   the whole un-checkpointed log. *)
let figure_durability () =
  let txns = max 64 !runs in
  print_header
    (Printf.sprintf "Extension: durable write path (%d subtree-insert txns)" txns)
    [ "mode"; "txn/s"; "ms/txn" ];
  let subtree i =
    Tm_xml.Xml_tree.(elem "person" [ elem_text "name" (Printf.sprintf "p%06d" i) ])
  in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  let with_dir f =
    let dir = Filename.temp_file "twigbench" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)
  in
  let small_db () =
    let doc = Tm_datasets.Xmark_gen.generate { Tm_datasets.Xmark_gen.seed = !seed; scale = 0.05 } in
    let db = Database.create ~strategies:Database.[ RP; DP ] doc in
    let parent = db.Database.doc.Tm_xml.Xml_tree.roots.(0).Tm_xml.Xml_tree.id in
    (db, parent)
  in
  let report label ms =
    say "%s | %s | %s" (fmt_cell label)
      (fmt_cell (Printf.sprintf "%.0f" (float_of_int txns /. (ms /. 1e3))))
      (fmt_cell (Printf.sprintf "%.3f" (ms /. float_of_int txns)))
  in
  let timed f =
    let t0 = Monotonic_clock.now () in
    f ();
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6
  in
  (* Unlogged baseline: in-place updates, no transaction, no fsync. *)
  let db, parent = small_db () in
  report "no WAL"
    (timed (fun () ->
         for i = 1 to txns do
           ignore (Updates.insert_subtree db ~parent (subtree i))
         done));
  (* One logged, fsynced transaction per insert. *)
  with_dir (fun dir ->
      let db, parent = small_db () in
      let d = Durable.create ~dir db in
      report "WAL, fsync per txn"
        (timed (fun () ->
             for i = 1 to txns do
               ignore (Durable.insert_subtree d ~parent (subtree i))
             done));
      Durable.close d);
  (* Group commit: batches of 16 transactions share one fsync. *)
  with_dir (fun dir ->
      let db, parent = small_db () in
      let d = Durable.create ~dir db in
      report "WAL, group commit x16"
        (timed (fun () ->
             let i = ref 0 in
             while !i < txns do
               Durable.batch d (fun () ->
                   for _ = 1 to min 16 (txns - !i) do
                     incr i;
                     ignore (Durable.insert_subtree d ~parent (subtree !i))
                   done)
             done));
      Durable.close d);
  (* Crash recovery: drop the handle without a checkpoint and reopen —
     the whole run replays from the log against the initial snapshot. *)
  with_dir (fun dir ->
      let db, parent = small_db () in
      let d = Durable.create ~dir db in
      for i = 1 to txns do
        ignore (Durable.insert_subtree d ~parent (subtree i))
      done;
      Durable.close d;
      let recovered = ref None in
      let ms = timed (fun () -> recovered := Some (Durable.open_ dir)) in
      let d2, r = Option.get !recovered in
      Durable.close d2;
      say "";
      say "Recovery: replayed %d txns in %.1f ms (%.3f ms/txn, %d bytes of log discarded)"
        r.Durable.replayed ms
        (ms /. float_of_int (max 1 r.Durable.replayed))
        r.Durable.discarded_bytes)

(* Page-access locality under a cold buffer pool: RP's value-clustered
   scans touch a handful of contiguous pages; Edge's per-step probes
   scatter across the backward-link index. This is the I/O asymmetry
   underlying Figure 11's wall-clock gap (the paper ran with the OS
   cache off for the same reason). *)
let ablation_pool () =
  print_header "Ablation: cold-cache page behaviour on Q9x (per run)"
    [ "strategy"; "cold ms"; "misses"; "logical reads" ];
  let twig = Tm_datasets.Workload.parse (Tm_datasets.Workload.find "Q9x") in
  let doc = Lazy.force xmark_doc in
  List.iter
    (fun strategy ->
      let db = Database.create ~strategies:[ strategy ] ~pool_capacity:4096 doc in
      ignore (Executor.run ~hint:(Tm_plan.Hint.Force strategy) db twig);
      Database.drop_caches db;
      let t0 = Monotonic_clock.now () in
      let s = (Executor.run ~hint:(Tm_plan.Hint.Force strategy) db twig).Executor.stats in
      let cold = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6 in
      say "%s | %s | %s | %s"
        (fmt_cell (Database.strategy_name strategy))
        (fmt_cell (Printf.sprintf "%.2f" cold))
        (fmt_cell (string_of_int s.Tm_exec.Stats.pool_misses))
        (fmt_cell (string_of_int s.Tm_exec.Stats.logical_reads)))
    Database.[ RP; DP; Edge; DG_edge ]

(* ------------------------------------------------------------------ *)
(* Robustness: integrity and degradation cost                          *)
(* ------------------------------------------------------------------ *)

(* What the robustness features cost when nothing is wrong, and what
   degradation costs when something is. (a) per-page CRC32 verification
   on cold-cache reads (checksums on vs off); (b) latency of answering
   a DP-planned query through the RP fallback when DP is unusable — a
   Section 4.3 head-pruned build whose DATAPATHS rejects branch probes
   — against running RP directly; (c) bounded buffer-pool retries
   under injected probabilistic read faults. The obs counters these
   paths bump (fault.*.hits, buffer_pool.retries, executor.fallbacks)
   land in --metrics-out. *)
let figure_robustness () =
  let doc = Lazy.force xmark_doc in
  let twig = Tm_datasets.Workload.parse (Tm_datasets.Workload.find "Q9x") in
  let cold_run db strategy twig =
    ignore (Executor.run ~hint:(Tm_plan.Hint.Force strategy) db twig);
    Database.drop_caches db;
    Tm_storage.Buffer_pool.reset_stats db.Database.pool;
    let t0 = Monotonic_clock.now () in
    ignore (Executor.run ~hint:(Tm_plan.Hint.Force strategy) db twig);
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6
  in
  (* (a) checksum overhead: every cold read re-hashes the page *)
  print_header "Robustness (a): page-checksum overhead, cold cache on Q9x (per run)"
    [ "strategy"; "crc on ms"; "crc off ms"; "overhead" ];
  List.iter
    (fun strategy ->
      let cold checksums =
        let db = Database.create ~checksums ~strategies:[ strategy ] ~pool_capacity:4096 doc in
        cold_run db strategy twig
      in
      let on = cold true and off = cold false in
      say "%s | %s | %s | %s"
        (fmt_cell (Database.strategy_name strategy))
        (fmt_cell (Printf.sprintf "%.2f" on))
        (fmt_cell (Printf.sprintf "%.2f" off))
        (fmt_cell (Printf.sprintf "%+.1f%%" ((on -. off) /. off *. 100.0))))
    Database.[ RP; DP; Edge ];
  (* (b) fallback latency: head-pruning keeps ROOTPATHS intact (its rows
     all head at the root) but makes DATAPATHS reject nonzero-head
     branch probes, so requesting DP degrades to RP every time. *)
  print_header
    (Printf.sprintf "Robustness (b): DP->RP fallback latency, head-pruned DP (ms, %d runs)" !runs)
    [ "query"; "RP direct"; "DP degraded"; "penalty" ];
  let pruned = Database.create ~strategies:Database.[ RP; DP ] ~head_filter:(fun _ -> false) doc in
  List.iter
    (fun name ->
      let twig = Tm_datasets.Workload.parse (Tm_datasets.Workload.find name) in
      let direct, n, _ = time_query pruned Database.RP twig in
      let r = Executor.run ~hint:(Tm_plan.Hint.Force Database.DP) pruned twig in
      if r.Executor.fallbacks = [] || r.Executor.strategy <> Database.RP then
        failwith (name ^ ": expected a DP->RP fallback on the pruned build");
      if List.length r.Executor.ids <> n then failwith (name ^ ": degraded ids differ from RP");
      let degraded, _, _ = time_query pruned Database.DP twig in
      say "%s | %s | %s | %s" (fmt_cell name)
        (fmt_cell (Printf.sprintf "%.2f" direct))
        (fmt_cell (Printf.sprintf "%.2f" degraded))
        (fmt_cell (Printf.sprintf "%+.1f%%" ((degraded -. direct) /. direct *. 100.0))))
    [ "Q10x"; "Q11x" ];
  (* (c) retry cost: cold runs so reads reach the pager (a warm pool
     never calls Pager.read), injected read failures absorbed by the
     buffer pool's bounded retries *)
  print_header
    (Printf.sprintf "Robustness (c): bounded retries under pager.read=prob:0.1 (%d cold runs)"
       !runs)
    [ "condition"; "total ms"; "faults"; "retries" ];
  let db = Database.create ~strategies:Database.[ RP ] ~pool_capacity:4096 doc in
  (* cold_run resets pool stats before its timed run, so reading them
     after it returns yields that run's retries alone *)
  let cold_total () =
    let t = ref 0.0 and retries = ref 0 in
    for _ = 1 to !runs do
      t := !t +. cold_run db Database.RP twig;
      retries := !retries + (Tm_storage.Buffer_pool.stats db.Database.pool).Tm_storage.Buffer_pool.retries
    done;
    (!t, !retries)
  in
  let clean_ms, _ = cold_total () in
  Tm_fault.Fault.inject ~site:"pager.read" (Tm_fault.Fault.Prob 0.1);
  let faulty_ms, retries = cold_total () in
  let hits = Tm_fault.Fault.hits "pager.read" in
  Tm_fault.Fault.clear ();
  say "%s | %s | %s | %s" (fmt_cell "clean")
    (fmt_cell (Printf.sprintf "%.2f" clean_ms))
    (fmt_cell "0") (fmt_cell "0");
  say "%s | %s | %s | %s" (fmt_cell "10% faults")
    (fmt_cell (Printf.sprintf "%.2f" faulty_ms))
    (fmt_cell (string_of_int hits))
    (fmt_cell (string_of_int retries))

(* ------------------------------------------------------------------ *)
(* Extension: cost-based plan choice                                   *)
(* ------------------------------------------------------------------ *)

(* The Lore-style optimizer (paper Section 6): choose between RP's
   merge-join plan and DP's INLJ plan from selectivity statistics. A
   correct chooser must track the winner across Figures 12(c) and
   12(d), whose best strategies differ. *)
let extension_auto () =
  print_header
    (Printf.sprintf "Extension: cost-based RP/DP choice (ms, %d runs)" !runs)
    [ "query"; "RP"; "DP"; "auto"; "chose" ];
  let xdb = Lazy.force xmark_db in
  List.iter
    (fun name ->
      let twig = Tm_datasets.Workload.parse (Tm_datasets.Workload.find name) in
      let rp, _, _ = time_query xdb Database.RP twig in
      let dp, _, _ = time_query xdb Database.DP twig in
      let chosen = (Executor.plan xdb twig).Tm_plan.Plan.strategy in
      let auto, _, _ = time_query xdb chosen twig in
      say "%s | %s | %s | %s | %s" (fmt_cell name)
        (fmt_cell (Printf.sprintf "%.2f" rp))
        (fmt_cell (Printf.sprintf "%.2f" dp))
        (fmt_cell (Printf.sprintf "%.2f" auto))
        (fmt_cell (Database.strategy_name chosen)))
    [ "Q3x"; "Q5x"; "Q8x"; "Q9x"; "Q10x"; "Q11x"; "Q12x"; "Q15x" ]

(* ------------------------------------------------------------------ *)
(* Planner: regret vs the best-of-all-strategies oracle                *)
(* ------------------------------------------------------------------ *)

(* The full planner (Tm_plan behind Hint.Auto): every workload query is
   timed under each costed strategy (the exhaustive oracle keeps the
   best) and end-to-end under Auto — planning, cache and adaptivity
   included. The aggregate regret (total auto time vs total oracle
   time) is the CI gate (--gate-regret): per-query percentages are
   noisy at smoke scales, the workload total is not.

   Closes with the mid-query replan demonstration: the plan.estimate
   failpoint skews every estimate three orders of magnitude low, the
   blind executor runs the resulting mis-plan to completion, and the
   adaptive executor must abandon it once a path blows the >10x
   trigger and recover toward the oracle. *)

let planner_regret : float option ref = ref None

let time_hint db hint twig =
  ignore (Executor.run ~hint db twig);
  let t0 = Monotonic_clock.now () in
  for _ = 2 to !runs do
    ignore (Executor.run ~hint db twig)
  done;
  let r = Executor.run ~hint db twig in
  let t1 = Monotonic_clock.now () in
  (Int64.to_float (Int64.sub t1 t0) /. 1e6, r)

let figure_planner () =
  print_header
    (Printf.sprintf "Planner: auto vs best-of-all-strategies oracle (ms, %d runs)" !runs)
    [ "query"; "dataset"; "oracle"; "best"; "auto"; "chose"; "regret%" ];
  let total_best = ref 0.0 and total_auto = ref 0.0 in
  let within = ref 0 and n = ref 0 in
  List.iter
    (fun (q : Tm_datasets.Workload.query) ->
      let db = db_of q.Tm_datasets.Workload.dataset in
      let twig = Tm_datasets.Workload.parse q in
      let timed =
        List.map (fun s -> (s, (fun (ms, _, _) -> ms) (time_query db s twig))) Tm_plan.Cost.costed
      in
      let best_s, best_ms =
        List.fold_left
          (fun (bs, bm) (s, m) -> if m < bm then (s, m) else (bs, bm))
          (List.hd timed) (List.tl timed)
      in
      let auto_ms, r = time_hint db Tm_plan.Hint.Auto twig in
      (* the +0.05 ms absolute slack keeps sub-millisecond smoke runs
         from flagging timer noise as regret *)
      let regret = (auto_ms -. best_ms) /. Float.max best_ms 0.01 *. 100.0 in
      total_best := !total_best +. best_ms;
      total_auto := !total_auto +. auto_ms;
      incr n;
      if auto_ms <= (best_ms *. 1.10) +. 0.05 then incr within;
      say "%s | %s | %s | %s | %s | %s | %s" (fmt_cell q.Tm_datasets.Workload.name)
        (fmt_cell
           (match q.Tm_datasets.Workload.dataset with
           | Tm_datasets.Workload.Xmark -> "XMark"
           | Tm_datasets.Workload.Dblp -> "DBLP"))
        (fmt_cell (Database.strategy_name best_s))
        (fmt_cell (Printf.sprintf "%.2f" best_ms))
        (fmt_cell (Printf.sprintf "%.2f" auto_ms))
        (fmt_cell (Database.strategy_name r.Executor.strategy))
        (fmt_cell (Printf.sprintf "%+.1f" regret)))
    Tm_datasets.Workload.all;
  let aggregate = (!total_auto -. !total_best) /. Float.max !total_best 0.01 *. 100.0 in
  planner_regret := Some aggregate;
  say "";
  say "aggregate regret: %+.1f%% (auto %.1f ms vs oracle %.1f ms); within 10%% on %d/%d queries"
    aggregate !total_auto !total_best !within !n;
  (* -- mid-query replan demonstration ------------------------------ *)
  say "";
  say "-- mid-query replan (plan.estimate failpoint: every estimate /1024) --";
  say "%s"
    (String.concat " | "
       (List.map fmt_cell [ "query"; "blind"; "blind ms"; "adaptive"; "replans"; "final" ]));
  let xdb = Lazy.force xmark_db in
  (* the queries where a mis-planned driver hurts most: highest
     path-cardinality skew among the multi-path XMark workload *)
  (* the skewed estimate bottoms out at the replan floor, so a path can
     only blow the >10x trigger when its true cardinality clears
     factor * floor rows; rank the eligible queries by driver skew,
     where a mis-planned driver hurts most *)
  let trigger_rows = Tm_plan.Planner.replan_factor * Tm_plan.Planner.replan_floor in
  let skew q =
    match Executor.path_cardinalities xdb (Tm_datasets.Workload.parse q) with
    | [] | [ _ ] -> 0.0
    | cards ->
      let mx = List.fold_left max 1 cards and mn = List.fold_left min max_int cards in
      if mx <= trigger_rows then 0.0 else float_of_int mx /. float_of_int (max 1 mn)
  in
  let candidates =
    Tm_datasets.Workload.xmark_queries
    |> List.filter_map (fun q -> match skew q with 0.0 -> None | s -> Some (s, q))
    |> List.sort (fun (a, _) (b, _) -> Float.compare b a)
    |> List.filteri (fun i _ -> i < 3)
    |> List.map snd
  in
  if candidates = [] then
    say "(no workload query clears the %d-row trigger at this scale; raise --xmark-scale)"
      trigger_rows;
  let best_recovery = ref None in
  List.iter
    (fun (q : Tm_datasets.Workload.query) ->
      let twig = Tm_datasets.Workload.parse q in
      Tm_fault.Fault.inject ~site:Tm_plan.Estimate.failpoint (Tm_fault.Fault.Every 1);
      Fun.protect
        ~finally:(fun () ->
          Tm_fault.Fault.clear ~site:Tm_plan.Estimate.failpoint ();
          Tm_plan.Cache.clear ())
        (fun () ->
          Tm_plan.Cache.clear ();
          (* what the skewed statistics make the planner pick, executed
             without adaptivity (forced plans never replan) *)
          let blind_s = (Executor.plan xdb twig).Tm_plan.Plan.strategy in
          let blind_ms, r_blind = time_hint xdb (Tm_plan.Hint.Force blind_s) twig in
          let auto_ms, r = time_hint xdb Tm_plan.Hint.Auto twig in
          assert (r.Executor.ids = r_blind.Executor.ids);
          if r.Executor.replans > 0 && auto_ms < blind_ms then begin
            let gain = (blind_ms -. auto_ms) /. blind_ms *. 100.0 in
            match !best_recovery with
            | Some (g, _) when g >= gain -> ()
            | _ -> best_recovery := Some (gain, q.Tm_datasets.Workload.name)
          end;
          say "%s | %s | %s | %s | %s | %s" (fmt_cell q.Tm_datasets.Workload.name)
            (fmt_cell (Database.strategy_name blind_s))
            (fmt_cell (Printf.sprintf "%.2f" blind_ms))
            (fmt_cell (Printf.sprintf "%.2f" auto_ms))
            (fmt_cell (string_of_int r.Executor.replans))
            (fmt_cell (Database.strategy_name r.Executor.strategy))))
    candidates;
  match !best_recovery with
  | Some (gain, name) ->
    say "beneficial replan: %s recovered %.1f%% of the mis-planned time by abandoning mid-query"
      name gain
  | None -> say "no recovery on this workload/scale (replans fired, but the mis-plan was benign)"

(* ------------------------------------------------------------------ *)
(* Extension: range predicates                                         *)
(* ------------------------------------------------------------------ *)

(* Section 7 names "complex conditions on values" as future work; with
   value-first key order the equality machinery generalizes to
   contiguous range scans. Compare the strategies on range twigs. *)
let extension_ranges () =
  print_header
    (Printf.sprintf "Extension: range predicates (ms, %d runs)" !runs)
    [ "query"; "result"; "RP"; "DP"; "Edge"; "DG+Edge" ];
  let xdb = Lazy.force xmark_db in
  let strategies = Database.[ RP; DP; Edge; DG_edge ] in
  List.iter
    (fun (name, xpath) ->
      let twig = Tm_query.Xpath_parser.parse xpath in
      let card = ref 0 in
      let cells =
        List.map
          (fun s ->
            let ms, n, _ = time_query xdb s twig in
            card := n;
            fmt_cell (Printf.sprintf "%.2f" ms))
          strategies
      in
      say "%s | %s | %s" (fmt_cell name) (fmt_cell (string_of_int !card))
        (String.concat " | " cells))
    [
      ("R1", "/site/regions/namerica/item/quantity[. >= '3']");
      ("R2", "/site/people/person/profile[@income >= '2000'][@income < '5000']");
      ("R3", "/site/people/person/profile/@income[. >= '9876.00'][. <= '9876.50']");
      ("R4", "//item[quantity >= '4']/mailbox/mail/date");
    ]

(* ------------------------------------------------------------------ *)
(* Extension: structural-join engines                                  *)
(* ------------------------------------------------------------------ *)

(* The comparison the paper could not run (Section 5.1.2: "We could not
   use the structural join algorithms of [34, 1, 3] since none of these
   algorithms has been implemented in commercial database systems"):
   Stack-Tree binary semi-joins and holistic PathStack+merge vs the
   paper's index strategies, over the same substrate. *)
let extension_joins () =
  print_header
    (Printf.sprintf "Extension: structural joins vs path indices (ms, %d runs)" !runs)
    [ "query"; "result"; "RP"; "DP"; "STJ"; "PathStack" ];
  let xdb = Lazy.force xmark_db in
  let ctx =
    Tm_joins.Context.build ~pool:xdb.Database.pool ~dict:xdb.Database.dict
      ~edge:xdb.Database.edge xdb.Database.doc
  in
  let time f =
    ignore (f ());
    let t0 = Monotonic_clock.now () in
    for _ = 1 to !runs do
      ignore (f ())
    done;
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6
  in
  List.iter
    (fun name ->
      let twig = Tm_datasets.Workload.parse (Tm_datasets.Workload.find name) in
      let card =
        List.length (Executor.run ~hint:(Tm_plan.Hint.Force Database.RP) xdb twig).Executor.ids
      in
      say "%s | %s | %s | %s | %s | %s" (fmt_cell name)
        (fmt_cell (string_of_int card))
        (fmt_cell
           (Printf.sprintf "%.2f"
              (time (fun () -> Executor.run ~hint:(Tm_plan.Hint.Force Database.RP) xdb twig))))
        (fmt_cell
           (Printf.sprintf "%.2f"
              (time (fun () -> Executor.run ~hint:(Tm_plan.Hint.Force Database.DP) xdb twig))))
        (fmt_cell (Printf.sprintf "%.2f" (time (fun () -> Tm_joins.Engine.run_stj ctx twig))))
        (fmt_cell
           (Printf.sprintf "%.2f" (time (fun () -> Tm_joins.Engine.run_pathstack ctx twig)))))
    [ "Q1x"; "Q3x"; "Q6x"; "Q9x"; "Q10x"; "Q12x"; "Q14x" ];
  say "tag-stream index: %.2f MB extra" (mb (Tm_joins.Context.size_bytes ctx))

(* ------------------------------------------------------------------ *)
(* Parallel execution (lib/par)                                        *)
(* ------------------------------------------------------------------ *)

(* Three views of the domain-pool work. (a) Intra-query speedup from
   fanning one twig's root-to-leaf paths across domains — bounded by
   the path count and per-path skew, so expect modest gains on 2-3
   branch twigs. (b) Workload throughput: independent twig queries of
   the multi-path XMark workload dispatched concurrently against the
   shared read-only database — the scaling headline, and the ids are
   verified against the sequential run. (c) Parallel DATAPATHS
   subpath-closure build vs the sequential build. *)
let figure_parallel () =
  let jobs = max 2 !jobs in
  let cores = Domain.recommended_domain_count () in
  if cores < jobs then
    say
      "NOTE: only %d core(s) available for %d jobs — wall-clock speedup is bounded by the core \
       count; on >= %d cores this workload scales near-linearly. Identity of results is still \
       verified."
      cores jobs jobs;
  let xdb = Lazy.force xmark_db in
  let multi_path =
    List.filter
      (fun (q : Tm_datasets.Workload.query) ->
        q.Tm_datasets.Workload.dataset = Tm_datasets.Workload.Xmark
        && q.Tm_datasets.Workload.branches >= 2)
      Tm_datasets.Workload.all
  in
  Tm_par.Pool.with_pool ~jobs @@ fun pool ->
  (* (a) per-path fan-out inside one query *)
  print_header
    (Printf.sprintf "Parallel (a): per-path fan-out under RP, jobs=1 vs jobs=%d (ms, %d runs)" jobs
       !runs)
    [ "query"; "result"; "seq"; "par"; "speedup" ];
  List.iter
    (fun (q : Tm_datasets.Workload.query) ->
      let twig = Tm_datasets.Workload.parse q in
      let time ?pool () =
        ignore (Executor.run ?pool ~hint:(Tm_plan.Hint.Force Database.RP) xdb twig);
        let t0 = Monotonic_clock.now () in
        for _ = 1 to !runs do
          ignore (Executor.run ?pool ~hint:(Tm_plan.Hint.Force Database.RP) xdb twig)
        done;
        Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6
      in
      let seq = time () in
      let par = time ~pool () in
      let ids_seq = (Executor.run ~hint:(Tm_plan.Hint.Force Database.RP) xdb twig).Executor.ids in
      let ids_par =
        (Executor.run ~pool ~hint:(Tm_plan.Hint.Force Database.RP) xdb twig).Executor.ids
      in
      if ids_seq <> ids_par then
        failwith ("parallel ids differ on " ^ q.Tm_datasets.Workload.name);
      say "%s | %s | %s | %s | %s"
        (fmt_cell q.Tm_datasets.Workload.name)
        (fmt_cell (string_of_int (List.length ids_seq)))
        (fmt_cell (Printf.sprintf "%.2f" seq))
        (fmt_cell (Printf.sprintf "%.2f" par))
        (fmt_cell (Printf.sprintf "%.2fx" (seq /. par))))
    multi_path;
  (* (b) workload throughput: whole queries as pool tasks *)
  let workload =
    List.concat_map
      (fun (q : Tm_datasets.Workload.query) ->
        let twig = Tm_datasets.Workload.parse q in
        [ (Database.RP, twig); (Database.DP, twig) ])
      multi_path
  in
  let tasks = List.concat (List.init (max 1 !runs) (fun _ -> workload)) in
  let eval (s, twig) = (Executor.run ~hint:(Tm_plan.Hint.Force s) xdb twig).Executor.ids in
  List.iter (fun t -> ignore (eval t)) workload;
  (* warm *)
  let t0 = Monotonic_clock.now () in
  let seq_ids = List.map eval tasks in
  let t_seq = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6 in
  let t0 = Monotonic_clock.now () in
  let par_ids = Tm_par.Pool.map pool eval tasks in
  let t_par = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6 in
  if seq_ids <> par_ids then failwith "parallel workload ids differ from sequential";
  say "";
  say "Parallel (b): multi-path XMark twig workload, %d queries (RP+DP over %d twigs x %d reps)"
    (List.length tasks) (List.length multi_path) (max 1 !runs);
  say "  jobs=1: %.1f ms   jobs=%d: %.1f ms   speedup: %.2fx   (identical result ids)" t_seq jobs
    t_par (t_seq /. t_par);
  (* (c) parallel DATAPATHS subpath-closure build *)
  let doc = Lazy.force xmark_doc in
  let time_build ?par () =
    let t0 = Monotonic_clock.now () in
    let db = Database.create ?par ~strategies:Database.[ DP ] doc in
    let ms = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6 in
    (ms, db)
  in
  let seq_ms, seq_db = time_build () in
  let par_ms, par_db = time_build ~par:pool () in
  let seq_sz = Database.strategy_size_bytes seq_db Database.DP in
  let par_sz = Database.strategy_size_bytes par_db Database.DP in
  if seq_sz <> par_sz then failwith "parallel DATAPATHS build differs from sequential";
  say "";
  say "Parallel (c): DATAPATHS build — seq %.0f ms, jobs=%d %.0f ms (%.2fx); identical index \
       (%d bytes)"
    seq_ms jobs par_ms (seq_ms /. par_ms) seq_sz

(* ------------------------------------------------------------------ *)
(* Bechamel micro-suite                                                *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  let open Bechamel in
  let xdb = Lazy.force xmark_db in
  let bench_query name strategy qname =
    let twig = Tm_datasets.Workload.parse (Tm_datasets.Workload.find qname) in
    Test.make ~name
      (Staged.stage (fun () -> ignore (Executor.run ~hint:(Tm_plan.Hint.Force strategy) xdb twig)))
  in
  let test =
    Test.make_grouped ~name:"twig-queries"
      [
        (* Figure 11 representative (single path, moderate selectivity) *)
        bench_query "fig11/Q2x/RP" Database.RP "Q2x";
        bench_query "fig11/Q2x/DP" Database.DP "Q2x";
        bench_query "fig11/Q2x/Edge" Database.Edge "Q2x";
        (* Figure 12 representative (2-branch twig) *)
        bench_query "fig12/Q6x/RP" Database.RP "Q6x";
        bench_query "fig12/Q6x/DP" Database.DP "Q6x";
        (* Figure 12(d) representative (low branch point: INLJ wins) *)
        bench_query "fig12d/Q10x/RP" Database.RP "Q10x";
        bench_query "fig12d/Q10x/DP" Database.DP "Q10x";
        (* Figure 13 representative ('//' branch point) *)
        bench_query "fig13/Q12x/DP" Database.DP "Q12x";
        bench_query "fig13/Q12x/ASR" Database.Asr "Q12x";
        bench_query "fig13/Q12x/JI" Database.Ji "Q12x";
      ]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 100) () in
  let raw = Benchmark.all cfg instances test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let results = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun measure tbl ->
      say "-- %s --" measure;
      Hashtbl.iter
        (fun name o ->
          match Analyze.OLS.estimates o with
          | Some [ est ] -> say "%-28s %14.0f ns/run" name est
          | _ -> say "%-28s (no estimate)" name)
        tbl)
    results

(* ------------------------------------------------------------------ *)
(* Overload: goodput and tail latency vs offered load                  *)
(* ------------------------------------------------------------------ *)

(* Serving-layer stress bench: a live loopback server over the XMark
   database, driven open-loop (arrivals on a fixed schedule regardless
   of completions, the overload-honest protocol) at multiples of the
   measured saturation rate. Reported per offered load: goodput
   (complete 200s/s), shed counts, and p50/p99/p999 of the {e accepted}
   requests — the claim under test is that admission control and
   adaptive shedding keep the accepted-request p99 bounded (within 3x
   the unloaded p99 at 2x saturation) instead of letting the queue
   amplify it without bound. *)

let overload_gate : (float * float * float * float) option ref = ref None
(* (p99 at 2x, 3 * p99 at 0.5x, goodput at 2x, saturation/2) *)

let gate_overload = ref false

let url_encode s =
  let buf = Buffer.create (String.length s * 3) in
  String.iter
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' | '.' | '~' -> Buffer.add_char buf c
      | _ -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents buf

(* One HTTP exchange; returns the status code, or 0 when the connection
   died without a complete status line. *)
let http_get port target =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      match Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
      | exception Unix.Unix_error (_, _, _) -> 0
      | () -> (
        let req =
          Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
            target
        in
        match Unix.write_substring sock req 0 (String.length req) with
        | exception Unix.Unix_error (_, _, _) -> 0
        | _ ->
          let buf = Buffer.create 256 in
          let chunk = Bytes.create 4096 in
          let rec loop () =
            match Unix.read sock chunk 0 (Bytes.length chunk) with
            | 0 -> ()
            | n ->
              Buffer.add_subbytes buf chunk 0 n;
              loop ()
            | exception Unix.Unix_error (_, _, _) -> ()
          in
          loop ();
          let s = Buffer.contents buf in
          if String.length s >= 12 && String.sub s 0 9 = "HTTP/1.1 " then
            match int_of_string_opt (String.sub s 9 3) with Some c -> c | None -> 0
          else 0))

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* Open-loop driver: [n_total] arrivals on a fixed [rate] schedule,
   pulled by a small domain pool. Latency is measured from the
   {e scheduled} arrival, so time spent waiting for admission — or for
   a free client — counts against the server, as it would for real
   clients. *)
let open_loop ~port ~target ~rate ~n_total ~clients =
  let interval_ns = 1e9 /. rate in
  let next = Atomic.make 0 in
  let results = Array.make n_total (0, 0.0) in
  let t0 = Monotonic_clock.now () in
  let worker () =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n_total then begin
        let sched = Int64.add t0 (Int64.of_float (float_of_int i *. interval_ns)) in
        let rec pace () =
          let dt = Int64.to_float (Int64.sub sched (Monotonic_clock.now ())) /. 1e9 in
          if dt > 0.0 then begin
            Unix.sleepf (Float.min dt 0.005);
            pace ()
          end
        in
        pace ();
        let status = http_get port target in
        let ms = Int64.to_float (Int64.sub (Monotonic_clock.now ()) sched) /. 1e6 in
        results.(i) <- (status, ms);
        go ()
      end
    in
    go ()
  in
  let ds = List.init clients (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  let dt_s = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9 in
  (results, dt_s)

let figure_overload () =
  let db = Lazy.force xmark_db in
  (* Q13x pinned to root-paths: a branching recursive twig whose RP
     evaluation costs milliseconds at scale >= 0.5 — per-request work
     must dominate loopback connection overhead, or saturation belongs
     to the load generator instead of the server and shedding never
     engages. Run this figure at the default XMark scale. *)
  let twig_src = (Tm_datasets.Workload.find "Q13x").Tm_datasets.Workload.xpath in
  let target = "/query?q=" ^ url_encode twig_src ^ "&hint=rp" in
  (* Two execution slots and a short queue: admission must bind well
     below the client pool's concurrency for overload to reach the
     server rather than pile up inside the load generator. *)
  let max_in_flight = 2 in
  let module Server = Tm_serve.Server in
  (* Phase 1: unloaded latency and saturation throughput, on a plain
     server (no shedding pressure at these loads). *)
  let unloaded_p50, unloaded_p99, saturation =
    let t = Server.create ~port:0 db in
    Tm_par.Pool.with_pool ~jobs:(max_in_flight + 1) @@ fun pool ->
    let d = Domain.spawn (fun () -> Server.run ~pool t) in
    Fun.protect
      ~finally:(fun () ->
        Server.stop t;
        ignore (Domain.join d))
      (fun () ->
        let port = Server.port t in
        for _ = 1 to 10 do
          ignore (http_get port target) (* warm-up: page cache, JIT-ish paths, GC *)
        done;
        let lats =
          Array.init 40 (fun _ ->
              let a = Monotonic_clock.now () in
              ignore (http_get port target);
              Int64.to_float (Int64.sub (Monotonic_clock.now ()) a) /. 1e6)
        in
        Array.sort Float.compare lats;
        (* saturation: closed-loop, one client per execution slot *)
        let stop_at = Int64.add (Monotonic_clock.now ()) 1_500_000_000L in
        let done_ = Atomic.make 0 in
        let ds =
          List.init max_in_flight (fun _ ->
              Domain.spawn (fun () ->
                  while Int64.compare (Monotonic_clock.now ()) stop_at < 0 do
                    if http_get port target = 200 then Atomic.incr done_
                  done))
        in
        List.iter Domain.join ds;
        (percentile lats 0.5, percentile lats 0.99, float_of_int (Atomic.get done_) /. 1.5))
  in
  progress "[bench] overload: unloaded p50 %.2f ms, p99 %.2f ms, saturation %.0f req/s"
    unloaded_p50 unloaded_p99 saturation;
  (* Phase 2: open-loop sweep over offered-load multiples, against a
     server with the adaptive shed target tied to the unloaded p99. *)
  let light_p99 = ref Float.infinity in
  let config =
    {
      Server.default_config with
      Server.max_in_flight;
      (* short queue: with ~p50-sized service times, 4 waiters already
         put the accepted tail near the 3x-unloaded budget *)
      max_queue = 4;
      request_timeout_ms = 10_000.0;
      shed_p99_ms = Float.max 5.0 unloaded_p99;
    }
  in
  let t = Server.create ~port:0 ~config db in
  Tm_par.Pool.with_pool ~jobs:(max_in_flight + 1) @@ fun pool ->
  let d = Domain.spawn (fun () -> Server.run ~pool t) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      ignore (Domain.join d))
    (fun () ->
      let port = Server.port t in
      print_header
        "Overload: goodput and accepted-request steady-state latency vs offered load \
         (open-loop)"
        [ "offered"; "req/s"; "ok"; "shed"; "died"; "goodput"; "p50ms"; "p99ms"; "p999ms" ];
      List.iter
        (fun mult ->
          let rate = Float.max 10.0 (saturation *. mult) in
          let n_total = min 800 (max 100 (int_of_float (rate *. 2.5))) in
          let results, dt_s = open_loop ~port ~target ~rate ~n_total ~clients:16 in
          let ok =
            Array.to_list results |> List.filter (fun (s, _) -> s = 200) |> Array.of_list
          in
          let shed =
            Array.fold_left (fun a (s, _) -> if s = 429 || s = 503 then a + 1 else a) 0 results
          in
          let died = Array.fold_left (fun a (s, _) -> if s = 0 then a + 1 else a) 0 results in
          (* Latency percentiles over the steady-state tail of the
             window: the first quarter is the adaptive shedder's ramp
             (its p99 ring must observe congestion before the queue
             limit tightens) and would otherwise dominate the p99 of a
             few-hundred-sample window. Counts and goodput still cover
             the whole window. *)
          let warm = Array.length results / 4 in
          let lats =
            Array.to_list results
            |> List.filteri (fun i (s, _) -> i >= warm && s = 200)
            |> List.map snd |> Array.of_list
          in
          Array.sort Float.compare lats;
          let goodput = float_of_int (Array.length ok) /. dt_s in
          let p99 = percentile lats 0.99 in
          say "%s | %s | %s | %s | %s | %s | %s | %s | %s"
            (fmt_cell (Printf.sprintf "%.1fx" mult))
            (fmt_cell (Printf.sprintf "%.0f" rate))
            (fmt_cell (string_of_int (Array.length ok)))
            (fmt_cell (string_of_int shed))
            (fmt_cell (string_of_int died))
            (fmt_cell (Printf.sprintf "%.0f/s" goodput))
            (fmt_cell (Printf.sprintf "%.1f" (percentile lats 0.5)))
            (fmt_cell (Printf.sprintf "%.1f" p99))
            (fmt_cell (Printf.sprintf "%.1f" (percentile lats 0.999)));
          (* The latency reference for the gate is the 0.5x row: below
             saturation, no queueing, but measured through the same
             16-domain harness — the sequential probe above understates
             the generator's own scheduling overhead, which is not the
             server's to answer for. *)
          if mult = 0.5 then light_p99 := p99
          else if mult = 2.0 then
            overload_gate := Some (p99, 3.0 *. !light_p99, goodput, saturation /. 2.0))
        [ 0.5; 1.0; 2.0; 4.0 ];
      let s = Server.stats t in
      say "";
      say "accounting: accepted %d = responses %d + write_failures %d + accept_faults %d"
        s.Server.accepted s.Server.responses s.Server.write_failures s.Server.accept_faults;
      say "claim: at 2x saturation the accepted-request p99 stays within 3x the lightly";
      say "       loaded (0.5x) p99, and goodput holds at >= half the saturation rate";
      say "       (shedding, not collapse)")

(* ------------------------------------------------------------------ *)
(* Flight-recorder overhead                                            *)
(* ------------------------------------------------------------------ *)

let flight_overhead : float option ref = ref None
let gate_flight : float option ref = ref None

(* The recorder's contract is "cheap enough to leave on in production":
   both legs run in the serving posture (metrics sink and journal
   enabled, auto planner), so the measured delta is the marginal cost
   of flight-event emission alone. Two disabled legs bracket the
   enabled one and the faster is the baseline, which biases the
   comparison against the recorder, not for it. *)
let figure_flight () =
  let db = Lazy.force xmark_db in
  let twigs = List.map Tm_datasets.Workload.parse Tm_datasets.Workload.xmark_queries in
  let sweep () =
    List.iter (fun twig -> ignore (Executor.run ~hint:Tm_plan.Hint.Auto db twig)) twigs
  in
  let leg () =
    let t0 = Monotonic_clock.now () in
    for _ = 1 to !runs do
      sweep ()
    done;
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6
  in
  Tm_obs.Obs.with_enabled true @@ fun () ->
  Tm_obs.Journal.with_enabled true @@ fun () ->
  sweep ();
  (* warm caches and plan cache *)
  (* Interleaved off/on pairs, best-of-each: back-to-back legs share
     whatever GC and cache state drifts across the run, so comparing
     minima isolates the recorder's cost from the drift. *)
  let pairs = 5 in
  let off = ref Float.infinity and on_best = ref Float.infinity in
  for _ = 1 to pairs do
    off := Float.min !off (Tm_obs.Flight.with_enabled false leg);
    on_best := Float.min !on_best (Tm_obs.Flight.with_enabled true leg)
  done;
  let off = !off and on_ = !on_best in
  let overhead = (on_ -. off) /. Float.max off 0.01 *. 100.0 in
  flight_overhead := Some overhead;
  print_header
    (Printf.sprintf
       "Flight recorder: enabled overhead, XMark workload x%d runs (claim: < 3%%)" !runs)
    [ "recorder"; "total ms" ];
  say "%s | %s" (fmt_cell "off") (fmt_cell (Printf.sprintf "%.1f" off));
  say "%s | %s" (fmt_cell "on") (fmt_cell (Printf.sprintf "%.1f" on_));
  say "overhead: %+.2f%% (events recorded so far: %d)" overhead
    (Tm_obs.Flight.total_events ())

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let all_figures =
  [
    "9"; "10"; "11"; "12a"; "12b"; "12c"; "12d"; "recursion"; "compression"; "13";
    "ablation-inlj"; "ablation-pc"; "ablation-update"; "ablation-pool"; "durability";
    "robustness";
    "extension-joins"; "extension-auto"; "planner"; "extension-ranges"; "parallel";
    "overload"; "flight";
  ]

(* Per-figure tail latency for --metrics-out: bucket counts of every
   registered histogram are snapshotted before each figure, and
   p50/p95/p99 are estimated from the deltas — so BENCH_*.json tracks
   the tail of each figure's join/query/task latencies, not just the
   whole-run means. *)
let figure_percentiles : (string * (string * (string * float) list) list) list ref = ref []

let histogram_counts () =
  Tm_obs.Obs.histograms ()
  |> List.map (fun (h : Tm_obs.Obs.histogram) ->
         (h.Tm_obs.Obs.h_name, Array.copy h.Tm_obs.Obs.h_counts))

let record_figure_percentiles fig before =
  let deltas =
    Tm_obs.Obs.histograms ()
    |> List.filter_map (fun (h : Tm_obs.Obs.histogram) ->
           let counts =
             match List.assoc_opt h.Tm_obs.Obs.h_name before with
             | Some old when Array.length old = Array.length h.Tm_obs.Obs.h_counts ->
               Array.mapi (fun i n -> n - old.(i)) h.Tm_obs.Obs.h_counts
             | Some _ | None -> Array.copy h.Tm_obs.Obs.h_counts
           in
           let quantiles =
             List.filter_map
               (fun (q, label) ->
                 Option.map
                   (fun v -> (label, v))
                   (Tm_obs.Export.quantile_of_counts ~bounds:h.Tm_obs.Obs.h_bounds ~counts q))
               [ (0.5, "p50"); (0.95, "p95"); (0.99, "p99") ]
           in
           if quantiles = [] then None else Some (h.Tm_obs.Obs.h_name, quantiles))
  in
  if deltas <> [] then figure_percentiles := (fig, deltas) :: !figure_percentiles

let figures_percentiles_json () =
  let quantile (l, v) = Tm_obs.Export.json_string l ^ ":" ^ Tm_obs.Export.json_float v in
  let histogram (name, qs) =
    Tm_obs.Export.json_string name ^ ":{" ^ String.concat "," (List.map quantile qs) ^ "}"
  in
  let figure (fig, hs) =
    Tm_obs.Export.json_string fig ^ ":{" ^ String.concat "," (List.map histogram hs) ^ "}"
  in
  (* prepended during the run, so rev_map restores figure order *)
  "{" ^ String.concat "," (List.rev_map figure !figure_percentiles) ^ "}"

let run_figure = function
  | "9" -> figure_9 ()
  | "10" -> figure_10 ()
  | "11" -> figure_11 ()
  | "12" -> figure_12 `All
  | "12a" -> figure_12 `A
  | "12b" -> figure_12 `B
  | "12c" -> figure_12 `C
  | "12d" -> figure_12 `D
  | "recursion" -> figure_recursion ()
  | "compression" -> figure_compression ()
  | "13" -> figure_13 ()
  | "ablation-inlj" -> ablation_inlj ()
  | "ablation-pc" -> ablation_prefix_compression ()
  | "ablation-update" -> ablation_update_cost ()
  | "ablation-pool" -> ablation_pool ()
  | "durability" -> figure_durability ()
  | "robustness" -> figure_robustness ()
  | "extension-joins" -> extension_joins ()
  | "extension-auto" -> extension_auto ()
  | "planner" -> figure_planner ()
  | "extension-ranges" -> extension_ranges ()
  | "parallel" -> figure_parallel ()
  | "overload" -> figure_overload ()
  | "flight" -> figure_flight ()
  | f -> failwith ("unknown figure: " ^ f)

let () =
  let spec =
    [
      ( "--figure",
        Arg.String (fun f -> figures := f :: !figures),
        "FIG run one figure (9, 10, 11, 12a-d, recursion, compression, 13)" );
      ("--runs", Arg.Set_int runs, "N timed runs per query (default 10)");
      ("--xmark-scale", Arg.Set_float xmark_scale, "F XMark scale factor (default 0.5)");
      ("--dblp-scale", Arg.Set_float dblp_scale, "F DBLP scale factor (default 0.5)");
      ("--seed", Arg.Set_int seed, "N dataset PRNG seed (default 42)");
      ( "--jobs",
        Arg.Set_int jobs,
        "N domain-pool size for the 'parallel' figure (default TWIGMATCH_JOBS or 4)" );
      ("--bechamel", Arg.Set run_bechamel, " run the Bechamel micro-suite");
      ( "--metrics-out",
        Arg.String (fun f -> metrics_out := Some f),
        "FILE record observability counters/histograms over the whole run and write them as \
         JSON to FILE" );
      ( "--gate-regret",
        Arg.Float (fun p -> gate_regret := Some p),
        "PCT exit 1 when the 'planner' figure's aggregate regret against the strategy oracle \
         exceeds PCT percent (the CI gate)" );
      ( "--gate-flight",
        Arg.Float (fun p -> gate_flight := Some p),
        "PCT exit 1 when the 'flight' figure's enabled-recorder overhead exceeds PCT percent \
         (the CI gate; the design target is 3)" );
      ( "--gate-overload",
        Arg.Set gate_overload,
        " exit 1 unless, at 2x saturation, the 'overload' figure's accepted-request p99 stays \
         within 3x the lightly loaded (0.5x) p99 and goodput holds at >= half the saturation \
         rate" );
    ]
  in
  Arg.parse spec (fun a -> failwith ("unexpected argument " ^ a)) "twig index benchmarks";
  say "twig-index benchmark harness (Chen et al., ICDE 2005 reproduction)";
  say "datasets: XMark-like scale %.2f, DBLP-like scale %.2f; %d runs per query" !xmark_scale
    !dblp_scale !runs;
  if !metrics_out <> None then Tm_obs.Obs.enable ();
  if !run_bechamel then bechamel_suite ()
  else begin
    let figs = if !figures = [] then all_figures else List.rev !figures in
    List.iter
      (fun fig ->
        if !metrics_out = None then run_figure fig
        else begin
          let before = histogram_counts () in
          run_figure fig;
          record_figure_percentiles fig before
        end)
      figs;
    say "";
    say "done. See EXPERIMENTS.md for paper-vs-measured discussion."
  end;
  (match !gate_regret with
  | None -> ()
  | Some limit -> (
    match !planner_regret with
    | None ->
      prerr_endline "bench: --gate-regret set but the 'planner' figure did not run";
      exit 1
    | Some r when r > limit ->
      Printf.eprintf "bench: planner aggregate regret %.1f%% exceeds the %.1f%% gate\n" r limit;
      exit 1
    | Some r -> progress "[bench] planner regret gate passed: %.1f%% <= %.1f%%" r limit));
  (if !gate_overload then
     match !overload_gate with
     | None ->
       prerr_endline "bench: --gate-overload set but the 'overload' figure did not run";
       exit 1
     | Some (p99, p99_limit, goodput, goodput_floor) ->
       if p99 > p99_limit then begin
         Printf.eprintf
           "bench: overload p99 gate failed: %.1f ms at 2x saturation exceeds %.1f ms (3x \
            the lightly loaded p99)\n"
           p99 p99_limit;
         exit 1
       end
       else if goodput < goodput_floor then begin
         Printf.eprintf
           "bench: overload goodput gate failed: %.0f/s at 2x saturation is below the %.0f/s \
            floor (half of saturation)\n"
           goodput goodput_floor;
         exit 1
       end
       else
         progress "[bench] overload gate passed: p99 %.1f <= %.1f ms, goodput %.0f >= %.0f/s"
           p99 p99_limit goodput goodput_floor);
  (match !gate_flight with
  | None -> ()
  | Some limit -> (
    match !flight_overhead with
    | None ->
      prerr_endline "bench: --gate-flight set but the 'flight' figure did not run";
      exit 1
    | Some o when o > limit ->
      Printf.eprintf "bench: flight-recorder overhead %.2f%% exceeds the %.2f%% gate\n" o limit;
      exit 1
    | Some o -> progress "[bench] flight overhead gate passed: %.2f%% <= %.2f%%" o limit));
  match !metrics_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc
      (Tm_obs.Export.metrics_to_json ~extra:[ ("figures", figures_percentiles_json ()) ] ());
    output_char oc '\n';
    close_out oc;
    say "observability metrics written to %s" path
