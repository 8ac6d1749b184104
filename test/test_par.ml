(* Parallel-execution tests: the Tm_par pool itself, four domains
   hammering one shared read-only database, pool-backed execution vs
   sequential, and the parallel DATAPATHS build — each cross-checked
   with the offline verifier (fsck) where stored structures are
   involved. *)

open Twigmatch

(* Small but non-trivial XMark instance shared by the stress tests. *)
let xdoc =
  lazy (Tm_datasets.Xmark_gen.generate { Tm_datasets.Xmark_gen.seed = 42; scale = 0.05 })

let xdb = lazy (Database.create (Lazy.force xdoc))

let xmark_twigs =
  lazy
    (List.filter_map
       (fun (q : Tm_datasets.Workload.query) ->
         if q.Tm_datasets.Workload.dataset = Tm_datasets.Workload.Xmark then
           Some (q.Tm_datasets.Workload.name, Tm_datasets.Workload.parse q)
         else None)
       Tm_datasets.Workload.all)

let mixed_strategies = Database.[ RP; DP; Edge ]

let eval_all db =
  List.concat_map
    (fun s ->
      List.map
        (fun (_, twig) -> (Executor.run ~hint:(Tm_plan.Hint.Force s) db twig).Executor.ids)
        (Lazy.force xmark_twigs))
    mixed_strategies

(* ------------------------------------------------------------------ *)
(* Pool unit tests                                                     *)
(* ------------------------------------------------------------------ *)

let test_map_order () =
  Tm_par.Pool.with_pool ~jobs:4 @@ fun pool ->
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "map preserves input order" (List.map (fun x -> x * x) xs)
    (Tm_par.Pool.map pool (fun x -> x * x) xs)

let test_map_inline () =
  Tm_par.Pool.with_pool ~jobs:1 @@ fun pool ->
  Alcotest.(check int) "jobs=1 pool reports 1" 1 (Tm_par.Pool.jobs pool);
  Alcotest.(check (list int))
    "jobs=1 is List.map" [ 2; 4; 6 ]
    (Tm_par.Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ])

let test_exception_propagation () =
  Tm_par.Pool.with_pool ~jobs:4 @@ fun pool ->
  (match Tm_par.Pool.map pool (fun x -> if x = 5 then failwith "boom" else x) (List.init 10 Fun.id) with
  | _ -> Alcotest.fail "expected the task's exception to reach the caller"
  | exception Failure msg -> Alcotest.(check string) "original exception" "boom" msg);
  (* the pool survives a failed batch *)
  Alcotest.(check (list int)) "pool usable after failure" [ 2; 4 ]
    (Tm_par.Pool.map pool (fun x -> 2 * x) [ 1; 2 ])

let test_chunk () =
  let xs = List.init 10 Fun.id in
  let cs = Tm_par.Pool.chunk ~pieces:3 xs in
  Alcotest.(check int) "3 pieces" 3 (List.length cs);
  Alcotest.(check (list int)) "concat restores the list" xs (List.concat cs);
  List.iter
    (fun c ->
      let n = List.length c in
      Alcotest.(check bool) "piece sizes differ by at most one" true (n = 3 || n = 4))
    cs;
  Alcotest.(check (list (list int)))
    "never more pieces than elements"
    [ [ 1 ]; [ 2 ] ]
    (Tm_par.Pool.chunk ~pieces:5 [ 1; 2 ]);
  Alcotest.(check (list (list int))) "empty input" [] (Tm_par.Pool.chunk ~pieces:4 [])

(* ------------------------------------------------------------------ *)
(* Shared-database stress                                              *)
(* ------------------------------------------------------------------ *)

(* Four domains run the full mixed workload (3 strategies x every XMark
   twig) for a fixed iteration budget against ONE database; every
   domain must observe exactly the sequential results on every
   iteration, and the stored structures must verify clean afterwards
   (the striped buffer pool and locked decode caches may not tear). *)
let test_hammer_shared_db () =
  let db = Lazy.force xdb in
  let baseline = eval_all db in
  let iterations = 10 in
  let hammer () =
    let ok = ref true in
    for _ = 1 to iterations do
      if eval_all db <> baseline then ok := false
    done;
    !ok
  in
  let domains = List.init 4 (fun _ -> Domain.spawn hammer) in
  let oks = List.map Domain.join domains in
  Alcotest.(check (list bool))
    "every domain observed the sequential results"
    [ true; true; true; true ]
    oks;
  let report = Tm_check.Check.check_database db in
  Alcotest.(check string) "fsck clean after concurrent reads" ""
    (if Tm_check.Check.is_clean report then "" else Tm_check.Check.report_to_string report)

(* Pool-backed execution (per-path fan-out inside the executor) returns
   the same ids as the sequential plan for every strategy and twig. *)
let test_pool_matches_sequential () =
  let db = Lazy.force xdb in
  Tm_par.Pool.with_pool ~jobs:4 @@ fun pool ->
  List.iter
    (fun s ->
      List.iter
        (fun (name, twig) ->
          let seq = (Executor.run ~hint:(Tm_plan.Hint.Force s) db twig).Executor.ids in
          let par = (Executor.run ~pool ~hint:(Tm_plan.Hint.Force s) db twig).Executor.ids in
          Alcotest.(check (list int))
            (Printf.sprintf "%s under %s, jobs=4" name (Database.strategy_name s))
            seq par)
        (Lazy.force xmark_twigs))
    Database.all_strategies

(* The query's cost record under pool fan-out: every task charges a
   record of its own and the coordinator merges them, so at jobs=4 each
   query reads the same as at jobs=1 on every count that does not
   depend on which domain touched a page first (misses) or on timing
   (allocation, replans — forced plans never replan). *)
let test_pool_record_matches_sequential () =
  let db = Lazy.force xdb in
  let deterministic (s : Tm_exec.Stats.t) =
    Tm_exec.Stats.
      [
        ("lookups", s.index_lookups);
        ("entries", s.entries_scanned);
        ("rows", s.rows_produced);
        ("joins", s.join_steps);
        ("probes", s.inlj_probes);
        ("structures", s.structures_accessed);
        ("logical reads", s.logical_reads);
      ]
  in
  Tm_par.Pool.with_pool ~jobs:4 @@ fun pool ->
  List.iter
    (fun s ->
      List.iter
        (fun (name, twig) ->
          let run ?pool () =
            deterministic (Executor.run ?pool ~hint:(Tm_plan.Hint.Force s) db twig).Executor.stats
          in
          let seq = run () in
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "%s under %s: jobs=4 record = jobs=1 record" name
               (Database.strategy_name s))
            seq (run ~pool ()))
        (Lazy.force xmark_twigs))
    Database.all_strategies

(* ------------------------------------------------------------------ *)
(* Parallel index build                                                *)
(* ------------------------------------------------------------------ *)

(* Partition-and-merge DATAPATHS/ROOTPATHS construction must be
   indistinguishable from the sequential build: same stored size, same
   query answers, and fsck (which recomputes the expected entry
   multiset from the document) must pass on the parallel product. *)
let test_parallel_build_equals_sequential () =
  let doc = Lazy.force xdoc in
  let strategies = Database.[ RP; DP ] in
  Tm_par.Pool.with_pool ~jobs:4 @@ fun pool ->
  let seq_db = Database.create ~strategies doc in
  let par_db = Database.create ~par:pool ~strategies doc in
  List.iter
    (fun s ->
      Alcotest.(check int)
        (Printf.sprintf "%s stored size identical" (Database.strategy_name s))
        (Database.strategy_size_bytes seq_db s)
        (Database.strategy_size_bytes par_db s))
    strategies;
  List.iter
    (fun s ->
      List.iter
        (fun (name, twig) ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s under %s: parallel build answers" name (Database.strategy_name s))
            (Executor.run ~hint:(Tm_plan.Hint.Force s) seq_db twig).Executor.ids
            (Executor.run ~hint:(Tm_plan.Hint.Force s) par_db twig).Executor.ids)
        (Lazy.force xmark_twigs))
    strategies;
  let report = Tm_check.Check.check_database par_db in
  Alcotest.(check string) "fsck clean after parallel build" ""
    (if Tm_check.Check.is_clean report then "" else Tm_check.Check.report_to_string report)

(* ------------------------------------------------------------------ *)
(* Cancellation tokens under concurrency                               *)
(* ------------------------------------------------------------------ *)

module Cancel = Tm_par.Cancel

(* N domains race [set_deadline_ms]/[check] against one token: every
   domain must observe the trip (no lost cancellation), and the trip
   must classify exactly once — Deadline here, whatever the
   interleaving. *)
let test_cancel_concurrent_expiry () =
  for _round = 1 to 20 do
    let tok = Cancel.token () in
    let barrier = Atomic.make 0 in
    let domains =
      List.init 4 (fun i ->
          Domain.spawn (fun () ->
              Atomic.incr barrier;
              while Atomic.get barrier < 4 do
                Domain.cpu_relax ()
              done;
              if i = 0 then Cancel.set_deadline_ms tok 0.0;
              (* spin until this domain observes the trip *)
              let rec wait n =
                if Cancel.cancelled tok then n
                else begin
                  Domain.cpu_relax ();
                  wait (n + 1)
                end
              in
              let spins = wait 0 in
              (match Cancel.check tok with
              | () -> Alcotest.fail "check after trip must raise"
              | exception Cancel.Cancelled -> ());
              ignore spins;
              Cancel.reason tok))
    in
    let reasons = List.map Domain.join domains in
    List.iter
      (fun r ->
        match r with
        | Some Cancel.Deadline -> ()
        | Some Cancel.Explicit -> Alcotest.fail "deadline expiry misclassified as Explicit"
        | None -> Alcotest.fail "tripped token lost its classification")
      reasons
  done

(* Explicit cancel racing deadline expiry: both trip, but the reason is
   classified exactly once — it stays whatever won, never flips. *)
let test_cancel_exactly_once_classification () =
  for _round = 1 to 50 do
    let tok = Cancel.with_deadline_ms 0.05 in
    let d = Domain.spawn (fun () -> Cancel.cancel tok) in
    ignore (Cancel.cancelled tok);
    Domain.join d;
    (* settle: force whichever side lost the race to run too *)
    ignore (Cancel.cancelled tok);
    let first = Cancel.reason tok in
    Alcotest.(check bool) "classified" true (first <> None);
    for _ = 1 to 100 do
      ignore (Cancel.cancelled tok);
      Cancel.cancel tok
    done;
    Alcotest.(check bool) "classification is sticky" true (Cancel.reason tok = first)
  done

let test_cancel_parent_chain () =
  let parent = Cancel.token () in
  let child = Cancel.token ~parent () in
  Alcotest.(check bool) "child starts live" false (Cancel.cancelled child);
  Cancel.cancel parent;
  Alcotest.(check bool) "parent trip reaches child" true (Cancel.cancelled child);
  Alcotest.(check bool) "reason inherited" true (Cancel.reason child = Some Cancel.Explicit);
  (* and the other direction must NOT propagate *)
  let parent2 = Cancel.token () in
  let child2 = Cancel.token ~parent:parent2 () in
  Cancel.cancel child2;
  Alcotest.(check bool) "child trip stays below" false (Cancel.cancelled parent2)

(* ------------------------------------------------------------------ *)
(* Semaphore                                                           *)
(* ------------------------------------------------------------------ *)

module Semaphore = Tm_par.Semaphore

let test_semaphore_bounds () =
  let s = Semaphore.create 2 in
  Alcotest.(check bool) "1st" true (Semaphore.try_acquire s);
  Alcotest.(check bool) "2nd" true (Semaphore.try_acquire s);
  Alcotest.(check bool) "3rd refused" false (Semaphore.try_acquire s);
  Semaphore.release s;
  Alcotest.(check bool) "slot returns" true (Semaphore.try_acquire s);
  Semaphore.release s;
  Semaphore.release s;
  (match Semaphore.release s with
  | () -> Alcotest.fail "over-release must be rejected"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "await_idle on idle" true (Semaphore.await_idle ~timeout_ms:50.0 s)

let test_semaphore_concurrent () =
  let s = Semaphore.create 3 in
  let peak = Atomic.make 0 in
  let inside = Atomic.make 0 in
  let rec bump_peak v =
    let p = Atomic.get peak in
    if v > p && not (Atomic.compare_and_set peak p v) then bump_peak v
  in
  (* each domain makes 200 acquire/release pairs, retrying refusals *)
  let domains =
    List.init 6 (fun _ ->
        Domain.spawn (fun () ->
            let pairs = ref 0 in
            while !pairs < 200 do
              if Semaphore.try_acquire s then begin
                let v = Atomic.fetch_and_add inside 1 + 1 in
                bump_peak v;
                Domain.cpu_relax ();
                ignore (Atomic.fetch_and_add inside (-1));
                Semaphore.release s;
                incr pairs
              end
              else Domain.cpu_relax ()
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check bool) "never above capacity" true (Atomic.get peak <= 3);
  Alcotest.(check int) "all permits home" 0 (Semaphore.in_use s);
  Alcotest.(check bool) "idle after the storm" true (Semaphore.await_idle ~timeout_ms:100.0 s)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "map order" `Quick test_map_order;
          Alcotest.test_case "jobs=1 inline" `Quick test_map_inline;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "chunking" `Quick test_chunk;
        ] );
      ( "cancel",
        [
          Alcotest.test_case "concurrent expiry, exactly-once classification" `Quick
            test_cancel_concurrent_expiry;
          Alcotest.test_case "explicit vs deadline race is sticky" `Quick
            test_cancel_exactly_once_classification;
          Alcotest.test_case "parent chaining" `Quick test_cancel_parent_chain;
        ] );
      ( "semaphore",
        [
          Alcotest.test_case "bounds and over-release" `Quick test_semaphore_bounds;
          Alcotest.test_case "6 domains through 3 permits" `Quick test_semaphore_concurrent;
        ] );
      ( "stress",
        [
          Alcotest.test_case "4 domains hammer one database" `Quick test_hammer_shared_db;
          Alcotest.test_case "pool execution = sequential" `Quick test_pool_matches_sequential;
          Alcotest.test_case "pool record = sequential record" `Quick
            test_pool_record_matches_sequential;
        ] );
      ( "build",
        [
          Alcotest.test_case "parallel build = sequential build" `Quick
            test_parallel_build_equals_sequential;
        ] );
    ]
