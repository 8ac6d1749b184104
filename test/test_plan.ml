(* Unit and integration tests for the cost-based planner (Tm_plan):
   hint parsing, shape normalization, the cost model's crossover, the
   plan cache (hit / miss / generation invalidation / FIFO eviction),
   and the >10x mid-query replan trigger — provoked deterministically
   through the "plan.estimate" failpoint, with the answers checked
   against the naive oracle throughout. *)

open Twigmatch
module T = Tm_xml.Xml_tree
module Twig = Tm_query.Twig
module Hint = Tm_plan.Hint
module Plan = Tm_plan.Plan
module Planner = Tm_plan.Planner
module Cost = Tm_plan.Cost
module Cache = Tm_plan.Cache
module Fault = Tm_fault.Fault

let check = Alcotest.(check)

(* ------------------------------------------------------------------ *)
(* Hint parsing                                                        *)
(* ------------------------------------------------------------------ *)

let test_hint_of_string () =
  (match Hint.of_string "auto" with
  | Ok Hint.Auto -> ()
  | _ -> Alcotest.fail "\"auto\" must parse as Auto");
  (match Hint.of_string "RP" with
  | Ok (Hint.Force Database.RP) -> ()
  | _ -> Alcotest.fail "bare strategy name must parse as Force");
  (match Hint.of_string "force:DP" with
  | Ok (Hint.Force Database.DP) -> ()
  | _ -> Alcotest.fail "\"force:DP\" must parse as Force DP");
  (match Hint.of_string "force:JI" with
  | Ok (Hint.Force Database.Ji) -> ()
  | _ -> Alcotest.fail "\"force:JI\" must parse as Force Ji");
  match Hint.of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown hint must be rejected"

let test_hint_round_trip () =
  List.iter
    (fun h ->
      match Hint.of_string (Hint.to_string h) with
      | Ok h' when h = h' -> ()
      | _ -> Alcotest.failf "hint %s does not round-trip" (Hint.to_string h))
    (Hint.Auto :: List.map (fun s -> Hint.Force s) Database.all_strategies)

(* ------------------------------------------------------------------ *)
(* Shape normalization                                                 *)
(* ------------------------------------------------------------------ *)

let spec = Twig.spec

let test_shape_normalization () =
  (* constants are erased: same shape for different predicate values *)
  let valued v =
    Twig.make Twig.Descendant (spec "a" [ (Twig.Child, spec ~value:v ~output:true "b" []) ])
  in
  check Alcotest.string "value literals erased" (Twig.shape (valued "u")) (Twig.shape (valued "w"));
  (* sibling branch order is canonicalized *)
  let b = (Twig.Child, spec ~output:true "b" []) and c = (Twig.Child, spec "c" []) in
  let bc = Twig.make Twig.Child (spec "a" [ b; c ]) in
  let cb = Twig.make Twig.Child (spec "a" [ c; b ]) in
  check Alcotest.string "branch order canonical" (Twig.shape bc) (Twig.shape cb);
  (* but the axis, the predicate's existence and the output marker matter *)
  let ad = Twig.make Twig.Child (spec "a" [ (Twig.Descendant, spec ~output:true "b" []) ]) in
  let pc = Twig.make Twig.Child (spec "a" [ b ]) in
  check Alcotest.bool "axis distinguishes shapes" false (Twig.shape ad = Twig.shape pc);
  let pred =
    Twig.make Twig.Child (spec "a" [ (Twig.Child, spec ~value:"u" ~output:true "b" []) ])
  in
  check Alcotest.bool "predicate kind distinguishes shapes" false
    (Twig.shape pred = Twig.shape pc)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let test_cost_crossover () =
  let built = [ Database.RP; Database.DP ] in
  (* uniform branches: RP's merge scan is cheaper than DP's probes *)
  let s, _, _, _ = Cost.choose { Cost.ests = [| 100; 100 |]; lens = [| 2; 2 |] } ~built in
  check Alcotest.string "uniform -> RP" "RP" (Database.strategy_name s);
  (* one highly selective branch: DP drives from it and INLJ wins *)
  let s, _, _, _ = Cost.choose { Cost.ests = [| 1000; 2 |]; lens = [| 2; 2 |] } ~built in
  check Alcotest.string "skewed -> DP" "DP" (Database.strategy_name s);
  (* ties break by rank: RP before DP *)
  let s, _, _, _ = Cost.choose { Cost.ests = [| 1 |]; lens = [| 1 |] } ~built in
  check Alcotest.string "single path -> RP by rank" "RP" (Database.strategy_name s)

let test_join_order () =
  let order = Cost.join_order [| 50; 3; 17 |] in
  check Alcotest.(list int) "driver first, ascending estimates" [ 1; 2; 0 ]
    (Array.to_list order)

let test_should_replan_threshold () =
  (* floor: tiny estimates never trigger on small absolute misses *)
  check Alcotest.bool "1 -> 30 stays" false (Planner.should_replan ~est:1 ~actual:30);
  check Alcotest.bool "1 -> 161 replans" true (Planner.should_replan ~est:1 ~actual:161);
  (* factor: strictly more than 10x above the floor *)
  check Alcotest.bool "100 -> 1000 stays" false (Planner.should_replan ~est:100 ~actual:1000);
  check Alcotest.bool "100 -> 1001 replans" true (Planner.should_replan ~est:100 ~actual:1001)

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)
(* ------------------------------------------------------------------ *)

let book_doc () =
  T.document
    [
      T.elem "book"
        [
          T.elem "allauthors"
            [ T.elem "author" [ T.elem_text "fn" "jane"; T.elem_text "ln" "doe" ] ];
          T.elem_text "year" "2000";
        ];
    ]

let author_twig () =
  Twig.make Twig.Descendant
    (spec "author" [ (Twig.Child, spec "fn" []); (Twig.Child, spec ~output:true "ln" []) ])

let test_cache_hit_miss () =
  Cache.clear ();
  Cache.reset_stats ();
  let db = Database.create (book_doc ()) in
  let twig = author_twig () in
  let r1 = Executor.run ~hint:Hint.Auto db twig in
  check Alcotest.bool "first plan is fresh" false r1.Executor.plan.Plan.cached;
  let r2 = Executor.run ~hint:Hint.Auto db twig in
  check Alcotest.bool "second plan served from cache" true r2.Executor.plan.Plan.cached;
  check Alcotest.string "same strategy both times"
    (Database.strategy_name r1.Executor.strategy)
    (Database.strategy_name r2.Executor.strategy);
  let s = Cache.stats () in
  check Alcotest.bool "a hit was counted" true (s.Cache.hits >= 1);
  check Alcotest.bool "a miss was counted" true (s.Cache.misses >= 1)

let test_cache_invalidation_on_update () =
  Cache.clear ();
  let db = Database.create (book_doc ()) in
  let twig = author_twig () in
  let g0 = Database.generation db in
  let r1 = Executor.run ~hint:Hint.Auto db twig in
  let allauthors =
    match (Executor.run ~hint:(Hint.Force Database.RP) db
             (Twig.make Twig.Descendant (spec ~output:true "allauthors" [])))
            .Executor.ids
    with
    | id :: _ -> id
    | [] -> Alcotest.fail "no allauthors node"
  in
  ignore
    (Updates.insert_subtree db ~parent:allauthors
       (T.elem "author" [ T.elem_text "fn" "john"; T.elem_text "ln" "poe" ]));
  check Alcotest.bool "update mints a fresh generation" true (Database.generation db <> g0);
  let r2 = Executor.run ~hint:Hint.Auto db twig in
  check Alcotest.bool "post-update plan is fresh, not cached" false
    r2.Executor.plan.Plan.cached;
  (* and the new plan sees the new data: two authors now *)
  check Alcotest.int "replanned query answers over updated data" 2
    (List.length r2.Executor.ids);
  check Alcotest.int "pre-update plan saw one author" 1 (List.length r1.Executor.ids)

let test_cache_fifo_eviction () =
  Cache.clear ();
  let cap = Cache.capacity () in
  Cache.set_capacity 2;
  Fun.protect
    ~finally:(fun () -> Cache.set_capacity cap)
    (fun () ->
      let p shape = Plan.trivial ~shape ~strategy:Database.RP "test" in
      Cache.store ~generation:1 ~shape:"s1" (p "s1");
      Cache.store ~generation:1 ~shape:"s2" (p "s2");
      Cache.store ~generation:1 ~shape:"s3" (p "s3");
      check Alcotest.bool "oldest evicted" true (Cache.find ~generation:1 ~shape:"s1" = None);
      check Alcotest.bool "newest kept" true (Cache.find ~generation:1 ~shape:"s3" <> None);
      Cache.invalidate ~generation:1;
      check Alcotest.bool "invalidate drops the generation" true
        (Cache.find ~generation:1 ~shape:"s3" = None))

(* ------------------------------------------------------------------ *)
(* Mid-query replan trigger (via the plan.estimate failpoint)          *)
(* ------------------------------------------------------------------ *)

(* 200 'a' elements, each with a 'b' and a 'c' child: every linear path
   of a[b][c] yields 200 rows, while the armed failpoint makes the
   planner estimate ~1 — far past the >10x trigger. *)
let wide_doc () =
  T.document
    [
      T.elem "r"
        (List.init 200 (fun i ->
             T.elem "a" [ T.elem_text "b" (string_of_int i); T.elem_text "c" "v" ]));
    ]

let wide_twig () =
  Twig.make Twig.Descendant
    (spec "a" [ (Twig.Child, spec "b" []); (Twig.Child, spec ~output:true "c" []) ])

let with_skewed_estimates f =
  Fault.inject ~site:Tm_plan.Estimate.failpoint (Fault.Every 1);
  Fun.protect ~finally:(fun () -> Fault.clear ~site:Tm_plan.Estimate.failpoint ()) f

let test_replan_triggers_and_stays_correct () =
  Cache.clear ();
  let doc = wide_doc () in
  let db = Database.create doc in
  let twig = wide_twig () in
  let expected = Tm_query.Naive.query doc twig in
  check Alcotest.int "oracle sees every c" 200 (List.length expected);
  with_skewed_estimates (fun () ->
      let r = Executor.run ~hint:Hint.Auto db twig in
      check Alcotest.bool "blown estimate triggered a replan" true (r.Executor.replans >= 1);
      check Alcotest.bool "replans are capped" true
        (r.Executor.replans <= Planner.max_replans);
      check Alcotest.(list int) "ids identical to the oracle" expected r.Executor.ids;
      check Alcotest.int "stats count the abandonments" r.Executor.replans
        r.Executor.stats.Tm_exec.Stats.replans;
      (* the final plan carries the observed cardinality, not the
         skewed estimate *)
      check Alcotest.bool "final plan estimate was corrected" true
        (r.Executor.plan.Plan.est_rows >= 100))

let test_replan_recorded_in_journal () =
  Cache.clear ();
  let doc = wide_doc () in
  let db = Database.create doc in
  let twig = wide_twig () in
  Tm_obs.Journal.with_enabled true (fun () ->
      Tm_obs.Journal.clear ();
      with_skewed_estimates (fun () -> ignore (Executor.run ~hint:Hint.Auto db twig));
      match Tm_obs.Journal.entries () with
      | [ e ] ->
        check Alcotest.bool "journal records the replans" true
          (e.Tm_obs.Journal.j_stats.Tm_exec.Stats.replans >= 1);
        (match e.Tm_obs.Journal.j_est_rows with
        | Some _ -> ()
        | None -> Alcotest.fail "journal completion carries the estimate");
        check Alcotest.int "journal rows" 200 e.Tm_obs.Journal.j_rows
      | es -> Alcotest.failf "expected one journal entry, got %d" (List.length es))

let test_forced_hint_never_replans () =
  Cache.clear ();
  let doc = wide_doc () in
  let db = Database.create doc in
  let twig = wide_twig () in
  let expected = Tm_query.Naive.query doc twig in
  with_skewed_estimates (fun () ->
      List.iter
        (fun s ->
          let r = Executor.run ~hint:(Hint.Force s) db twig in
          check Alcotest.int "forced plans never adapt" 0 r.Executor.replans;
          check Alcotest.(list int) "forced ids = oracle" expected r.Executor.ids)
        [ Database.RP; Database.DP; Database.Ji ])

let test_pinned_plan_runs_verbatim () =
  Cache.clear ();
  let doc = wide_doc () in
  let db = Database.create doc in
  let twig = wide_twig () in
  let expected = Tm_query.Naive.query doc twig in
  (* obtain a plan under skewed estimates, then pin it: it must run
     as-is — same strategy, no adaptivity — even though its estimates
     are absurd *)
  with_skewed_estimates (fun () ->
      let planned = Executor.run ~hint:Hint.Auto db twig in
      let pin = planned.Executor.plan in
      let r = Executor.run ~hint:(Hint.Pin pin) db twig in
      check Alcotest.int "pinned plans never adapt" 0 r.Executor.replans;
      check Alcotest.string "pinned strategy honoured"
        (Database.strategy_name pin.Plan.strategy)
        (Database.strategy_name r.Executor.strategy);
      check Alcotest.(list int) "pinned ids = oracle" expected r.Executor.ids)

let () =
  Alcotest.run "plan"
    [
      ( "hint",
        [
          Alcotest.test_case "of_string" `Quick test_hint_of_string;
          Alcotest.test_case "round trip" `Quick test_hint_round_trip;
        ] );
      ( "shape",
        [ Alcotest.test_case "normalization" `Quick test_shape_normalization ] );
      ( "cost",
        [
          Alcotest.test_case "crossover" `Quick test_cost_crossover;
          Alcotest.test_case "join order" `Quick test_join_order;
          Alcotest.test_case "replan threshold" `Quick test_should_replan_threshold;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit and miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "invalidation on update" `Quick test_cache_invalidation_on_update;
          Alcotest.test_case "fifo eviction" `Quick test_cache_fifo_eviction;
        ] );
      ( "replan",
        [
          Alcotest.test_case "triggers and stays correct" `Quick
            test_replan_triggers_and_stays_correct;
          Alcotest.test_case "recorded in journal" `Quick test_replan_recorded_in_journal;
          Alcotest.test_case "forced never replans" `Quick test_forced_hint_never_replans;
          Alcotest.test_case "pinned runs verbatim" `Quick test_pinned_plan_runs_verbatim;
        ] );
    ]
