(* End-to-end integration tests: every indexing strategy must return
   exactly the naive matcher's answer, for every workload query, on
   both generated datasets, including the recursive ([//]) variants.
   This is the repository's main correctness gate. *)

open Twigmatch

module T = Tm_xml.Xml_tree

let strategies = Database.all_strategies

module Astring_contains = struct
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
end

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

let check_all_strategies db doc xpath =
  let twig = Tm_query.Xpath_parser.parse xpath in
  let expected = Tm_query.Naive.query doc twig in
  List.iter
    (fun s ->
      let got = (Executor.run ~hint:(Tm_plan.Hint.Force s) db twig).Executor.ids in
      Alcotest.(check (list int))
        (Printf.sprintf "%s on %s" (Database.strategy_name s) xpath)
        expected got)
    strategies

let test_book_example () =
  let doc = book_doc () in
  let db = Database.create doc in
  List.iter (check_all_strategies db doc)
    [
      "/book";
      "/book/title";
      "/book/title[. = 'XML']";
      "//author";
      "//author[fn = 'jane']";
      "//author[fn = 'jane'][ln = 'doe']";
      "/book[title = 'XML']//author[fn = 'jane'][ln = 'doe']";
      "//title[. = 'XML']";
      "/book//title[. = 'XML']";
      "/book/chapter/section/head";
      "//section[head = 'Origins']";
      "/book[year = '2000']/allauthors/author[fn = 'john']";
      "/book[year = '1999']/allauthors/author";
      "//missing_tag";
      "//author[fn = 'nobody']";
    ]

let test_wildcards () =
  let doc = book_doc () in
  let db = Database.create doc in
  List.iter (check_all_strategies db doc)
    [
      "/book/*";
      "//*[fn = 'jane']";
      "/book/*/author";
      "/book/*/author[ln = 'doe']";
      "//author/*[. = 'jane']";
      "/*/allauthors";
      "//*[. = 'XML']";
      "/book[*/author/fn = 'john']/title";
      "//*";
      "/book//*[head = 'Origins']";
    ]

let test_ranges () =
  let doc = book_doc () in
  let db = Database.create doc in
  List.iter (check_all_strategies db doc)
    [
      "/book/allauthors/author/fn[. >= 'jane']";
      "/book/allauthors/author/fn[. > 'jane']";
      "//fn[. < 'john']";
      "//fn[. <= 'jane']";
      "//author[fn >= 'j'][fn < 'k']";
      "//author[ln >= 'd'][ln <= 'e']";
      "/book[year >= '1990']//author[fn = 'jane']";
      "//fn[. >= 'a'][. <= 'zzz']";
      "//fn[. >= 'zzz']";
      "//*[. >= 'jane'][. <= 'jane']";
    ]

(* Figure 1(c): the paper's example twig; author ids under the book. *)
let test_paper_twig_result () =
  let doc = book_doc () in
  let db = Database.create doc in
  let twig = Tm_query.Xpath_parser.parse "/book[title = 'XML']//author[fn = 'jane'][ln = 'doe']" in
  let expected = Tm_query.Naive.query doc twig in
  Alcotest.(check int) "exactly one matching author" 1 (List.length expected);
  List.iter
    (fun s ->
      Alcotest.(check (list int))
        (Database.strategy_name s) expected
        (Executor.run ~hint:(Tm_plan.Hint.Force s) db twig).Executor.ids)
    strategies

let xmark_doc = lazy (Tm_datasets.Xmark_gen.generate { Tm_datasets.Xmark_gen.seed = 11; scale = 0.05 })
let dblp_doc = lazy (Tm_datasets.Dblp_gen.generate { Tm_datasets.Dblp_gen.seed = 11; scale = 0.02 })
let xmark_db = lazy (Database.create (Lazy.force xmark_doc))
let dblp_db = lazy (Database.create (Lazy.force dblp_doc))

let doc_and_db = function
  | Tm_datasets.Workload.Xmark -> (Lazy.force xmark_doc, Lazy.force xmark_db)
  | Tm_datasets.Workload.Dblp -> (Lazy.force dblp_doc, Lazy.force dblp_db)

let test_workload_query (q : Tm_datasets.Workload.query) () =
  let doc, db = doc_and_db q.Tm_datasets.Workload.dataset in
  check_all_strategies db doc q.Tm_datasets.Workload.xpath

let test_recursive_variant (q : Tm_datasets.Workload.query) () =
  let doc, db = doc_and_db q.Tm_datasets.Workload.dataset in
  let rq = Tm_datasets.Workload.recursive_variant q in
  check_all_strategies db doc rq.Tm_datasets.Workload.xpath;
  (* Sanity: the recursive variant returns the same answer as the
     original (the leading element is a document root). *)
  let twig = Tm_datasets.Workload.parse q in
  let rtwig = Tm_datasets.Workload.parse rq in
  Alcotest.(check (list int))
    (q.Tm_datasets.Workload.name ^ " recursive-equals-plain")
    (Tm_query.Naive.query doc twig)
    (Tm_query.Naive.query doc rtwig)

let test_optimizer_choices () =
  (* a larger dataset so the selectivity classes are unambiguous *)
  let doc = Tm_datasets.Xmark_gen.generate { Tm_datasets.Xmark_gen.seed = 42; scale = 0.25 } in
  let db = Database.create ~strategies:Database.[ RP; DP ] doc in
  let choice name =
    (Executor.plan db (Tm_datasets.Workload.parse (Tm_datasets.Workload.find name)))
      .Tm_plan.Plan.strategy
  in
  (* single path -> RP *)
  Alcotest.(check string) "Q2x" "RP" (Database.strategy_name (choice "Q2x"));
  (* one rare branch + big trunk -> INLJ *)
  Alcotest.(check string) "Q10x" "DP" (Database.strategy_name (choice "Q10x"));
  Alcotest.(check string) "Q12x" "DP" (Database.strategy_name (choice "Q12x"));
  (* equally (un)selective branches -> merge join; the paper's
     Figure 12(a)/(c) observation that INLJ cannot be exploited there.
     (Q9x itself is borderline - its cheapest branch is several times
     smaller than the others - so we assert the clear-cut case.) *)
  let equal_branches =
    Tm_query.Xpath_parser.parse
      "/site[people/person/profile/@income = '9876.00'][people/person/profile/education = 'College']"
  in
  Alcotest.(check string) "equal branches" "RP"
    (Database.strategy_name (Executor.plan db equal_branches).Tm_plan.Plan.strategy)

let test_auto_hint_correct () =
  let doc, db = doc_and_db Tm_datasets.Workload.Xmark in
  List.iter
    (fun name ->
      let twig = Tm_datasets.Workload.parse (Tm_datasets.Workload.find name) in
      let r = Executor.run ~hint:Tm_plan.Hint.Auto db twig in
      Alcotest.(check (list int)) ("auto " ^ name) (Tm_query.Naive.query doc twig) r.Executor.ids)
    [ "Q2x"; "Q5x"; "Q9x"; "Q10x"; "Q12x"; "Q14x" ]

let test_explain () =
  let _, db = doc_and_db Tm_datasets.Workload.Xmark in
  let twig = Tm_datasets.Workload.parse (Tm_datasets.Workload.find "Q10x") in
  let text = Executor.explain ~hint:(Tm_plan.Hint.Force Database.DP) db twig in
  List.iter
    (fun needle ->
      if not (Astring_contains.contains text needle) then
        Alcotest.failf "explain output missing %S:\n%s" needle text)
    [ "strategy: DP"; "path 1"; "est." ]

let test_tiny_buffer_pool () =
  (* correctness must survive heavy page eviction: build and query with
     a pool of 8 frames (64 KiB) — every index build and scan thrashes *)
  let doc = Tm_datasets.Xmark_gen.generate { Tm_datasets.Xmark_gen.seed = 11; scale = 0.03 } in
  let db = Database.create ~pool_capacity:8 doc in
  List.iter
    (fun xpath ->
      let twig = Tm_query.Xpath_parser.parse xpath in
      let expected = Tm_query.Naive.query doc twig in
      List.iter
        (fun s ->
          Alcotest.(check (list int))
            (Printf.sprintf "tiny pool: %s under %s" xpath (Database.strategy_name s))
            expected
            (Executor.run ~hint:(Tm_plan.Hint.Force s) db twig).Executor.ids)
        strategies)
    [
      "/site/regions/namerica/item/quantity[. = '1']";
      "//item[quantity = '2'][location = 'United States']";
      "/site/open_auctions/open_auction[annotation/author/@person = 'person22082']/time";
    ];
  (* evictions actually happened *)
  let s = Tm_storage.Buffer_pool.stats db.Database.pool in
  if s.Tm_storage.Buffer_pool.evictions = 0 then Alcotest.fail "expected evictions"

let test_results_nonempty () =
  (* Guard against vacuous green tests: the headline queries must
     actually select something in the scaled datasets. *)
  let doc, _ = doc_and_db Tm_datasets.Workload.Xmark in
  List.iter
    (fun name ->
      let q = Tm_datasets.Workload.find name in
      let n = List.length (Tm_query.Naive.query doc (Tm_datasets.Workload.parse q)) in
      if n = 0 then Alcotest.failf "%s returned no results on the test dataset" name)
    [ "Q1x"; "Q3x"; "Q8x"; "Q10x"; "Q14x" ]

(* IF+Edge answers a range path from the Index Fabric's own range scan,
   so it makes no Edge value-index lookup for it; DG+Edge still joins
   the DataGuide's leaves with that lookup. Equality paths cost the
   same as before either way. *)
let test_guide_range_lookups () =
  let doc = Tm_datasets.Xmark_gen.generate { Tm_datasets.Xmark_gen.seed = 42; scale = 0.05 } in
  let db = Database.create ~strategies:Database.[ DG_edge; IF_edge ] doc in
  List.iter
    (fun (xpath, s, rows, lookups) ->
      let twig = Tm_query.Xpath_parser.parse xpath in
      let r = Executor.run ~hint:(Tm_plan.Hint.Force s) db twig in
      let label = Printf.sprintf "%s under %s" xpath (Database.strategy_name s) in
      Alcotest.(check (list int)) label (Tm_query.Naive.query doc twig) r.Executor.ids;
      Alcotest.(check int) (label ^ ": rows") rows (List.length r.Executor.ids);
      Alcotest.(check int) (label ^ ": index lookups") lookups
        r.Executor.stats.Tm_exec.Stats.index_lookups)
    Database.
      [
        ("/site/regions//item[quantity >= '2']/name", IF_edge, 32, 186);
        ("/site/regions//item[quantity >= '2']/name", DG_edge, 32, 219);
        ("/site/regions//item[quantity = '2']/name", IF_edge, 10, 164);
        ("/site/regions//item[quantity = '2']/name", DG_edge, 10, 175);
      ]

let workload_cases =
  List.map
    (fun (q : Tm_datasets.Workload.query) ->
      Alcotest.test_case q.Tm_datasets.Workload.name `Slow (test_workload_query q))
    Tm_datasets.Workload.all

let recursive_cases =
  List.map
    (fun (q : Tm_datasets.Workload.query) ->
      Alcotest.test_case (q.Tm_datasets.Workload.name ^ "r") `Slow (test_recursive_variant q))
    (List.filter
       (fun (q : Tm_datasets.Workload.query) ->
         (* leading-// variants of the branch-sweep queries, Section 5.2.4 *)
         List.mem q.Tm_datasets.Workload.name [ "Q4x"; "Q5x"; "Q6x"; "Q7x"; "Q8x"; "Q9x" ])
       Tm_datasets.Workload.all)

let () =
  Alcotest.run "engine"
    [
      ( "paper-example",
        [
          Alcotest.test_case "book twig queries, all strategies" `Quick test_book_example;
          Alcotest.test_case "wildcard steps, all strategies" `Quick test_wildcards;
          Alcotest.test_case "range predicates, all strategies" `Quick test_ranges;
          Alcotest.test_case "figure 1(c) twig" `Quick test_paper_twig_result;
        ] );
      ("workload", workload_cases);
      ("recursive", recursive_cases);
      ( "optimizer",
        [
          Alcotest.test_case "plan picks the paper's winners" `Slow test_optimizer_choices;
          Alcotest.test_case "Auto hint matches oracle" `Slow test_auto_hint_correct;
          Alcotest.test_case "explain" `Slow test_explain;
        ] );
      ( "sanity",
        [
          Alcotest.test_case "headline results nonempty" `Quick test_results_nonempty;
          Alcotest.test_case "tiny buffer pool (eviction stress)" `Slow test_tiny_buffer_pool;
          Alcotest.test_case "IF+Edge range paths skip the value index" `Quick
            test_guide_range_lookups;
        ] );
    ]
