(* Differential-testing oracle for parallel twig execution: random
   documents and random twigs (PC and AD edges, value predicates,
   '//'-heads), every buildable strategy checked against the naive
   in-memory evaluator — sequentially AND on a shared 4-domain pool,
   which must return the same sorted id set. Failures shrink to a
   minimal document + twig via a structural shrinker (drop branches,
   promote subtrees, weaken '//' to '/', drop predicates). *)

open Twigmatch
module T = Tm_xml.Xml_tree
module Twig = Tm_query.Twig
module Seed = Tm_testsupport.Seed

(* Pure ASTs: generated and shrunk as plain data, converted to the
   real document / twig representations inside the property. *)

type xast = Node of string * xast list | Text of string * string | Attr of string * string
type tast = { tag : string; eq : string option; kids : (Twig.axis * tast) list }

let tags = [ "a"; "b"; "c" ]
let values = [ "u"; "v"; "w" ]

let rec tree_of = function
  | Node (t, cs) -> T.elem t (List.map tree_of cs)
  | Text (t, v) -> T.elem_text t v
  | Attr (t, v) -> T.elem t [ T.attr "at" v ]

let doc_of roots = T.document (List.map tree_of roots)

let rec spec_of (t : tast) =
  Twig.spec ?value:t.eq t.tag (List.map (fun (ax, c) -> (ax, spec_of c)) t.kids)

(* The output node: the leaf ending the last-branch chain (same
   convention as test_random). *)
let rec mark (s : Twig.spec) =
  match s.Twig.s_branches with
  | [] -> { s with Twig.s_output = true }
  | branches ->
    let rec last_marked acc = function
      | [] -> assert false
      | [ (ax, c) ] -> List.rev ((ax, mark c) :: acc)
      | b :: rest -> last_marked (b :: acc) rest
    in
    { s with Twig.s_branches = last_marked [] branches }

let twig_of (root_axis, t) = Twig.make root_axis (mark (spec_of t))

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_doc =
  let open QCheck.Gen in
  let tag = oneofl tags and value = oneofl values in
  let rec node depth =
    if depth = 0 then map2 (fun t v -> Text (t, v)) tag value
    else
      frequency
        [
          (2, map2 (fun t v -> Text (t, v)) tag value);
          (1, map2 (fun t v -> Attr (t, v)) tag value);
          (3, map2 (fun t cs -> Node (t, cs)) tag (list_size (int_range 1 3) (node (depth - 1))));
        ]
  in
  list_size (int_range 1 2) (node 3)

let gen_twig =
  let open QCheck.Gen in
  let tag = oneofl ("at" :: tags) and value = oneofl values in
  let axis = frequency [ (3, return Twig.Child); (1, return Twig.Descendant) ] in
  let rec node depth =
    let* t = tag in
    let* eq = frequency [ (2, return None); (1, map Option.some value) ] in
    let* kids =
      if depth = 0 then return []
      else
        let* n = int_range 0 2 in
        list_repeat n (pair axis (node (depth - 1)))
    in
    return { tag = t; eq; kids }
  in
  pair axis (node 2)

(* ------------------------------------------------------------------ *)
(* Shrinkers                                                           *)
(* ------------------------------------------------------------------ *)

let rec shrink_xast x yield =
  match x with
  | Node (t, cs) ->
    List.iter yield cs;
    QCheck.Shrink.list ~shrink:shrink_xast cs (fun cs' -> yield (Node (t, cs')))
  | Text _ | Attr _ -> ()

let shrink_doc roots yield =
  QCheck.Shrink.list ~shrink:shrink_xast roots (fun rs -> if rs <> [] then yield rs)

let rec shrink_tast t yield =
  (match t.eq with Some _ -> yield { t with eq = None } | None -> ());
  List.iter (fun (_, c) -> yield c) t.kids;
  QCheck.Shrink.list
    ~shrink:(fun (ax, c) yield ->
      (match ax with Twig.Descendant -> yield (Twig.Child, c) | Twig.Child -> ());
      shrink_tast c (fun c' -> yield (ax, c')))
    t.kids
    (fun kids' -> yield { t with kids = kids' })

let shrink_case (roots, (ax, t)) yield =
  shrink_doc roots (fun rs -> yield (rs, (ax, t)));
  (match ax with Twig.Descendant -> yield (roots, (Twig.Child, t)) | Twig.Child -> ());
  shrink_tast t (fun t' -> yield (roots, (ax, t')))

let print_case (roots, rt) =
  Printf.sprintf "twig: %s\ndoc:  %s"
    (Twig.to_string (twig_of rt))
    (T.to_string (doc_of roots))

let arb_case =
  QCheck.make ~print:print_case ~shrink:shrink_case QCheck.Gen.(pair gen_doc gen_twig)

(* ------------------------------------------------------------------ *)
(* The property                                                        *)
(* ------------------------------------------------------------------ *)

let jobs = 4
let shared_pool = lazy (Tm_par.Pool.create ~jobs)

let () =
  at_exit (fun () -> if Lazy.is_val shared_pool then Tm_par.Pool.shutdown (Lazy.force shared_pool))

let ids_to_string ids = String.concat ";" (List.map string_of_int ids)

let prop_differential =
  QCheck.Test.make
    ~name:(Printf.sprintf "all strategies = naive oracle, sequential and jobs=%d" jobs)
    ~count:80 arb_case
    (fun (roots, rt) ->
      let doc = doc_of roots in
      let twig = twig_of rt in
      let db = Database.create doc in
      let expected = Tm_query.Naive.query doc twig in
      let pool = Lazy.force shared_pool in
      List.for_all
        (fun s ->
          let seq = (Executor.run ~hint:(Tm_plan.Hint.Force s) db twig).Executor.ids in
          let par = (Executor.run ~pool ~hint:(Tm_plan.Hint.Force s) db twig).Executor.ids in
          if seq <> expected then
            QCheck.Test.fail_reportf "sequential %s diverges from oracle on %s:\n  oracle [%s]\n  got    [%s]"
              (Database.strategy_name s) (Twig.to_string twig) (ids_to_string expected)
              (ids_to_string seq)
          else if par <> expected then
            QCheck.Test.fail_reportf "jobs=%d %s diverges from oracle on %s:\n  oracle [%s]\n  got    [%s]"
              jobs (Database.strategy_name s) (Twig.to_string twig) (ids_to_string expected)
              (ids_to_string par)
          else true)
        Database.all_strategies)

(* The cost-based planner must be invisible to correctness: whatever
   strategy, join order and mid-query replans [Hint.Auto] settles on,
   the ids must match the oracle — sequentially and on the shared
   pool. This is the planner's end-to-end safety net. *)
let prop_auto_hint =
  QCheck.Test.make
    ~name:(Printf.sprintf "Hint.Auto = naive oracle, sequential and jobs=%d" jobs)
    ~count:80 arb_case
    (fun (roots, rt) ->
      let doc = doc_of roots in
      let twig = twig_of rt in
      let db = Database.create doc in
      let expected = Tm_query.Naive.query doc twig in
      let pool = Lazy.force shared_pool in
      let seq = Executor.run ~hint:Tm_plan.Hint.Auto db twig in
      let par = Executor.run ~pool ~hint:Tm_plan.Hint.Auto db twig in
      if seq.Executor.ids <> expected then
        QCheck.Test.fail_reportf
          "auto (chose %s) diverges from oracle on %s:\n  oracle [%s]\n  got    [%s]"
          (Database.strategy_name seq.Executor.strategy)
          (Twig.to_string twig) (ids_to_string expected)
          (ids_to_string seq.Executor.ids)
      else if par.Executor.ids <> expected then
        QCheck.Test.fail_reportf
          "auto jobs=%d (chose %s) diverges from oracle on %s:\n  oracle [%s]\n  got    [%s]"
          jobs
          (Database.strategy_name par.Executor.strategy)
          (Twig.to_string twig) (ids_to_string expected)
          (ids_to_string par.Executor.ids)
      else true)

(* A pool made for one query and shut down after it must agree too: it
   is what the CLI does for a single query run with --jobs. One case per
   run is enough — the pool spawn dominates the runtime. *)
let prop_ephemeral_pool =
  QCheck.Test.make ~name:"ephemeral with_pool = oracle" ~count:8 arb_case
    (fun (roots, rt) ->
      let doc = doc_of roots in
      let twig = twig_of rt in
      let db = Database.create ~strategies:Database.[ RP; DP ] doc in
      let expected = Tm_query.Naive.query doc twig in
      let ids s pool = (Executor.run ~pool ~hint:(Tm_plan.Hint.Force s) db twig).Executor.ids in
      Tm_par.Pool.with_pool ~jobs (ids Database.RP) = expected
      && Tm_par.Pool.with_pool ~jobs (ids Database.DP) = expected)

let () =
  Alcotest.run "differential"
    [
      ( "oracle",
        [
          Seed.to_alcotest prop_differential;
          Seed.to_alcotest prop_auto_hint;
          Seed.to_alcotest prop_ephemeral_pool;
        ] );
    ]
