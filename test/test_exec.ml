(* Tests for the execution primitives: binding relations and joins.
   hash_join and merge_join are checked against a reference nested-loop
   natural join with qcheck-generated inputs. *)

open Tm_exec

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let rel cols rows = Relation.create (Array.of_list cols) (List.map Array.of_list rows)

let rows_sorted r = List.sort compare (List.map Array.to_list r.Relation.rows)

let test_distinct_columns () =
  let r = rel [ 1; 2; 3 ] [ [ 10; 20; 30 ]; [ 10; 21; 30 ]; [ 10; 20; 30 ] ] in
  check Alcotest.(list (list int)) "distinct" [ [ 10; 20; 30 ]; [ 10; 21; 30 ] ]
    (rows_sorted (Relation.distinct r));
  check Alcotest.(list int) "column values" [ 20; 21 ] (Relation.column_values r 2)

let test_hash_join_basic () =
  let a = rel [ 1; 2 ] [ [ 1; 10 ]; [ 2; 20 ]; [ 3; 30 ] ] in
  let b = rel [ 2; 3 ] [ [ 10; 100 ]; [ 10; 101 ]; [ 30; 300 ] ] in
  let j = Relation.hash_join a b in
  check Alcotest.(list int) "columns" [ 1; 2; 3 ] (Array.to_list (Relation.columns j));
  check
    Alcotest.(list (list int))
    "rows"
    [ [ 1; 10; 100 ]; [ 1; 10; 101 ]; [ 3; 30; 300 ] ]
    (rows_sorted j)

let test_merge_join_equals_hash () =
  let a = rel [ 1; 2 ] [ [ 1; 10 ]; [ 2; 10 ]; [ 3; 30 ] ] in
  let b = rel [ 2 ] [ [ 10 ]; [ 10 ]; [ 40 ] ] in
  check
    Alcotest.(list (list int))
    "same result"
    (rows_sorted (Relation.hash_join a b))
    (rows_sorted (Relation.merge_join a b))

let test_join_on_multiple_columns () =
  let a = rel [ 1; 2 ] [ [ 1; 10 ]; [ 1; 11 ] ] in
  let b = rel [ 1; 2; 3 ] [ [ 1; 10; 7 ]; [ 1; 12; 8 ] ] in
  let j = Relation.hash_join a b in
  check Alcotest.(list (list int)) "joined on both" [ [ 1; 10; 7 ] ] (rows_sorted j)

let test_join_callbacks () =
  let a = rel [ 1 ] [ [ 1 ]; [ 2 ] ] in
  let b = rel [ 1 ] [ [ 1 ]; [ 1 ]; [ 3 ] ] in
  let results = ref 0 and merged = ref 0 in
  ignore (Relation.hash_join ~on_result:(fun () -> incr results) a b);
  ignore (Relation.merge_join ~on_result:(fun () -> incr merged) a b);
  check Alcotest.int "hash results" 2 !results;
  check Alcotest.int "merge results" 2 !merged

(* Reference natural join. *)
let nested_loop_join a b =
  let shared = Relation.shared_columns a b in
  let a_idx = List.map (fun c -> Option.get (Relation.column_index a c)) shared in
  let b_idx = List.map (fun c -> Option.get (Relation.column_index b c)) shared in
  let b_extra =
    Array.to_list (Relation.columns b) |> List.filter (fun c -> not (List.mem c shared))
  in
  let b_extra_idx = List.map (fun c -> Option.get (Relation.column_index b c)) b_extra in
  List.concat_map
    (fun arow ->
      List.filter_map
        (fun brow ->
          if List.map (fun i -> arow.(i)) a_idx = List.map (fun i -> brow.(i)) b_idx then
            Some (Array.append arow (Array.of_list (List.map (fun i -> brow.(i)) b_extra_idx)))
          else None)
        b.Relation.rows)
    a.Relation.rows
  |> List.map Array.to_list |> List.sort compare

let gen_rel cols =
  QCheck.Gen.(
    map
      (fun rows -> rel cols rows)
      (list_size (int_range 0 20) (flatten_l (List.map (fun _ -> int_bound 4) cols))))

let prop_joins_match_reference =
  let gen =
    QCheck.make
      QCheck.Gen.(pair (gen_rel [ 1; 2 ]) (gen_rel [ 2; 3 ]))
  in
  QCheck.Test.make ~name:"hash and merge join match nested-loop reference" ~count:200 gen
    (fun (a, b) ->
      let reference = nested_loop_join a b in
      rows_sorted (Relation.hash_join a b) = reference
      && rows_sorted (Relation.merge_join a b) = reference)

let prop_join_no_shared_is_cross_product =
  let gen = QCheck.make QCheck.Gen.(pair (gen_rel [ 1 ]) (gen_rel [ 2 ])) in
  QCheck.Test.make ~name:"join without shared columns = cross product" ~count:50 gen
    (fun (a, b) ->
      Relation.cardinality (Relation.hash_join a b)
      = Relation.cardinality a * Relation.cardinality b)

let test_stats () =
  let s = Stats.create () in
  s.Stats.index_lookups <- 3;
  s.Stats.join_steps <- 1;
  let s2 = Stats.create () in
  Stats.merge_into ~into:s2 s;
  Stats.merge_into ~into:s2 s;
  check Alcotest.int "merged lookups" 6 s2.Stats.index_lookups;
  check Alcotest.int "merged joins" 2 s2.Stats.join_steps;
  check Alcotest.bool "pp" true (String.length (Format.asprintf "%a" Stats.pp s2) > 0)

(* The domain-local record: increments land in the innermost installed
   record, the outer one resumes afterwards, and allocation is charged
   to the innermost record only. *)
let test_installed_record () =
  let outer = Stats.create () and inner = Stats.create () in
  let bump () =
    let q = Stats.current () in
    q.Stats.entries_scanned <- q.Stats.entries_scanned + 1
  in
  Stats.with_record outer (fun () ->
      bump ();
      Stats.with_record inner (fun () ->
          bump ();
          bump ();
          ignore (Sys.opaque_identity (List.init 10_000 Fun.id)));
      bump ();
      check Alcotest.int "delta since a snapshot" 1
        (let s0 = Stats.snapshot () in
         bump ();
         (Stats.since s0).Stats.entries_scanned));
  check Alcotest.int "outer record" 3 outer.Stats.entries_scanned;
  check Alcotest.int "inner record" 2 inner.Stats.entries_scanned;
  check Alcotest.bool "inner allocation charged to inner" true (inner.Stats.minor_words >= 30_000);
  check Alcotest.bool "not charged to outer too" true (outer.Stats.minor_words < 30_000);
  check Alcotest.bool "uninstalled afterwards" true (Stats.current () != outer)

let suite =
  [
    ( "relation",
      [
        Alcotest.test_case "distinct/columns" `Quick test_distinct_columns;
        Alcotest.test_case "hash join" `Quick test_hash_join_basic;
        Alcotest.test_case "merge = hash" `Quick test_merge_join_equals_hash;
        Alcotest.test_case "multi-column join" `Quick test_join_on_multiple_columns;
        Alcotest.test_case "join callbacks" `Quick test_join_callbacks;
        qtest prop_joins_match_reference;
        qtest prop_join_no_shared_is_cross_product;
      ] );
    ( "stats",
      [
        Alcotest.test_case "accumulate" `Quick test_stats;
        Alcotest.test_case "installed record" `Quick test_installed_record;
      ] );
  ]

let () = Alcotest.run "tm_exec" suite
