(* Tests for Tm_analyze (the typedtree analyzer): each fixture module
   under fixtures_analyze/ seeds one violation class, and every pass
   must detect its class with file/line provenance; the clean fixture
   tree must come back with zero findings — mirroring test_check.ml's
   injected-corruption style, with source-level violations in place of
   page-level ones. Every fixture but bad_no_mli.ml has an interface,
   so mli-coverage fires on that one alone, and callers.ml names every
   export but one, so unused-export does too.

   The fixture libraries are linked into this executable, so dune has
   built their .cmt files (the analyzer's input) before the test runs;
   the analyzer is then invoked in-process over those build artifacts.
   [~scope_all:true] lifts the lib/-rooted scope restrictions so the
   passes apply to the fixture tree. *)

module Analyze = Tm_analyze.Analyze

let check = Alcotest.check

(* Keep the linker honest: reference the fixture libraries so their
   .cmt files are certainly produced. *)
let _ = Bad_global.lookup
let _ = Clean.get

(* The test runs with cwd = _build/default/test; the fixture objects
   live under the library's .objs directory. Probe the candidates so a
   dune layout change fails with a readable message. *)
let cmt_root candidates =
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> Alcotest.failf "no fixture .cmt directory found (tried: %s)" (String.concat ", " candidates)

let bad_root () =
  cmt_root
    [
      "fixtures_analyze/.tm_analyze_fixtures.objs/byte";
      "test/fixtures_analyze/.tm_analyze_fixtures.objs/byte";
      "_build/default/test/fixtures_analyze/.tm_analyze_fixtures.objs/byte";
    ]

let clean_root () =
  cmt_root
    [
      "fixtures_analyze/clean/.tm_analyze_fixtures_clean.objs/byte";
      "test/fixtures_analyze/clean/.tm_analyze_fixtures_clean.objs/byte";
      "_build/default/test/fixtures_analyze/clean/.tm_analyze_fixtures_clean.objs/byte";
    ]

let base f = Filename.basename f.Analyze.file

let in_pass pass fs = List.filter (fun f -> String.equal f.Analyze.pass pass) fs

let show fs =
  String.concat "; "
    (List.map
       (fun f -> Printf.sprintf "%s:%d [%s] %s" (base f) f.Analyze.line f.Analyze.pass f.Analyze.message)
       fs)

(* One analyzer run over the violation fixtures, shared by the per-pass
   assertions below. *)
let bad_findings = lazy (fst (Analyze.run ~scope_all:true [ bad_root () ]))

let assert_detects ~pass ~file ~lines () =
  let fs = in_pass pass (Lazy.force bad_findings) in
  let hits = List.filter (fun f -> String.equal (base f) file) fs in
  (match hits with
  | [] ->
    Alcotest.failf "pass %s reported nothing for %s (pass findings: %s)" pass file (show fs)
  | _ :: _ -> ());
  List.iter
    (fun (f : Analyze.finding) ->
      if not (List.mem f.Analyze.line lines) then
        Alcotest.failf "pass %s flagged %s:%d, expected line(s) %s" pass file f.Analyze.line
          (String.concat "/" (List.map string_of_int lines)))
    hits;
  (* Provenance also means nothing cross-attributed: the pass must not
     blame a different fixture for this class. *)
  List.iter
    (fun (f : Analyze.finding) ->
      if not (String.equal (base f) file) then
        Alcotest.failf "pass %s also flagged %s:%d (%s); expected only %s" pass (base f)
          f.Analyze.line f.Analyze.message file)
    fs

let test_lock_order () =
  (* The a<->b cycle is witnessed at one of the two inner acquisitions. *)
  assert_detects ~pass:"lock-order" ~file:"bad_lock_order.ml" ~lines:[ 6; 7 ] ()

let test_domain_safety () =
  assert_detects ~pass:"domain-safety" ~file:"bad_global.ml" ~lines:[ 5 ] ()

let test_resource_safety () =
  assert_detects ~pass:"resource-safety" ~file:"bad_leak.ml" ~lines:[ 7; 9 ] ();
  (* Both halves of the pair carry their own location. *)
  let fs = in_pass "resource-safety" (Lazy.force bad_findings) in
  check Alcotest.int "lock and unlock are reported separately" 2 (List.length fs)

let test_typed_error () =
  assert_detects ~pass:"typed-error" ~file:"bad_swallow.ml" ~lines:[ 7 ] ()

let test_failpoint () =
  assert_detects ~pass:"failpoint" ~file:"bad_io.ml" ~lines:[ 6 ] ()

let test_poly_compare () =
  (* the [=] at int list; the [<] at int on the next line is exempt *)
  assert_detects ~pass:"poly-compare" ~file:"bad_poly_compare.ml" ~lines:[ 4 ] ();
  check Alcotest.int "one finding" 1
    (List.length (in_pass "poly-compare" (Lazy.force bad_findings)))

let test_no_failwith () =
  assert_detects ~pass:"no-failwith" ~file:"bad_failwith.ml" ~lines:[ 4; 5 ] ();
  check Alcotest.int "the call and the constructor" 2
    (List.length (in_pass "no-failwith" (Lazy.force bad_findings)))

let test_catch_all () = assert_detects ~pass:"catch-all" ~file:"bad_catch_all.ml" ~lines:[ 4 ] ()

let test_mli_coverage () =
  assert_detects ~pass:"mli-coverage" ~file:"bad_no_mli.ml" ~lines:[ 1 ] ()

let test_unused_export () =
  (* [called] has a caller in callers.ml; [uncalled], line 2, has none *)
  assert_detects ~pass:"unused-export" ~file:"bad_unused_export.mli" ~lines:[ 2 ] ();
  check Alcotest.int "one finding" 1
    (List.length (in_pass "unused-export" (Lazy.force bad_findings)))

let test_all_passes_fire () =
  check Alcotest.int "pass count" 10 (List.length Analyze.pass_ids);
  let fs = Lazy.force bad_findings in
  List.iter
    (fun pass ->
      match in_pass pass fs with
      | [] -> Alcotest.failf "pass %s produced no findings on the fixture tree" pass
      | _ :: _ -> ())
    Analyze.pass_ids

let test_clean_tree () =
  let fs, nmodules = Analyze.run ~scope_all:true [ clean_root () ] in
  check Alcotest.int "clean fixture tree analyzed" 2 nmodules;
  match fs with
  | [] -> ()
  | _ :: _ -> Alcotest.failf "clean tree produced findings: %s" (show fs)

let suite =
  [
    ( "analyze",
      [
        Alcotest.test_case "lock-order detects the seeded cycle" `Quick test_lock_order;
        Alcotest.test_case "domain-safety detects the unguarded global" `Quick test_domain_safety;
        Alcotest.test_case "resource-safety detects the leaky pair" `Quick test_resource_safety;
        Alcotest.test_case "typed-error detects the swallowed Timeout" `Quick test_typed_error;
        Alcotest.test_case "failpoint detects the unregistered I/O" `Quick test_failpoint;
        Alcotest.test_case "poly-compare detects the list equality" `Quick test_poly_compare;
        Alcotest.test_case "no-failwith detects both Failures" `Quick test_no_failwith;
        Alcotest.test_case "catch-all detects the wildcard handler" `Quick test_catch_all;
        Alcotest.test_case "mli-coverage detects the bare module" `Quick test_mli_coverage;
        Alcotest.test_case "unused-export detects the uncalled value" `Quick test_unused_export;
        Alcotest.test_case "all ten passes fire on the fixture tree" `Quick test_all_passes_fire;
        Alcotest.test_case "clean tree yields zero findings" `Quick test_clean_tree;
      ] );
  ]

let () = Alcotest.run "tm_analyze" suite
