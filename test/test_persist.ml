(* Tests for the framed v5 snapshot format: round-trips, atomicity of
   the save path (no stray temp files), frame verification, and
   rejection of truncated or bit-flipped files with a typed
   Bad_snapshot naming the damage — never a crash, hang, or a database
   silently built from garbage. *)

module Db = Twigmatch.Database
module Persist = Twigmatch.Persist
module Executor = Twigmatch.Executor

let check = Alcotest.check

let xmark ?(scale = 0.02) () =
  Tm_datasets.Xmark_gen.generate { Tm_datasets.Xmark_gen.seed = 11; scale }

let with_tmp_dir f =
  let dir = Filename.temp_file "twigmatch-test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let file_bytes path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let expect_bad_snapshot what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Bad_snapshot" what
  | exception Persist.Bad_snapshot _ -> ()

let contains msg sub =
  let ls = String.length sub and lm = String.length msg in
  let rec find i = i + ls <= lm && (String.equal (String.sub msg i ls) sub || find (i + 1)) in
  find 0

let leftover_tmp_files dir =
  List.filter (fun e -> Filename.check_suffix e ".tmp") (Array.to_list (Sys.readdir dir))

(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "db.snap" in
  let db = Db.create (xmark ()) in
  Persist.save db path;
  check (Alcotest.list Alcotest.string) "no temp files left" [] (leftover_tmp_files dir);
  let db' = Persist.load path in
  let twig = Tm_query.Xpath_parser.parse "//item[quantity = '2']/name" in
  List.iter
    (fun s ->
      let a = (Executor.run ~hint:(Tm_plan.Hint.Force s) db twig).Executor.ids in
      let b = (Executor.run ~hint:(Tm_plan.Hint.Force s) db' twig).Executor.ids in
      check (Alcotest.list Alcotest.int) (Db.strategy_name s ^ " ids survive reload") a b)
    (Db.built_strategies db)

(* The pager holds each page once and the pool none, and a bulk load
   caches no decoded node, so the snapshot holds each page once. A
   loaded database forgets the residency it was saved with and starts
   cold: its first query faults pages in and decodes the nodes it
   reads. *)
let test_loaded_snapshot_starts_cold () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "db.snap" in
  Persist.save (Db.create (xmark ~scale:0.05 ())) path;
  let db = Persist.load path in
  let q1x = Tm_datasets.Workload.parse (Tm_datasets.Workload.find "Q1x") in
  let decodes = Tm_obs.Obs.counter "bptree.node_decodes" in
  Tm_obs.Obs.with_enabled true (fun () ->
      let d0 = Tm_obs.Obs.value decodes in
      let r = Executor.run db q1x in
      check Alcotest.bool "first Q1x misses the pool" true
        (r.Executor.stats.Tm_exec.Stats.pool_misses > 0);
      check Alcotest.bool "first Q1x decodes nodes" true (Tm_obs.Obs.value decodes > d0))

(* The plan cache is keyed by (generation, shape), and generations
   restart in every process, so the generation marshalled with a
   snapshot may be a live database's in the loading process. Each load
   mints its own: a built database and two loads of its snapshot are
   three generations, and no load is served another's cached plans. *)
let test_load_mints_a_generation () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "db.snap" in
  let db = Db.create ~strategies:[ Db.RP ] (xmark ()) in
  Persist.save db path;
  let a = Persist.load path and b = Persist.load path in
  let gens = List.map Db.generation [ db; a; b ] in
  check Alcotest.int "three distinct generations" 3
    (List.length (List.sort_uniq Int.compare gens))

(* A checkpoint writes the snapshot from the pager and leaves the pool
   and the decoded nodes as they were, so a query that ran warm before
   it runs warm after it: no page fault, no node decode. *)
let test_checkpoint_keeps_pool_warm () =
  with_tmp_dir @@ fun dir ->
  let db = Db.create (xmark ~scale:0.05 ()) in
  let d = Twigmatch.Durable.create ~dir db in
  Fun.protect ~finally:(fun () -> Twigmatch.Durable.close d) @@ fun () ->
  let q1x = Tm_datasets.Workload.parse (Tm_datasets.Workload.find "Q1x") in
  ignore (Executor.run db q1x);
  Twigmatch.Durable.checkpoint d;
  let decodes = Tm_obs.Obs.counter "bptree.node_decodes" in
  Tm_obs.Obs.with_enabled true (fun () ->
      let d0 = Tm_obs.Obs.value decodes in
      let r = Executor.run db q1x in
      check Alcotest.int "Q1x misses after the checkpoint" 0
        r.Executor.stats.Tm_exec.Stats.pool_misses;
      check Alcotest.int "Q1x decodes after the checkpoint" 0 (Tm_obs.Obs.value decodes - d0))

(* The pager's page store: every image and CRC, by page id. *)
let page_store (db : Db.t) =
  let (), images, crcs = Tm_storage.Pager.export db.Db.pager (fun () -> ()) in
  (images, crcs)

(* A checkpoint's snapshot holds the live pager's pages, each under the
   pager's CRC, and no decoded node. After a warm Q1x and a few durable
   transactions, the loaded snapshot has every page image and CRC of
   the live database, fsck finds it clean, and its first Q1x decodes
   the nodes it reads. *)
let test_checkpoint_snapshot_holds_the_pages () =
  with_tmp_dir @@ fun dir ->
  let db = Db.create (xmark ~scale:0.05 ()) in
  let d = Twigmatch.Durable.create ~dir db in
  Fun.protect ~finally:(fun () -> Twigmatch.Durable.close d) @@ fun () ->
  let q1x = Tm_datasets.Workload.parse (Tm_datasets.Workload.find "Q1x") in
  ignore (Executor.run db q1x);
  let parent =
    List.hd (Executor.run db (Tm_query.Xpath_parser.parse "/site/open_auctions")).Executor.ids
  in
  for i = 1 to 3 do
    ignore
      (Twigmatch.Durable.insert_subtree d ~parent
         (Tm_xml.Xml_tree.elem "open_auction"
            [ Tm_xml.Xml_tree.elem_text "initial" (string_of_int i) ]))
  done;
  Twigmatch.Durable.checkpoint d;
  let loaded = Persist.load (Twigmatch.Durable.snapshot_path dir) in
  let images, crcs = page_store db and images', crcs' = page_store loaded in
  check Alcotest.int "page count" (Array.length images) (Array.length images');
  check Alcotest.bool "every page image" true (Array.for_all2 Bytes.equal images images');
  check Alcotest.(array int) "every page CRC" crcs crcs';
  let report = Tm_check.Check.check_database loaded in
  check Alcotest.bool (Tm_check.Check.report_to_string report) true
    (Tm_check.Check.is_clean report);
  let decodes = Tm_obs.Obs.counter "bptree.node_decodes" in
  Tm_obs.Obs.with_enabled true (fun () ->
      let d0 = Tm_obs.Obs.value decodes in
      ignore (Executor.run loaded q1x);
      check Alcotest.bool "Q1x on the loaded snapshot decodes nodes" true
        (Tm_obs.Obs.value decodes > d0))

let test_verify_reports_sections () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "db.snap" in
  Persist.save (Db.create ~strategies:[ Db.RP ] (xmark ())) path;
  let { Persist.sections; pages } = Persist.verify path in
  check
    (Alcotest.list Alcotest.string)
    "section table" [ "meta"; "database"; "page table" ]
    (List.map (fun s -> s.Persist.name) sections);
  List.iter
    (fun s -> check Alcotest.bool (s.Persist.name ^ " non-empty") true (s.Persist.length > 0))
    sections;
  check Alcotest.bool "page images checked" true (pages > 0)

(* Chop the file at every 1/8 boundary: whatever frame element the cut
   lands in, load and verify must reject with Bad_snapshot. *)
let test_truncation_rejected_everywhere () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "db.snap" in
  Persist.save (Db.create ~strategies:[ Db.RP ] (xmark ())) path;
  let whole = file_bytes path in
  let n = String.length whole in
  let cut = Filename.concat dir "cut.snap" in
  for i = 0 to 7 do
    let len = i * n / 8 in
    write_bytes cut (String.sub whole 0 len);
    expect_bad_snapshot (Printf.sprintf "load at %d/%d bytes" len n) (fun () ->
        Persist.load cut);
    expect_bad_snapshot (Printf.sprintf "verify at %d/%d bytes" len n) (fun () ->
        Persist.verify cut)
  done

(* One flipped bit anywhere in a section payload must fail that
   section's CRC before any unmarshalling. Spread the probes across the
   file (skipping the final byte-exact positions the frame fields
   occupy is unnecessary — damage there is caught by the magic/footer
   checks instead). *)
let test_bitflip_rejected () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "db.snap" in
  Persist.save (Db.create ~strategies:[ Db.RP ] (xmark ())) path;
  let whole = file_bytes path in
  let n = String.length whole in
  let flipped = Filename.concat dir "flip.snap" in
  List.iter
    (fun pos ->
      let b = Bytes.of_string whole in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x08));
      write_bytes flipped (Bytes.to_string b);
      expect_bad_snapshot (Printf.sprintf "bit flip at offset %d" pos) (fun () ->
          Persist.verify flipped);
      expect_bad_snapshot (Printf.sprintf "load with bit flip at offset %d" pos) (fun () ->
          ignore (Persist.load flipped)))
    [ 0; 3; n / 4; n / 2; (3 * n) / 4; n - 2 ]

let test_bad_snapshot_names_section () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "db.snap" in
  Persist.save (Db.create ~strategies:[ Db.RP ] (xmark ())) path;
  let whole = file_bytes path in
  (* flip a bit in the middle of the file, among the page images *)
  let b = Bytes.of_string whole in
  let pos = String.length whole / 2 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
  write_bytes path (Bytes.to_string b);
  match Persist.verify path with
  | _ -> Alcotest.fail "expected Bad_snapshot"
  | exception Persist.Bad_snapshot msg ->
    check Alcotest.bool (Printf.sprintf "message %S names a page" msg) true (contains msg "page ")

(* A snapshot another build wrote under an older version may marshal a
   different [Database.t] layout, which [Marshal] would rebuild without
   a check and crash on. The version u32 follows the 18-byte magic;
   rewritten to 2, the file is refused naming that version, by the
   header check that precedes every section. *)
let test_other_version_rejected () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "db.snap" in
  Persist.save (Db.create ~strategies:[ Db.RP ] (xmark ())) path;
  let b = Bytes.of_string (file_bytes path) in
  check Alcotest.int "stored version" Persist.version (Int32.to_int (Bytes.get_int32_be b 18));
  Bytes.set_int32_be b 18 2l;
  write_bytes path (Bytes.to_string b);
  let names_version what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Bad_snapshot" what
    | exception Persist.Bad_snapshot msg ->
      check Alcotest.bool (Printf.sprintf "%s: message %S names version 2" what msg) true
        (contains msg "version 2")
  in
  names_version "verify" (fun () -> ignore (Persist.verify path));
  names_version "load" (fun () -> ignore (Persist.load path))

let test_not_a_snapshot_rejected () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "not.snap" in
  write_bytes path "<?xml version=\"1.0\"?><site></site>";
  expect_bad_snapshot "xml file" (fun () -> Persist.load path);
  write_bytes path "";
  expect_bad_snapshot "empty file" (fun () -> Persist.load path)

(* A failed save must not leave the target or a temp file behind. The
   temp file is created in the target's own directory (so the final
   rename is same-filesystem); pointing at a missing directory makes
   that creation fail before anything is written. *)
let test_failed_save_leaves_no_tmp () =
  with_tmp_dir @@ fun dir ->
  let db = Db.create ~strategies:[ Db.RP ] (xmark ()) in
  let target = Filename.concat (Filename.concat dir "no-such-dir") "db.snap" in
  (match Persist.save db target with
  | () -> Alcotest.fail "save into a missing directory must fail"
  | exception Sys_error _ -> ());
  check Alcotest.bool "target not created" false (Sys.file_exists target);
  check (Alcotest.list Alcotest.string) "no temp files left" [] (leftover_tmp_files dir)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "persist"
    [
      ( "snapshot",
        [
          Alcotest.test_case "round trip" `Quick test_roundtrip;
          Alcotest.test_case "loaded snapshot starts cold" `Quick test_loaded_snapshot_starts_cold;
          Alcotest.test_case "load mints a generation" `Quick test_load_mints_a_generation;
          Alcotest.test_case "pool stays warm across a checkpoint" `Quick
            test_checkpoint_keeps_pool_warm;
          Alcotest.test_case "checkpoint snapshot holds the pages" `Quick
            test_checkpoint_snapshot_holds_the_pages;
          Alcotest.test_case "verify reports sections" `Quick test_verify_reports_sections;
          Alcotest.test_case "truncation rejected at 1/8 steps" `Quick
            test_truncation_rejected_everywhere;
          Alcotest.test_case "bit flips rejected" `Quick test_bitflip_rejected;
          Alcotest.test_case "bad snapshot names the section" `Quick
            test_bad_snapshot_names_section;
          Alcotest.test_case "non-snapshot files rejected" `Quick test_not_a_snapshot_rejected;
          Alcotest.test_case "another version rejected" `Quick test_other_version_rejected;
          Alcotest.test_case "failed save leaves no temp file" `Quick
            test_failed_save_leaves_no_tmp;
        ] );
    ]
