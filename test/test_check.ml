(* Tests for Tm_check (the offline fsck): a clean build must verify
   clean, and each class of deliberately injected corruption must be
   detected with correct provenance (zero false negatives).

   Corruption is written through [Buffer_pool.write], below the B+-tree:
   the stored bytes are wrong although no tree operation wrote them, the
   post-crash / bit-rot scenario. The tree's own reads see the new image
   too, since a decoded node is served only with the image it came
   from, but the verifier must find the damage from the bytes. *)

open Tm_storage
open Tm_check
module Db = Twigmatch.Database

let check = Alcotest.check

let xmark ?(scale = 0.01) () =
  Tm_datasets.Xmark_gen.generate { Tm_datasets.Xmark_gen.seed = 7; scale }

let dblp ?(scale = 0.05) () =
  Tm_datasets.Dblp_gen.generate { Tm_datasets.Dblp_gen.seed = 7; scale }

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

(* Leaves of [tree] in DFS (key) order, via the raw page-view API. *)
let find_leaves tree =
  let rec go page acc =
    match Bptree.view_page tree page with
    | Error m -> Alcotest.failf "undecodable page %d: %s" page m
    | Ok (Bptree.Leaf_view { entries; next }) -> (page, entries, next) :: acc
    | Ok (Bptree.Internal_view { children; _ }) ->
      Array.fold_left (fun acc c -> go c acc) acc children
  in
  List.rev (go (Bptree.root_page tree) [])

(* Overwrite a leaf page with the canonical encoding of the given view,
   behind the tree's back. *)
let rewrite_leaf tree page entries next =
  ignore
    (Buffer_pool.write (Bptree.pool tree) page
       (Bytes.of_string (Bptree.encode_view tree (Bptree.Leaf_view { entries; next }))))

(* One of the Edge table's three B+-trees, by name. *)
let edge_index db name =
  List.find (fun t -> String.equal (Bptree.name t) name) (Tm_xmldb.Edge_table.indices db.Db.edge)

let has report code ?structure ?page () =
  List.exists
    (fun (v : Check.violation) ->
      v.Check.code = code
      && (match structure with
         | None -> true
         | Some s -> String.equal v.Check.loc.Check.structure s)
      && match page with None -> true | Some p -> v.Check.loc.Check.page = Some p)
    report.Check.violations

let assert_detected report code ?structure ?page () =
  if not (has report code ?structure ?page ()) then
    Alcotest.failf "expected a %s violation%s, report was:\n%s" (Check.code_name code)
      (match structure with None -> "" | Some s -> " in " ^ s)
      (Check.report_to_string report)

(* ------------------------------------------------------------------ *)
(* Clean builds                                                        *)
(* ------------------------------------------------------------------ *)

let test_clean_xmark () =
  let report = Check.check_database (Db.create (xmark ())) in
  check Alcotest.bool "clean" true (Check.is_clean report);
  check Alcotest.bool "covered structures" true (report.Check.summary.Check.structures > 0);
  check Alcotest.bool "covered entries" true (report.Check.summary.Check.entries > 0)

let test_clean_dblp () =
  let report = Check.check_database (Db.create (dblp ())) in
  check Alcotest.bool "clean" true (Check.is_clean report)

let test_clean_report_rendering () =
  let report = Check.check_database (Db.create ~strategies:[ Db.RP ] (xmark ())) in
  let text = Check.report_to_string report in
  check Alcotest.bool "text mentions clean" true
    (String.length text >= 11 && String.equal (String.sub text 0 11) "fsck: clean");
  let json = Check.report_to_json report in
  check Alcotest.bool "json clean flag" true
    (String.length json >= 14 && String.equal (String.sub json 0 14) "{\"clean\":true,")

(* ------------------------------------------------------------------ *)
(* Injected corruption                                                 *)
(* ------------------------------------------------------------------ *)

(* Swap two distinct-keyed entries inside one ROOTPATHS leaf: in-node
   key order breaks on that page and nowhere else (the multiset is
   unchanged, and the rewrite is canonical, so no round-trip or
   missing/extra-row noise). *)
let test_swapped_keys_detected () =
  let db = Db.create ~strategies:[ Db.RP ] (xmark ()) in
  let tree = Tm_index.Family.tree (Option.get db.Db.rootpaths) in
  let page, entries, next, j =
    match
      List.find_map
        (fun (page, entries, next) ->
          let n = Array.length entries in
          let rec find i =
            if i >= n then None
            else if not (String.equal (fst entries.(0)) (fst entries.(i))) then Some i
            else find (i + 1)
          in
          Option.map (fun j -> (page, entries, next, j)) (find 1))
        (find_leaves tree)
    with
    | Some x -> x
    | None -> Alcotest.fail "no leaf with two distinct keys"
  in
  let swapped = Array.copy entries in
  swapped.(0) <- entries.(j);
  swapped.(j) <- entries.(0);
  rewrite_leaf tree page swapped next;
  let report = Check.check_database db in
  assert_detected report Check.Key_order ~structure:"rootpaths" ~page ();
  check Alcotest.bool "no missing rows (multiset unchanged)" false
    (has report Check.Missing_row ())

(* Truncate one delta-encoded IdList: |IdList| no longer matches
   |SchemaPath|. *)
let test_truncated_idlist_detected () =
  let db = Db.create ~strategies:[ Db.RP ] (xmark ()) in
  let fam = Option.get db.Db.rootpaths in
  let tree = Tm_index.Family.tree fam in
  let page, entries, next, slot =
    match
      List.find_map
        (fun (page, entries, next) ->
          let n = Array.length entries in
          let rec find i =
            if i >= n then None
            else if List.length (Tm_index.Family.decode_idlist fam (snd entries.(i))) >= 2 then
              Some i
            else find (i + 1)
          in
          Option.map (fun i -> (page, entries, next, i)) (find 0))
        (find_leaves tree)
    with
    | Some x -> x
    | None -> Alcotest.fail "no entry with >= 2 ids"
  in
  let key, payload = entries.(slot) in
  let ids = Tm_index.Family.decode_idlist fam payload in
  let truncated = List.filteri (fun i _ -> i < List.length ids - 1) ids in
  let corrupted = Array.copy entries in
  corrupted.(slot) <- (key, Tm_index.Family.encode_idlist fam truncated);
  rewrite_leaf tree page corrupted next;
  let report = Check.check_database db in
  assert_detected report Check.Idlist_length ~structure:"rootpaths" ~page ()

(* Reverse the ids of one IdList: delta decode still succeeds but the
   ids are no longer strictly increasing, and the chain contradicts the
   edge table. *)
let test_idlist_order_detected () =
  let db = Db.create ~strategies:[ Db.RP ] (xmark ()) in
  let fam = Option.get db.Db.rootpaths in
  let tree = Tm_index.Family.tree fam in
  let page, entries, next, slot =
    match
      List.find_map
        (fun (page, entries, next) ->
          let n = Array.length entries in
          let rec find i =
            if i >= n then None
            else if List.length (Tm_index.Family.decode_idlist fam (snd entries.(i))) >= 2 then
              Some i
            else find (i + 1)
          in
          Option.map (fun i -> (page, entries, next, i)) (find 0))
        (find_leaves tree)
    with
    | Some x -> x
    | None -> Alcotest.fail "no entry with >= 2 ids"
  in
  let key, payload = entries.(slot) in
  let ids = List.rev (Tm_index.Family.decode_idlist fam payload) in
  let corrupted = Array.copy entries in
  corrupted.(slot) <- (key, Tm_index.Family.encode_idlist fam ids);
  rewrite_leaf tree page corrupted next;
  let report = Check.check_database db in
  assert_detected report Check.Idlist_order ~structure:"rootpaths" ~page ()

(* Delete one DATAPATHS entry through the tree API: the structure stays
   sound, but the subpath closure is no longer complete — only the
   semantic cross-check against the recomputed 4-ary relation sees it. *)
let test_dropped_subpath_detected () =
  let db = Db.create ~strategies:[ Db.DP ] (xmark ()) in
  let fam = Option.get db.Db.datapaths in
  let tree = Tm_index.Family.tree fam in
  let key, payload =
    match Bptree.to_list tree with
    | e :: _ -> e
    | [] -> Alcotest.fail "empty datapaths"
  in
  check Alcotest.bool "delete found the entry" true (Bptree.delete tree key payload);
  let report = Check.check_database db in
  assert_detected report Check.Missing_row ~structure:"datapaths" ();
  check Alcotest.bool "no extra rows" false (has report Check.Extra_row ())

(* Rewrite a front-coded leaf with a valid but non-canonical encoding
   (all shared-prefix lengths forced to 0): decodes to the same
   entries, so only the round-trip check can catch it. *)
let test_roundtrip_detected () =
  let pool = Buffer_pool.create (Pager.create ()) in
  let entries =
    List.init 50 (fun i -> (Printf.sprintf "shared_prefix_key_%03d" i, Printf.sprintf "p%d" i))
  in
  let tree = Bptree.bulk_load ~name:"rt" pool entries in
  let page, stored, next =
    match find_leaves tree with
    | (page, stored, next) :: _ when Array.length stored >= 2 -> (page, stored, next)
    | _ -> Alcotest.fail "expected a populated leaf"
  in
  let buf = Buffer.create 512 in
  Buffer.add_char buf 'L';
  Codec.add_u16 buf (Array.length stored);
  Codec.add_u32 buf (match next with None -> 0 | Some p -> p + 1);
  Array.iter
    (fun (k, p) ->
      Codec.add_varint buf 0;
      Codec.add_lstring buf k;
      Codec.add_lstring buf p)
    stored;
  ignore (Buffer_pool.write pool page (Bytes.of_string (Buffer.contents buf)));
  let violations = Check.check_tree tree in
  check Alcotest.bool "roundtrip violation" true
    (List.exists
       (fun (v : Check.violation) ->
         v.Check.code = Check.Roundtrip && v.Check.loc.Check.page = Some page)
       violations);
  check Alcotest.bool "no key-order noise" false
    (List.exists (fun (v : Check.violation) -> v.Check.code = Check.Key_order) violations)

(* Point a leaf's next pointer past the pager's allocated range. *)
let test_dangling_next_detected () =
  let pool = Buffer_pool.create (Pager.create ()) in
  let entries = List.init 5 (fun i -> (Printf.sprintf "k%d" i, "p")) in
  let tree = Bptree.bulk_load ~name:"dangling" pool entries in
  let page, stored, _ =
    match List.rev (find_leaves tree) with
    | last :: _ -> last
    | [] -> Alcotest.fail "no leaves"
  in
  rewrite_leaf tree page stored (Some 9999);
  let violations = Check.check_tree tree in
  check Alcotest.bool "page bounds violation" true
    (List.exists
       (fun (v : Check.violation) ->
         v.Check.code = Check.Page_bounds && v.Check.loc.Check.page = Some page)
       violations)

(* Flip one stored bit behind every cache (pager-level, after the pool
   is dropped): each read of the page now fails its CRC32. fsck must
   name the page — via the dedicated pager pass and via the tree walk's
   Corrupt_page guard — instead of crashing, and must not report the
   entries of the page its walk skipped as missing rows. *)
let test_bitflip_checksum_detected () =
  let db = Db.create ~strategies:[ Db.RP ] (xmark ()) in
  let tree = Tm_index.Family.tree (Option.get db.Db.rootpaths) in
  let page =
    match find_leaves tree with
    | (page, _, _) :: _ -> page
    | [] -> Alcotest.fail "no leaves"
  in
  Db.drop_caches db;
  Pager.unsafe_flip_bit db.Db.pager ~page ~bit:100;
  let report = Check.check_database db in
  assert_detected report Check.Checksum ~structure:"pager" ~page ();
  assert_detected report Check.Checksum ~structure:"rootpaths" ~page ();
  check Alcotest.bool "no missing_row" false (has report Check.Missing_row ())

(* The same flip in an Edge node-index (backward-link) page: the link
   checks of the ROOTPATHS entries read it through the Edge table, and
   must list it as a violation rather than raise; the Edge diff must
   not report the skipped page's entries as missing rows. *)
let test_bitflip_edge_link_detected () =
  let db = Db.create ~strategies:[ Db.RP ] (xmark ()) in
  let backward = edge_index db "edge_backward" in
  let page =
    match find_leaves backward with
    | (page, _, _) :: _ -> page
    | [] -> Alcotest.fail "no leaves"
  in
  Db.drop_caches db;
  Pager.unsafe_flip_bit db.Db.pager ~page ~bit:100;
  let report = Check.check_database db in
  assert_detected report Check.Checksum ~structure:"pager" ~page ();
  assert_detected report Check.Checksum ~structure:"rootpaths" ();
  check Alcotest.bool "no missing_row" false (has report Check.Missing_row ())

(* Flip a bit of the stored checksum itself (the page bytes stay good):
   the mismatch must be reported all the same. *)
let test_crc_bitflip_detected () =
  let db = Db.create ~strategies:[ Db.RP ] (xmark ()) in
  let tree = Tm_index.Family.tree (Option.get db.Db.rootpaths) in
  let page = Bptree.root_page tree in
  Db.drop_caches db;
  Pager.unsafe_flip_crc_bit db.Db.pager ~page ~bit:7;
  let report = Check.check_database db in
  assert_detected report Check.Checksum ~structure:"pager" ~page ()

(* check_pager alone: clean pager -> no violations; corrupt one page ->
   exactly that page is named. *)
let test_check_pager_direct () =
  let db = Db.create ~strategies:[ Db.RP ] (xmark ()) in
  Db.drop_caches db;
  check Alcotest.int "clean pager" 0 (List.length (Check.check_pager db.Db.pager));
  let page = Bptree.root_page (Tm_index.Family.tree (Option.get db.Db.rootpaths)) in
  Pager.unsafe_flip_bit db.Db.pager ~page ~bit:9;
  match Check.check_pager db.Db.pager with
  | [ v ] ->
    check Alcotest.string "code" "checksum" (Check.code_name v.Check.code);
    check (Alcotest.option Alcotest.int) "page" (Some page) v.Check.loc.Check.page
  | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

(* The Edge relation against the document. The damage goes through
   the trees' own delete and insert, so every structural invariant still
   holds: only the semantic diff can see it, and it is the one
   violation. *)
let assert_only report code ~structure =
  match report.Check.violations with
  | [ v ] when v.Check.code = code && String.equal v.Check.loc.Check.structure structure -> ()
  | _ ->
    Alcotest.failf "expected exactly one %s violation in %s, report was:\n%s"
      (Check.code_name code) structure (Check.report_to_string report)

let test_missing_edge_entry_detected () =
  let db = Db.create ~strategies:[ Db.Edge ] (xmark ()) in
  let backward = edge_index db "edge_backward" in
  let key, payload = List.nth (Bptree.to_list backward) 17 in
  check Alcotest.bool "entry deleted" true (Bptree.delete backward key payload);
  assert_only (Check.check_database db) Check.Missing_row ~structure:"edge_backward"

let test_stray_edge_entry_detected () =
  let db = Db.create ~strategies:[ Db.Edge ] (xmark ()) in
  let forward = edge_index db "edge_forward" in
  let key, _ = List.nth (Bptree.to_list forward) 17 in
  Bptree.insert forward key (Codec.u32_to_string 999_999);
  assert_only (Check.check_database db) Check.Extra_row ~structure:"edge_forward"

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "clean",
      [
        Alcotest.test_case "xmark verifies clean" `Quick test_clean_xmark;
        Alcotest.test_case "dblp verifies clean" `Quick test_clean_dblp;
        Alcotest.test_case "report rendering" `Quick test_clean_report_rendering;
      ] );
    ( "corruption",
      [
        Alcotest.test_case "swapped leaf keys" `Quick test_swapped_keys_detected;
        Alcotest.test_case "truncated idlist" `Quick test_truncated_idlist_detected;
        Alcotest.test_case "idlist order" `Quick test_idlist_order_detected;
        Alcotest.test_case "dropped datapaths subpath" `Quick test_dropped_subpath_detected;
        Alcotest.test_case "non-canonical front coding" `Quick test_roundtrip_detected;
        Alcotest.test_case "dangling next pointer" `Quick test_dangling_next_detected;
        Alcotest.test_case "bit-flipped leaf page" `Quick test_bitflip_checksum_detected;
        Alcotest.test_case "bit-flipped edge index page" `Quick test_bitflip_edge_link_detected;
        Alcotest.test_case "bit-flipped stored crc" `Quick test_crc_bitflip_detected;
        Alcotest.test_case "check_pager direct" `Quick test_check_pager_direct;
        Alcotest.test_case "missing edge entry" `Quick test_missing_edge_entry_detected;
        Alcotest.test_case "stray edge entry" `Quick test_stray_edge_entry_detected;
      ] );
  ]

let () = Alcotest.run "tm_check" suite
