(* Tests for the durable write path: the WAL frame codec (its writer
   and reader are shared with flight dumps), damaged-log scanning,
   logged transactions with crash recovery (a kill matrix at every
   frame boundary and mid-frame), group commit, checkpointing, and
   failpoint-driven commit poisoning. *)

open Twigmatch
module T = Tm_xml.Xml_tree
module Wal = Tm_wal.Wal
module Fault = Tm_fault.Fault
module Check = Tm_check.Check

let check = Alcotest.check

(* ---------- temp-directory and file helpers ---------- *)

let fresh_dir () =
  let path = Filename.temp_file "twigwal" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ---------- document and query helpers ---------- *)

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
            ];
          T.elem_text "year" "2000";
        ];
    ]

let find_id doc name =
  T.fold doc (fun acc n -> if T.label_name n = name && acc = None then Some n.T.id else acc) None
  |> Option.get

let run_ids db xpath =
  let twig = Tm_query.Xpath_parser.parse xpath in
  (Executor.run ~hint:(Tm_plan.Hint.Force Database.RP) db twig).Executor.ids

let note_count db = List.length (run_ids db "//note")

(* Every built strategy agrees with the naive matcher on the recovered
   document. *)
let check_consistent db label =
  List.iter
    (fun xpath ->
      let twig = Tm_query.Xpath_parser.parse xpath in
      let expected = Tm_query.Naive.query db.Database.doc twig in
      List.iter
        (fun s ->
          check
            Alcotest.(list int)
            (Printf.sprintf "%s: %s under %s" label xpath (Database.strategy_name s))
            expected
            (Executor.run ~hint:(Tm_plan.Hint.Force s) db twig).Executor.ids)
        (Database.built_strategies db))
    [ "/book"; "//author[ln = 'doe']"; "//note"; "//fn"; "/book//v" ]

let assert_fsck_clean label db =
  let report = Check.check_database db in
  if not (Check.is_clean report) then
    Alcotest.failf "%s: fsck found violations:\n%s" label (Check.report_to_string report)

(* ---------- the shared frame codec (WAL and flight dumps) ---------- *)

(* A magic, 1-12 (kind, payload) frames, and a number that picks a cut
   offset or a bit to flip. *)
let arb_framed =
  let frame = QCheck.Gen.(pair char (string_size ~gen:char (int_bound 40))) in
  QCheck.make
    ~print:(fun (magic, frames, n) ->
      Printf.sprintf "%s %d: %s" magic n
        (String.concat "; " (List.map (fun (k, p) -> Printf.sprintf "%C %S" k p) frames)))
    QCheck.Gen.(
      triple (oneofl [ "WF"; "FB" ]) (list_size (int_range 1 12) frame) (int_bound 1_000_000))

(* The frames written under [magic], each paired with the offset just
   past it. *)
let write_framed magic frames =
  let buf = Buffer.create 256 in
  let ends =
    List.map
      (fun (kind, payload) ->
        Wal.add_frame buf ~magic kind payload;
        Buffer.length buf)
      frames
  in
  (Buffer.contents buf, List.combine frames ends)

let read_back (w : Wal.walk) = List.map (fun (k, p, _) -> (k, p)) w.Wal.intact
let ending_by k framed = List.filter_map (fun (f, e) -> if e <= k then Some f else None) framed

let prop_frames_roundtrip =
  QCheck.Test.make ~name:"frames read back in order" ~count:300 arb_framed
    (fun (magic, frames, _) ->
      let s, framed = write_framed magic frames in
      let w = Wal.read_frames ~magic s in
      read_back w = frames
      && List.map (fun (_, _, fin) -> fin) w.Wal.intact = List.map snd framed
      && w.Wal.stop = String.length s
      && Option.is_none w.Wal.damage)

(* Cut at any offset: the frames that end by the cut come back, and the
   walk reports damage unless the cut falls on a frame boundary. *)
let prop_frames_truncated =
  QCheck.Test.make ~name:"a cut stops the walk at the cut frame" ~count:300 arb_framed
    (fun (magic, frames, n) ->
      let s, framed = write_framed magic frames in
      let k = n mod String.length s in
      let w = Wal.read_frames ~magic (String.sub s 0 k) in
      read_back w = ending_by k framed
      && Option.is_none w.Wal.damage = (k = 0 || List.exists (fun (_, e) -> e = k) framed))

(* Flip any one bit: the frames before the damaged one come back, then
   the walk stops with an error. *)
let prop_frames_bitflip =
  QCheck.Test.make ~name:"a flipped bit stops the walk at its frame" ~count:300 arb_framed
    (fun (magic, frames, n) ->
      let s, framed = write_framed magic frames in
      let bit = n mod (8 * String.length s) in
      let b = Bytes.of_string s in
      Bytes.set b (bit / 8) (Char.chr (Char.code s.[bit / 8] lxor (1 lsl (bit mod 8))));
      let w = Wal.read_frames ~magic (Bytes.to_string b) in
      read_back w = ending_by (bit / 8) framed && Option.is_some w.Wal.damage)

(* ---------- WAL frame codec and scanning ---------- *)

let fixture_frames =
  [
    Wal.Checkpoint 0;
    Wal.Begin 1;
    Wal.Op (1, "op-bytes \x00\xff binary");
    Wal.Page { txn = 1; page = 3; crc = 0xDEADBEE; image = String.init 64 Char.chr };
    Wal.Commit 1;
    Wal.Begin 2;
    Wal.Op (2, "");
    Wal.Commit 2;
  ]

let frame_pp fmt (f : Wal.frame) =
  match f with
  | Wal.Begin t -> Format.fprintf fmt "Begin %d" t
  | Wal.Op (t, p) -> Format.fprintf fmt "Op (%d, %S)" t p
  | Wal.Page { txn; page; crc; image } ->
    Format.fprintf fmt "Page {txn=%d; page=%d; crc=%d; %d image bytes}" txn page crc
      (String.length image)
  | Wal.Commit t -> Format.fprintf fmt "Commit %d" t
  | Wal.Checkpoint t -> Format.fprintf fmt "Checkpoint %d" t

let frame_t : Wal.frame Alcotest.testable = Alcotest.testable frame_pp ( = )

let encoded frames = String.concat "" (List.map Wal.encode_frame frames)

let test_codec_roundtrip () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "log" in
  let bytes = encoded fixture_frames in
  write_file path bytes;
  let s = Wal.scan path in
  check (Alcotest.list frame_t) "frames" fixture_frames s.Wal.frames;
  check Alcotest.(list int) "committed" [ 1; 2 ] s.Wal.committed;
  check Alcotest.bool "undamaged" false s.Wal.damaged;
  check Alcotest.int "valid bytes" (String.length bytes) s.Wal.valid_bytes;
  check Alcotest.int "committed bytes" (String.length bytes) s.Wal.committed_bytes

let test_missing_file_scans_empty () =
  with_dir @@ fun dir ->
  let s = Wal.scan (Filename.concat dir "absent") in
  check (Alcotest.list frame_t) "no frames" [] s.Wal.frames;
  check Alcotest.bool "undamaged" false s.Wal.damaged;
  check Alcotest.int "no bytes" 0 s.Wal.committed_bytes

let test_torn_tail_scan_and_truncate () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "log" in
  let bytes = encoded fixture_frames in
  (* Cut inside the last Commit frame: txn 2 loses its commit. *)
  write_file path (String.sub bytes 0 (String.length bytes - 5));
  let s = Wal.scan path in
  check Alcotest.bool "damaged" true s.Wal.damaged;
  check Alcotest.(list int) "only txn 1 committed" [ 1 ] s.Wal.committed;
  let full_prefix = encoded (List.filteri (fun i _ -> i < 5) fixture_frames) in
  check Alcotest.int "committed prefix ends at Commit 1" (String.length full_prefix)
    s.Wal.committed_bytes;
  (* Recovery's truncation leaves a clean log holding exactly the
     committed prefix. *)
  Wal.truncate path s.Wal.committed_bytes;
  let s2 = Wal.scan path in
  check Alcotest.bool "clean after truncate" false s2.Wal.damaged;
  check Alcotest.int "five frames survive" 5 (List.length s2.Wal.frames);
  check Alcotest.(list int) "committed unchanged" [ 1 ] s2.Wal.committed

let test_bitflip_stops_scan () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "log" in
  let bytes = encoded fixture_frames in
  (* Flip one bit inside the Page frame's image: txn 1's commit sits
     after the damage, so nothing is committed any more. *)
  let upto_page = String.length (encoded (List.filteri (fun i _ -> i < 3) fixture_frames)) in
  let b = Bytes.of_string bytes in
  let pos = upto_page + 20 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
  write_file path (Bytes.to_string b);
  let s = Wal.scan path in
  check Alcotest.bool "damaged" true s.Wal.damaged;
  check Alcotest.(list int) "no commits survive" [] s.Wal.committed;
  check Alcotest.int "valid prefix stops before the flipped frame" upto_page s.Wal.valid_bytes

(* ---------- logical-operation codec ---------- *)

let rec render (n : T.node) =
  match n.T.label with
  | T.Value v -> Printf.sprintf "=%S" v
  | T.Elem name | T.Attr name ->
    Printf.sprintf "%s%s(%s)"
      (match n.T.label with T.Attr _ -> "@" | _ -> "")
      name
      (String.concat "," (Array.to_list (Array.map render n.T.children)))

let test_op_codec_roundtrip () =
  let subtree =
    T.elem "a" [ T.attr "k" "v\x00w"; T.elem_text "b" "x"; T.elem "c" []; T.text "loose" ]
  in
  (match Durable.decode_op (Durable.encode_op (Durable.Insert { parent = 7; subtree })) with
  | Durable.Insert { parent; subtree = s } ->
    check Alcotest.int "parent" 7 parent;
    check Alcotest.string "subtree shape" (render subtree) (render s)
  | Durable.Delete _ -> Alcotest.fail "insert decoded as delete");
  (match Durable.decode_op (Durable.encode_op (Durable.Delete 42)) with
  | Durable.Delete id -> check Alcotest.int "delete id" 42 id
  | Durable.Insert _ -> Alcotest.fail "delete decoded as insert");
  match Durable.decode_op "garbage" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "garbage payload should be rejected"

(* ---------- durable transactions: roundtrip, recovery, checkpoint ---------- *)

let test_durable_roundtrip () =
  with_dir @@ fun dir ->
  let db = Database.create ~strategies:Database.[ RP; DP ] (book_doc ()) in
  let d = Durable.create ~dir db in
  let book = find_id db.Database.doc "book" in
  let note i = T.elem "note" [ T.elem_text "v" (string_of_int i) ] in
  let id1 = Durable.insert_subtree d ~parent:book (note 1) in
  ignore (Durable.insert_subtree d ~parent:book (note 2));
  (* delete an original author (exercises the Delete op on replay) *)
  let jane_fn = run_ids db "//author[fn = 'jane']" in
  let removed = Durable.delete_subtree d (List.hd jane_fn) in
  check Alcotest.int "author + fn + ln removed" 3 removed;
  let before = run_ids db "//note" in
  Durable.close d;
  let d2, r = Durable.open_ dir in
  Fun.protect
    ~finally:(fun () -> Durable.close d2)
    (fun () ->
      let db2 = Durable.database d2 in
      check Alcotest.int "three txns replayed" 3 r.Durable.replayed;
      check Alcotest.int "none skipped" 0 r.Durable.skipped;
      check Alcotest.int "no tail discarded" 0 r.Durable.discarded_bytes;
      (* replay re-assigns ids deterministically: answers are id-identical *)
      check Alcotest.(list int) "note ids replay identically" before (run_ids db2 "//note");
      check Alcotest.bool "first insert id present" true (List.mem id1 before);
      check Alcotest.(list int) "deleted author stays gone" []
        (run_ids db2 "//author[fn = 'jane']");
      check Alcotest.int "last txn restored" 3 db2.Database.last_txn;
      check_consistent db2 "after recovery";
      assert_fsck_clean "after recovery" db2)

let test_group_commit_batch () =
  with_dir @@ fun dir ->
  let db = Database.create ~strategies:Database.[ RP; DP ] (book_doc ()) in
  let d = Durable.create ~dir db in
  let book = find_id db.Database.doc "book" in
  let ids =
    Durable.batch d (fun () ->
        List.init 3 (fun i ->
            Durable.insert_subtree d ~parent:book
              (T.elem "note" [ T.elem_text "v" (string_of_int i) ])))
  in
  check Alcotest.int "three fresh ids" 3 (List.length (List.sort_uniq compare ids));
  Durable.close d;
  let d2, r = Durable.open_ dir in
  Fun.protect
    ~finally:(fun () -> Durable.close d2)
    (fun () ->
      check Alcotest.int "batched txns all recovered" 3 r.Durable.replayed;
      check Alcotest.int "notes recovered" 3 (note_count (Durable.database d2));
      assert_fsck_clean "after batched recovery" (Durable.database d2))

let test_checkpoint_truncates_and_is_idempotent () =
  with_dir @@ fun dir ->
  let db = Database.create ~strategies:Database.[ RP; DP ] (book_doc ()) in
  let d = Durable.create ~dir db in
  let book = find_id db.Database.doc "book" in
  ignore (Durable.insert_subtree d ~parent:book (T.elem_text "note" "a"));
  ignore (Durable.insert_subtree d ~parent:book (T.elem_text "note" "b"));
  Durable.checkpoint d;
  Durable.checkpoint d;
  (* the log now holds only the checkpoint stamp *)
  (match (Wal.scan (Durable.wal_path dir)).Wal.frames with
  | [ Wal.Checkpoint 2 ] -> ()
  | frames -> Alcotest.failf "expected a lone Checkpoint 2, got %d frames" (List.length frames));
  ignore (Durable.insert_subtree d ~parent:book (T.elem_text "note" "c"));
  Durable.close d;
  let d2, r = Durable.open_ dir in
  Fun.protect
    ~finally:(fun () -> Durable.close d2)
    (fun () ->
      check Alcotest.int "only the post-checkpoint txn replays" 1 r.Durable.replayed;
      check Alcotest.int "all notes present" 3 (note_count (Durable.database d2));
      check Alcotest.int "txn ids continue across checkpoints" 3
        (Durable.database d2).Database.last_txn;
      assert_fsck_clean "after checkpoint + recovery" (Durable.database d2))

(* A save killed mid-write leaves its temp file beside the snapshot,
   as large as the snapshot, and nothing else would ever delete it.
   Opening the directory removes it, and only it, and recovers as if it
   were not there. *)
let test_open_removes_a_dead_save_temp () =
  with_dir @@ fun dir ->
  let db = Database.create ~strategies:Database.[ RP; DP ] (book_doc ()) in
  let d = Durable.create ~dir db in
  let book = find_id db.Database.doc "book" in
  ignore (Durable.insert_subtree d ~parent:book (T.elem_text "note" "a"));
  Durable.close d;
  let temp = Filename.concat dir ".twigmatch-snapshot3f2a1c.tmp" in
  let other = Filename.concat dir "notes.tmp" in
  write_file temp (read_file (Durable.snapshot_path dir));
  write_file other "kept";
  let d2, r = Durable.open_ dir in
  Fun.protect
    ~finally:(fun () -> Durable.close d2)
    (fun () ->
      check Alcotest.bool "the dead save's temp file is gone" false (Sys.file_exists temp);
      check Alcotest.bool "another file is kept" true (Sys.file_exists other);
      check Alcotest.int "replayed" 1 r.Durable.replayed;
      check Alcotest.int "notes recovered" 1 (note_count (Durable.database d2)))

let test_recovery_skips_snapshotted_txns () =
  with_dir @@ fun dir ->
  let db = Database.create ~strategies:Database.[ RP; DP ] (book_doc ()) in
  let d = Durable.create ~dir db in
  let book = find_id db.Database.doc "book" in
  ignore (Durable.insert_subtree d ~parent:book (T.elem_text "note" "a"));
  ignore (Durable.insert_subtree d ~parent:book (T.elem_text "note" "b"));
  (* Simulate a crash between a checkpoint's snapshot write and its log
     reset: the snapshot already contains both transactions the log
     still holds. *)
  Persist.save (Durable.database d) (Durable.snapshot_path dir);
  Durable.close d;
  let d2, r = Durable.open_ dir in
  Fun.protect
    ~finally:(fun () -> Durable.close d2)
    (fun () ->
      check Alcotest.int "nothing replayed" 0 r.Durable.replayed;
      check Alcotest.int "both txns recognized as snapshotted" 2 r.Durable.skipped;
      check Alcotest.int "no double-application" 2 (note_count (Durable.database d2));
      assert_fsck_clean "after skip recovery" (Durable.database d2))

(* ---------- crash matrix: every frame boundary and mid-frame ---------- *)

(* Simulate a kill at byte offset [cut] of the log by copying the
   directory with a truncated log, then recover and verify: the
   database is fsck-clean, agrees with the naive matcher, and holds
   exactly the transactions whose Commit frame is wholly inside the
   prefix. *)
let test_crash_matrix () =
  with_dir @@ fun dir ->
  let txns = 3 in
  let db = Database.create ~strategies:Database.[ RP; DP ] (book_doc ()) in
  let d = Durable.create ~dir db in
  let book = find_id db.Database.doc "book" in
  for i = 1 to txns do
    ignore
      (Durable.insert_subtree d ~parent:book
         (T.elem "note" [ T.elem_text "v" (string_of_int i) ]))
  done;
  Durable.close d;
  let log = read_file (Durable.wal_path dir) in
  let scanned = Wal.scan (Durable.wal_path dir) in
  check Alcotest.bool "log is clean before the matrix" false scanned.Wal.damaged;
  check Alcotest.int "scan covers the whole log" (String.length log) scanned.Wal.valid_bytes;
  (* Frame layout: (start, end, commits completed by end). *)
  let _, layout =
    List.fold_left
      (fun (off, acc) f ->
        let fin = off + String.length (Wal.encode_frame f) in
        ((fin, (off, fin, f) :: acc) : int * _))
      (0, []) scanned.Wal.frames
  in
  let layout = List.rev layout in
  let commits_within cut =
    List.length
      (List.filter
         (fun (_, fin, f) -> fin <= cut && match f with Wal.Commit _ -> true | _ -> false)
         layout)
  in
  (* Cut points: the start of the log, every frame boundary, and a
     point inside every frame's header. *)
  let cuts =
    0
    :: List.concat_map (fun (start, fin, _) -> [ start + 3; fin ]) layout
    |> List.sort_uniq compare
    |> List.filter (fun c -> c < String.length log)
  in
  check Alcotest.bool "matrix has many cut points" true (List.length cuts > 3 * txns);
  List.iter
    (fun cut ->
      let expected = commits_within cut in
      let label = Printf.sprintf "cut at byte %d (%d committed)" cut expected in
      let dir2 = fresh_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir2)
        (fun () ->
          write_file (Durable.snapshot_path dir2)
            (read_file (Durable.snapshot_path dir));
          write_file (Durable.wal_path dir2) (String.sub log 0 cut);
          let d2, r = Durable.open_ dir2 in
          Fun.protect
            ~finally:(fun () -> Durable.close d2)
            (fun () ->
              let db2 = Durable.database d2 in
              check Alcotest.int (label ^ ": replayed") expected r.Durable.replayed;
              check Alcotest.int (label ^ ": notes") expected (note_count db2);
              check
                Alcotest.(list int)
                (label ^ ": oracle agrees")
                (Tm_query.Naive.query db2.Database.doc
                   (Tm_query.Xpath_parser.parse "//note"))
                (run_ids db2 "//note");
              assert_fsck_clean label db2;
              (* the recovered directory accepts new writes *)
              ignore (Durable.insert_subtree d2 ~parent:book (T.elem_text "note" "post"));
              check Alcotest.int (label ^ ": writable after recovery") (expected + 1)
                (note_count db2))))
    cuts

(* ---------- recovery checks a replay against the logged page set ---------- *)

(* Rewrite the log at [path] frame by frame ([f] maps a frame to the
   frames that replace it). *)
let rewrite_log path f =
  write_file path (encoded (List.concat_map f (Wal.scan path).Wal.frames))

let logged_pages txn frames =
  List.filter_map
    (fun (f : Wal.frame) ->
      match f with Wal.Page { txn = t; page; _ } when t = txn -> Some page | _ -> None)
    frames

(* [word] occurs in [msg] and is not followed by a digit, so "page 1"
   is not found in "page 12". *)
let mentions msg word =
  let n = String.length msg and m = String.length word in
  let ends_at j = j = n || match msg.[j] with '0' .. '9' -> false | _ -> true in
  let rec go i =
    i + m <= n && ((String.equal (String.sub msg i m) word && ends_at (i + m)) || go (i + 1))
  in
  go 0

let expect_recovery_error label dir words =
  match Durable.open_ dir with
  | d, _ ->
    Durable.close d;
    Alcotest.failf "%s: recovery accepted the log" label
  | exception Durable.Recovery_error msg ->
    List.iter
      (fun w -> if not (mentions msg w) then Alcotest.failf "%s: %S does not name %S" label msg w)
      words

(* Three committed note inserts, closed: the log holds txns 1-3. *)
let log_three_notes dir =
  let db = Database.create ~strategies:Database.[ RP; DP ] (book_doc ()) in
  let d = Durable.create ~dir db in
  let book = find_id db.Database.doc "book" in
  for i = 1 to 3 do
    ignore
      (Durable.insert_subtree d ~parent:book
         (T.elem "note" [ T.elem_text "v" (string_of_int i) ]))
  done;
  Durable.close d

(* A valid frame carrying the wrong page CRC: replay writes that page
   with other bytes than the log claims. *)
let test_flipped_page_crc_fails_recovery () =
  with_dir @@ fun dir ->
  log_three_notes dir;
  let path = Durable.wal_path dir in
  let page = List.hd (logged_pages 2 (Wal.scan path).Wal.frames) in
  rewrite_log path (fun f ->
      match f with
      | Wal.Page { txn = 2; page = p; crc; image } when p = page ->
        [ Wal.Page { txn = 2; page = p; crc = crc lxor 1; image } ]
      | f -> [ f ]);
  expect_recovery_error "flipped page crc" dir [ "txn 2"; Printf.sprintf "page %d" page ]

(* A missing page record: replay writes a page the log never recorded. *)
let test_dropped_page_frame_fails_recovery () =
  with_dir @@ fun dir ->
  log_three_notes dir;
  let path = Durable.wal_path dir in
  let page = List.hd (List.rev (logged_pages 2 (Wal.scan path).Wal.frames)) in
  rewrite_log path (fun f ->
      match f with Wal.Page { txn = 2; page = p; _ } when p = page -> [] | f -> [ f ]);
  expect_recovery_error "dropped page frame" dir [ "txn 2"; Printf.sprintf "page %d" page ]

(* Logs written before page records dropped their images carry each
   dirty page's full post-image. Recovery never reads the image, so
   such a log recovers exactly as one without them. *)
let test_page_images_in_log_still_recover () =
  with_dir @@ fun dir ->
  let db = Database.create ~strategies:Database.[ RP; DP ] (book_doc ()) in
  let d = Durable.create ~dir db in
  let book = find_id db.Database.doc "book" in
  let path = Durable.wal_path dir in
  let images = Hashtbl.create 64 in
  (* the post-images of the transaction just committed *)
  let capture () =
    let txn = (Durable.wal_status d).Durable.last_txn in
    List.iter
      (fun page ->
        Hashtbl.replace images (txn, page)
          (Bytes.to_string (Tm_storage.Pager.read db.Database.pager page)))
      (logged_pages txn (Wal.scan path).Wal.frames)
  in
  for i = 1 to 3 do
    ignore
      (Durable.insert_subtree d ~parent:book
         (T.elem "note" [ T.elem_text "v" (string_of_int i) ]));
    capture ()
  done;
  ignore (Durable.delete_subtree d (List.hd (run_ids db "//note")));
  capture ();
  let queries = [ "//note"; "/book//v"; "//author[ln = 'doe']" ] in
  let answers = List.map (run_ids db) queries in
  Durable.close d;
  rewrite_log path (fun f ->
      match f with
      | Wal.Page { txn; page; crc; image = _ } ->
        [ Wal.Page { txn; page; crc; image = Hashtbl.find images (txn, page) } ]
      | f -> [ f ]);
  check Alcotest.bool "the log carries a full image per page record" true
    ((Unix.stat path).Unix.st_size > Hashtbl.length images * Tm_storage.Pager.default_page_size);
  let d2, r = Durable.open_ dir in
  Fun.protect
    ~finally:(fun () -> Durable.close d2)
    (fun () ->
      let db2 = Durable.database d2 in
      check Alcotest.int "replayed" 4 r.Durable.replayed;
      check
        Alcotest.(list (list int))
        "same answers as before the restart" answers
        (List.map (run_ids db2) queries);
      check_consistent db2 "image-carrying log";
      assert_fsck_clean "after recovering an image-carrying log" db2)

(* ---------- failpoints: commit crash poisons; reopen recovers ---------- *)

let test_commit_failpoint_poisons_then_recovers () =
  with_dir @@ fun dir ->
  let db = Database.create ~strategies:Database.[ RP; DP ] (book_doc ()) in
  let d = Durable.create ~dir db in
  let book = find_id db.Database.doc "book" in
  ignore (Durable.insert_subtree d ~parent:book (T.elem_text "note" "a"));
  ignore (Durable.insert_subtree d ~parent:book (T.elem_text "note" "b"));
  Fun.protect ~finally:(fun () -> Fault.clear ()) @@ fun () ->
  Fault.inject ~site:"wal.commit" (Fault.Every 1);
  (* The crash point sits after the pages were dirtied, so the handle
     cannot roll back in-memory state: it poisons. *)
  (match Durable.insert_subtree d ~parent:book (T.elem_text "note" "c") with
  | exception Fault.Io_error _ -> ()
  | _ -> Alcotest.fail "armed wal.commit should fail the transaction");
  (match Durable.insert_subtree d ~parent:book (T.elem_text "note" "d") with
  | exception Durable.Poisoned _ -> ()
  | _ -> Alcotest.fail "poisoned handle should reject further writes");
  (match Durable.checkpoint d with
  | exception Durable.Poisoned _ -> ()
  | _ -> Alcotest.fail "poisoned handle should reject checkpoints");
  Fault.clear ();
  Durable.close d;
  (* Reopen: exactly the pre-crash commits survive. *)
  let d2, r = Durable.open_ dir in
  Fun.protect
    ~finally:(fun () -> Durable.close d2)
    (fun () ->
      let db2 = Durable.database d2 in
      check Alcotest.int "committed prefix replayed" 2 r.Durable.replayed;
      check Alcotest.int "uncommitted txn discarded" 2 (note_count db2);
      assert_fsck_clean "after commit-crash recovery" db2;
      ignore (Durable.insert_subtree d2 ~parent:book (T.elem_text "note" "e"));
      check Alcotest.int "fresh handle writes again" 3 (note_count db2))

let test_torn_append_recovers_to_prefix () =
  with_dir @@ fun dir ->
  let db = Database.create ~strategies:Database.[ RP; DP ] (book_doc ()) in
  let d = Durable.create ~dir db in
  let book = find_id db.Database.doc "book" in
  ignore (Durable.insert_subtree d ~parent:book (T.elem_text "note" "a"));
  (* Tear the 4th appended frame from here on: some later transaction
     persists a damaged frame mid-log — the kind of log a real torn
     write leaves behind. *)
  Fun.protect ~finally:(fun () -> Fault.clear ()) @@ fun () ->
  Fault.inject ~action:Fault.Torn ~site:"wal.append" (Fault.After 3);
  (try
     for i = 2 to 4 do
       ignore (Durable.insert_subtree d ~parent:book (T.elem_text "note" (string_of_int i)))
     done
   with Fault.Io_error _ | Durable.Poisoned _ -> ());
  Fault.clear ();
  Durable.close d;
  let s = Wal.scan (Durable.wal_path dir) in
  check Alcotest.bool "the log really is damaged" true s.Wal.damaged;
  let d2, r = Durable.open_ dir in
  Fun.protect
    ~finally:(fun () -> Durable.close d2)
    (fun () ->
      let db2 = Durable.database d2 in
      check Alcotest.int "recovery = committed prefix of the valid log"
        (List.length s.Wal.committed) r.Durable.replayed;
      check Alcotest.int "notes match the committed prefix" (List.length s.Wal.committed)
        (note_count db2);
      check Alcotest.bool "damaged tail truncated" true (r.Durable.discarded_bytes > 0);
      assert_fsck_clean "after torn-append recovery" db2)

(* create must not wipe a directory that already holds a database: its
   log may carry committed transactions no checkpoint has folded in. *)
let test_create_refuses_existing_database () =
  with_dir @@ fun dir ->
  let db = Database.create ~strategies:Database.[ RP ] (book_doc ()) in
  let d = Durable.create ~dir db in
  let book = find_id db.Database.doc "book" in
  ignore (Durable.insert_subtree d ~parent:book (T.elem_text "note" "precious"));
  Durable.close d;
  (match Durable.create ~dir (Database.create ~strategies:Database.[ RP ] (book_doc ())) with
  | exception Invalid_argument _ -> ()
  | d' ->
    Durable.close d';
    Alcotest.fail "create over an existing database must refuse");
  (* The refusal left the directory untouched: recovery still replays. *)
  let d2, r = Durable.open_ dir in
  check Alcotest.int "committed txn survives the refused create" 1 r.Durable.replayed;
  check Alcotest.int "note still present" 1 (note_count (Durable.database d2));
  Durable.close d2;
  (* Overwrite is explicit opt-in. *)
  let d3 =
    Durable.create ~force:true ~dir (Database.create ~strategies:Database.[ RP ] (book_doc ()))
  in
  check Alcotest.int "forced create starts fresh" 0 (note_count (Durable.database d3));
  Durable.close d3

(* One writer per directory: while a handle is live, neither a forced
   create nor an open may touch its directory — both would rewrite the
   log the live handle still appends to. Close releases it. *)
let test_one_live_handle_per_directory () =
  with_dir @@ fun dir ->
  let db = Database.create ~strategies:Database.[ RP ] (book_doc ()) in
  let d = Durable.create ~dir db in
  let book = find_id db.Database.doc "book" in
  ignore (Durable.insert_subtree d ~parent:book (T.elem_text "note" "first"));
  let log_before = (Unix.stat (Durable.wal_path dir)).Unix.st_size in
  (match
     Durable.create ~force:true ~dir (Database.create ~strategies:Database.[ RP ] (book_doc ()))
   with
  | exception Updates.Writer_conflict _ -> ()
  | d' ->
    Durable.close d';
    Alcotest.fail "a forced create over a live handle's directory must refuse");
  (match Durable.open_ dir with
  | exception Updates.Writer_conflict _ -> ()
  | d', _ ->
    Durable.close d';
    Alcotest.fail "opening a live handle's directory must refuse");
  (* the same database under a second directory is a second writer too *)
  with_dir (fun dir2 ->
      match Durable.create ~dir:dir2 db with
      | exception Updates.Writer_conflict _ -> ()
      | d' ->
        Durable.close d';
        Alcotest.fail "a second handle on the same database must refuse");
  check Alcotest.int "the refusals left the log alone" log_before
    (Unix.stat (Durable.wal_path dir)).Unix.st_size;
  ignore (Durable.insert_subtree d ~parent:book (T.elem_text "note" "second"));
  Durable.close d;
  let d2, r = Durable.open_ dir in
  check Alcotest.int "both commits replay after close" 2 r.Durable.replayed;
  Durable.close d2

(* A database owned by a live handle takes updates only through it:
   direct [Updates] calls would bypass the WAL and the epoch versions
   pinned readers rely on. The guard is process state, not database
   state: a snapshot of an owned database loads unowned, and close
   releases the original. *)
let test_updates_refused_under_live_handle () =
  with_dir @@ fun dir ->
  let db = Database.create ~strategies:Database.[ RP ] (book_doc ()) in
  let d = Durable.create ~dir db in
  let book = find_id db.Database.doc "book" in
  (match Updates.insert_subtree db ~parent:book (T.elem_text "note" "stray") with
  | exception Updates.Writer_conflict _ -> ()
  | _ -> Alcotest.fail "Updates.insert_subtree on an owned database must refuse");
  (match Updates.delete_subtree db (find_id db.Database.doc "year") with
  | exception Updates.Writer_conflict _ -> ()
  | _ -> Alcotest.fail "Updates.delete_subtree on an owned database must refuse");
  check Alcotest.int "nothing changed behind the handle" 0 (note_count db);
  check Alcotest.(list int) "year still present" [ find_id db.Database.doc "year" ]
    (run_ids db "/book/year");
  ignore (Durable.insert_subtree d ~parent:book (T.elem_text "note" "logged"));
  let copy = Persist.load (Durable.snapshot_path dir) in
  ignore (Updates.insert_subtree copy ~parent:book (T.elem_text "note" "copy"));
  Durable.close d;
  ignore (Updates.insert_subtree db ~parent:book (T.elem_text "note" "after close"));
  check Alcotest.int "updates resume after close" 2 (note_count db)

(* A transaction that poisons the handle mid-batch must not void the
   durability of the batch's earlier, already-acknowledged commits: the
   closing group fsync still runs (best effort) and reopen replays
   exactly the committed prefix. *)
let test_batch_poison_still_syncs_earlier_commits () =
  with_dir @@ fun dir ->
  let db = Database.create ~strategies:Database.[ RP; DP ] (book_doc ()) in
  let d = Durable.create ~dir db in
  let book = find_id db.Database.doc "book" in
  Fun.protect ~finally:(fun () -> Fault.clear ()) @@ fun () ->
  Fault.inject ~site:"wal.commit" (Fault.After 2);
  (match
     Durable.batch d (fun () ->
         for i = 1 to 3 do
           ignore (Durable.insert_subtree d ~parent:book (T.elem_text "note" (string_of_int i)))
         done)
   with
  | exception Fault.Io_error _ -> ()
  | () -> Alcotest.fail "third commit should hit the armed wal.commit failpoint");
  (match Durable.insert_subtree d ~parent:book (T.elem_text "note" "x") with
  | exception Durable.Poisoned _ -> ()
  | _ -> Alcotest.fail "handle should be poisoned after the mid-batch crash");
  Fault.clear ();
  Durable.close d;
  let d2, r = Durable.open_ dir in
  Fun.protect
    ~finally:(fun () -> Durable.close d2)
    (fun () ->
      check Alcotest.int "the two acknowledged txns recovered" 2 r.Durable.replayed;
      check Alcotest.int "their notes present" 2 (note_count (Durable.database d2));
      assert_fsck_clean "after mid-batch poison recovery" (Durable.database d2))

(* The batch-closing fsync itself failing poisons the handle: the
   acknowledged commits now have indeterminate durability, and the only
   safe continuation is a reopen. *)
let test_batch_sync_failure_poisons () =
  with_dir @@ fun dir ->
  let db = Database.create ~strategies:Database.[ RP ] (book_doc ()) in
  let d = Durable.create ~dir db in
  let book = find_id db.Database.doc "book" in
  Fun.protect ~finally:(fun () -> Fault.clear ()) @@ fun () ->
  Fault.inject ~site:"wal.fsync" (Fault.Every 1);
  (match
     Durable.batch d (fun () ->
         for i = 1 to 2 do
           ignore (Durable.insert_subtree d ~parent:book (T.elem_text "note" (string_of_int i)))
         done)
   with
  | exception Fun.Finally_raised (Fault.Io_error _) -> ()
  | () -> Alcotest.fail "group fsync should hit the armed wal.fsync failpoint");
  (match Durable.insert_subtree d ~parent:book (T.elem_text "note" "x") with
  | exception Durable.Poisoned _ -> ()
  | _ -> Alcotest.fail "failed group fsync should poison the handle");
  Fault.clear ();
  Durable.close d;
  let d2, r = Durable.open_ dir in
  Fun.protect
    ~finally:(fun () -> Durable.close d2)
    (fun () ->
      check Alcotest.int "appended commits replayed after reopen" 2 r.Durable.replayed;
      assert_fsck_clean "after failed-group-fsync recovery" (Durable.database d2))

let test_clean_abort_keeps_handle_usable () =
  with_dir @@ fun dir ->
  let db = Database.create ~strategies:Database.[ RP; DP ] (book_doc ()) in
  let d = Durable.create ~dir db in
  let book = find_id db.Database.doc "book" in
  (* Validation failures strike before any page is dirtied: clean abort. *)
  (match Durable.insert_subtree d ~parent:0 (T.elem "x" []) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "virtual-root insert should be rejected");
  (match Durable.delete_subtree d 99999 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown-id delete should be rejected");
  ignore (Durable.insert_subtree d ~parent:book (T.elem_text "note" "ok"));
  Durable.close d;
  let d2, r = Durable.open_ dir in
  Fun.protect
    ~finally:(fun () -> Durable.close d2)
    (fun () ->
      check Alcotest.int "only the good txn recovered" 1 r.Durable.replayed;
      check Alcotest.int "one note" 1 (note_count (Durable.database d2));
      assert_fsck_clean "after clean aborts" (Durable.database d2))

let () =
  Alcotest.run "wal"
    [
      ( "frames",
        [
          Alcotest.test_case "codec roundtrip through scan" `Quick test_codec_roundtrip;
          Alcotest.test_case "missing file scans empty" `Quick test_missing_file_scans_empty;
          Alcotest.test_case "torn tail detected and truncated" `Quick
            test_torn_tail_scan_and_truncate;
          Alcotest.test_case "bitflip stops the scan" `Quick test_bitflip_stops_scan;
          Alcotest.test_case "op codec roundtrip" `Quick test_op_codec_roundtrip;
          QCheck_alcotest.to_alcotest prop_frames_roundtrip;
          QCheck_alcotest.to_alcotest prop_frames_truncated;
          QCheck_alcotest.to_alcotest prop_frames_bitflip;
        ] );
      ( "durability",
        [
          Alcotest.test_case "logged txns replay identically" `Quick test_durable_roundtrip;
          Alcotest.test_case "group commit recovers whole batch" `Quick test_group_commit_batch;
          Alcotest.test_case "checkpoint truncates, idempotent" `Quick
            test_checkpoint_truncates_and_is_idempotent;
          Alcotest.test_case "open removes a dead save's temp file" `Quick
            test_open_removes_a_dead_save_temp;
          Alcotest.test_case "snapshotted txns skipped on replay" `Quick
            test_recovery_skips_snapshotted_txns;
          Alcotest.test_case "clean aborts keep the handle usable" `Quick
            test_clean_abort_keeps_handle_usable;
          Alcotest.test_case "create refuses an existing database" `Quick
            test_create_refuses_existing_database;
          Alcotest.test_case "mid-batch poison keeps earlier commits durable" `Quick
            test_batch_poison_still_syncs_earlier_commits;
          Alcotest.test_case "failed group fsync poisons" `Quick test_batch_sync_failure_poisons;
          Alcotest.test_case "one live handle per directory" `Quick
            test_one_live_handle_per_directory;
          Alcotest.test_case "updates refused under a live handle" `Quick
            test_updates_refused_under_live_handle;
        ] );
      ( "crashes",
        [
          Alcotest.test_case "kill matrix at every frame boundary" `Slow test_crash_matrix;
          Alcotest.test_case "commit failpoint poisons, reopen recovers" `Quick
            test_commit_failpoint_poisons_then_recovers;
          Alcotest.test_case "torn append recovers to committed prefix" `Quick
            test_torn_append_recovers_to_prefix;
          Alcotest.test_case "wrong page crc fails recovery" `Quick
            test_flipped_page_crc_fails_recovery;
          Alcotest.test_case "missing page record fails recovery" `Quick
            test_dropped_page_frame_fails_recovery;
          Alcotest.test_case "page images in the log still recover" `Quick
            test_page_images_in_log_still_recover;
        ] );
    ]
