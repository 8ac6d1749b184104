(* Tests for the storage substrate: codecs, pager, buffer pool and
   B+-tree. The B+-tree is checked against a reference model (sorted
   association list) with qcheck-generated workloads, and its pages
   with fsck's tree walk. *)

open Tm_storage

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* fsck's structural walk of a B+-tree (key order against separators,
   leaf chain, uniform depth, front-coding round trip, recorded entry
   count); fails on any violation, else returns the entry count. *)
let check_tree t =
  match Tm_check.Check.check_tree t with
  | [] -> Bptree.entry_count t
  | vs ->
    Alcotest.failf "tree violations: %s"
      (String.concat "; " (List.map (fun v -> v.Tm_check.Check.detail) vs))

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let test_varint_roundtrip () =
  List.iter
    (fun n ->
      let buf = Buffer.create 8 in
      Codec.add_varint buf n;
      let v, pos = Codec.read_varint (Buffer.contents buf) 0 in
      check Alcotest.int "value" n v;
      check Alcotest.int "consumed" (Buffer.length buf) pos)
    [ 0; 1; 127; 128; 300; 16384; 1_000_000; max_int / 2 ]

let test_signed_varint_roundtrip () =
  List.iter
    (fun n ->
      let buf = Buffer.create 8 in
      Codec.add_signed_varint buf n;
      let v, _ = Codec.read_signed_varint (Buffer.contents buf) 0 in
      check Alcotest.int "value" n v)
    [ 0; 1; -1; 63; -64; 64; -65; 1_000_000; -1_000_000 ]

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500
    QCheck.(int_bound 1_000_000_000)
    (fun n ->
      let buf = Buffer.create 8 in
      Codec.add_varint buf n;
      fst (Codec.read_varint (Buffer.contents buf) 0) = n)

let prop_signed_varint_roundtrip =
  QCheck.Test.make ~name:"signed varint roundtrip" ~count:500 QCheck.int (fun n ->
      let n = n / 4 (* stay clear of zigzag overflow at min_int *) in
      let buf = Buffer.create 8 in
      Codec.add_signed_varint buf n;
      fst (Codec.read_signed_varint (Buffer.contents buf) 0) = n)

let test_idlist_roundtrip () =
  List.iter
    (fun ids ->
      check
        Alcotest.(list int)
        "delta" ids
        (Codec.idlist_of_string (Codec.idlist_to_string ids));
      check
        Alcotest.(list int)
        "raw" ids
        (Codec.idlist_raw_of_string (Codec.idlist_raw_to_string ids)))
    [ []; [ 1 ]; [ 1; 5; 6; 7 ]; [ 100; 3; 200; 199 ]; List.init 50 (fun i -> i * i) ]

let prop_idlist_roundtrip =
  QCheck.Test.make ~name:"idlist delta roundtrip" ~count:300
    QCheck.(list (int_bound 1_000_000))
    (fun ids -> Codec.idlist_of_string (Codec.idlist_to_string ids) = ids)

let test_idlist_delta_smaller () =
  (* The whole point of differential encoding: parent/child ids are close,
     so the delta form is much smaller than 4 bytes per id. *)
  let ids = List.init 12 (fun i -> 100_000 + i) in
  let delta = String.length (Codec.idlist_to_string ids) in
  let raw = String.length (Codec.idlist_raw_to_string ids) in
  if delta * 2 > raw then
    Alcotest.failf "delta encoding not compact: %d vs raw %d" delta raw

let test_value_encoding () =
  check Alcotest.string "null is empty" "" (Codec.encode_value None);
  List.iter
    (fun v ->
      check
        Alcotest.(option string)
        "roundtrip" (Some v)
        (Codec.decode_value (Codec.encode_value (Some v))))
    [ ""; "XML"; "jane"; "a\x00b"; "a\x01b"; "\x00\x01\x02" ]

let prop_value_encoding_order =
  (* Order-preserving: null sorts before everything; values keep their
     relative order apart from escape expansion of 0x00/0x01 bytes, which
     we avoid in generated values. *)
  QCheck.Test.make ~name:"value encoding preserves order" ~count:300
    QCheck.(pair printable_string printable_string)
    (fun (a, b) ->
      let ea = Codec.encode_value (Some a) and eb = Codec.encode_value (Some b) in
      compare ea eb = compare a b && Codec.encode_value None < ea)

let test_u32_order () =
  let pairs = [ (0, 1); (255, 256); (65535, 65536); (1, 1_000_000) ] in
  List.iter
    (fun (a, b) ->
      if not (Codec.u32_to_string a < Codec.u32_to_string b) then
        Alcotest.failf "u32 order broken for %d < %d" a b)
    pairs

let test_prefix_successor () =
  check Alcotest.(option string) "simple" (Some "ab") (Codec.prefix_successor "aa");
  check Alcotest.(option string) "carry" (Some "b") (Codec.prefix_successor "a\xff");
  check Alcotest.(option string) "all ff" None (Codec.prefix_successor "\xff\xff");
  check Alcotest.(option string) "empty" None (Codec.prefix_successor "")

let prop_prefix_successor_bounds =
  QCheck.Test.make ~name:"prefix successor bounds all extensions" ~count:500
    QCheck.(pair string small_string)
    (fun (p, ext) ->
      match Codec.prefix_successor p with
      | None -> true
      | Some succ -> String.compare (p ^ ext) succ < 0 && String.compare p succ < 0)

(* CRC32: the standard check value, agreement with a byte-at-a-time
   reference over arbitrary ranges and chained seeds, and range
   checking. *)

let test_crc32_check_value () =
  check Alcotest.int "crc32 \"123456789\"" 0xCBF43926 (Codec.crc32_string "123456789");
  check Alcotest.int "crc32 \"\"" 0 (Codec.crc32_string "")

(* The bitwise CRC32 (no tables), one byte at a time: the oracle for
   the sliced implementation. *)
let crc32_reference crc data pos len =
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code (Bytes.get data i);
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let prop_crc32_matches_reference =
  let gen =
    QCheck.Gen.(
      int_range 0 300 >>= fun len ->
      int_range 0 16 >>= fun pos ->
      int_range 0 16 >>= fun slack ->
      string_size (return (pos + len + slack)) >>= fun data ->
      int_range 0 len >>= fun split ->
      map2 (fun hi lo -> (hi lsl 16) lor lo) (int_bound 0xFFFF) (int_bound 0xFFFF) >>= fun seed ->
      return (Bytes.of_string data, pos, len, split, seed))
  in
  let print (data, pos, len, split, seed) =
    Printf.sprintf "%d bytes, pos %d, len %d, split %d, seed 0x%08x" (Bytes.length data) pos len
      split seed
  in
  QCheck.Test.make ~name:"crc32 agrees with a byte-at-a-time reference" ~count:500
    (QCheck.make ~print gen) (fun (data, pos, len, split, seed) ->
      let expected = crc32_reference seed data pos len in
      let chained =
        Codec.crc32_update
          (Codec.crc32_update seed data pos split)
          data (pos + split) (len - split)
      in
      Codec.crc32_update seed data pos len = expected && chained = expected)

let test_crc32_range_checked () =
  let b = Bytes.make 16 'x' in
  List.iter
    (fun (pos, len) ->
      match Codec.crc32_update 0 b pos len with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "crc32_update accepted pos %d, len %d on 16 bytes" pos len)
    [ (-1, 4); (0, -1); (0, 17); (16, 1); (13, 4); (1, max_int); (max_int, 1) ];
  check Alcotest.int "empty range at the end" 7 (Codec.crc32_update 7 b 16 0)

(* [varint_len] and [set_varint] must agree with [add_varint] at every
   7-bit boundary, up to the largest int. *)
let test_varint_len_and_set () =
  let values =
    0 :: max_int
    :: List.concat_map (fun b -> [ (1 lsl b) - 1; 1 lsl b; (1 lsl b) + 1 ]) (List.init 62 Fun.id)
  in
  List.iter
    (fun n ->
      let buf = Buffer.create 10 in
      Codec.add_varint buf n;
      let expect = Buffer.contents buf in
      let len = String.length expect in
      check Alcotest.int (Printf.sprintf "varint_len %d" n) len (Codec.varint_len n);
      let b = Bytes.make (len + 2) '\xee' in
      check Alcotest.int (Printf.sprintf "set_varint %d end" n) (1 + len) (Codec.set_varint b 1 n);
      check Alcotest.string (Printf.sprintf "set_varint %d bytes" n) ("\xee" ^ expect ^ "\xee")
        (Bytes.to_string b))
    values

(* ------------------------------------------------------------------ *)
(* Pager / buffer pool                                                 *)
(* ------------------------------------------------------------------ *)

let test_pager_roundtrip () =
  let pager = Pager.create ~page_size:256 () in
  let a = Pager.alloc pager and b = Pager.alloc pager in
  ignore (Pager.write pager a (Bytes.of_string "hello"));
  ignore (Pager.write pager b (Bytes.of_string "world"));
  check Alcotest.string "page a" "hello" (Bytes.sub_string (Pager.read pager a) 0 5);
  check Alcotest.string "page b" "world" (Bytes.sub_string (Pager.read pager b) 0 5);
  check Alcotest.int "count" 2 (Pager.page_count pager);
  check Alcotest.int "size" 512 (Pager.size_bytes pager)

let test_pager_bad_id () =
  let pager = Pager.create () in
  (* Unallocated ids surface as the typed Corrupt_page, not a bare
     Invalid_argument, so the executor's fallback can classify them. *)
  Alcotest.check_raises "bad id"
    (Pager.Corrupt_page { page = 7; detail = "unallocated page id" })
    (fun () -> ignore (Pager.read pager 7))

let test_buffer_pool_caching () =
  let pager = Pager.create ~page_size:128 () in
  let pool = Buffer_pool.create ~capacity:2 pager in
  let a = Buffer_pool.alloc pool in
  ignore (Buffer_pool.write pool a (Bytes.of_string "aaa"));
  Pager.reset_stats pager;
  Buffer_pool.reset_stats pool;
  (* Two reads of a resident page: no physical I/O. *)
  ignore (Buffer_pool.read pool a);
  ignore (Buffer_pool.read pool a);
  check Alcotest.int "no physical reads" 0 (Pager.physical_reads pager);
  let s = Buffer_pool.stats pool in
  check Alcotest.int "logical reads" 2 s.Buffer_pool.logical_reads;
  check Alcotest.int "misses" 0 s.Buffer_pool.misses

(* Writes go straight through: the pager holds a page's bytes while the
   page is still resident. Capacity 2 is two stripes of one frame, so
   [c] shares [a]'s stripe and evicts it; re-reading [a] is one miss
   that fetches the same bytes from the pager. *)
let test_buffer_pool_write_through () =
  let pager = Pager.create ~page_size:128 () in
  let pool = Buffer_pool.create ~capacity:2 pager in
  let a = Buffer_pool.alloc pool in
  let b = Buffer_pool.alloc pool in
  let c = Buffer_pool.alloc pool in
  ignore (Buffer_pool.write pool a (Bytes.of_string "AAA"));
  check Alcotest.bool "a resident" true (Buffer_pool.resident pool a);
  check Alcotest.string "the pager holds a's bytes" "AAA"
    (Bytes.sub_string (Pager.image pager a) 0 3);
  ignore (Buffer_pool.write pool b (Bytes.of_string "BBB"));
  ignore (Buffer_pool.write pool c (Bytes.of_string "CCC"));
  check Alcotest.bool "c evicted a" false (Buffer_pool.resident pool a);
  Buffer_pool.reset_stats pool;
  check Alcotest.string "a content" "AAA" (Bytes.sub_string (Buffer_pool.read pool a) 0 3);
  check Alcotest.int "one miss" 1 (Buffer_pool.stats pool).Buffer_pool.misses

(* Each stripe runs CLOCK over its frames. Capacity 32 over 16 stripes
   gives stripe 0 two frames, for pages 0, 16, 32 and 48. A miss clears
   set reference bits until the hand reaches a clear one, whose page
   leaves: a page read since it came in gets a second chance. Once every
   page has used its chance, the page the hand started at leaves, even
   when it was read last, where LRU would evict the other. *)
let test_buffer_pool_clock_second_chance () =
  let pager = Pager.create ~page_size:128 () in
  let pool = Buffer_pool.create ~capacity:32 pager in
  for _ = 0 to 48 do
    ignore (Buffer_pool.alloc pool)
  done;
  Buffer_pool.clear pool;
  Buffer_pool.reset_stats pool;
  let read p = ignore (Buffer_pool.read pool p) in
  let resident p = Buffer_pool.resident pool p in
  (* frames 0 and 1 take pages 0 and 16, bits clear; the hand is at 0 *)
  read 0;
  read 16;
  read 0;
  read 32;
  check Alcotest.bool "page 0 had a second chance" true (resident 0);
  check Alcotest.bool "page 16 left" false (resident 16);
  (* frames hold 0 and 32, bits clear; the hand is at frame 0 again *)
  read 32;
  read 0;
  read 48;
  check Alcotest.bool "page 0 left although read last" false (resident 0);
  check Alcotest.bool "page 32 stayed" true (resident 32);
  check Alcotest.int "evictions" 2 (Buffer_pool.stats pool).Buffer_pool.evictions

(* A hit takes its stripe's lock, then the pager's, and allocates
   nothing. *)
let test_buffer_pool_hit_allocates_nothing () =
  let pool = Buffer_pool.create ~capacity:8 (Pager.create ~page_size:128 ()) in
  let id = Buffer_pool.alloc pool in
  ignore (Buffer_pool.read pool id);
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Buffer_pool.read pool id)
  done;
  let words = Gc.minor_words () -. w0 in
  if words > 50.0 then Alcotest.failf "1000 hits allocated %.0f words" words

(* The pool against a reference model: striping by page id, each
   stripe's share of the frames, CLOCK within a stripe, and the pager's
   bytes behind it. Capacities up to 128 give stripes of 1 to 8 frames.
   After every step the counts and the resident set must equal the
   model's, no stripe may hold more pages than its share, and a read
   must return the bytes last written. *)
type pool_op = Alloc | Write of int * string | Read of int | Clear

type model_stripe = {
  m_holds : int array;
  m_refd : bool array;
  mutable m_used : int;
  mutable m_hand : int;
}

let prop_pool_clock_model =
  let page_size = 64 in
  let gen =
    QCheck.Gen.(
      pair (int_range 1 128)
        (list_size (int_range 1 300)
           (frequency
              [
                (2, return Alloc);
                (3, map2 (fun i s -> Write (i, s)) nat (string_size ~gen:printable (int_range 0 64)));
                (6, map (fun i -> Read i) nat);
                (1, return Clear);
              ])))
  in
  let print_op = function
    | Alloc -> "alloc"
    | Write (i, s) -> Printf.sprintf "write %d %S" i s
    | Read i -> Printf.sprintf "read %d" i
    | Clear -> "clear"
  in
  let print (cap, ops) = Printf.sprintf "capacity %d: %s" cap (String.concat "; " (List.map print_op ops)) in
  QCheck.Test.make ~name:"pool agrees with a CLOCK model" ~count:300 (QCheck.make ~print gen)
    (fun (capacity, ops) ->
      let pool = Buffer_pool.create ~capacity (Pager.create ~page_size ()) in
      let n = min 16 capacity in
      let share i = (capacity / n) + if i < capacity mod n then 1 else 0 in
      let stripes =
        Array.init n (fun i ->
            { m_holds = Array.make (share i) (-1); m_refd = Array.make (share i) false; m_used = 0; m_hand = 0 })
      in
      let contents = ref [||] in
      let reads = ref 0 and misses = ref 0 and evictions = ref 0 in
      let frame_of id =
        let st = stripes.(id mod n) in
        let rec go f = if f >= st.m_used then None else if st.m_holds.(f) = id then Some f else go (f + 1) in
        (st, go 0)
      in
      let access id =
        incr reads;
        match frame_of id with
        | st, Some f -> st.m_refd.(f) <- true
        | st, None ->
          let cap = Array.length st.m_holds in
          let f =
            if st.m_used < cap then begin
              st.m_used <- st.m_used + 1;
              st.m_used - 1
            end
            else begin
              while st.m_refd.(st.m_hand) do
                st.m_refd.(st.m_hand) <- false;
                st.m_hand <- (st.m_hand + 1) mod cap
              done;
              incr evictions;
              let f = st.m_hand in
              st.m_hand <- (f + 1) mod cap;
              f
            end
          in
          st.m_holds.(f) <- id;
          st.m_refd.(f) <- false
      in
      let page i = i mod Array.length !contents in
      let agree () =
        let s = Buffer_pool.stats pool in
        let counts = Array.make n 0 in
        Array.iteri
          (fun id _ ->
            let model = Option.is_some (snd (frame_of id)) in
            if Buffer_pool.resident pool id then counts.(id mod n) <- counts.(id mod n) + 1;
            if Buffer_pool.resident pool id <> model then
              QCheck.Test.fail_reportf "page %d: resident %b, model %b" id (not model) model)
          !contents;
        Array.iteri
          (fun i c -> if c > share i then QCheck.Test.fail_reportf "stripe %d holds %d > %d" i c (share i))
          counts;
        s.Buffer_pool.logical_reads = !reads
        && s.Buffer_pool.misses = !misses
        && s.Buffer_pool.evictions = !evictions
      in
      List.for_all
        (fun op ->
          (match op with
          | Alloc ->
            let id = Buffer_pool.alloc pool in
            assert (id = Array.length !contents);
            contents := Array.append !contents [| "" |];
            access id
          | Write (i, data) when Array.length !contents > 0 ->
            ignore (Buffer_pool.write pool (page i) (Bytes.of_string data));
            !contents.(page i) <- data;
            access (page i)
          | Read i when Array.length !contents > 0 ->
            let id = page i in
            (match frame_of id with _, None -> incr misses | _, Some _ -> ());
            let got = Buffer_pool.read pool id in
            access id;
            let want = !contents.(id) in
            let padded = want ^ String.make (page_size - String.length want) '\x00' in
            if not (String.equal (Bytes.to_string got) padded) then
              QCheck.Test.fail_reportf "page %d: read %S, last wrote %S" id (Bytes.to_string got) want
          | Write _ | Read _ -> ()
          | Clear ->
            Buffer_pool.clear pool;
            Array.iter
              (fun st ->
                st.m_used <- 0;
                st.m_hand <- 0;
                Array.fill st.m_refd 0 (Array.length st.m_refd) false)
              stripes);
          agree ())
        ops)

let test_buffer_pool_clear () =
  let pager = Pager.create ~page_size:128 () in
  let pool = Buffer_pool.create ~capacity:8 pager in
  let a = Buffer_pool.alloc pool in
  ignore (Buffer_pool.write pool a (Bytes.of_string "XYZ"));
  Buffer_pool.clear pool;
  check Alcotest.string "persisted through clear" "XYZ" (Bytes.sub_string (Pager.read pager a) 0 3);
  Buffer_pool.reset_stats pool;
  ignore (Buffer_pool.read pool a);
  check Alcotest.int "cold after clear" 1 (Buffer_pool.stats pool).Buffer_pool.misses

(* ------------------------------------------------------------------ *)
(* B+-tree                                                             *)
(* ------------------------------------------------------------------ *)

let make_pool ?(page_size = 512) ?(capacity = 4096) () =
  Buffer_pool.create ~capacity (Pager.create ~page_size ())

let test_bptree_empty () =
  let t = Bptree.create ~name:"t" (make_pool ()) in
  check Alcotest.(list string) "lookup on empty" [] (Bptree.lookup_all t "x");
  check Alcotest.int "count" 0 (Bptree.entry_count t);
  check Alcotest.int "invariants" 0 (check_tree t)

let test_bptree_basic () =
  let t = Bptree.create ~name:"t" (make_pool ()) in
  Bptree.insert t "b" "2";
  Bptree.insert t "a" "1";
  Bptree.insert t "c" "3";
  check Alcotest.(list string) "a" [ "1" ] (Bptree.lookup_all t "a");
  check Alcotest.(list string) "b" [ "2" ] (Bptree.lookup_all t "b");
  check Alcotest.(list string) "missing" [] (Bptree.lookup_all t "zz");
  check
    Alcotest.(list (pair string string))
    "scan" [ ("a", "1"); ("b", "2"); ("c", "3") ] (Bptree.to_list t)

let test_bptree_duplicates () =
  let t = Bptree.create ~name:"t" (make_pool ()) in
  Bptree.insert t "k" "3";
  Bptree.insert t "k" "1";
  Bptree.insert t "k" "2";
  Bptree.insert t "j" "0";
  check Alcotest.(list string) "dups in payload order" [ "1"; "2"; "3" ] (Bptree.lookup_all t "k")

let test_bptree_many_inserts_with_splits () =
  let t = Bptree.create ~name:"t" (make_pool ~page_size:256 ()) in
  let n = 2000 in
  for i = 0 to n - 1 do
    (* Shuffled-ish order via multiplication by a unit mod n. *)
    let j = 7 * i mod n in
    Bptree.insert t (Printf.sprintf "key%06d" j) (string_of_int j)
  done;
  check Alcotest.int "entries" n (check_tree t);
  if Bptree.height t < 3 then Alcotest.failf "expected splits, height=%d" (Bptree.height t);
  for i = 0 to n - 1 do
    let got = Bptree.lookup_all t (Printf.sprintf "key%06d" i) in
    check Alcotest.(list string) "lookup" [ string_of_int i ] got
  done

let test_bptree_range_scan () =
  let t = Bptree.create ~name:"t" (make_pool ~page_size:256 ()) in
  for i = 0 to 999 do
    Bptree.insert t (Printf.sprintf "%04d" i) (string_of_int i)
  done;
  let got = Bptree.fold_range t ~lo:"0100" ~hi:(Some "0200") (fun acc k _ -> k :: acc) [] in
  check Alcotest.int "range size" 100 (List.length got);
  check Alcotest.string "first" "0100" (List.nth (List.rev got) 0);
  check Alcotest.string "last" "0199" (List.hd got);
  check Alcotest.int "count_range" 100 (Bptree.count_range t ~lo:"0100" ~hi:(Some "0200"))

let test_bptree_prefix_scan () =
  let t = Bptree.create ~name:"t" (make_pool ()) in
  List.iter
    (fun (k, v) -> Bptree.insert t k v)
    [ ("apple", "1"); ("applet", "2"); ("apply", "3"); ("banana", "4"); ("app", "0") ];
  let got = List.rev (Bptree.fold_prefix t ~prefix:"appl" (fun acc k _ -> k :: acc) []) in
  check Alcotest.(list string) "prefix matches" [ "apple"; "applet"; "apply" ] got;
  check Alcotest.int "count_prefix app" 4 (Bptree.count_prefix t ~prefix:"app")

let test_bptree_bulk_load () =
  let n = 5000 in
  let entries = List.init n (fun i -> (Printf.sprintf "key%06d" i, string_of_int i)) in
  let t = Bptree.bulk_load ~name:"bulk" (make_pool ~page_size:512 ()) entries in
  check Alcotest.int "entries" n (check_tree t);
  check Alcotest.(list string) "lookup mid" [ "2500" ] (Bptree.lookup_all t "key002500");
  check Alcotest.(list string) "lookup first" [ "0" ] (Bptree.lookup_all t "key000000");
  check Alcotest.(list string) "lookup last" [ "4999" ] (Bptree.lookup_all t "key004999");
  check Alcotest.(list (pair string string)) "full scan" entries (Bptree.to_list t)

let test_bptree_bulk_load_unsorted_rejected () =
  let pool = make_pool () in
  match Bptree.bulk_load ~name:"bad" pool [ ("b", "1"); ("a", "2") ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on unsorted input"

let test_bptree_prefix_compression_smaller () =
  (* Keys sharing long prefixes (like reverse schema paths) should occupy
     fewer pages with front-coding on. *)
  let entries =
    List.init 4000 (fun i -> (Printf.sprintf "common/long/shared/prefix/%06d" i, "p"))
  in
  let with_pc =
    Bptree.bulk_load ~prefix_compression:true ~name:"pc" (make_pool ~page_size:512 ()) entries
  in
  let without_pc =
    Bptree.bulk_load ~prefix_compression:false ~name:"nopc" (make_pool ~page_size:512 ()) entries
  in
  if Bptree.page_count with_pc >= Bptree.page_count without_pc then
    Alcotest.failf "prefix compression did not shrink tree: %d vs %d pages"
      (Bptree.page_count with_pc) (Bptree.page_count without_pc)

let test_bptree_oversized_entry_rejected () =
  let t = Bptree.create ~name:"t" (make_pool ~page_size:256 ()) in
  match Bptree.insert t (String.make 500 'k') "v" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected Invalid_argument for oversized entry"

let test_bptree_delete_basic () =
  let t = Bptree.create ~name:"t" (make_pool ()) in
  Bptree.insert t "a" "1";
  Bptree.insert t "b" "2";
  Bptree.insert t "b" "3";
  check Alcotest.bool "delete existing" true (Bptree.delete t "b" "2");
  check Alcotest.(list string) "one b left" [ "3" ] (Bptree.lookup_all t "b");
  check Alcotest.bool "delete missing payload" false (Bptree.delete t "b" "2");
  check Alcotest.bool "delete missing key" false (Bptree.delete t "zz" "x");
  check Alcotest.int "count" 2 (Bptree.entry_count t);
  check Alcotest.int "invariants" 2 (check_tree t)

let test_bptree_delete_across_leaves () =
  (* duplicates spanning leaf boundaries must all be reachable *)
  let t = Bptree.create ~name:"t" (make_pool ~page_size:256 ()) in
  for i = 0 to 199 do
    Bptree.insert t "dup" (Printf.sprintf "%04d" i)
  done;
  for i = 0 to 199 do
    if not (Bptree.delete t "dup" (Printf.sprintf "%04d" i)) then
      Alcotest.failf "failed to delete dup %04d" i
  done;
  check Alcotest.(list string) "all gone" [] (Bptree.lookup_all t "dup");
  check Alcotest.int "empty" 0 (check_tree t)

let test_bptree_delete_then_insert () =
  let t = Bptree.create ~name:"t" (make_pool ~page_size:256 ()) in
  for i = 0 to 500 do
    Bptree.insert t (Printf.sprintf "k%04d" i) "v"
  done;
  for i = 0 to 500 do
    if i mod 2 = 0 then ignore (Bptree.delete t (Printf.sprintf "k%04d" i) "v")
  done;
  for i = 0 to 500 do
    if i mod 4 = 0 then Bptree.insert t (Printf.sprintf "k%04d" i) "w"
  done;
  ignore (check_tree t);
  check Alcotest.(list string) "odd kept" [ "v" ] (Bptree.lookup_all t "k0001");
  check Alcotest.(list string) "reinserted" [ "w" ] (Bptree.lookup_all t "k0004");
  check Alcotest.(list string) "deleted" [] (Bptree.lookup_all t "k0002")

(* An unpinned reader racing a writer transaction decodes the
   write-through (uncommitted) page image and caches the node with it.
   The abort installs the pre-images again, so that node, and the ones
   the transaction wrote, are never served afterwards. *)
let test_bptree_aborted_write_never_served () =
  let pool = make_pool () in
  let t = Bptree.create ~name:"t" pool in
  Bptree.insert t "a" "1";
  Bptree.insert t "b" "2";
  let pager = Buffer_pool.pager pool in
  ignore (Pager.begin_txn pager);
  Bptree.insert t "c" "3";
  (* Unpinned reader on another domain: reads the written page and
     populates the shared decode cache from uncommitted bytes. *)
  let seen = Domain.join (Domain.spawn (fun () -> Bptree.lookup_all t "c")) in
  check Alcotest.(list string) "unpinned reader sees the uncommitted write" [ "3" ] seen;
  Pager.abort_txn pager;
  check Alcotest.(list string) "rolled-back key not served after abort" []
    (Bptree.lookup_all t "c");
  check Alcotest.(list string) "pre-transaction keys intact" [ "1" ] (Bptree.lookup_all t "a");
  ignore (check_tree t)

(* A cached node is served only with the image it came from: a leaf
   rewritten straight through the pool, the way fsck's tests plant
   damage, is read from its new image. *)
let test_bptree_rewritten_page_read_anew () =
  let pool = make_pool () in
  let t = Bptree.create ~name:"t" pool in
  Bptree.insert t "a" "old";
  check Alcotest.(list string) "the leaf is cached" [ "old" ] (Bptree.lookup_all t "a");
  let leaf = Bptree.root_page t in
  (match Bptree.view_page t leaf with
  | Ok (Bptree.Leaf_view { entries; next }) ->
    let entries = Array.map (fun (k, p) -> (k, if String.equal k "a" then "new" else p)) entries in
    let image = Bptree.encode_view t (Bptree.Leaf_view { entries; next }) in
    ignore (Buffer_pool.write pool leaf (Bytes.of_string image))
  | Ok (Bptree.Internal_view _) | Error _ -> Alcotest.fail "expected a leaf root");
  check Alcotest.(list string) "read from the new image" [ "new" ] (Bptree.lookup_all t "a")

let decodes = Tm_obs.Obs.counter "bptree.node_decodes"

(* [f ()] and the number of nodes decoded while it ran, on any domain. *)
let decoded_by f =
  Tm_obs.Obs.with_enabled true (fun () ->
      let d0 = Tm_obs.Obs.value decodes in
      let r = f () in
      (r, Tm_obs.Obs.value decodes - d0))

(* Only reads and commits put nodes in the decode cache: a bulk load
   writes every node without caching it, so the first lookup decodes
   and the second is served from the cache. *)
let test_bptree_bulk_load_caches_nothing () =
  let t =
    Bptree.bulk_load ~name:"t" (make_pool ())
      (List.init 2000 (fun i -> (Printf.sprintf "k%05d" i, "v")))
  in
  let hits, first = decoded_by (fun () -> Bptree.lookup_all t "k01000") in
  check Alcotest.(list string) "found" [ "v" ] hits;
  check Alcotest.bool "first lookup after the load decodes" true (first > 0);
  let _, second = decoded_by (fun () -> Bptree.lookup_all t "k01000") in
  check Alcotest.int "second lookup decodes nothing" 0 second

(* A transaction builds new nodes instead of changing the ones readers
   hold: a reader walking a leaf when a writer on another domain inserts
   into it and commits still sees the leaf's old entries, and a reader
   pinned before the transaction answers as before it, during it and
   after its commit. The committed leaf is published to the shared
   cache, so the next reader decodes nothing. *)
let test_bptree_txn_shares_cache () =
  let pool = make_pool () in
  let pager = Buffer_pool.pager pool in
  let t = Bptree.create ~name:"t" pool in
  List.iter (fun k -> Bptree.insert t k "old") [ "a"; "c"; "e" ];
  let insert_committed k =
    Domain.join
      (Domain.spawn (fun () ->
           ignore (Pager.begin_txn pager);
           Bptree.insert t k "new";
           Pager.commit_txn pager))
  in
  let walked =
    Bptree.fold_range t ~lo:"" ~hi:None
      (fun acc k _ ->
        (match acc with [] -> insert_committed "b" | _ :: _ -> ());
        k :: acc)
      []
  in
  check Alcotest.(list string) "the walked leaf keeps its entries" [ "a"; "c"; "e" ]
    (List.rev walked);
  check Alcotest.(list string) "the insert committed" [ "new" ] (Bptree.lookup_all t "b");
  let pinned = Atomic.make false and written = Atomic.make false in
  let read_during = Atomic.make false and committed = Atomic.make false in
  let wait flag = while not (Atomic.get flag) do Domain.cpu_relax () done in
  let reader =
    Domain.spawn (fun () ->
        Epoch.with_pin pager (fun () ->
            Atomic.set pinned true;
            wait written;
            let during = Bptree.lookup_all t "d" in
            Atomic.set read_during true;
            wait committed;
            (during, Bptree.lookup_all t "d")))
  in
  wait pinned;
  ignore (Pager.begin_txn pager);
  Bptree.insert t "d" "new";
  Atomic.set written true;
  wait read_during;
  Pager.commit_txn pager;
  Atomic.set committed true;
  let during, after = Domain.join reader in
  check Alcotest.(list string) "pinned reader during the transaction" [] during;
  check Alcotest.(list string) "pinned reader after the commit" [] after;
  let seen, n =
    decoded_by (fun () -> Domain.join (Domain.spawn (fun () -> Bptree.lookup_all t "d")))
  in
  check Alcotest.(list string) "a new reader sees the commit" [ "new" ] seen;
  check Alcotest.int "a new reader decodes nothing" 0 n;
  ignore (check_tree t)

(* Writes outside a transaction reach the pager at once, so nothing has
   to be flushed before one begins: a reader pinned before the
   transaction is served the pre-transaction image the pager keeps for
   it, not the zeroed page the tree's leaf was allocated as. *)
let test_bptree_txn_needs_no_flush () =
  let pool = make_pool () in
  let pager = Buffer_pool.pager pool in
  let t = Bptree.create ~name:"t" pool in
  List.iter (fun k -> Bptree.insert t k "old") [ "a"; "b" ];
  let pinned = Atomic.make false and written = Atomic.make false in
  let wait flag = while not (Atomic.get flag) do Domain.cpu_relax () done in
  let reader =
    Domain.spawn (fun () ->
        Epoch.with_pin pager (fun () ->
            Atomic.set pinned true;
            wait written;
            Bptree.to_list t))
  in
  wait pinned;
  ignore (Pager.begin_txn pager);
  Bptree.insert t "c" "new";
  Atomic.set written true;
  let seen = Domain.join reader in
  Pager.commit_txn pager;
  check
    Alcotest.(list (pair string string))
    "the pinned reader sees the entries from before the transaction"
    [ ("a", "old"); ("b", "old") ]
    seen;
  check Alcotest.(list string) "the insert committed" [ "new" ] (Bptree.lookup_all t "c")

(* The leaf encoder as it was written with [Buffer] and [String.sub]:
   the reference the sized, single-buffer encoder must match byte for
   byte. *)
let reference_encode_leaf ~prefix_compression entries next =
  let shared_prefix_len a b =
    let n = min (String.length a) (String.length b) in
    let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
    go 0
  in
  let buf = Buffer.create 512 in
  Buffer.add_char buf 'L';
  Codec.add_u16 buf (Array.length entries);
  Codec.add_u32 buf next;
  let prev = ref "" in
  Array.iter
    (fun (k, p) ->
      let shared = if prefix_compression then shared_prefix_len !prev k else 0 in
      Codec.add_varint buf shared;
      Codec.add_lstring buf (String.sub k shared (String.length k - shared));
      Codec.add_lstring buf p;
      prev := k)
    entries;
  Buffer.contents buf

(* Sorted leaves whose keys share a prefix of 0, 1, 127, 128 or 300
   bytes. A key is that prefix alone (the empty key when the prefix is
   empty; repeated, a duplicate) or the prefix, a byte unique to the
   entry and a filler, so front-coding shares exactly the prefix and the
   suffix is one byte longer than the filler. Fillers and payloads are
   short or sit at the varint boundaries 127/128 and 16383/16384. *)
let gen_leaf =
  QCheck.Gen.(
    let len =
      frequency
        [ (3, int_range 0 40); (2, oneofl [ 0; 126; 127; 128; 16382; 16383; 16384 ]) ]
    in
    let entry i prefix =
      bool >>= fun bare ->
      len >>= fun filler ->
      len >>= fun plen ->
      string_size (return filler) >>= fun f ->
      string_size (return plen) >>= fun p ->
      return ((if bare then prefix else prefix ^ String.make 1 (Char.chr (i + 1)) ^ f), p)
    in
    oneofl [ 0; 1; 127; 128; 300 ] >>= fun plen ->
    string_size (return plen) >>= fun prefix ->
    frequency [ (1, return 0); (6, int_range 1 8) ] >>= fun n ->
    flatten_l (List.init n (fun i -> entry i prefix)) >>= fun entries ->
    frequency [ (1, return 0); (1, return 0xffffffff); (2, int_range 1 0xfffffffe) ] >>= fun next ->
    return (Array.of_list (List.sort Codec.compare_kv entries), next))

let prop_leaf_encoder_matches_reference =
  let print (entries, next) =
    Printf.sprintf "next %d, entries [%s]" next
      (String.concat "; "
         (Array.to_list
            (Array.map
               (fun (k, p) ->
                 Printf.sprintf "(%d-byte key, %d-byte payload)" (String.length k)
                   (String.length p))
               entries)))
  in
  let trees =
    List.map
      (fun pc -> (pc, Bptree.create ~prefix_compression:pc ~name:"t" (make_pool ())))
      [ true; false ]
  in
  QCheck.Test.make ~name:"leaf encoder matches the reference" ~count:300
    (QCheck.make ~print gen_leaf) (fun (entries, next) ->
      let view =
        Bptree.Leaf_view { entries; next = (if next = 0 then None else Some (next - 1)) }
      in
      List.for_all
        (fun (prefix_compression, t) ->
          String.equal (Bptree.encode_view t view)
            (reference_encode_leaf ~prefix_compression entries next))
        trees)

(* qcheck: interleaved inserts, deletes and transactions vs a multiset
   model. The model keeps the committed multiset and, while a
   transaction is open, the staged one its writer sees. A lookup after
   every op puts nodes into the decode cache mid-transaction, and must
   never be served a node of an aborted write. *)
type tree_op = Insert | Delete | Begin | Commit | Abort

let prop_bptree_delete_model =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 300)
        (triple
           (frequency
              [ (5, return Insert); (3, return Delete); (1, return Begin); (1, return Commit); (1, return Abort) ])
           (string_size ~gen:printable (return 2))
           (string_size ~gen:printable (return 1))))
  in
  let print_op (op, k, v) =
    match op with
    | Insert -> Printf.sprintf "insert %S %S" k v
    | Delete -> Printf.sprintf "delete %S %S" k v
    | Begin -> "begin"
    | Commit -> "commit"
    | Abort -> "abort"
  in
  let print ops = String.concat "; " (List.map print_op ops) in
  QCheck.Test.make ~name:"insert/delete agrees with multiset model" ~count:80 (QCheck.make ~print gen)
    (fun ops ->
      let pool = make_pool ~page_size:256 () in
      let pager = Buffer_pool.pager pool in
      let t = Bptree.create ~name:"m" pool in
      let committed = ref [] and staged = ref None in
      let visible () = Option.value !staged ~default:!committed in
      let set entries = if Option.is_some !staged then staged := Some entries else committed := entries in
      let rec remove_one x = function
        | [] -> []
        | y :: rest -> if y = x then rest else y :: remove_one x rest
      in
      List.iter
        (fun (op, k, v) ->
          (match op with
          | Insert ->
            Bptree.insert t k v;
            set ((k, v) :: visible ())
          | Delete ->
            let found = Bptree.delete t k v in
            let in_model = List.mem (k, v) (visible ()) in
            if found <> in_model then
              QCheck.Test.fail_reportf "delete %S %S: found %b, model %b" k v found in_model;
            if in_model then set (remove_one (k, v) (visible ()))
          | Begin when Option.is_none !staged ->
            ignore (Pager.begin_txn pager);
            staged := Some !committed
          | Commit when Option.is_some !staged ->
            Pager.commit_txn pager;
            committed := visible ();
            staged := None
          | Abort when Option.is_some !staged ->
            Pager.abort_txn pager;
            staged := None
          | Begin | Commit | Abort -> ());
          let want =
            List.sort String.compare
              (List.filter_map (fun (k', v') -> if String.equal k k' then Some v' else None) (visible ()))
          in
          let got = Bptree.lookup_all t k in
          if got <> want then
            QCheck.Test.fail_reportf "after %s: lookup %S gave [%s], model [%s]" (print_op (op, k, v)) k
              (String.concat "; " got) (String.concat "; " want);
          if Bptree.entry_count t <> List.length (visible ()) then
            QCheck.Test.fail_reportf "after %s: %d entries, model %d" (print_op (op, k, v))
              (Bptree.entry_count t) (List.length (visible ())))
        ops;
      if Option.is_some !staged then begin
        Pager.commit_txn pager;
        committed := visible ()
      end;
      ignore (check_tree t);
      List.sort compare (Bptree.to_list t) = List.sort compare !committed)

(* Model-based qcheck test: B+-tree vs sorted association list. *)
let prop_bptree_model =
  let gen =
    QCheck.(
      list_of_size
        Gen.(int_range 0 400)
        (pair
           (string_gen_of_size (Gen.return 3) Gen.printable)
           (string_gen_of_size Gen.(int_range 0 8) Gen.printable)))
  in
  QCheck.Test.make ~name:"bptree agrees with model" ~count:60 gen (fun ops ->
      let t = Bptree.create ~name:"model" (make_pool ~page_size:256 ()) in
      List.iter (fun (k, v) -> Bptree.insert t k v) ops;
      ignore (check_tree t);
      let model = List.sort compare ops in
      (* duplicate payload order across leaves is unspecified: compare
         as sorted multisets *)
      List.sort compare (Bptree.to_list t) = model
      && List.for_all
           (fun (k, _) ->
             Bptree.lookup_all t k
             = (List.filter (fun (k', _) -> k' = k) model |> List.map snd))
           ops)

let prop_bptree_range_model =
  let gen =
    QCheck.(
      triple
        (list_of_size Gen.(int_range 0 300) (string_gen_of_size (Gen.return 2) Gen.printable))
        (string_gen_of_size (QCheck.Gen.return 2) QCheck.Gen.printable)
        (string_gen_of_size (QCheck.Gen.return 2) QCheck.Gen.printable))
  in
  QCheck.Test.make ~name:"bptree range scan agrees with model" ~count:80 gen
    (fun (keys, a, b) ->
      let lo = min a b and hi = max a b in
      let t = Bptree.create ~name:"model" (make_pool ~page_size:256 ()) in
      List.iteri (fun i k -> Bptree.insert t k (string_of_int i)) keys;
      let got = List.rev (Bptree.fold_range t ~lo ~hi:(Some hi) (fun acc k _ -> k :: acc) []) in
      let want = List.sort compare (List.filter (fun k -> k >= lo && k < hi) keys) in
      got = want)

let prop_bulk_load_equals_inserts =
  let gen =
    QCheck.(
      list_of_size
        Gen.(int_range 0 300)
        (pair
           (string_gen_of_size (Gen.return 3) Gen.printable)
           (string_gen_of_size Gen.(int_range 0 8) Gen.printable)))
  in
  QCheck.Test.make ~name:"bulk load equals insert-built tree" ~count:40 gen (fun ops ->
      let sorted = List.stable_sort compare ops in
      let bulk = Bptree.bulk_load ~name:"b" (make_pool ~page_size:256 ()) sorted in
      let ins = Bptree.create ~name:"i" (make_pool ~page_size:256 ()) in
      List.iter (fun (k, v) -> Bptree.insert ins k v) ops;
      ignore (check_tree bulk);
      List.sort compare (Bptree.to_list bulk) = List.sort compare (Bptree.to_list ins))

let suite =
  [
    ( "codec",
      [
        Alcotest.test_case "varint roundtrip" `Quick test_varint_roundtrip;
        Alcotest.test_case "signed varint roundtrip" `Quick test_signed_varint_roundtrip;
        Alcotest.test_case "idlist roundtrip" `Quick test_idlist_roundtrip;
        Alcotest.test_case "idlist delta is compact" `Quick test_idlist_delta_smaller;
        Alcotest.test_case "value encoding" `Quick test_value_encoding;
        Alcotest.test_case "u32 order preserving" `Quick test_u32_order;
        Alcotest.test_case "prefix successor" `Quick test_prefix_successor;
        Alcotest.test_case "crc32 check value" `Quick test_crc32_check_value;
        Alcotest.test_case "crc32 range checked" `Quick test_crc32_range_checked;
        Alcotest.test_case "varint_len and set_varint" `Quick test_varint_len_and_set;
        qtest prop_varint_roundtrip;
        qtest prop_signed_varint_roundtrip;
        qtest prop_idlist_roundtrip;
        qtest prop_value_encoding_order;
        qtest prop_prefix_successor_bounds;
        qtest prop_crc32_matches_reference;
      ] );
    ( "pager+pool",
      [
        Alcotest.test_case "pager roundtrip" `Quick test_pager_roundtrip;
        Alcotest.test_case "pager bad id" `Quick test_pager_bad_id;
        Alcotest.test_case "pool caching" `Quick test_buffer_pool_caching;
        Alcotest.test_case "pool writes through" `Quick test_buffer_pool_write_through;
        Alcotest.test_case "pool CLOCK second chance" `Quick test_buffer_pool_clock_second_chance;
        Alcotest.test_case "pool hit allocates nothing" `Quick
          test_buffer_pool_hit_allocates_nothing;
        Alcotest.test_case "pool clear" `Quick test_buffer_pool_clear;
        qtest prop_pool_clock_model;
      ] );
    ( "bptree",
      [
        Alcotest.test_case "empty" `Quick test_bptree_empty;
        Alcotest.test_case "basic" `Quick test_bptree_basic;
        Alcotest.test_case "duplicates" `Quick test_bptree_duplicates;
        Alcotest.test_case "many inserts + splits" `Quick test_bptree_many_inserts_with_splits;
        Alcotest.test_case "range scan" `Quick test_bptree_range_scan;
        Alcotest.test_case "prefix scan" `Quick test_bptree_prefix_scan;
        Alcotest.test_case "bulk load" `Quick test_bptree_bulk_load;
        Alcotest.test_case "bulk load rejects unsorted" `Quick test_bptree_bulk_load_unsorted_rejected;
        Alcotest.test_case "prefix compression shrinks" `Quick test_bptree_prefix_compression_smaller;
        Alcotest.test_case "oversized entry rejected" `Quick test_bptree_oversized_entry_rejected;
        Alcotest.test_case "delete basic" `Quick test_bptree_delete_basic;
        Alcotest.test_case "delete across leaves" `Quick test_bptree_delete_across_leaves;
        Alcotest.test_case "delete then insert" `Quick test_bptree_delete_then_insert;
        Alcotest.test_case "an aborted write is never served" `Quick
          test_bptree_aborted_write_never_served;
        Alcotest.test_case "a page rewritten under the tree is read from its new image" `Quick
          test_bptree_rewritten_page_read_anew;
        Alcotest.test_case "bulk load caches no node" `Quick test_bptree_bulk_load_caches_nothing;
        Alcotest.test_case "transactions share the decode cache" `Quick
          test_bptree_txn_shares_cache;
        Alcotest.test_case "no flush before a transaction" `Quick test_bptree_txn_needs_no_flush;
        qtest prop_leaf_encoder_matches_reference;
        qtest prop_bptree_delete_model;
        qtest prop_bptree_model;
        qtest prop_bptree_range_model;
        qtest prop_bulk_load_equals_inserts;
      ] );
  ]

let () = Alcotest.run "tm_storage" suite
