(* Tests for Tm_fault (the failpoint registry) and its consumers: the
   pager's checksum + fault hooks, the buffer pool's bounded retries,
   per-query deadlines, and the executor's graceful-degradation chain.

   The registry is process-global and armed from TWIGMATCH_FAILPOINTS
   at module init, so every test starts from [Fault.clear ()] and every
   test that arms a site clears it before returning. *)

open Tm_storage
module Fault = Tm_fault.Fault
module Db = Twigmatch.Database
module Executor = Twigmatch.Executor

let check = Alcotest.check

let with_clear f =
  Fault.clear ();
  Fun.protect ~finally:(fun () -> Fault.clear ()) f

let xmark ?(scale = 0.05) () =
  Tm_datasets.Xmark_gen.generate { Tm_datasets.Xmark_gen.seed = 7; scale }

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let test_parse_valid () =
  match Fault.parse "pager.read=every:3;a.b=prob:0.5,torn;c=after:2,delay:5" with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok specs ->
    check Alcotest.int "3 specs" 3 (List.length specs);
    (match specs with
    | [ s1; s2; s3 ] ->
      check Alcotest.string "site 1" "pager.read" s1.Fault.site;
      check Alcotest.bool "every:3" true (s1.Fault.trigger = Fault.Every 3);
      check Alcotest.bool "fail is the default action" true (s1.Fault.action = Fault.Fail);
      check Alcotest.bool "prob:0.5" true (s2.Fault.trigger = Fault.Prob 0.5);
      check Alcotest.bool "torn" true (s2.Fault.action = Fault.Torn);
      check Alcotest.bool "after:2" true (s3.Fault.trigger = Fault.After 2);
      check Alcotest.bool "delay:5" true (s3.Fault.action = Fault.Delay_ms 5)
    | _ -> Alcotest.fail "unreachable")

let test_parse_malformed () =
  List.iter
    (fun s ->
      match Fault.parse s with
      | Ok _ -> Alcotest.failf "expected a parse error for %S" s
      | Error _ -> ())
    [
      "pager.read";            (* no '=' *)
      "pager.read=often:3";    (* unknown mode *)
      "pager.read=every:x";    (* non-numeric arg *)
      "pager.read=every:0";    (* every must be >= 1 *)
      "pager.read=prob:1.5";   (* probability out of range *)
      "pager.read=every:2,explode"; (* unknown action *)
      "=every:2";              (* empty site *)
    ]

let test_parse_empty_and_spaces () =
  check Alcotest.bool "empty string is an empty list" true (Fault.parse "" = Ok []);
  match Fault.parse " pager.read=every:2 ; ; " with
  | Ok [ s ] -> check Alcotest.string "trimmed site" "pager.read" s.Fault.site
  | Ok _ | Error _ -> Alcotest.fail "expected exactly one spec from a spacey list"

(* ------------------------------------------------------------------ *)
(* Triggers                                                            *)
(* ------------------------------------------------------------------ *)

let count_fires site n =
  let fired = ref 0 in
  for _ = 1 to n do
    if Fault.fire site <> None then incr fired
  done;
  !fired

let test_every_n () =
  with_clear @@ fun () ->
  Fault.inject ~site:"t.every" (Fault.Every 3);
  check Alcotest.int "fires on calls 3,6,9" 3 (count_fires "t.every" 9);
  check Alcotest.int "calls counted" 9 (Fault.calls "t.every");
  check Alcotest.int "hits counted" 3 (Fault.hits "t.every")

let test_after_k () =
  with_clear @@ fun () ->
  Fault.inject ~site:"t.after" (Fault.After 2);
  check Alcotest.int "fires on calls 3,4,5" 3 (count_fires "t.after" 5)

let test_prob_extremes () =
  with_clear @@ fun () ->
  Fault.inject ~site:"t.never" (Fault.Prob 0.0);
  check Alcotest.int "prob 0 never fires" 0 (count_fires "t.never" 100);
  Fault.inject ~site:"t.always" (Fault.Prob 1.0);
  check Alcotest.int "prob 1 always fires" 100 (count_fires "t.always" 100)

let test_unarmed_and_rearm () =
  with_clear @@ fun () ->
  check Alcotest.bool "unarmed site never fires" true (Fault.fire "t.unarmed" = None);
  check Alcotest.int "unarmed calls are 0" 0 (Fault.calls "t.unarmed");
  Fault.inject ~site:"t.re" (Fault.Every 1);
  ignore (count_fires "t.re" 4);
  Fault.inject ~site:"t.re" (Fault.Every 1);
  check Alcotest.int "re-arming resets counters" 0 (Fault.calls "t.re");
  check Alcotest.int "one armed spec, not two" 1 (List.length (Fault.active ()))

let test_bad_triggers_rejected () =
  List.iter
    (fun t ->
      match Fault.inject ~site:"t.bad" t with
      | () -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())
    [ Fault.Every 0; Fault.After (-1); Fault.Prob (-0.1); Fault.Prob 1.1 ]

let test_apply_never_mutates () =
  with_clear @@ fun () ->
  let original = Bytes.of_string "The quick brown fox jumps over the lazy dog" in
  let pristine = Bytes.copy original in
  Fault.inject ~site:"t.torn" ~action:Fault.Torn (Fault.After 0);
  let torn = Fault.apply ~site:"t.torn" original in
  check Alcotest.bool "torn differs" false (Bytes.equal torn original);
  check Alcotest.bool "input untouched by torn" true (Bytes.equal original pristine);
  Fault.inject ~site:"t.flip" ~action:Fault.Bitflip (Fault.After 0);
  let flipped = Fault.apply ~site:"t.flip" original in
  check Alcotest.bool "bitflip differs" false (Bytes.equal flipped original);
  check Alcotest.bool "input untouched by bitflip" true (Bytes.equal original pristine)

let test_guard_raises () =
  with_clear @@ fun () ->
  Fault.inject ~site:"t.guard" (Fault.After 0);
  match Fault.guard "t.guard" with
  | () -> Alcotest.fail "expected Io_error"
  | exception Fault.Io_error { site; _ } -> check Alcotest.string "site" "t.guard" site

(* ------------------------------------------------------------------ *)
(* Pager and buffer pool under faults                                  *)
(* ------------------------------------------------------------------ *)

let make_pool n =
  let pager = Pager.create () in
  let pool = Buffer_pool.create ~capacity:64 pager in
  let ids =
    List.init n (fun i ->
        let id = Buffer_pool.alloc pool in
        let payload = Printf.sprintf "page-%03d" i in
        ignore (Buffer_pool.write pool id (Bytes.of_string payload));
        (id, payload))
  in
  Buffer_pool.clear pool;
  (pool, ids)

(* Every 2nd pager read fails: each faulted fault-in succeeds on its
   retry (the schedule is global, so the retry lands on an odd call). *)
let test_retry_recovers () =
  with_clear @@ fun () ->
  let pool, ids = make_pool 10 in
  Fault.inject ~site:"pager.read" (Fault.Every 2);
  List.iter
    (fun (id, payload) ->
      let data = Buffer_pool.read pool id in
      check Alcotest.string "payload survives retries" payload
        (Bytes.to_string (Bytes.sub data 0 (String.length payload))))
    ids;
  Fault.clear ();
  let s = Buffer_pool.stats pool in
  check Alcotest.bool "some reads were retried" true (s.Buffer_pool.retries > 0)

(* Every pager read fails: the bounded retry gives up and the typed
   error reaches the caller instead of a hang or a crash. *)
let test_retry_exhaustion () =
  with_clear @@ fun () ->
  let pool, ids = make_pool 1 in
  let id = fst (List.hd ids) in
  Fault.inject ~site:"pager.read" (Fault.After 0);
  (match Buffer_pool.read pool id with
  | _ -> Alcotest.fail "expected Io_error after retry exhaustion"
  | exception Fault.Io_error { site; _ } -> check Alcotest.string "site" "pager.read" site);
  Fault.clear ();
  let s = Buffer_pool.stats pool in
  check Alcotest.int "max_attempts - 1 retries" (Buffer_pool.max_attempts - 1)
    s.Buffer_pool.retries

(* A torn read is not an I/O error at the pager layer — it is returned
   bytes that no longer match the stored checksum. *)
let test_torn_read_is_corrupt_page () =
  with_clear @@ fun () ->
  let pager = Pager.create () in
  let id = Pager.alloc pager in
  (* fill the whole page: a torn (half-zeroed) copy must actually
     differ from the stored image *)
  ignore (Pager.write pager id (Bytes.make (Pager.page_size pager) 'x'));
  Fault.inject ~site:"pager.read" ~action:Fault.Torn (Fault.After 0);
  (match Pager.read pager id with
  | _ -> Alcotest.fail "expected Corrupt_page from a torn read"
  | exception Pager.Corrupt_page { page; _ } -> check Alcotest.int "page id" id page);
  Fault.clear ();
  (* the stored bytes were never damaged: a clean read round-trips *)
  check Alcotest.string "stored page intact" "x"
    (String.make 1 (Bytes.get (Pager.read pager id) 0))

(* A torn write to a resident page: the pool holds no copy to serve, and
   the pager remembers that the stored image fails its checksum, so the
   next read raises Corrupt_page although the page is resident. A clean
   write replaces the damage. *)
let test_torn_write_on_resident_page () =
  with_clear @@ fun () ->
  let pager = Pager.create () in
  let pool = Buffer_pool.create ~capacity:8 pager in
  let id = Buffer_pool.alloc pool in
  let page c = Bytes.make (Pager.page_size pager) c in
  ignore (Buffer_pool.write pool id (page 'x'));
  ignore (Buffer_pool.read pool id);
  Fault.inject ~site:"pager.write" ~action:Fault.Torn (Fault.After 0);
  ignore (Buffer_pool.write pool id (page 'y'));
  Fault.clear ();
  check Alcotest.bool "still resident" true (Buffer_pool.resident pool id);
  (match Buffer_pool.read pool id with
  | _ -> Alcotest.fail "expected Corrupt_page from a torn write"
  | exception Pager.Corrupt_page { page; _ } -> check Alcotest.int "page id" id page);
  ignore (Buffer_pool.write pool id (page 'z'));
  check Alcotest.char "rewritten" 'z' (Bytes.get (Buffer_pool.read pool id) 0)

(* The (page, CRC) list a transaction logs is the CRC of each page's
   stored image, whether it is read off the sidecar (an undamaged page)
   or computed (a page a torn write left damaged). *)
let test_txn_dirty_crcs_match_images () =
  with_clear @@ fun () ->
  let pager = Pager.create () in
  let ids = List.init 4 (fun _ -> Pager.alloc pager) in
  let page c = Bytes.make (Pager.page_size pager) c in
  List.iter (fun id -> ignore (Pager.write pager id (page 'a'))) ids;
  ignore (Pager.begin_txn pager);
  let fresh = Pager.alloc pager in
  ignore (Pager.write pager (List.nth ids 0) (page 'b'));
  Fault.inject ~site:"pager.write" ~action:Fault.Torn (Fault.After 0);
  ignore (Pager.write pager (List.nth ids 2) (page 'c'));
  Fault.clear ();
  check Alcotest.bool "the torn page is damaged" true (Pager.damaged pager (List.nth ids 2));
  let dirty = Pager.txn_dirty pager in
  check Alcotest.(list int) "written pages" [ List.nth ids 0; List.nth ids 2; fresh ]
    (List.map fst dirty);
  List.iter
    (fun (id, crc) ->
      check Alcotest.int
        (Printf.sprintf "page %d" id)
        (Tm_storage.Codec.crc32 (Pager.image pager id))
        crc)
    dirty;
  Pager.commit_txn pager

(* Stored damage outranks an injected I/O error: with every second
   pager read failing, the retries of a read of a bit-flipped page
   alternate checksum failures and I/O errors, and the last attempt
   draws an I/O error; the checksum failure is what propagates. *)
let test_stored_damage_outranks_io_error () =
  with_clear @@ fun () ->
  let pool, ids = make_pool 1 in
  let id = fst (List.hd ids) in
  Pager.unsafe_flip_bit (Buffer_pool.pager pool) ~page:id ~bit:3;
  Fault.inject ~site:"pager.read" (Fault.Every 2);
  match Buffer_pool.read pool id with
  | _ -> Alcotest.fail "expected Corrupt_page"
  | exception Pager.Corrupt_page { page; _ } -> check Alcotest.int "page id" id page
  | exception Fault.Io_error _ -> Alcotest.fail "the injected I/O error hid the stored damage"

let test_evict_failpoint_survived () =
  with_clear @@ fun () ->
  let pager = Pager.create () in
  let pool = Buffer_pool.create ~capacity:4 pager in
  let ids =
    List.init 32 (fun i ->
        let id = Buffer_pool.alloc pool in
        ignore (Buffer_pool.write pool id (Bytes.of_string (string_of_int i)));
        id)
  in
  Fault.inject ~site:"buffer_pool.evict" (Fault.Every 3);
  (* far more reads than capacity: evictions happen constantly and a
     third of them fault, yet every read returns the right bytes *)
  List.iteri
    (fun i id ->
      check Alcotest.string "read survives evict faults" (string_of_int i)
        (let d = Buffer_pool.read pool id in
         Bytes.to_string (Bytes.sub d 0 (String.length (string_of_int i)))))
    ids;
  Fault.clear ();
  check Alcotest.bool "retries recorded" true ((Buffer_pool.stats pool).Buffer_pool.retries > 0)

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)
(* ------------------------------------------------------------------ *)

let workload name = Tm_datasets.Workload.parse (Tm_datasets.Workload.find name)

let test_deadline_expires_under_pool () =
  let db = Db.create ~strategies:[ Db.RP ] (xmark ()) in
  let twig = workload "Q9x" in
  Tm_par.Pool.with_pool ~jobs:4 @@ fun pool ->
  match Executor.run ~hint:(Tm_plan.Hint.Force Db.RP) ~deadline_ms:0.0001 ~pool db twig with
  | _ -> Alcotest.fail "expected Timeout"
  | exception Executor.Timeout { ms; stats = _ } ->
    check (Alcotest.float 1e-9) "deadline echoed" 0.0001 ms

let test_generous_deadline_answers () =
  let db = Db.create ~strategies:[ Db.RP ] (xmark ()) in
  let twig = workload "Q9x" in
  let expected = Tm_query.Naive.query db.Db.doc twig in
  let r = Executor.run ~hint:(Tm_plan.Hint.Force Db.RP) ~deadline_ms:60_000.0 db twig in
  check (Alcotest.list Alcotest.int) "ids under a generous deadline" expected r.Executor.ids;
  check Alcotest.int "no fallbacks" 0 (List.length r.Executor.fallbacks)

(* ------------------------------------------------------------------ *)
(* Graceful degradation                                                *)
(* ------------------------------------------------------------------ *)

(* Section 4.3 head pruning leaves ROOTPATHS whole (its rows head at the
   root) but makes DATAPATHS reject every nonzero-head branch probe:
   the canonical "index is lossy here" degradation. *)
let pruned_db () = Db.create ~strategies:[ Db.RP; Db.DP ] ~head_filter:(fun _ -> false) (xmark ())

let test_fallback_matches_oracle () =
  let db = pruned_db () in
  List.iter
    (fun name ->
      let twig = workload name in
      let expected = Tm_query.Naive.query db.Db.doc twig in
      let r = Executor.run ~hint:(Tm_plan.Hint.Force Db.DP) db twig in
      check (Alcotest.list Alcotest.int) (name ^ " ids match the oracle") expected r.Executor.ids;
      check Alcotest.bool (name ^ " recorded a fallback") true (r.Executor.fallbacks <> []);
      check Alcotest.string (name ^ " answered by RP") "RP"
        (Db.strategy_name r.Executor.strategy);
      check Alcotest.bool (name ^ " not naive") false r.Executor.via_naive)
    [ "Q10x"; "Q11x" ]

let test_strict_propagates () =
  let db = pruned_db () in
  let twig = workload "Q10x" in
  match Executor.run ~hint:(Tm_plan.Hint.Force Db.DP) ~strict:true db twig with
  | _ -> Alcotest.fail "expected Unsupported under --strict"
  | exception Tm_index.Family.Unsupported _ -> ()

let test_missing_index_falls_back () =
  let db = Db.create ~strategies:[ Db.RP ] (xmark ()) in
  let twig = workload "Q9x" in
  let expected = Tm_query.Naive.query db.Db.doc twig in
  let r = Executor.run ~hint:(Tm_plan.Hint.Force Db.DP) db twig in
  check (Alcotest.list Alcotest.int) "ids via RP" expected r.Executor.ids;
  check Alcotest.bool "DP listed as abandoned" true
    (List.exists (fun (s, _) -> s = Db.DP) r.Executor.fallbacks)

let test_naive_last_resort () =
  (* only the Edge table exists; DP -> RP -> JI are all unusable *)
  let db = Db.create ~strategies:[] (xmark ~scale:0.01 ()) in
  let twig = workload "Q9x" in
  let expected = Tm_query.Naive.query db.Db.doc twig in
  let r = Executor.run ~hint:(Tm_plan.Hint.Force Db.DP) db twig in
  check (Alcotest.list Alcotest.int) "naive ids" expected r.Executor.ids;
  check Alcotest.bool "via_naive" true r.Executor.via_naive;
  check Alcotest.int "three strategies abandoned" 3 (List.length r.Executor.fallbacks)

(* Corrupt DP's index directly — flip one stored bit in its root page
   behind the caches — while RP in the same pager stays whole. The
   executor must classify the Corrupt_page and answer through the
   fallback chain with oracle ids; --strict must surface it. *)
let test_corrupt_dp_page_falls_back () =
  let db = Db.create ~strategies:[ Db.RP; Db.DP ] (xmark ()) in
  let twig = workload "Q10x" in
  let expected = Tm_query.Naive.query db.Db.doc twig in
  let dp_tree = Tm_index.Family.tree (Option.get db.Db.datapaths) in
  let root = Bptree.root_page dp_tree in
  Db.drop_caches db;
  Pager.unsafe_flip_bit db.Db.pager ~page:root ~bit:321;
  let r = Executor.run ~hint:(Tm_plan.Hint.Force Db.DP) db twig in
  check (Alcotest.list Alcotest.int) "oracle ids despite corruption" expected r.Executor.ids;
  check Alcotest.bool "DP abandoned" true
    (List.exists (fun (s, _) -> s = Db.DP) r.Executor.fallbacks);
  match Executor.run ~hint:(Tm_plan.Hint.Force Db.DP) ~strict:true db twig with
  | _ -> Alcotest.fail "strict must surface the corruption"
  | exception (Pager.Corrupt_page _ | Fault.Io_error _) -> ()

(* ------------------------------------------------------------------ *)

let () =
  Fault.clear ();
  Alcotest.run "tm_fault"
    [
      ( "parse",
        [
          Alcotest.test_case "valid specs" `Quick test_parse_valid;
          Alcotest.test_case "malformed specs" `Quick test_parse_malformed;
          Alcotest.test_case "empty and spaces" `Quick test_parse_empty_and_spaces;
        ] );
      ( "triggers",
        [
          Alcotest.test_case "every N" `Quick test_every_n;
          Alcotest.test_case "after K" `Quick test_after_k;
          Alcotest.test_case "prob extremes" `Quick test_prob_extremes;
          Alcotest.test_case "unarmed and re-arm" `Quick test_unarmed_and_rearm;
          Alcotest.test_case "bad triggers rejected" `Quick test_bad_triggers_rejected;
          Alcotest.test_case "apply never mutates" `Quick test_apply_never_mutates;
          Alcotest.test_case "guard raises" `Quick test_guard_raises;
        ] );
      ( "storage",
        [
          Alcotest.test_case "retry recovers" `Quick test_retry_recovers;
          Alcotest.test_case "retry exhaustion" `Quick test_retry_exhaustion;
          Alcotest.test_case "torn read is Corrupt_page" `Quick test_torn_read_is_corrupt_page;
          Alcotest.test_case "evict failpoint survived" `Quick test_evict_failpoint_survived;
          Alcotest.test_case "torn write on a resident page" `Quick
            test_torn_write_on_resident_page;
          Alcotest.test_case "txn_dirty CRCs match the stored images" `Quick
            test_txn_dirty_crcs_match_images;
          Alcotest.test_case "stored damage outranks an I/O error" `Quick
            test_stored_damage_outranks_io_error;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "expires under jobs=4" `Quick test_deadline_expires_under_pool;
          Alcotest.test_case "generous deadline answers" `Quick test_generous_deadline_answers;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "pruned DP matches oracle" `Quick test_fallback_matches_oracle;
          Alcotest.test_case "strict propagates" `Quick test_strict_propagates;
          Alcotest.test_case "missing index falls back" `Quick test_missing_index_falls_back;
          Alcotest.test_case "naive last resort" `Quick test_naive_last_resort;
          Alcotest.test_case "corrupt DP page falls back" `Quick test_corrupt_dp_page_falls_back;
        ] );
    ]
