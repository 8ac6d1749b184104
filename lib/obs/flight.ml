(** Always-on flight recorder: a per-domain ring of typed,
    nanosecond-stamped events capturing the {e sequence} of cross-layer
    activity — span open/close, WAL frames, pager transactions and
    epochs, admission decisions, breaker flips — that aggregate metrics
    cannot explain after the fact.

    Design constraints, in order:

    {ul
    {- {b One atomic load when disabled.} Every [emit] is gated on a
       single [Atomic.get] before anything — no timestamp, no DLS
       lookup, no allocation — the same contract as {!Obs} and
       {!Journal}, so instrumented hot paths are safe to leave wired
       permanently.}
    {- {b Lock-free recording.} Each domain owns its ring
       (domain-local storage), so writers never contend: one slot
       store plus one [Atomic.set] of the ring's write counter per
       event. There is no reader/writer lock anywhere on the emit
       path.}
    {- {b Seqlock-style reads.} A snapshot reads the write counter,
       copies the window, then re-reads the counter and discards any
       slot the writer may have overwritten or been writing in the
       interim. Dumps taken while every domain is still emitting (the
       crash case) are therefore torn-free without ever stalling a
       writer.}}

    Post-mortem dumps of the rings are written by [Tm_wal.Blackbox]
    with the WAL's frame codec; this module keeps where they go
    ({!set_dump_path}). *)

(* ------------------------------------------------------------------ *)
(* Event vocabulary                                                    *)
(* ------------------------------------------------------------------ *)

type kind =
  | Span_begin  (** trace-root span opened; [detail] = span name *)
  | Span_end  (** trace-root span closed; [detail] = span name, [a] = elapsed ns *)
  | Query_begin  (** [a] = jobs *)
  | Query_end  (** [a] = rows, [b] = replans *)
  | Replan  (** [a] = replan ordinal, [detail] = planner note *)
  | Fault_hit  (** [detail] = fault site *)
  | Wal_append  (** [a] = frame kind byte, [b] = frame bytes *)
  | Wal_fsync
  | Wal_commit  (** [a] = transaction id *)
  | Wal_truncate  (** [a] = surviving bytes *)
  | Txn_begin  (** [a] = pager transaction epoch *)
  | Txn_commit  (** [a] = published epoch, [b] = dirty pages *)
  | Txn_abort  (** [a] = abandoned epoch, [b] = pages restored *)
  | Epoch_publish  (** [a] = epoch now visible to new pins *)
  | Epoch_pin  (** [a] = pinned epoch *)
  | Epoch_unpin  (** [a] = released epoch *)
  | Epoch_prune  (** [a] = horizon epoch, [b] = versions reclaimed *)
  | Pool_evict  (** [a] = evicted page id *)
  | Pool_retry  (** [a] = attempt number, [detail] = why *)
  | Checkpoint  (** [a] = last transaction folded into the heap *)
  | Poisoned  (** [detail] = the poisoning error *)
  | Task_begin  (** pool task started on a worker domain *)
  | Task_end  (** [a] = elapsed ns *)
  | Sem_acquire  (** [a] = permits in use after the acquire *)
  | Cancel_deadline  (** [a] = expired budget, ms *)
  | Cancel_explicit  (** [detail] = reason *)
  | Breaker_open  (** [a] = consecutive failures, [detail] = failure class *)
  | Breaker_half_open
  | Breaker_close
  | Breaker_reject
  | Req_begin  (** [a] = request id, [b] = permits in use *)
  | Req_end  (** [a] = HTTP status *)
  | Shed  (** [a] = 0 queue-limit, 1 p99, 2 deadline; [detail] = note *)
  | Dump  (** [detail] = dump reason *)
  | Plan_build  (** [a] = estimated rows, [b] = override count, [detail] = reason *)
  | Unknown  (** decoded from a newer writer; never emitted *)

(* Codes are the on-disk encoding: append-only, never renumber. Codes
   24 and 25 (the semaphore's retired park and timeout events) are not
   reused; they decode as [Unknown]. *)
let kind_code = function
  | Span_begin -> 0
  | Span_end -> 1
  | Query_begin -> 2
  | Query_end -> 3
  | Replan -> 4
  | Fault_hit -> 5
  | Wal_append -> 6
  | Wal_fsync -> 7
  | Wal_commit -> 8
  | Wal_truncate -> 9
  | Txn_begin -> 10
  | Txn_commit -> 11
  | Txn_abort -> 12
  | Epoch_publish -> 13
  | Epoch_pin -> 14
  | Epoch_unpin -> 15
  | Epoch_prune -> 16
  | Pool_evict -> 17
  | Pool_retry -> 18
  | Checkpoint -> 19
  | Poisoned -> 20
  | Task_begin -> 21
  | Task_end -> 22
  | Sem_acquire -> 23
  | Cancel_deadline -> 26
  | Cancel_explicit -> 27
  | Breaker_open -> 28
  | Breaker_half_open -> 29
  | Breaker_close -> 30
  | Breaker_reject -> 31
  | Req_begin -> 32
  | Req_end -> 33
  | Shed -> 34
  | Dump -> 35
  | Plan_build -> 36
  | Unknown -> 255

let kinds =
  [|
    Span_begin; Span_end; Query_begin; Query_end; Replan; Fault_hit; Wal_append;
    Wal_fsync; Wal_commit; Wal_truncate; Txn_begin; Txn_commit; Txn_abort;
    Epoch_publish; Epoch_pin; Epoch_unpin; Epoch_prune; Pool_evict; Pool_retry;
    Checkpoint; Poisoned; Task_begin; Task_end; Sem_acquire; Unknown; Unknown;
    Cancel_deadline; Cancel_explicit; Breaker_open; Breaker_half_open; Breaker_close;
    Breaker_reject; Req_begin; Req_end; Shed; Dump; Plan_build;
  |]

let kind_of_code c = if c >= 0 && c < Array.length kinds then kinds.(c) else Unknown

let kind_name = function
  | Span_begin -> "span.begin"
  | Span_end -> "span.end"
  | Query_begin -> "query.begin"
  | Query_end -> "query.end"
  | Replan -> "plan.replan"
  | Fault_hit -> "fault.hit"
  | Wal_append -> "wal.append"
  | Wal_fsync -> "wal.fsync"
  | Wal_commit -> "wal.commit"
  | Wal_truncate -> "wal.truncate"
  | Txn_begin -> "txn.begin"
  | Txn_commit -> "txn.commit"
  | Txn_abort -> "txn.abort"
  | Epoch_publish -> "epoch.publish"
  | Epoch_pin -> "epoch.pin"
  | Epoch_unpin -> "epoch.unpin"
  | Epoch_prune -> "epoch.prune"
  | Pool_evict -> "pool.evict"
  | Pool_retry -> "pool.retry"
  | Checkpoint -> "durable.checkpoint"
  | Poisoned -> "durable.poisoned"
  | Task_begin -> "task.begin"
  | Task_end -> "task.end"
  | Sem_acquire -> "sem.acquire"
  | Cancel_deadline -> "cancel.deadline"
  | Cancel_explicit -> "cancel.explicit"
  | Breaker_open -> "breaker.open"
  | Breaker_half_open -> "breaker.half_open"
  | Breaker_close -> "breaker.close"
  | Breaker_reject -> "breaker.reject"
  | Req_begin -> "req.begin"
  | Req_end -> "req.end"
  | Shed -> "shed"
  | Dump -> "dump"
  | Plan_build -> "plan.build"
  | Unknown -> "unknown"

type event = {
  e_domain : int;  (** recording domain's id *)
  e_seq : int;  (** per-domain sequence number (dense, ascending) *)
  e_ts_ns : int;  (** monotonic-clock nanoseconds (comparable across domains) *)
  e_trace : int;  (** ambient trace id; 0 = none *)
  e_kind : kind;
  e_a : int;
  e_b : int;
  e_detail : string;
}

(* ------------------------------------------------------------------ *)
(* Per-domain rings                                                    *)
(* ------------------------------------------------------------------ *)

(* Interleaved slots: one unboxed int array holds the five numeric
   fields of a slot contiguously ([slots] stride per event), so a hot
   emit dirties a single cache line rather than five — measured, that
   halves the enabled cost on a cache-cold path. Details go in a
   separate string array (pointer stores need the write barrier
   anyway). A slot at index [i mod capacity] holds event number [i];
   [r_written] counts events ever written and is bumped {e after} the
   slot stores, so a reader that observes [r_written = w] can trust
   every index below [w] that the writer has not since lapped (the
   seqlock discard). *)
let stride = 5 (* ts, kind, trace, a, b *)

type ring = {
  r_domain : int;
  r_capacity : int;
  r_cols : int array;  (** [capacity * stride] interleaved numeric fields *)
  r_detail : string array;
  r_written : int Atomic.t;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

let default_capacity = 1024
let capacity_ref = Atomic.make default_capacity

(* Rings of exited domains are kept on purpose: a worker that died
   mid-request is exactly what a post-mortem wants to see. The registry
   is bounded so ephemeral pool domains cannot grow it without limit —
   past the cap the oldest rings (long-dead domains, in practice) are
   dropped. *)
let max_rings = 256
let rings_lock = Mutex.create ()
let rings : ring list ref = ref [] [@@analyze.guarded_by "rings_lock"]

let ring_key : ring option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let make_ring domain capacity =
  {
    r_domain = domain;
    r_capacity = capacity;
    r_cols = Array.make (capacity * stride) 0;
    r_detail = Array.make capacity "";
    r_written = Atomic.make 0;
  }

let my_ring () =
  let slot = Domain.DLS.get ring_key in
  match !slot with
  | Some r -> r
  | None ->
    let r = make_ring (Domain.self () :> int) (max 8 (Atomic.get capacity_ref)) in
    Mutex.protect rings_lock (fun () ->
        rings := List.filteri (fun i _ -> i < max_rings) (r :: !rings));
    slot := Some r;
    r

let enable ?capacity () =
  (match capacity with
  | None -> ()
  | Some c ->
    if c < 8 then invalid_arg "Flight.enable: capacity must be >= 8";
    Atomic.set capacity_ref c);
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

let with_enabled on f =
  let saved = Atomic.get enabled_flag in
  Atomic.set enabled_flag on;
  Fun.protect ~finally:(fun () -> Atomic.set enabled_flag saved) f

let clear () =
  Mutex.protect rings_lock (fun () -> rings := []);
  Domain.DLS.get ring_key := None

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let record r trace kind a b detail =
  let ts = Int64.to_int (Monotonic_clock.now ()) in
  let w = Atomic.get r.r_written in
  let i = w mod r.r_capacity in
  let base = i * stride in
  r.r_cols.(base) <- ts;
  r.r_cols.(base + 1) <- kind_code kind;
  r.r_cols.(base + 2) <- trace;
  r.r_cols.(base + 3) <- a;
  r.r_cols.(base + 4) <- b;
  r.r_detail.(i) <- detail;
  (* The release store the seqlock read validates against. *)
  Atomic.set r.r_written (w + 1)

(* The two emit entry points do nothing — not even read the clock —
   until the single atomic load passes, so a disabled recorder costs
   one predictable branch per instrumented site. *)
let emit kind a b detail =
  if Atomic.get enabled_flag then
    let trace = match Context.get () with Some id -> id | None -> 0 in
    record (my_ring ()) trace kind a b detail

let emit_traced trace kind a b detail =
  if Atomic.get enabled_flag then record (my_ring ()) trace kind a b detail

(* ------------------------------------------------------------------ *)
(* Seqlock snapshot                                                    *)
(* ------------------------------------------------------------------ *)

(* Copy the window below [w1], then re-read the counter: every event
   the writer wrote or may still be writing after our first read lives
   at index >= w1, aliasing slots of events below [w2 + 1 - capacity]
   — those copies are potentially torn and are discarded. Everything
   kept was fully published before our first counter read. *)
let snapshot_ring r =
  let cap = r.r_capacity in
  let w1 = Atomic.get r.r_written in
  let lo1 = max 0 (w1 - cap) in
  let n = w1 - lo1 in
  if n = 0 then []
  else begin
    let cols = Array.make (n * stride) 0 and d = Array.make n "" in
    for j = 0 to n - 1 do
      let i = (lo1 + j) mod cap in
      Array.blit r.r_cols (i * stride) cols (j * stride) stride;
      d.(j) <- r.r_detail.(i)
    done;
    let w2 = Atomic.get r.r_written in
    let lo = max lo1 (w2 + 1 - cap) in
    let out = ref [] in
    for j = n - 1 downto lo - lo1 do
      let base = j * stride in
      out :=
        {
          e_domain = r.r_domain;
          e_seq = lo1 + j;
          e_ts_ns = cols.(base);
          e_trace = cols.(base + 2);
          e_kind = kind_of_code cols.(base + 1);
          e_a = cols.(base + 3);
          e_b = cols.(base + 4);
          e_detail = d.(j);
        }
        :: !out
    done;
    !out
  end

let all_rings () = Mutex.protect rings_lock (fun () -> !rings)

let snapshot_domains () =
  all_rings ()
  |> List.rev_map (fun r -> (r.r_domain, snapshot_ring r))
  |> List.filter (fun (_, es) -> match es with [] -> false | _ :: _ -> true)
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* One merged timeline: per-domain order is preserved (stable sort on
   a globally comparable clock), which is what lets one trace id be
   followed across the accept domain, the workers and the WAL. *)
let merge_events domains =
  List.concat_map snd domains
  |> List.stable_sort (fun x y ->
         match Int.compare x.e_ts_ns y.e_ts_ns with
         | 0 -> (
           match Int.compare x.e_domain y.e_domain with
           | 0 -> Int.compare x.e_seq y.e_seq
           | c -> c)
         | c -> c)

let snapshot () = merge_events (snapshot_domains ())

let total_events () =
  List.fold_left (fun acc r -> acc + Atomic.get r.r_written) 0 (all_rings ())

(* ------------------------------------------------------------------ *)
(* Dump path                                                           *)
(* ------------------------------------------------------------------ *)

let dump_path_ref : string option Atomic.t = Atomic.make None
let set_dump_path p = Atomic.set dump_path_ref p
let dump_path () = Atomic.get dump_path_ref

(* ------------------------------------------------------------------ *)
(* Text rendering                                                      *)
(* ------------------------------------------------------------------ *)

let event_to_string ?(t0 = 0) e =
  let buf = Buffer.create 96 in
  Buffer.add_string buf
    (Printf.sprintf "%12.3fus d%-3d #%-6d %-18s" (float_of_int (e.e_ts_ns - t0) /. 1e3)
       e.e_domain e.e_seq (kind_name e.e_kind));
  if e.e_trace <> 0 then Buffer.add_string buf (Printf.sprintf " trace=%d" e.e_trace);
  if e.e_a <> 0 then Buffer.add_string buf (Printf.sprintf " a=%d" e.e_a);
  if e.e_b <> 0 then Buffer.add_string buf (Printf.sprintf " b=%d" e.e_b);
  if not (String.equal e.e_detail "") then
    Buffer.add_string buf (Printf.sprintf " %s" e.e_detail);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)
(* ------------------------------------------------------------------ *)

let env_var = "TWIGMATCH_FLIGHT"
let env_dump_var = "TWIGMATCH_FLIGHT_DUMP"

(* TWIGMATCH_FLIGHT=1 enables at link time with the default per-domain
   capacity; a larger N is taken as the capacity. TWIGMATCH_FLIGHT_DUMP
   names the post-mortem path (and implies enabling). Mirrors the
   journal's env contract so the CI leg can run the whole suite with
   the recorder live. *)
let install_env () =
  (match Sys.getenv_opt env_var with
  | None -> ()
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 8 -> enable ~capacity:n ()
    | Some n when n >= 1 -> enable ()
    | Some _ -> ()
    | None ->
      (* Below Obs, so no warning ring: stderr, like the default
         warn handler. *)
      Printf.eprintf "warning: [flight.env] ignoring %s=%S: expected a capacity\n%!"
        env_var s));
  match Sys.getenv_opt env_dump_var with
  | None -> ()
  | Some "" -> ()
  | Some path ->
    set_dump_path (Some path);
    enable ()

let () = install_env ()
