(** LRU buffer pool over a {!Pager}.

    Mirrors the paper's experimental setup (Section 5.1.1: a fixed-size
    buffer pool with the OS cache disabled): every page access is a
    logical read; accesses that miss the pool cost a simulated I/O
    (a physical {!Pager.read}); dirty pages are written back on eviction
    and on {!flush_all}. Capacity is a number of frames.

    The pool is striped for domain-safety: frames are partitioned over
    [page id mod stripes] sub-pools, each with its own mutex, LRU state
    and slice of the total capacity. Concurrent readers on different
    pages almost always hit different stripes and proceed in parallel;
    readers of the same page serialise briefly on one stripe lock.
    Eviction is per-stripe (each stripe evicts its own LRU victim), so
    replacement is approximately-global LRU — the same behaviour a
    hash-partitioned buffer pool exhibits in a real engine. *)

(* Eviction and retry totals for the metrics sink (gated on it). Reads
   and misses go to the reading query's cost record ({!read_versioned}),
   which stays exact per query. *)
let c_evictions = Tm_obs.Obs.counter "buffer_pool.evictions"
let c_retries = Tm_obs.Obs.counter "buffer_pool.retries"

type frame = { mutable data : bytes; mutable dirty : bool }

type stripe = {
  lock : Lock.t;
  s_capacity : int; (* this stripe's share of the frame budget *)
  frames : (int, frame) Hashtbl.t; (* page id -> frame *)
  (* LRU order: we keep a sequence number per page and scan for the
     minimum on eviction, which is O(stripe capacity) but stripes are
     small and eviction infrequent at our scales. A doubly-linked list
     would be the production choice; the simple scheme keeps the
     invariants obvious. *)
  last_used : (int, int) Hashtbl.t;
  mutable clock : int;
  mutable logical_reads : int;
  mutable misses : int;
  mutable evictions : int;
  mutable retries : int;
}

type t = { pager : Pager.t; capacity : int; stripes : stripe array }

let default_stripes = 16

let create ?(capacity = 1024) pager =
  if capacity < 1 then invalid_arg "Buffer_pool.create: capacity must be >= 1";
  (* Never more stripes than frames, so every stripe can hold a page. *)
  let n = min default_stripes capacity in
  let stripes =
    Array.init n (fun i ->
        let cap = (capacity / n) + if i < capacity mod n then 1 else 0 in
        {
          lock = Lock.create Lock.Outer;
          s_capacity = cap;
          frames = Hashtbl.create (2 * cap);
          last_used = Hashtbl.create (2 * cap);
          clock = 0;
          logical_reads = 0;
          misses = 0;
          evictions = 0;
          retries = 0;
        })
  in
  { pager; capacity; stripes }

let pager t = t.pager
let capacity t = t.capacity
let stripe_of t id = t.stripes.(id mod Array.length t.stripes)

let locked st f = Lock.with_lock st.lock f

let touch st id =
  st.clock <- st.clock + 1;
  Hashtbl.replace st.last_used id st.clock

(* Bounded retry for transient pager faults. An injected failure
   (Io_error from a failpoint, or a Corrupt_page from torn/bit-flipped
   injected bytes) is usually transient — the fault fires on one call
   and the retry sees clean bytes — so retrying with a short exponential
   relax-loop backoff rides it out. Genuine stored corruption fails
   every attempt and the last error propagates, typed, to the executor's
   fallback logic. Called with the stripe lock held; the backoff spins
   rather than sleeps so the stripe is held for microseconds, not
   scheduler quanta. *)
let max_attempts = 4

let with_retry st f =
  let rec go attempt =
    match f () with
    | v -> v
    | exception (Tm_fault.Fault.Io_error _ | Pager.Corrupt_page _) when attempt < max_attempts
      ->
      st.retries <- st.retries + 1;
      Tm_obs.Obs.incr c_retries;
      Tm_obs.Flight.emit Tm_obs.Flight.Pool_retry attempt 0 "";
      for _ = 1 to 1 lsl (4 + attempt) do
        Domain.cpu_relax ()
      done;
      go (attempt + 1)
  in
  go 1

(* Called with the stripe lock held. *)
let evict_one pager st =
  Tm_fault.Fault.guard "buffer_pool.evict";
  (* Find the stripe's least-recently-used resident page and write it
     back if dirty. *)
  let victim = ref (-1) and best = ref max_int in
  Hashtbl.iter
    (fun id seq ->
      if seq < !best then begin
        best := seq;
        victim := id
      end)
    st.last_used;
  let id = !victim in
  assert (id >= 0);
  (match Hashtbl.find_opt st.frames id with
  | Some fr when fr.dirty -> Pager.write pager id fr.data
  | _ -> ());
  Hashtbl.remove st.frames id;
  Hashtbl.remove st.last_used id;
  st.evictions <- st.evictions + 1;
  Tm_obs.Obs.incr c_evictions;
  Tm_obs.Flight.emit Tm_obs.Flight.Pool_evict id 0 ""

(* Called with the stripe lock held. The miss path performs the
   physical read inside the critical section, which also prevents two
   domains racing to fault the same page in twice. Stripe locks never
   nest and the pager's own lock sits strictly below them, so the
   ordering is acyclic. *)
let find_frame (q : Tm_exec.Stats.t) pager st id =
  match Hashtbl.find_opt st.frames id with
  | Some fr ->
    touch st id;
    fr
  | None ->
    st.misses <- st.misses + 1;
    q.Tm_exec.Stats.pool_misses <- q.Tm_exec.Stats.pool_misses + 1;
    (* Retry covers both the eviction (its failpoint and write-back)
       and the fault-in read. Eviction mutates nothing until its
       write-back succeeds, so re-running it after a partial failure is
       safe: the same victim is picked again. *)
    let data =
      with_retry st (fun () ->
          if Hashtbl.length st.frames >= st.s_capacity then evict_one pager st;
          Pager.read pager id)
    in
    let fr = { data; dirty = false } in
    Hashtbl.replace st.frames id fr;
    touch st id;
    fr

(** Read a page through the pool, reporting whether the bytes came from
    a superseded snapshot version. When the calling domain holds an
    {!Epoch} pin older than the page's current epoch (a writer
    transaction dirtied the page after the pin), the read bypasses the
    frame cache — frames always hold the {e newest} image — and serves
    the pinned version straight from the pager's version chain,
    uncached. The epoch check happens under the stripe lock, the same
    lock a transactional write-through holds, so a reader sees either
    the old epoch with the old frame or the new epoch and takes the
    snapshot path: never a torn mix. The fast path ({!Pager.snapshot_active}
    false, i.e. no transaction and no version chains) costs one atomic
    load. Every read is charged to the calling domain's query cost
    record ({!Tm_exec.Stats.current}) as well as to the stripe. The
    returned bytes must not be mutated; use {!write} to modify a page. *)
let read_versioned t id =
  let st = stripe_of t id in
  let q = Tm_exec.Stats.current () in
  q.Tm_exec.Stats.logical_reads <- q.Tm_exec.Stats.logical_reads + 1;
  locked st (fun () ->
      st.logical_reads <- st.logical_reads + 1;
      let pinned_stale =
        (* The active transaction's writer must always see its own
           writes: its reads serve the newest image even when the domain
           also happens to hold a pin (the pin is for the query scope
           that spawned the transaction, not for the write path). *)
        if (not (Pager.snapshot_active t.pager)) || Pager.in_txn_writer t.pager then None
        else
          match Epoch.pinned_for t.pager with
          | Some e when Pager.epoch_of_page t.pager id > e -> Some e
          | Some _ | None -> None
      in
      match pinned_stale with
      | Some e ->
        (* Snapshot read: uncached (version-chain bytes must never
           alias the newest-image frame cache), counted as a miss. *)
        st.misses <- st.misses + 1;
        q.Tm_exec.Stats.pool_misses <- q.Tm_exec.Stats.pool_misses + 1;
        (with_retry st (fun () -> Pager.read_at t.pager ~epoch:e id), true)
      | None -> ((find_frame q t.pager st id).data, false))

(** Read a page through the pool. The returned bytes must not be mutated;
    use {!write} to modify a page. *)
let read t id = fst (read_versioned t id)

(** Replace a page's contents through the pool. Outside a transaction
    this is write-back caching (the frame is marked dirty and reaches
    the pager on eviction or {!flush_all}). When the calling domain is
    the active transaction's writer, the write goes {e through} to the
    pager immediately — {!Pager.write} captures the pre-image for
    pinned readers and tags the page with the reserved epoch — and the
    frame is refreshed clean, so commit needs no separate flush and
    abort can simply drop frames. *)
let write t id data =
  let st = stripe_of t id in
  locked st (fun () ->
      st.logical_reads <- st.logical_reads + 1;
      if Pager.in_txn_writer t.pager then begin
        with_retry st (fun () -> Pager.write t.pager id data);
        match Hashtbl.find_opt st.frames id with
        | Some fr ->
          touch st id;
          fr.data <- data;
          fr.dirty <- false
        | None ->
          with_retry st (fun () ->
              if Hashtbl.length st.frames >= st.s_capacity then evict_one t.pager st);
          Hashtbl.replace st.frames id { data; dirty = false };
          touch st id
      end
      else
        (* Avoid a pointless physical read when overwriting a non-resident
           page. *)
        match Hashtbl.find_opt st.frames id with
        | Some fr ->
          touch st id;
          fr.data <- data;
          fr.dirty <- true
        | None ->
          with_retry st (fun () ->
              if Hashtbl.length st.frames >= st.s_capacity then evict_one t.pager st);
          Hashtbl.replace st.frames id { data; dirty = true };
          touch st id)

(** Allocate a fresh page (through the pager) and cache it as dirty. *)
let alloc t =
  (* No page id yet, so no stripe to charge: book alloc retries to
     stripe 0 — stats are only ever read folded over all stripes. *)
  let st0 = t.stripes.(0) in
  let id = locked st0 (fun () -> with_retry st0 (fun () -> Pager.alloc t.pager)) in
  write t id (Bytes.make (Pager.page_size t.pager) '\x00');
  id

let flush_all t =
  Array.iter
    (fun st ->
      locked st (fun () ->
          Hashtbl.iter
            (fun id fr ->
              if fr.dirty then begin
                with_retry st (fun () -> Pager.write t.pager id fr.data);
                fr.dirty <- false
              end)
            st.frames))
    t.stripes

(** Drop every cached frame (after writing dirty ones back), simulating a
    cold cache for benchmark runs. *)
let clear t =
  flush_all t;
  Array.iter
    (fun st ->
      locked st (fun () ->
          Hashtbl.reset st.frames;
          Hashtbl.reset st.last_used))
    t.stripes

(** Drop the frames caching the given pages without writing them back —
    after a transaction abort restored their pager images, the frames
    hold bytes that were rolled back. *)
let invalidate t ids =
  List.iter
    (fun id ->
      let st = stripe_of t id in
      locked st (fun () ->
          Hashtbl.remove st.frames id;
          Hashtbl.remove st.last_used id))
    ids

(* Transaction passthroughs, so structures built over the pool need not
   reach around it for the pager. *)
let in_txn_writer t = Pager.in_txn_writer t.pager
let add_participant t f = Pager.add_participant t.pager f

type stats = { logical_reads : int; misses : int; evictions : int; retries : int }

let stats (t : t) : stats =
  Array.fold_left
    (fun acc st ->
      locked st (fun () ->
          {
            logical_reads = acc.logical_reads + st.logical_reads;
            misses = acc.misses + st.misses;
            evictions = acc.evictions + st.evictions;
            retries = acc.retries + st.retries;
          }))
    { logical_reads = 0; misses = 0; evictions = 0; retries = 0 }
    t.stripes

let reset_stats (t : t) =
  Array.iter
    (fun st ->
      locked st (fun () ->
          st.logical_reads <- 0;
          st.misses <- 0;
          st.evictions <- 0;
          st.retries <- 0))
    t.stripes
