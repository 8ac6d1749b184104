(** CLOCK buffer pool over a {!Pager}: a record of which pages are
    resident.

    Mirrors the paper's experimental setup (Section 5.1.1: a fixed-size
    buffer pool with the OS cache disabled): every page access is a
    logical read; an access to a page that is not resident costs a
    simulated I/O (a physical, checksummed {!Pager.read}) and makes the
    page resident, evicting another when the pool is full. Capacity is
    a number of frames.

    The pool holds no page bytes. The pager keeps the one copy of every
    page, and a frame records only which page it holds and a CLOCK
    reference bit. Every read hands out the image the pager has
    installed, uncopied, so a caller that keeps a decoded form of a page
    can tell by identity whether it still holds. Every write goes
    straight through to {!Pager.write}, inside a transaction or not, so
    nothing is ever written back, flushed or invalidated: {!clear} only
    forgets residency.

    The pool is striped for domain-safety: frames are partitioned over
    [page id mod stripes] sub-pools, each with its own mutex, CLOCK hand
    and slice of the total capacity. Concurrent readers on different
    pages almost always hit different stripes and proceed in parallel;
    readers of the same page serialise briefly on one stripe lock. *)

(* Eviction and retry totals for the metrics sink (gated on it). Reads
   and misses go to the reading query's cost record ({!read}), which
   stays exact per query. *)
let c_evictions = Tm_obs.Obs.counter "buffer_pool.evictions"
let c_retries = Tm_obs.Obs.counter "buffer_pool.retries"
let site_evict = "buffer_pool.evict"

type stripe = {
  lock : Lock.t;
  holds : int array; (* frame -> the page it holds; frames below [used] are in use *)
  referenced : bool array; (* frame -> CLOCK reference bit, set by each access *)
  mutable frame_of : int array; (* page id / stripe count -> its frame, or -1 *)
  mutable used : int;
  mutable hand : int; (* the frame CLOCK considers next *)
  mutable logical_reads : int;
  mutable misses : int;
  mutable evictions : int;
  mutable retries : int;
}

type t = { pager : Pager.t; stripes : stripe array }

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
          holds = Array.make cap (-1);
          referenced = Array.make cap false;
          frame_of = [||];
          used = 0;
          hand = 0;
          logical_reads = 0;
          misses = 0;
          evictions = 0;
          retries = 0;
        })
  in
  { pager; stripes }

let pager t = t.pager
let stripe_of t id = t.stripes.(id mod Array.length t.stripes)

let locked st f = Lock.with_lock st.lock f

(* The frame holding [id], or -1. Caller holds the stripe lock. *)
let frame t st id =
  let k = id / Array.length t.stripes in
  if k < Array.length st.frame_of then st.frame_of.(k) else -1

(* Bounded retry for transient pager faults. An injected failure
   (Io_error from a failpoint, or a Corrupt_page from torn/bit-flipped
   injected bytes) is usually transient — the fault fires on one call
   and the retry sees clean bytes — so retrying with a short exponential
   relax-loop backoff rides it out. Genuine stored corruption fails
   every attempt's checksum; when the attempts run out, a checksum
   failure seen on any of them is what propagates, typed, to fsck and
   the executor's fallback logic, because stored damage outranks an
   injected I/O error on the last attempt. Called with the stripe lock
   held; the backoff spins rather than sleeps so the stripe is held for
   microseconds, not scheduler quanta. *)
let max_attempts = 4

let with_retry st f =
  let rec go attempt corrupt =
    match f () with
    | v -> v
    | exception ((Tm_fault.Fault.Io_error _ | Pager.Corrupt_page _) as e) ->
      let corrupt = match e with Pager.Corrupt_page _ -> Some e | _ -> corrupt in
      if attempt >= max_attempts then raise (Option.value corrupt ~default:e);
      st.retries <- st.retries + 1;
      Tm_obs.Obs.incr c_retries;
      Tm_obs.Flight.emit Tm_obs.Flight.Pool_retry attempt 0 "";
      for _ = 1 to 1 lsl (4 + attempt) do
        Domain.cpu_relax ()
      done;
      go (attempt + 1) corrupt
  in
  go 1 None

(* The [buffer_pool.evict] failpoint, at the head of each eviction. It
   runs inside the retry of the read or write that makes room, before
   anything changes. Caller holds the stripe lock. *)
let guard_evict st = if st.used = Array.length st.holds then Tm_fault.Fault.guard site_evict

(* Make [id] resident, evicting by CLOCK when the stripe is full: the
   hand clears set reference bits until it reaches a clear one, and that
   frame's page leaves. Nothing here can fail, so a failed pager call
   before it leaves residency as it was. Caller holds the stripe lock;
   [id] is not resident. *)
let install t st id =
  let cap = Array.length st.holds in
  let f =
    if st.used < cap then begin
      st.used <- st.used + 1;
      st.used - 1
    end
    else begin
      while st.referenced.(st.hand) do
        st.referenced.(st.hand) <- false;
        st.hand <- (st.hand + 1) mod cap
      done;
      let f = st.hand and victim = st.holds.(st.hand) in
      st.frame_of.(victim / Array.length t.stripes) <- -1;
      st.hand <- (f + 1) mod cap;
      st.evictions <- st.evictions + 1;
      Tm_obs.Obs.incr c_evictions;
      Tm_obs.Flight.emit Tm_obs.Flight.Pool_evict victim 0 "";
      f
    end
  in
  let k = id / Array.length t.stripes in
  if k >= Array.length st.frame_of then begin
    let grown = Array.make (max (k + 1) (2 * Array.length st.frame_of)) (-1) in
    Array.blit st.frame_of 0 grown 0 (Array.length st.frame_of);
    st.frame_of <- grown
  end;
  st.holds.(f) <- id;
  st.referenced.(f) <- false;
  st.frame_of.(k) <- f

(* The epoch the calling domain reads at: its pin, unless it is the
   active transaction's writer, which must see its own writes even when
   it also holds a pin (the pin is for the query scope that spawned the
   transaction, not for the write path); [max_int] for the current
   image. No transaction and no version chain costs one atomic load. *)
let read_epoch t =
  if (not (Pager.snapshot_active t.pager)) || Pager.in_txn_writer t.pager then max_int
  else match Epoch.pinned_for t.pager with Some e -> e | None -> max_int

(* Caller holds the stripe lock. The epoch check and the miss path's
   physical read happen under it, and so does every write of the page,
   so a pinned reader sees either the old epoch with the old image or
   the new epoch and takes the snapshot path: never a torn mix. The
   miss path's read inside the critical section also keeps two domains
   from faulting the same page in twice. Stripe locks never nest and the
   pager's own lock sits strictly below them. *)
let read_locked t st (q : Tm_exec.Stats.t) id =
  st.logical_reads <- st.logical_reads + 1;
  let e = read_epoch t in
  if e < max_int && Pager.epoch_of_page t.pager id > e then begin
    (* A transaction wrote the page after the caller's pin: serve the
       pinned version from the pager's version chain, uncached (it must
       not become the resident image), counted as a miss. *)
    st.misses <- st.misses + 1;
    q.Tm_exec.Stats.pool_misses <- q.Tm_exec.Stats.pool_misses + 1;
    with_retry st (fun () -> Pager.read_at t.pager ~epoch:e id)
  end
  else
    let f = frame t st id in
    if f >= 0 then begin
      (* A hit is not checksummed, so a page whose stored image the
         pager knows to fail its checksum is read with its check. *)
      let image =
        if Pager.damaged t.pager id then with_retry st (fun () -> Pager.read t.pager id)
        else Pager.image t.pager id
      in
      st.referenced.(f) <- true;
      image
    end
    else begin
      st.misses <- st.misses + 1;
      q.Tm_exec.Stats.pool_misses <- q.Tm_exec.Stats.pool_misses + 1;
      let data =
        with_retry st (fun () ->
            guard_evict st;
            Pager.read t.pager id)
      in
      install t st id;
      data
    end

let read t id =
  let st = stripe_of t id in
  let q = Tm_exec.Stats.current () in
  q.Tm_exec.Stats.logical_reads <- q.Tm_exec.Stats.logical_reads + 1;
  Lock.acquire st.lock;
  match read_locked t st q id with
  | r ->
    Lock.release st.lock;
    r
  | exception e ->
    Lock.release st.lock;
    raise e
[@@analyze.manual_lock "the hit path allocates nothing, so it takes the lock without a closure"]

let resident t id =
  let st = stripe_of t id in
  locked st (fun () -> frame t st id >= 0)

let write t id data =
  let st = stripe_of t id in
  locked st (fun () ->
      st.logical_reads <- st.logical_reads + 1;
      let f = frame t st id in
      let image =
        with_retry st (fun () ->
            if f < 0 then guard_evict st;
            Pager.write t.pager id data)
      in
      if f >= 0 then st.referenced.(f) <- true else install t st id;
      image)

let alloc t =
  (* No page id yet, so no stripe to charge: book alloc retries to
     stripe 0 — stats are only ever read folded over all stripes. *)
  let st0 = t.stripes.(0) in
  let id = locked st0 (fun () -> with_retry st0 (fun () -> Pager.alloc t.pager)) in
  let st = stripe_of t id in
  locked st (fun () ->
      st.logical_reads <- st.logical_reads + 1;
      with_retry st (fun () -> guard_evict st);
      install t st id);
  id

let clear t =
  Array.iter
    (fun st ->
      locked st (fun () ->
          Array.fill st.frame_of 0 (Array.length st.frame_of) (-1);
          Array.fill st.referenced 0 (Array.length st.referenced) false;
          st.used <- 0;
          st.hand <- 0))
    t.stripes

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
