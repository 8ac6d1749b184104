(** Simulated disk: a growable array of fixed-size pages.

    The pager is the bottom of the storage stack. It hands out page ids,
    stores raw page images, and counts {e physical} reads and writes.
    All structured access should go through {!Buffer_pool}, which adds
    caching and counts {e logical} accesses; the gap between the two is
    the simulated I/O that the benchmark harness reports.

    Every page carries a CRC32 (unless checksums are disabled at
    creation), recomputed on write and verified on read, so corruption —
    whether injected through a [pager.read]/[pager.write] failpoint or
    planted by a test — surfaces as a typed {!Corrupt_page} naming the
    page rather than as garbage decoded downstream. The checksum lives
    in a sidecar array, not inside the page image, mirroring the
    out-of-band page headers real engines use; page payloads keep the
    full page to themselves.

    The pager holds the only copy of every page: the buffer pool above
    records which pages are resident but keeps no bytes, and writes go
    straight through to {!write}. An installed image is never changed in
    place (a write, an abort or a test hook installs a fresh buffer), so
    {!read} and {!image} hand out the installed buffer itself, and the
    bytes of a buffer never change: the B+-trees serve a decoded node
    only while the buffer it came from is the page's image. A hit is
    not checksummed, so the pager remembers every
    page whose stored image does not match its checksum ({!damaged}),
    and the pool verifies such a page on its next read.

    A single mutex serialises every operation, making the pager safe to
    share across domains. The lock covers little work: an array slot
    load or swap. *)

exception Corrupt_page of { page : int; detail : string }

let () =
  Printexc.register_printer (function
    | Corrupt_page { page; detail } ->
      Some (Printf.sprintf "Corrupt_page(page %d: %s)" page detail)
    | _ -> None)

(* Observability mirrors of the physical I/O counters, plus byte
   volumes (every transfer moves exactly one page image). *)
let c_reads = Tm_obs.Obs.counter "pager.physical_reads"
let c_writes = Tm_obs.Obs.counter "pager.physical_writes"
let c_read_bytes = Tm_obs.Obs.counter "pager.read_bytes"
let c_write_bytes = Tm_obs.Obs.counter "pager.write_bytes"

(* Failpoint sites (see {!Tm_fault.Fault}). Hooks fire before the
   physical counters move, so a failed call is not a counted transfer
   and a retried success counts exactly once — tests asserting exact
   physical-read counts stay deterministic under an injected fault leg. *)
let site_read = "pager.read"
let site_write = "pager.write"
let site_alloc = "pager.alloc"

(* A page-level transaction: one writer domain installs copy-on-write
   page versions tagged with a reserved (not yet published) epoch. The
   pre-image of every page first touched in the transaction is pushed
   onto that page's version chain, so epoch-pinned readers keep seeing
   the last committed image until {!commit_txn} publishes the epoch.
   Structures above the pager (the B+-trees) stage their
   metadata and register a participant callback to publish or drop it
   when the transaction ends. *)
type txn = {
  t_epoch : int;  (** reserved epoch; published on commit *)
  t_writer : int;  (** [Domain.self] of the (single) writer *)
  t_dirty : (int, unit) Hashtbl.t;  (** pages written (including allocs) *)
  mutable t_participants : (committed:bool -> unit) list;
}

type t = {
  page_size : int;
  checksums : bool;
  lock : Lock.t;
  mutable pages : bytes array; (* backing store, grown geometrically *)
  mutable crcs : int array; (* sidecar CRC32 per page (unused when checksums off) *)
  mutable versions : (int * bytes * int) list array;
      (* per page: superseded (epoch, image, crc), newest first *)
  mutable page_epochs : int array; (* epoch that wrote the current image *)
  mutable n_pages : int;
  mutable epoch : int; (* last published commit epoch *)
  versioned : (int, unit) Hashtbl.t; (* page ids with a non-empty version chain *)
  pins : (int, int) Hashtbl.t; (* pinned epoch -> pin count *)
  txn : txn option Atomic.t;
  snapshot_work : int Atomic.t;
      (* versioned-page count + active-txn flag: a lock-free hint that
         lets the read fast path skip all epoch bookkeeping *)
  damaged : (int, unit) Hashtbl.t;
      (* pages whose stored image fails its checksum (checksums on only) *)
  damage : int Atomic.t; (* [Hashtbl.length damaged], readable without the lock *)
  mutable physical_reads : int;
  mutable physical_writes : int;
}

let default_page_size = 8192

let create ?(page_size = default_page_size) ?(checksums = true) () =
  {
    page_size;
    checksums;
    lock = Lock.create Lock.Inner;
    pages = Array.make 64 Bytes.empty;
    crcs = Array.make 64 0;
    versions = Array.make 64 [];
    page_epochs = Array.make 64 0;
    n_pages = 0;
    epoch = 0;
    versioned = Hashtbl.create 16;
    pins = Hashtbl.create 8;
    txn = Atomic.make None;
    snapshot_work = Atomic.make 0;
    damaged = Hashtbl.create 8;
    damage = Atomic.make 0;
    physical_reads = 0;
    physical_writes = 0;
  }

let locked t f = Lock.with_lock t.lock f

let page_size t = t.page_size
let page_count t = locked t (fun () -> t.n_pages)

(** Total bytes occupied on the simulated disk. *)
let size_bytes t = page_count t * t.page_size

let grow t needed =
  if needed > Array.length t.pages then begin
    let cap = max needed (2 * Array.length t.pages) in
    let pages = Array.make cap Bytes.empty in
    let crcs = Array.make cap 0 in
    let versions = Array.make cap [] in
    let page_epochs = Array.make cap 0 in
    Array.blit t.pages 0 pages 0 t.n_pages;
    Array.blit t.crcs 0 crcs 0 t.n_pages;
    Array.blit t.versions 0 versions 0 t.n_pages;
    Array.blit t.page_epochs 0 page_epochs 0 t.n_pages;
    t.pages <- pages;
    t.crcs <- crcs;
    t.versions <- versions;
    t.page_epochs <- page_epochs
  end

(* The active transaction, provided the calling domain is its writer.
   Everything txn-specific in [alloc]/[write] keys off this: other
   domains (and all callers outside a transaction) take the plain
   path. *)
let txn_if_writer t =
  match Atomic.get t.txn with
  | Some tx when tx.t_writer = (Domain.self () :> int) -> Some tx
  | Some _ | None -> None

(* Computed eagerly at module init: a [lazy] here would be forced from
   whichever domain allocates first, and unsynchronized forcing races. *)
let crc_of_zero_page = Codec.crc32 (Bytes.make default_page_size '\x00')

(** Allocate a fresh zeroed page; returns its id. *)
let alloc t =
  Tm_fault.Fault.guard site_alloc;
  locked t (fun () ->
      grow t (t.n_pages + 1);
      let id = t.n_pages in
      t.pages.(id) <- Bytes.make t.page_size '\x00';
      if t.checksums then
        t.crcs.(id) <-
          (if t.page_size = default_page_size then crc_of_zero_page else Codec.crc32 t.pages.(id));
      (match txn_if_writer t with
      | Some tx ->
        (* Pages born inside a transaction have no pre-image; on abort
           they are simply re-zeroed (their ids stay allocated). *)
        Hashtbl.replace tx.t_dirty id ();
        t.page_epochs.(id) <- tx.t_epoch
      | None -> t.page_epochs.(id) <- t.epoch);
      t.n_pages <- id + 1;
      id)

let check_id t id =
  if id < 0 || id >= t.n_pages then
    raise (Corrupt_page { page = id; detail = "unallocated page id" })

(* Record whether [id]'s stored image fails its checksum. Caller holds
   the lock. *)
let set_damaged t id bad =
  if bad then begin
    if not (Hashtbl.mem t.damaged id) then begin
      Hashtbl.replace t.damaged id ();
      Atomic.incr t.damage
    end
  end
  else if Atomic.get t.damage > 0 && Hashtbl.mem t.damaged id then begin
    Hashtbl.remove t.damaged id;
    Atomic.decr t.damage
  end

let damaged t id = Atomic.get t.damage > 0 && locked t (fun () -> Hashtbl.mem t.damaged id)

(** Physical write: installs a copy of [data] (padded/truncated to page
    size) and returns it. The stored checksum is always that of the
    {e intended} image: a torn/bit-flipped injected write therefore
    persists bytes that no longer match their CRC, the page is marked
    {!damaged}, and the damage is detected on the next read — the
    torn-write crash model. *)
let write t id data =
  let intended = Bytes.make t.page_size '\x00' in
  let len = min (Bytes.length data) t.page_size in
  Bytes.blit data 0 intended 0 len;
  let crc = if t.checksums then Codec.crc32 intended else 0 in
  let page = Tm_fault.Fault.apply ~site:site_write intended in
  let bad = t.checksums && page != intended && not (Bytes.equal page intended) in
  locked t (fun () ->
      check_id t id;
      (match txn_if_writer t with
      | Some tx ->
        (* First touch in this transaction: push the committed image
           onto the version chain so epoch-pinned readers keep a
           consistent view, then tag the page with the reserved epoch. *)
        if not (Hashtbl.mem tx.t_dirty id) then begin
          Hashtbl.replace tx.t_dirty id ();
          if t.page_epochs.(id) < tx.t_epoch then begin
            t.versions.(id) <- (t.page_epochs.(id), t.pages.(id), t.crcs.(id)) :: t.versions.(id);
            if not (Hashtbl.mem t.versioned id) then begin
              Hashtbl.replace t.versioned id ();
              Atomic.incr t.snapshot_work
            end
          end
        end;
        t.page_epochs.(id) <- tx.t_epoch
      | None -> t.page_epochs.(id) <- t.epoch);
      t.physical_writes <- t.physical_writes + 1;
      t.pages.(id) <- page;
      t.crcs.(id) <- crc;
      set_damaged t id bad);
  Tm_obs.Obs.incr c_writes;
  Tm_obs.Obs.add c_write_bytes t.page_size;
  page

(** Offline integrity check: does the stored image still match its
    checksum? Bypasses failpoints and I/O accounting (it is the fsck
    path, not a query path). Always true when checksums are disabled;
    false for unallocated ids. *)
let verify_page t id =
  locked t (fun () ->
      if id < 0 || id >= t.n_pages then false
      else if not t.checksums then true
      else Codec.crc32 t.pages.(id) = t.crcs.(id))
[@@analyze.no_failpoint "fsck path: integrity checks must see the store as it is, not as injected"]

(** Test hooks: plant corruption in the backing store, without touching
    the sidecar checksum — the states fsck and the read path must
    detect. The flipped image is a fresh buffer, so bytes a reader
    already holds never change. *)
let unsafe_flip_bit t ~page ~bit =
  locked t (fun () ->
      check_id t page;
      let img = Bytes.copy t.pages.(page) in
      let byte = bit / 8 mod Bytes.length img in
      Bytes.set img byte (Char.chr (Char.code (Bytes.get img byte) lxor (1 lsl (bit mod 8))));
      t.pages.(page) <- img;
      set_damaged t page t.checksums)
[@@analyze.no_failpoint "test hook: plants the corruption failpoints are meant to simulate"]

let unsafe_flip_crc_bit t ~page ~bit =
  locked t (fun () ->
      check_id t page;
      t.crcs.(page) <- t.crcs.(page) lxor (1 lsl (bit mod 32));
      set_damaged t page t.checksums)
[@@analyze.no_failpoint "test hook: plants the corruption failpoints are meant to simulate"]

(** Run [f] under the lock with the page images, their checksums and
    the version chains detached, so a [Marshal] made by [f] of a
    structure reaching [t] holds none of them; reattach them, also when
    [f] raises. Returns [f]'s result with every page's image and CRC,
    page [i] at index [i]. The images are the installed buffers, which
    nothing changes in place, so the caller may write them out after
    the lock is released. A damaged page keeps the sidecar CRC its
    image fails, so the damage survives the export; only a pager
    without checksums has its CRCs computed, here. Readers needing
    page bytes wait for [f]. *)
let export t f =
  let result, images, crcs =
    locked t (fun () ->
        let pages = t.pages and crcs = t.crcs and versions = t.versions in
        t.pages <- [||];
        t.crcs <- [||];
        t.versions <- [||];
        let result =
          Fun.protect
            ~finally:(fun () ->
              t.pages <- pages;
              t.crcs <- crcs;
              t.versions <- versions)
            f
        in
        (result, Array.sub pages 0 t.n_pages, Array.sub crcs 0 t.n_pages))
  in
  (result, images, if t.checksums then crcs else Array.map Codec.crc32 images)

(** Reattach a page store to a pager that [Marshal] rebuilt from a
    structure {!export} detached it from. The caller has checked every
    image against its CRC, so the pager comes back with no damaged
    page, and quiescent: no version chain, pin or transaction. *)
let install t images crcs =
  locked t (fun () ->
      let n = Array.length images in
      if n <> t.n_pages || Array.length crcs <> n then
        invalid_arg
          (Printf.sprintf "Pager.install: %d images and %d CRCs for %d pages" n
             (Array.length crcs) t.n_pages);
      (* [page_epochs] was marshalled at its full capacity. *)
      let cap = Array.length t.page_epochs in
      t.pages <- Array.make cap Bytes.empty;
      t.crcs <- Array.make cap 0;
      t.versions <- Array.make cap [];
      Array.blit images 0 t.pages 0 n;
      Array.blit crcs 0 t.crcs 0 n;
      Hashtbl.reset t.versioned;
      Hashtbl.reset t.pins;
      Hashtbl.reset t.damaged;
      Atomic.set t.damage 0;
      Atomic.set t.txn None;
      Atomic.set t.snapshot_work 0)

let reset_stats t =
  locked t (fun () ->
      t.physical_reads <- 0;
      t.physical_writes <- 0)

let physical_reads t = locked t (fun () -> t.physical_reads)
let physical_writes t = locked t (fun () -> t.physical_writes)

(* ------------------------------------------------------------------ *)
(* Epochs, snapshot reads and page-level transactions                  *)
(* ------------------------------------------------------------------ *)

let snapshot_active t = Atomic.get t.snapshot_work > 0

let epoch_of_page t id =
  locked t (fun () ->
      check_id t id;
      t.page_epochs.(id))
[@@analyze.no_failpoint "epoch metadata only; page bytes are not touched"]

let in_txn t = Option.is_some (Atomic.get t.txn)
let in_txn_writer t = Option.is_some (txn_if_writer t)

(* The newest version of [id] whose epoch is [<= epoch], as its image
   and checksum: the current image when it qualifies, else a walk of the
   version chain. Caller holds the lock. *)
let version_at t ~epoch id =
  check_id t id;
  if t.page_epochs.(id) <= epoch then (t.pages.(id), t.crcs.(id))
  else
    match List.find_opt (fun (ve, _, _) -> ve <= epoch) t.versions.(id) with
    | Some (_, img, vcrc) -> (img, vcrc)
    | None -> raise (Corrupt_page { page = id; detail = "no page version at pinned epoch" })
[@@analyze.no_failpoint "a lookup: [read_at] applies the read failpoint to what it returns"]

(** Snapshot read: the newest image of [id] whose epoch is [<= epoch],
    once it matches its checksum. Only successful reads are counted.
    Raises {!Corrupt_page} if no version covers the requested epoch (a
    pin taken before the versions were pruned away — callers must hold
    a registered pin, see {!pin}). *)
let read_at t ~epoch id =
  let image, crc = locked t (fun () -> version_at t ~epoch id) in
  (* The failpoint may raise (Fail) or return a corrupted copy
     (Torn/Bitflip), which then fails the checksum below, exactly as a
     bad sector would; it never changes the installed image. *)
  let data = Tm_fault.Fault.apply ~site:site_read image in
  if t.checksums && Codec.crc32 data <> crc then
    raise (Corrupt_page { page = id; detail = "checksum mismatch on read" });
  locked t (fun () -> t.physical_reads <- t.physical_reads + 1);
  Tm_obs.Obs.incr c_reads;
  Tm_obs.Obs.add c_read_bytes t.page_size;
  data

(* Physical read of the current image: no version is newer. *)
let read t id = read_at t ~epoch:max_int id

(* The current image, unchecked and uncounted: the bytes of a
   buffer-pool hit. It takes the lock without a closure, so a hit
   allocates nothing. *)
let image t id =
  Lock.acquire t.lock;
  match check_id t id with
  | () ->
    let image = t.pages.(id) in
    Lock.release t.lock;
    image
  | exception e ->
    Lock.release t.lock;
    raise e
[@@analyze.manual_lock "a buffer-pool hit allocates nothing, so it takes the lock without a closure"]
[@@analyze.no_failpoint "the bytes of a resident page: a hit transfers nothing"]

(* Drop versions of [id] no pin can reach: for each pinned epoch the
   newest version at or below it (when the current image is above it)
   stays; everything else goes. The current {e published} epoch counts
   as an implicit pin: while an uncommitted transaction has overwritten
   the page (page epoch above [t.epoch]), the last committed image
   lives only in the chain, and a reader may still {!pin} at [t.epoch]
   and need it — an unpin-triggered prune must not discard it. Caller
   holds the pager lock. *)
let prune_versions_locked t id =
  match t.versions.(id) with
  | [] -> ()
  | vs ->
    let keep_for p acc =
      if t.page_epochs.(id) <= p then acc
      else
        match List.find_opt (fun (ve, _, _) -> ve <= p) vs with
        | Some (ve, _, _) -> ve :: acc
        | None -> acc
    in
    let keep = Hashtbl.fold (fun p _ acc -> keep_for p acc) t.pins (keep_for t.epoch []) in
    let vs' = List.filter (fun (ve, _, _) -> List.exists (fun k -> k = ve) keep) vs in
    t.versions.(id) <- vs';
    if List.length vs' = 0 && Hashtbl.mem t.versioned id then begin
      Hashtbl.remove t.versioned id;
      Atomic.decr t.snapshot_work
    end
[@@analyze.no_failpoint "version-chain GC: no live page bytes are read or written"]

(** Register a snapshot pin at the current published epoch; returns the
    pinned epoch. Version chains reachable from a registered pin are
    kept alive until {!unpin}. *)
let pin t =
  let e =
    locked t (fun () ->
        let e = t.epoch in
        Hashtbl.replace t.pins e (1 + Option.value ~default:0 (Hashtbl.find_opt t.pins e));
        e)
  in
  Tm_obs.Flight.emit Tm_obs.Flight.Epoch_pin e 0 "";
  e

let unpin t e =
  let reclaimed =
    locked t (fun () ->
        (match Hashtbl.find_opt t.pins e with
        | Some n when n > 1 -> Hashtbl.replace t.pins e (n - 1)
        | Some _ -> Hashtbl.remove t.pins e
        | None -> ());
        let before = Hashtbl.length t.versioned in
        if before > 0 then begin
          (* Re-prune every versioned page against the remaining pins;
             with no pins left this clears all chains. *)
          let ids = Hashtbl.fold (fun id () acc -> id :: acc) t.versioned [] in
          List.iter (fun id -> prune_versions_locked t id) ids
        end;
        before - Hashtbl.length t.versioned)
  in
  Tm_obs.Flight.emit Tm_obs.Flight.Epoch_unpin e 0 "";
  if reclaimed > 0 then Tm_obs.Flight.emit Tm_obs.Flight.Epoch_prune e reclaimed ""

let begin_txn t =
  let e =
    locked t (fun () ->
        (match Atomic.get t.txn with
        | Some _ -> invalid_arg "Pager.begin_txn: a transaction is already active"
        | None -> ());
        let tx =
          {
            t_epoch = t.epoch + 1;
            t_writer = (Domain.self () :> int);
            t_dirty = Hashtbl.create 32;
            t_participants = [];
          }
        in
        Atomic.set t.txn (Some tx);
        Atomic.incr t.snapshot_work;
        tx.t_epoch)
  in
  Tm_obs.Flight.emit Tm_obs.Flight.Txn_begin e 0 "";
  e

(** Register a commit/abort callback on the active transaction. Runs
    after the epoch flips (commit) or the pre-images are restored
    (abort), outside the pager lock — participants may touch the pager
    and their own locks freely. *)
let add_participant t f =
  match txn_if_writer t with
  | Some tx -> tx.t_participants <- f :: tx.t_participants
  | None -> invalid_arg "Pager.add_participant: no transaction, or not the writer domain"

(** True while the active transaction has performed no page writes —
    an abort at this point fully restores state (used for clean
    validation-failure aborts). Participants do not count: their
    staging is abortable by construction (abort runs them with
    [committed:false]). *)
let txn_clean t =
  match txn_if_writer t with
  | Some tx -> Hashtbl.length tx.t_dirty = 0
  | None -> invalid_arg "Pager.txn_clean: no transaction, or not the writer domain"

(** The pages written by the active transaction, as [(page, crc32)]
    sorted by page id — the page records a WAL logs before commit and
    recovery compares a replay against. Each CRC is that of the stored
    image. With checksums on, the sidecar CRC of a page not marked
    {!damaged} is exactly that ([alloc], [write], [abort_txn] and the
    flip hooks keep it so), and it is returned as is; only a damaged
    page, or every page of a pager without checksums, is checksummed
    here, after the lock is released: an installed image is never
    mutated in place (a write installs a fresh buffer). *)
let txn_dirty t =
  match txn_if_writer t with
  | None -> invalid_arg "Pager.txn_dirty: no transaction, or not the writer domain"
  | Some tx ->
    locked t (fun () ->
        Hashtbl.fold
          (fun id () acc ->
            let known = t.checksums && not (Atomic.get t.damage > 0 && Hashtbl.mem t.damaged id) in
            (id, t.pages.(id), if known then Some t.crcs.(id) else None) :: acc)
          tx.t_dirty [])
    |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
    |> List.map (fun (id, image, crc) ->
           (id, match crc with Some c -> c | None -> Codec.crc32 image))
[@@analyze.no_failpoint "txn bookkeeping: page CRCs are logged to the WAL, not transferred as I/O"]

(** Publish the transaction's epoch: one field write under the lock
    flips every page it touched from "invisible to new readers" to
    "current". Version chains of touched pages are pruned against the
    live pins, then participants run with [~committed:true]. *)
let commit_txn t =
  let participants, epoch, dirty =
    locked t (fun () ->
        match Atomic.get t.txn with
        | None -> invalid_arg "Pager.commit_txn: no active transaction"
        | Some tx ->
          t.epoch <- tx.t_epoch;
          Hashtbl.iter (fun id () -> prune_versions_locked t id) tx.t_dirty;
          Atomic.set t.txn None;
          Atomic.decr t.snapshot_work;
          (tx.t_participants, tx.t_epoch, Hashtbl.length tx.t_dirty))
  in
  Tm_obs.Flight.emit Tm_obs.Flight.Txn_commit epoch dirty "";
  Tm_obs.Flight.emit Tm_obs.Flight.Epoch_publish epoch 0 "";
  List.iter (fun f -> f ~committed:true) participants

(** Restore every touched page to its pre-transaction image (pages
    allocated inside the transaction are re-zeroed), discard the
    reserved epoch, and run participants with [~committed:false]. A
    restored image is checksummed again: it is {!damaged} if it was
    when the transaction first wrote over it. *)
let abort_txn t =
  let participants, epoch, touched =
    locked t (fun () ->
        match Atomic.get t.txn with
        | None -> invalid_arg "Pager.abort_txn: no active transaction"
        | Some tx ->
          Hashtbl.iter
            (fun id () ->
              if t.page_epochs.(id) = tx.t_epoch then begin
                match t.versions.(id) with
                | (ve, img, vcrc) :: rest ->
                  t.pages.(id) <- img;
                  t.crcs.(id) <- vcrc;
                  set_damaged t id (t.checksums && Codec.crc32 img <> vcrc);
                  t.page_epochs.(id) <- ve;
                  t.versions.(id) <- rest;
                  if List.length rest = 0 && Hashtbl.mem t.versioned id then begin
                    Hashtbl.remove t.versioned id;
                    Atomic.decr t.snapshot_work
                  end
                | [] ->
                  (* Allocated (or already pruned clean) inside the
                     transaction: reset to the zero page it was born as. *)
                  t.pages.(id) <- Bytes.make t.page_size '\x00';
                  t.crcs.(id) <-
                    (if not t.checksums then 0
                     else if t.page_size = default_page_size then crc_of_zero_page
                     else Codec.crc32 t.pages.(id));
                  set_damaged t id false;
                  t.page_epochs.(id) <- t.epoch
              end)
            tx.t_dirty;
          Atomic.set t.txn None;
          Atomic.decr t.snapshot_work;
          (tx.t_participants, tx.t_epoch, Hashtbl.length tx.t_dirty))
  in
  Tm_obs.Flight.emit Tm_obs.Flight.Txn_abort epoch touched "";
  List.iter (fun f -> f ~committed:false) participants
[@@analyze.no_failpoint "txn rollback: restores pre-images captured by a faultable write"]
