(** The durable write path: a write-ahead-logged database directory.

    A durable handle owns a directory holding a Persist v5 snapshot
    ([snapshot.twig]) and a {!Tm_wal.Wal} redo log ([wal.log]). Every
    {!insert_subtree} / {!delete_subtree} is one logged transaction:

    + [Begin txn] and an [Op] frame carrying the logical operation
      (parent id + encoded subtree, or deleted node id) are appended;
    + a pager transaction is opened ({!Tm_storage.Pager.begin_txn}) and
      the update executes through {!Updates} — page writes go through
      the buffer pool straight to the pager, which keeps copy-on-write
      versions for epoch-pinned readers;
    + every dirtied page is appended as a [Page] frame holding its id
      and the CRC32 of its post-image (the image itself is left empty:
      recovery re-executes the [Op] and never reads it), then
      [Commit txn];
    + the log is fsynced ({e before} the transaction is acknowledged —
      unless inside {!batch}, which group-commits with one fsync);
    + the pager transaction commits, atomically publishing the new
      epoch to concurrent readers, and [Database.last_txn] advances.

    Recovery ({!open_}) loads the snapshot, scans the log's valid
    prefix (torn and bad-CRC tails are discarded), and {e re-executes}
    the logical operations of every committed transaction newer than
    the snapshot's [last_txn], in commit order. The update path is
    deterministic (id assignment, dictionary interning and B+-tree
    insertion depend only on database state), so replay
    reproduces the original pages exactly. After each transaction the
    [(page, crc)] list the replay wrote must equal the logged one — the
    transaction's whole physical record — so a page written with other
    bytes, a logged page left unwritten, or a written page the log
    never recorded is a {!Recovery_error} instead of silent corruption.
    Logs whose [Page] frames still carry images recover the same way.
    Partially-logged transactions (a [Begin] without its [Commit] in
    the valid prefix) are never replayed and are truncated away.

    {!checkpoint} folds the log into a fresh snapshot: write the
    snapshot (fsync + atomic rename + directory fsync, see
    {!Persist.save}), truncate the log, and stamp it with a
    [Checkpoint] frame. The snapshot writes each page raw under the
    pager's own CRC and marshals only the rest of the database; the
    buffer pool and the decoded B+-tree nodes stay warm. A crash
    anywhere in that sequence is safe: the old snapshot survives until
    the rename, the new one is durable {e before} the truncate can
    reach the disk (so the log's transactions are never lost to a
    truncated WAL beside a missing snapshot), and transactions both in
    the snapshot and still in the log are skipped by the [last_txn]
    watermark. A crash mid-save leaves the save's temp file behind;
    {!open_} removes it.

    Failure handling is two-tier. A validation failure
    ([Invalid_argument] from {!Updates} before any page was dirtied)
    aborts cleanly: the pager transaction rolls back and the handle
    remains usable — the dangling [Begin]/[Op] frames are harmless
    because recovery ignores uncommitted transactions. Any other
    mid-transaction failure (an I/O fault after pages were dirtied)
    rolls back the pager but {e poisons} the handle: the in-memory
    dictionary, catalog and document cannot be rolled back reliably, so
    every subsequent operation raises {!Poisoned} and the recovery
    path is to {!open_} the directory again — which is exactly the
    guarantee the log exists to provide.

    The handle serializes writers with an internal mutex (single-writer
    discipline); readers never take it — they run against epoch-pinned
    snapshots (see {!Tm_storage.Epoch}). A directory or database has at
    most one live handle, which alone may update the database until
    {!close}: anything else raises {!Updates.Writer_conflict}. *)

open Tm_storage
module Wal = Tm_wal.Wal
module T = Tm_xml.Xml_tree

let c_txns = Tm_obs.Obs.counter "durable.txns"
let c_replayed_txns = Tm_obs.Obs.counter "durable.replayed_txns"
let c_checkpoints = Tm_obs.Obs.counter "durable.checkpoints"
let c_clean_aborts = Tm_obs.Obs.counter "durable.clean_aborts"
let c_poisoned = Tm_obs.Obs.counter "durable.poisoned"

(* Fired between logging a transaction's frames and its [Commit]
   append: a [Fail] here is the canonical "crash before commit" for
   the CI kill matrix — the logged frames stay uncommitted and
   recovery discards them. *)
let site_commit = "wal.commit"

exception Recovery_error of string
exception Poisoned of string

let () =
  Printexc.register_printer (function
    | Recovery_error s -> Some (Printf.sprintf "Durable.Recovery_error(%s)" s)
    | Poisoned s -> Some (Printf.sprintf "Durable.Poisoned(%s)" s)
    | _ -> None)

let recovery_error fmt = Printf.ksprintf (fun s -> raise (Recovery_error s)) fmt

let snapshot_file = "snapshot.twig"
let wal_file = "wal.log"
let snapshot_path dir = Filename.concat dir snapshot_file
let wal_path dir = Filename.concat dir wal_file

type t = {
  dir : string;
  db : Database.t;
  wal : Wal.t;
  lock : Mutex.t;  (** single-writer discipline over txn state below *)
  mutable next_txn : int;
  mutable batch_depth : int;
  mutable unsynced : bool;  (** committed frames awaiting the batch fsync *)
  mutable poisoned : string option;
}

let database t = t.db
let dir t = t.dir

type wal_status = { log_bytes : int; last_txn : int; poisoned : string option }

(* A consistent read of the write-path health for /healthz: log growth
   since the last checkpoint (checkpoint truncates the log), the last
   committed transaction, and whether a mid-transaction failure
   poisoned the handle. *)
let wal_status t =
  Mutex.protect t.lock (fun () ->
      {
        log_bytes = Wal.size_bytes t.wal;
        last_txn = t.next_txn - 1;
        poisoned = t.poisoned;
      })

(* /metrics mirror of /healthz's wal block, so the two can never
   diverge: the most recently opened handle registers itself and the
   gauges sample {!wal_status} at scrape time. With no live handle the
   gauges read NaN, which the exporters skip. *)
let current : t option Atomic.t = Atomic.make None

let status_gauge f () =
  match Atomic.get current with None -> Float.nan | Some t -> f (wal_status t)

let () =
  Tm_obs.Obs.gauge "wal.log_bytes_since_checkpoint"
    (status_gauge (fun s -> float_of_int s.log_bytes));
  Tm_obs.Obs.gauge "wal.last_txn" (status_gauge (fun s -> float_of_int s.last_txn));
  Tm_obs.Obs.gauge "wal.poisoned"
    (status_gauge (fun s -> if Option.is_some s.poisoned then 1.0 else 0.0))

(* ------------------------------------------------------------------ *)
(* Logical-operation codec (the WAL [Op] payload)                      *)
(* ------------------------------------------------------------------ *)

(* Subtree codec: kind byte ('E'lem | 'A'ttr | 'V'alue) + name/value +
   child count. Node ids are deliberately absent — replay re-executes
   through [Updates.insert_subtree], which assigns the same fresh ids
   the original execution did (from the recovered [next_id]). *)
let rec encode_node buf (n : T.node) =
  match n.T.label with
  | T.Value v ->
    Buffer.add_char buf 'V';
    Codec.add_lstring buf v
  | T.Elem name ->
    Buffer.add_char buf 'E';
    Codec.add_lstring buf name;
    Codec.add_varint buf (Array.length n.T.children);
    Array.iter (encode_node buf) n.T.children
  | T.Attr name ->
    Buffer.add_char buf 'A';
    Codec.add_lstring buf name;
    Codec.add_varint buf (Array.length n.T.children);
    Array.iter (encode_node buf) n.T.children

let rec decode_node s pos =
  if pos >= String.length s then invalid_arg "Durable: truncated op payload";
  let kind = s.[pos] in
  match kind with
  | 'V' ->
    let v, pos = Codec.read_lstring s (pos + 1) in
    ({ T.id = T.no_id; label = T.Value v; children = [||] }, pos)
  | 'E' | 'A' ->
    let name, pos = Codec.read_lstring s (pos + 1) in
    let count, pos = Codec.read_varint s pos in
    if count < 0 || count > String.length s - pos then
      invalid_arg "Durable: implausible child count in op payload";
    let children = Array.make count { T.id = T.no_id; label = T.Value ""; children = [||] } in
    let pos = ref pos in
    for i = 0 to count - 1 do
      let child, p = decode_node s !pos in
      children.(i) <- child;
      pos := p
    done;
    let label = if Char.equal kind 'E' then T.Elem name else T.Attr name in
    ({ T.id = T.no_id; label; children }, !pos)
  | c -> invalid_arg (Printf.sprintf "Durable: bad node kind %C in op payload" c)

type op =
  | Insert of { parent : int; subtree : T.node }
  | Delete of int

let encode_op op =
  let buf = Buffer.create 64 in
  (match op with
  | Insert { parent; subtree } ->
    Buffer.add_char buf 'I';
    Codec.add_varint buf parent;
    encode_node buf subtree
  | Delete id ->
    Buffer.add_char buf 'D';
    Codec.add_varint buf id);
  Buffer.contents buf

let decode_op s =
  if String.length s = 0 then invalid_arg "Durable: empty op payload";
  match s.[0] with
  | 'I' ->
    let parent, pos = Codec.read_varint s 1 in
    let subtree, _ = decode_node s pos in
    Insert { parent; subtree }
  | 'D' ->
    let id, _ = Codec.read_varint s 1 in
    Delete id
  | c -> invalid_arg (Printf.sprintf "Durable: bad op kind %C" c)

(* ------------------------------------------------------------------ *)
(* Creation and recovery                                               *)
(* ------------------------------------------------------------------ *)

(* One writer per directory and per database: [f] runs with both
   claimed, and its failure releases them ({!close} does otherwise). A
   second create, even forced, or an open would rewrite the log a live
   handle still appends to. Once the directory is claimed no save runs
   in it, so a snapshot temp file there is one a process left when it
   died mid-save: as large as the snapshot, and nothing else would ever
   remove it. *)
let claiming dir db f =
  let key = try Unix.realpath dir with Unix.Unix_error (_, _, _) -> dir in
  Updates.claim_durable ~dir:key db;
  match
    Persist.remove_temp_files dir;
    f ()
  with
  | v -> v
  | exception e ->
    Updates.release_durable db;
    raise e

let handle_of dir db wal =
  let t =
    {
      dir;
      db;
      wal;
      lock = Mutex.create ();
      next_txn = db.Database.last_txn + 1;
      batch_depth = 0;
      unsynced = false;
      poisoned = None;
    }
  in
  Atomic.set current (Some t);
  t

let create ?(force = false) ~dir db =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  claiming dir db @@ fun () ->
  (* Never silently destroy an existing database: the directory may
     hold committed transactions that were not yet checkpointed, and
     the [Wal.create]/[Persist.save] below would wipe both the log and
     the snapshot. Recovery is spelled [open_]; overwrite is opt-in. *)
  if not force then begin
    let wal_nonempty =
      Sys.file_exists (wal_path dir) && (Unix.stat (wal_path dir)).Unix.st_size > 0
    in
    if Sys.file_exists (snapshot_path dir) || wal_nonempty then
      invalid_arg
        (Printf.sprintf
           "Durable.create: %s already holds a database (snapshot or non-empty log); use open_ \
            to recover it, or ~force:true to overwrite"
           dir)
  end;
  Persist.save db (snapshot_path dir);
  let wal = Wal.create (wal_path dir) in
  Wal.append wal (Wal.Checkpoint db.Database.last_txn);
  Wal.sync wal;
  (* [Persist.save] fsynced the directory for the snapshot's rename,
     but [wal.log] was created after that: sync its directory entry
     too, so a crash cannot leave a snapshot with no log file. *)
  Persist.fsync_dir dir;
  handle_of dir db wal

(* The [wal.replay] failpoint's [Fail] action surfaces as [Io_error]
   out of [Wal.scan]; recovery rides out probabilistic legs with the
   same bounded retry the append side uses. *)
let scan_attempts = 4

let rec scan_retry ?(attempt = 1) path =
  match Wal.scan path with
  | s -> s
  | exception Tm_fault.Fault.Io_error _ when attempt < scan_attempts ->
    scan_retry ~attempt:(attempt + 1) path

let apply_op db op =
  match op with
  | Insert { parent; subtree } -> ignore (Updates.insert_subtree db ~parent subtree)
  | Delete id -> ignore (Updates.delete_subtree db id)

(* Where a replay's [(page, crc)] list and the logged one (both sorted
   by page id) first part ways, or [None] when they are equal. *)
let rec divergence replayed logged =
  let unlogged p = Some (Printf.sprintf "replay wrote page %d, which the log never recorded" p) in
  match (replayed, logged) with
  | [], [] -> None
  | (p, c) :: r, (p', c') :: l when p = p' ->
    if c = c' then divergence r l
    else
      Some
        (Printf.sprintf
           "replayed image of page %d diverges from the logged post-image (crc %d, logged %d)" p c
           c')
  | (p, _) :: _, (p', _) :: _ when p < p' -> unlogged p
  | (p, _) :: _, [] -> unlogged p
  | _, (p', _) :: _ -> Some (Printf.sprintf "the log recorded page %d, which replay never wrote" p')

(* Re-execute one committed transaction against the recovering
   database; it must write exactly the logged pages with exactly the
   logged CRCs. *)
let replay_txn (db : Database.t) txn ops pages =
  let pager = db.Database.pager in
  ignore (Pager.begin_txn pager);
  (try List.iter (fun op -> apply_op db (decode_op op)) ops
   with e ->
     (* Recovery is the end of every typed-error chain: whatever broke
        replay (corrupt page, I/O fault, codec failure), the verdict is
        the same — this directory cannot be recovered automatically. *)
     (Pager.abort_txn pager;
      recovery_error "replaying txn %d: %s" txn (Printexc.to_string e))
     [@analyze.boundary]);
  (match divergence (Pager.txn_dirty pager) pages with
  | None -> ()
  | Some detail ->
    Pager.abort_txn pager;
    recovery_error "txn %d: %s" txn detail);
  Pager.commit_txn pager;
  db.Database.last_txn <- txn;
  Tm_obs.Obs.incr c_replayed_txns

type recovery = {
  replayed : int;  (** committed transactions re-executed *)
  skipped : int;  (** committed transactions already in the snapshot *)
  discarded_bytes : int;  (** damaged / uncommitted tail truncated away *)
}

let open_ dir =
  let db = Persist.load (snapshot_path dir) in
  claiming dir db @@ fun () ->
  let wpath = wal_path dir in
  let scan = scan_retry wpath in
  (* Group the valid prefix's frames per transaction, in file order. *)
  let ops : (int, string list) Hashtbl.t = Hashtbl.create 16 in
  let pages : (int, (int * int) list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun frame ->
      match frame with
      | Wal.Op (txn, op) ->
        Hashtbl.replace ops txn (op :: Option.value ~default:[] (Hashtbl.find_opt ops txn))
      | Wal.Page { txn; page; crc; image = _ } ->
        Hashtbl.replace pages txn
          ((page, crc) :: Option.value ~default:[] (Hashtbl.find_opt pages txn))
      | Wal.Begin _ | Wal.Commit _ | Wal.Checkpoint _ -> ())
    scan.Wal.frames;
  let replayed = ref 0 and skipped = ref 0 in
  List.iter
    (fun txn ->
      if txn <= db.Database.last_txn then incr skipped
      else begin
        let txn_ops = List.rev (Option.value ~default:[] (Hashtbl.find_opt ops txn)) in
        let txn_pages = List.rev (Option.value ~default:[] (Hashtbl.find_opt pages txn)) in
        replay_txn db txn txn_ops txn_pages;
        incr replayed
      end)
    scan.Wal.committed;
  (* Discard the damaged tail and partially-logged transactions: the
     file becomes exactly the committed prefix before we append to it
     again. *)
  let file_len = if Sys.file_exists wpath then (Unix.stat wpath).Unix.st_size else 0 in
  let discarded = max 0 (file_len - scan.Wal.committed_bytes) in
  if discarded > 0 then Wal.truncate wpath scan.Wal.committed_bytes;
  let wal = Wal.open_append wpath in
  (handle_of dir db wal, { replayed = !replayed; skipped = !skipped; discarded_bytes = discarded })

(* ------------------------------------------------------------------ *)
(* The write path                                                      *)
(* ------------------------------------------------------------------ *)

let check_ready (t : t) =
  match t.poisoned with
  | Some msg -> raise (Poisoned msg)
  | None -> ()

(* Poisoning is a black-box moment: the handle is dead until reopen,
   so the ring contents leading up to it are exactly what a post-mortem
   wants — record the event and trigger an automatic dump. *)
let poison (t : t) e =
  let msg = Printexc.to_string e in
  t.poisoned <- Some msg;
  Tm_obs.Obs.incr c_poisoned;
  if Tm_obs.Flight.enabled () then begin
    Tm_obs.Flight.emit Tm_obs.Flight.Poisoned 0 0 msg;
    ignore (Tm_wal.Blackbox.dump ~reason:("durable-poison: " ^ msg))
  end

(* One logged transaction around [exec]. Holds the writer lock. *)
let run_txn t op exec =
  Mutex.protect t.lock (fun () ->
      check_ready t;
      let pager = t.db.Database.pager in
      let txn = t.next_txn in
      match
        Wal.append t.wal (Wal.Begin txn);
        Wal.append t.wal (Wal.Op (txn, encode_op op));
        ignore (Pager.begin_txn pager);
        exec ()
      with
      | result ->
        (try
           List.iter
             (fun (page, crc) -> Wal.append t.wal (Wal.Page { txn; page; crc; image = "" }))
             (Pager.txn_dirty pager);
           Tm_fault.Fault.guard site_commit;
           Wal.append t.wal (Wal.Commit txn);
           if t.batch_depth = 0 then Wal.sync t.wal else t.unsynced <- true
         with e ->
           (* Pages are dirty and the commit never reached the log:
              roll the pager back and poison — the in-memory document,
              dictionary and catalog have already advanced. *)
           poison t e;
           Pager.abort_txn pager;
           raise e);
        Pager.commit_txn pager;
        t.db.Database.last_txn <- txn;
        t.next_txn <- txn + 1;
        Tm_obs.Obs.incr c_txns;
        result
      | exception e ->
        let clean =
          match e with Invalid_argument _ -> Pager.txn_clean pager | _ -> false
        in
        if clean then begin
          (* Validation failed before anything was written: roll back
             and burn the txn id. Its [Begin]/[Op] frames linger in the
             log without a [Commit]; recovery ignores them. *)
          Pager.abort_txn pager;
          t.next_txn <- txn + 1;
          Tm_obs.Obs.incr c_clean_aborts
        end
        else begin
          poison t e;
          try Pager.abort_txn pager with Invalid_argument _ -> ()
        end;
        raise e)

let insert_subtree t ~parent subtree =
  run_txn t
    (Insert { parent; subtree })
    (fun () -> Updates.insert_subtree t.db ~parent subtree)

let delete_subtree t id = run_txn t (Delete id) (fun () -> Updates.delete_subtree t.db id)

let batch t f =
  Mutex.protect t.lock (fun () ->
      check_ready t;
      t.batch_depth <- t.batch_depth + 1);
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect t.lock (fun () ->
          t.batch_depth <- t.batch_depth - 1;
          if t.batch_depth = 0 && t.unsynced then begin
            (* Sync even when a later transaction poisoned the handle:
               earlier transactions in the batch already returned
               success to the caller and their [Commit] frames are in
               the log — leaving them unsynced would make their
               durability indeterminate. On a poisoned handle this is
               best effort (the sync itself may be what is broken);
               on a healthy one a failing group fsync poisons, because
               the acknowledged commits now have unknown durability and
               the only safe path forward is a reopen. *)
            (try
               Wal.sync t.wal;
               t.unsynced <- false
             with e ->
               (if Option.is_none t.poisoned then begin
                  poison t e;
                  raise e
                end)
               [@analyze.boundary])
          end))
    f

let checkpoint t =
  Mutex.protect t.lock (fun () ->
      check_ready t;
      if t.batch_depth > 0 then invalid_arg "Durable.checkpoint: inside a batch";
      if Pager.in_txn t.db.Database.pager then
        invalid_arg "Durable.checkpoint: a transaction is active";
      (* [Persist.save] is fsync + atomic rename + directory fsync: a
         crash before it returns leaves the previous snapshot + full
         log; once it returns the new snapshot is durable — only then
         may the truncate below discard the log, since its transactions
         are all <= last_txn and recovery skips them even if the reset
         itself never reaches the disk. *)
      Persist.save t.db (snapshot_path t.dir);
      Wal.reset t.wal;
      Wal.append t.wal (Wal.Checkpoint t.db.Database.last_txn);
      Wal.sync t.wal;
      Tm_obs.Obs.incr c_checkpoints;
      Tm_obs.Flight.emit Tm_obs.Flight.Checkpoint t.db.Database.last_txn 0 "")

let close t =
  Fun.protect
    ~finally:(fun () -> Updates.release_durable t.db)
    (fun () ->
      Mutex.protect t.lock (fun () ->
          if t.batch_depth = 0 && t.unsynced then begin
            Wal.sync t.wal;
            t.unsynced <- false
          end;
          Wal.close t.wal));
  (* Deregister from the status gauges (but only if a newer handle has
     not already taken over; CAS compares the option physically, so
     match on the stored value instead). *)
  match Atomic.get current with
  | Some t' when t' == t -> Atomic.set current None
  | Some _ | None -> ()
