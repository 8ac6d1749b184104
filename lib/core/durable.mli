(** Durable write path: a write-ahead-logged database directory
    (snapshot + redo log) with crash recovery.

    Layout: [<dir>/snapshot.twig] (Persist v5 snapshot) and
    [<dir>/wal.log] ({!Tm_wal.Wal} frames). Each {!insert_subtree} /
    {!delete_subtree} is one logged transaction — logical [Op] frame,
    one [Page] frame per dirty page (page id and the CRC32 of its
    post-image, no image: recovery re-executes the [Op] instead),
    [Commit], fsync — wrapped in a pager transaction whose commit
    atomically publishes a new epoch to concurrent snapshot readers
    (see {!Tm_storage.Epoch}).

    {!open_} recovers by re-executing the committed transactions of the
    log's valid prefix against the snapshot, checking that each wrote
    exactly the logged pages with the logged CRCs, and truncating
    damaged or uncommitted tails. {!checkpoint} folds the log into a
    fresh snapshot and truncates it.

    Write failures after pages were dirtied poison the handle (the
    in-memory document/dictionary/catalog cannot be rolled back);
    recovery is to {!open_} the directory again. Validation failures
    ([Invalid_argument] before any page write) abort cleanly and the
    handle stays usable. *)

exception Recovery_error of string
(** Recovery found a log that contradicts re-execution (or replay
    itself failed) — the directory needs manual attention. *)

exception Poisoned of string
(** The handle was poisoned by an earlier mid-transaction failure; the
    payload is that failure's rendering. Reopen the directory to
    recover to the last durably committed state. *)

type t
(** A durable handle: open database + open log + writer lock. *)

val snapshot_path : string -> string
(** [<dir>/snapshot.twig]. *)

val wal_path : string -> string
(** [<dir>/wal.log]. *)

val database : t -> Database.t
(** The live database (for queries, fsck, statistics). *)

val dir : t -> string

type wal_status = {
  log_bytes : int;  (** log growth since the last checkpoint truncated it *)
  last_txn : int;  (** highest committed transaction id (0 before any) *)
  poisoned : string option;
      (** [Some reason] when a mid-transaction failure poisoned the
          write path; reads still serve, reopening the directory
          recovers *)
}

val wal_status : t -> wal_status
(** A consistent snapshot of write-path health, as surfaced by the
    serving layer's /healthz ("degraded" when poisoned but readable). *)

val create : ?force:bool -> dir:string -> Database.t -> t
(** Make [db] durable under [dir] (created if missing): write the
    initial snapshot, create the log, stamp it with a [Checkpoint].
    Refuses a directory that already holds a database (a snapshot or a
    non-empty log) — its log may contain committed transactions not yet
    checkpointed; {!open_} recovers those. [~force:true] overwrites.
    @raise Invalid_argument if [dir] already holds a database and
    [force] is false.
    @raise Updates.Writer_conflict if [dir] or [db] already has a live
    handle ([force] does not override this).
    @raise Persist.Bad_snapshot for databases containing pruning
    closures (they cannot be snapshotted). *)

type recovery = {
  replayed : int;  (** committed transactions re-executed *)
  skipped : int;  (** committed transactions already in the snapshot *)
  discarded_bytes : int;  (** damaged / uncommitted tail truncated away *)
}

val open_ : string -> t * recovery
(** Recover the database under a directory: load the snapshot, replay
    the committed prefix of the log (in commit order, skipping
    transactions the snapshot already contains), discard damaged and
    uncommitted tails, and reopen the log for appending. Snapshot temp
    files that a save killed mid-write left in the directory are
    removed first ({!Persist.remove_temp_files}).
    @raise Persist.Bad_snapshot if the snapshot is damaged.
    @raise Recovery_error if a replayed transaction's [(page, crc)]
    list differs from the logged one, naming the transaction and the
    first page that differs.
    @raise Updates.Writer_conflict if the directory already has a live
    handle. *)

val insert_subtree : t -> parent:int -> Tm_xml.Xml_tree.node -> int
(** {!Updates.insert_subtree} as one logged transaction; returns the
    subtree root's new id. Durable on return unless inside {!batch}.
    @raise Invalid_argument as {!Updates.insert_subtree} (clean abort).
    @raise Poisoned if the handle is poisoned. *)

val delete_subtree : t -> int -> int
(** {!Updates.delete_subtree} as one logged transaction; returns the
    number of nodes removed. Durable on return unless inside {!batch}.
    @raise Invalid_argument as {!Updates.delete_subtree} (clean abort).
    @raise Poisoned if the handle is poisoned. *)

val batch : t -> (unit -> 'a) -> 'a
(** Group commit: transactions inside [f] append and commit as usual
    but the fsync is deferred to the end of the (outermost) batch — one
    durability point for the whole group. A crash inside the batch may
    lose its transactions (never a prefix-violating subset: the log is
    replayed in commit order). The closing fsync runs even when a
    transaction inside the batch poisoned the handle, so transactions
    that already returned success keep their durability (best effort if
    the log itself is what failed — reopen to learn what survived). *)

val checkpoint : t -> unit
(** Fold the log into a fresh snapshot: write the snapshot
    ({!Persist.save}: each page raw under the pager's CRC, the rest of
    the database marshalled without page images, version chains or
    decoded nodes, atomic rename), truncate the log, stamp it with a
    [Checkpoint] frame. The buffer pool holds no page bytes, so
    nothing is flushed; it and the decoded B+-tree nodes stay warm, and
    readers wait only while the database is marshalled. The log stays
    small; recovery stays fast.
    @raise Invalid_argument inside a {!batch} or an active pager
    transaction. *)

val close : t -> unit
(** Sync any deferred commits and close the log, and release the
    directory and the database for another writer (also when the sync
    fails). The database itself needs no closing (its "disk" is the
    in-process pager). *)

(** {1 Logical-operation codec} — exposed for log inspection and
    crash-matrix tests. *)

type op =
  | Insert of { parent : int; subtree : Tm_xml.Xml_tree.node }
  | Delete of int

val encode_op : op -> string
(** The [Op]-frame payload for an operation (subtree ids are not
    encoded: replay re-assigns them deterministically). *)

val decode_op : string -> op
(** @raise Invalid_argument on a malformed payload. *)
