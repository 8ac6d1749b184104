(** Database snapshots: save/load a built database (document,
    dictionary, catalog, and every index) without re-shredding or
    re-bulk-loading.

    Format v3 frames the file — magic, version, per-section length +
    CRC32, and a checksummed footer — and [save] writes via a temp file
    plus atomic rename. A truncated, torn or bit-flipped snapshot
    raises {!Bad_snapshot} naming the damaged section; the [Marshal]
    payload is only unmarshalled after its checksum verifies, so a bad
    file can never abort the process or yield a garbage database.

    Snapshots are same-library-version only: the format version changes
    with any change to a type reachable from {!Database.t}, and a file
    of another version is refused before unmarshalling. Databases built
    with pruning closures ([head_filter] / [id_keep]) are rejected. *)

exception Bad_snapshot of string

val version : int
(** Current snapshot format version (3). *)

val save : Database.t -> string -> unit
(** Write atomically and durably: temp file, fsync, rename, fsync of
    the containing directory. The target path always holds either the
    previous snapshot or the complete new one, and on return the new
    snapshot survives a power loss — callers may destroy whatever
    backed the old state (e.g. truncate a WAL) immediately.

    Each page is stored once, as the pager holds it; [db]'s buffer
    pool stays warm.
    @raise Bad_snapshot for databases containing pruning closures. *)

val fsync_dir : string -> unit
(** Fsync a directory: make its entries (renames, newly created files)
    durable. A no-op on filesystems that refuse directory fsync. *)

val load : string -> Database.t
(** The loaded database starts with a cold buffer pool.
    @raise Bad_snapshot on a wrong magic header or format version, a
    truncated file, or any section whose payload fails its checksum —
    checked before unmarshalling. *)

type section = { name : string; length : int; crc : int }
type summary = { sections : section list }

val verify : string -> summary
(** Run the frame checks of {!load} — magic, version, every section's
    length and checksum, footer — without unmarshalling or retaining
    payloads (constant memory). Returns the section table.
    @raise Bad_snapshot with the failing section on any damage. *)
