(** Database snapshots: save/load a built database (document,
    dictionary, catalog, and every index) without re-shredding or
    re-bulk-loading.

    Format v5 stores the pager's pages raw, each under the CRC32 the
    pager keeps for it, beside the [Marshal] image of the rest of the
    {!Database.t}: magic, version, sections with a length and CRC32
    each (["meta"], ["database"], and a ["page table"] of page ids and
    CRCs), the page images, and a checksummed footer. [save] writes via
    a temp file plus atomic rename. A truncated, torn or bit-flipped
    snapshot raises {!Bad_snapshot} naming the damaged section or page;
    nothing is unmarshalled before every checksum verifies, so a bad
    file can never abort the process or yield a garbage database.

    The marshalled image holds no page image, version chain or decoded
    B+-tree node: a loaded database starts with a cold buffer pool and
    empty node caches.

    Snapshots are same-library-version only: the format version changes
    with any change to a type reachable from {!Database.t}, and a file
    of another version is refused before unmarshalling. Databases built
    with pruning closures ([head_filter] / [id_keep]) are rejected. *)

exception Bad_snapshot of string

val version : int
(** Current snapshot format version (4). *)

val save : Database.t -> string -> unit
(** Write atomically and durably: temp file, fsync, rename, fsync of
    the containing directory. The target path always holds either the
    previous snapshot or the complete new one, and on return the new
    snapshot survives a power loss — callers may destroy whatever
    backed the old state (e.g. truncate a WAL) immediately.

    Each page is written as the pager holds it, under the pager's CRC
    (a damaged page under the CRC its image fails). [db]'s buffer pool
    and decoded nodes are left as they were; readers on other domains
    stay correct, and wait only while the database is marshalled.
    @raise Bad_snapshot for databases containing pruning closures. *)

val remove_temp_files : string -> unit
(** Delete the temp files {!save} creates in a directory — the ones a
    save whose process died left behind — and no other file. Only the
    directory's owner may call it: it also deletes the temp file of a
    save still running there. *)

val fsync_dir : string -> unit
(** Fsync a directory: make its entries (renames, newly created files)
    durable. A no-op on filesystems that refuse directory fsync. *)

val load : string -> Database.t
(** Every page image is checked against its CRC before the database is
    unmarshalled and the pages installed. The loaded database starts
    with a cold buffer pool and empty decoded-node caches.
    @raise Bad_snapshot on a wrong magic header or format version, a
    truncated file, or any section or page that fails its checksum. *)

type section = { name : string; length : int; crc : int }
type summary = { sections : section list; pages : int  (** page images checked *) }

val verify : string -> summary
(** Run the checks of {!load} — magic, version, every section's length
    and checksum, every page image against its page-table CRC, footer —
    without unmarshalling or retaining payloads (constant memory).
    Returns the section table and the page count.
    @raise Bad_snapshot with the failing section or page on any
    damage. *)
