(** Database snapshots: save a built database (document, dictionary,
    catalog, every index's pages and metadata) to a file and reload it
    without re-shredding or re-bulk-loading.

    A snapshot has two parts: the page store, written page by page as
    the pager holds it, and the rest of the {!Database.t}, marshalled
    with the page store detached. Format v5 frames both, so a damaged
    file is {e detected}, never fed to [Marshal] (which aborts the
    process on garbage):

    {v
      magic   "TWIGMATCH-SNAPSHOT"
      version u32 = 5
      count   u32                          number of sections
      section (repeated)
        name-len  u32
        name      bytes
        data-len  u32
        data-crc  u32      CRC32 of the payload bytes
        data      bytes
      page (repeated, in page-table order)
        image     page-size bytes, under its page-table CRC
      footer
        end-magic "TWIGEND!"
        table-crc u32      CRC32 over every section's (name, len, crc)
    v}

    Sections today: ["meta"] (small, textual — creation parameters for
    humans and tooling), ["database"] (the [Marshal] image of the
    {!Database.t} without page images, version chains or decoded
    B+-tree nodes; one section, because the pager, pool and indexes
    share structure that per-structure marshalling would duplicate and
    un-share) and ["page table"] (u32 page size, u32 page count, then a
    u32 page id and u32 CRC32 per page, covered like every section by
    its own CRC). Each page image follows raw, under the CRC the pager
    already keeps for that page, so a save copies no page byte into a
    string and checksums none a second time. A page the pager holds as
    damaged is written under the sidecar CRC its image fails, never
    under one recomputed from its bytes, so the damage shows at load.

    {!load} and {!verify} check every section's CRC, every page image
    against its page-table CRC, and the footer, before anything is
    unmarshalled: truncation or a bit flip anywhere yields
    {!Bad_snapshot} naming the section or page. {!verify} runs the
    same checks in constant memory, without building a database.

    [save] marshals with the pager's page store and every tree's
    decoded-node table detached, under the locks that guard them, and
    restores them after: the buffer pool's residency and the decoded
    nodes are left as they were, and a reader on another domain that
    needs page bytes or a decoded node waits for the marshal, not for
    the write. [load] installs the checked pages into the unmarshalled
    pager and forgets the residency recorded at save time, so a loaded
    database starts with a cold pool and empty node caches.

    [save] writes to a temp file in the same directory and atomically
    renames it over the target, so a crash mid-save leaves the previous
    snapshot intact — the torn-write crash model at file granularity.
    The temp file of a save whose process died stays behind until
    {!remove_temp_files} clears the directory.

    The version names the layout of the marshalled image as well as the
    frame's: [Marshal] rebuilds whatever the file holds as a
    {!Database.t} without checking any type, so an image of a different
    layout crashes the reader instead of failing. The version therefore
    changes with any change to a type reachable from {!Database.t}, and
    [load] refuses another version before unmarshalling anything.

    This is a {e snapshot}, not a write-ahead-logged store: it is only
    readable by the same library version that wrote it, and a crash
    between [save] calls loses the delta — the appropriate scope for a
    reproduction whose substrate "disk" is simulated. Databases built
    with a [head_filter] or [id_keep] closure cannot be snapshotted
    (closures do not survive serialization meaningfully); {!save}
    rejects them. *)

open Tm_storage

let magic = "TWIGMATCH-SNAPSHOT"
let end_magic = "TWIGEND!"
let version = 5
let page_table = "page table"

exception Bad_snapshot of string

let () =
  Printexc.register_printer (function
    | Bad_snapshot s -> Some (Printf.sprintf "Bad_snapshot(%s)" s)
    | _ -> None)

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_snapshot s)) fmt

(* [output_binary_int] moves 4 bytes but treats them as signed; mask so
   CRCs (and lengths, defensively) round-trip as unsigned 32-bit. *)
let out_u32 oc n = output_binary_int oc (n land 0xFFFFFFFF)

let in_u32 ic ~what =
  match input_binary_int ic with
  | n -> n land 0xFFFFFFFF
  | exception End_of_file -> bad "truncated while reading %s" what

let in_string ic len ~what =
  match really_input_string ic len with
  | s -> s
  | exception End_of_file -> bad "truncated while reading %s" what

(* CRC over a section table entry, accumulated into the footer CRC. *)
let table_crc_step crc (name, len, data_crc) =
  let buf = Buffer.create 32 in
  Codec.add_lstring buf name;
  Codec.add_u32 buf (len land 0xFFFFFFFF);
  Codec.add_u32 buf (data_crc land 0xFFFFFFFF);
  let s = Buffer.contents buf in
  Codec.crc32_update crc (Bytes.unsafe_of_string s) 0 (String.length s)

(* The page table's payload: page size, page count, then each page's
   id and CRC. *)
let encode_page_table ~page_size crcs =
  let buf = Buffer.create (8 + (8 * Array.length crcs)) in
  Codec.add_u32 buf page_size;
  Codec.add_u32 buf (Array.length crcs);
  Array.iteri
    (fun id crc ->
      Codec.add_u32 buf id;
      Codec.add_u32 buf crc)
    crcs;
  Buffer.contents buf

(* A full snapshot holds every page, in order. *)
let decode_page_table s =
  let u32 pos = fst (Codec.read_u32 s pos) in
  let len = String.length s in
  if len < 8 || len <> 8 + (8 * u32 4) then bad "page table of %d bytes is malformed" len;
  let crcs =
    Array.init (u32 4) (fun i ->
        let id = u32 (8 + (8 * i)) in
        if id <> i then bad "page table entry %d names page %d" i id;
        u32 (12 + (8 * i)))
  in
  (u32 0, crcs)

let write_frame oc sections images =
  output_string oc magic;
  out_u32 oc version;
  out_u32 oc (List.length sections);
  let table_crc =
    List.fold_left
      (fun crc (name, data) ->
        out_u32 oc (String.length name);
        output_string oc name;
        out_u32 oc (String.length data);
        let data_crc = Codec.crc32_string data in
        out_u32 oc data_crc;
        output_string oc data;
        table_crc_step crc (name, String.length data, data_crc))
      0 sections
  in
  Array.iter (output_bytes oc) images;
  output_string oc end_magic;
  out_u32 oc table_crc

let skip_section_checked ~name ~len ~crc ic =
  (* Stream the CRC in page-sized chunks: verify without holding the
     payload ([verify] and [load] need no section-sized memory). *)
  let chunk = Bytes.create 8192 in
  let rec go remaining acc =
    if remaining = 0 then acc
    else begin
      let n = min remaining (Bytes.length chunk) in
      (try really_input ic chunk 0 n
       with End_of_file -> bad "truncated inside section %S payload" name);
      go (remaining - n) (Codec.crc32_update acc chunk 0 n)
    end
  in
  if go len 0 <> crc then bad "section %S failed its checksum (corrupt payload)" name

let read_section_checked ic ~name ~len ~crc =
  let s = in_string ic len ~what:(Printf.sprintf "section %S payload" name) in
  if Codec.crc32_string s <> crc then bad "section %S failed its checksum (corrupt payload)" name;
  s

type section = { name : string; length : int; crc : int }

(* Walk the frame. [section] consumes or skips the payload of each
   section but the page table, which the walk reads and checks itself;
   every page image is then checked against its table CRC, each read
   into a fresh buffer that is returned when [keep_pages], else into
   one reused buffer. Verifies the footer last. Returns the section
   table, the page size, the kept images and the page CRCs. *)
let read_frame ?(keep_pages = false) ic ~section =
  let m =
    match really_input_string ic (String.length magic) with
    | m -> m
    | exception End_of_file -> bad "not a twigmatch snapshot (file shorter than the magic)"
  in
  if not (String.equal m magic) then bad "not a twigmatch snapshot";
  let v = in_u32 ic ~what:"version" in
  if v <> version then bad "snapshot version %d, expected %d" v version;
  let count = in_u32 ic ~what:"section count" in
  if count > 0xFFFF then bad "implausible section count %d (corrupt header)" count;
  let table_crc = ref 0 and sections = ref [] and pages = ref None in
  for _ = 1 to count do
    let name_len = in_u32 ic ~what:"section name length" in
    if name_len > 0xFFFF then bad "implausible section name length %d (corrupt header)" name_len;
    let name = in_string ic name_len ~what:"section name" in
    let len = in_u32 ic ~what:(Printf.sprintf "section %S length" name) in
    let crc = in_u32 ic ~what:(Printf.sprintf "section %S checksum" name) in
    if len > in_channel_length ic - pos_in ic then
      bad "section %S runs past the end of the file (truncated or corrupt header)" name;
    table_crc := table_crc_step !table_crc (name, len, crc);
    sections := { name; length = len; crc } :: !sections;
    if String.equal name page_table then
      pages := Some (decode_page_table (read_section_checked ic ~name ~len ~crc))
    else section ~name ~len ~crc ic
  done;
  let page_size, crcs =
    match !pages with Some p -> p | None -> bad "no %S section in snapshot" page_table
  in
  let read_page id buf =
    (try really_input ic buf 0 page_size with End_of_file -> bad "truncated inside page %d" id);
    if Codec.crc32 buf <> crcs.(id) then bad "page %d failed its checksum (corrupt image)" id
  in
  let images =
    if keep_pages then
      Array.init (Array.length crcs) (fun id ->
          let buf = Bytes.create page_size in
          read_page id buf;
          buf)
    else begin
      let buf = Bytes.create page_size in
      Array.iteri (fun id _ -> read_page id buf) crcs;
      [||]
    end
  in
  let em = in_string ic (String.length end_magic) ~what:"footer magic" in
  if not (String.equal em end_magic) then bad "bad footer magic (truncated or overwritten tail)";
  let fc = in_u32 ic ~what:"footer checksum" in
  if fc <> !table_crc land 0xFFFFFFFF then bad "footer checksum mismatch (section table damaged)";
  (List.rev !sections, page_size, images, crcs)

let meta_of (db : Database.t) =
  let b = Buffer.create 128 in
  Printf.bprintf b "format=twigmatch-snapshot v%d\n" version;
  Printf.bprintf b "strategies=%s\n"
    (String.concat "," (List.map Database.strategy_name (Database.built_strategies db)));
  Printf.bprintf b "last_txn=%d\n" db.Database.last_txn;
  Buffer.contents b

(* Directory-entry durability: after a rename, the new name survives a
   power loss only once the directory itself is fsynced. Filesystems
   that refuse fsync on a directory descriptor (EINVAL/ENOTSUP) order
   metadata themselves and need no help. *)
let fsync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      try Unix.fsync fd
      with Unix.Unix_error ((Unix.EINVAL | Unix.EROFS | Unix.EOPNOTSUPP), _, _) -> ())

let temp_prefix = ".twigmatch-snapshot"
let temp_suffix = ".tmp"

let remove_temp_files dir =
  Array.iter
    (fun name ->
      if String.starts_with ~prefix:temp_prefix name && Filename.check_suffix name temp_suffix then
        Sys.remove (Filename.concat dir name))
    (Sys.readdir dir)

let marshal db =
  try Marshal.to_string db []
  with Invalid_argument _ ->
    raise
      (Bad_snapshot
         "database contains closures (head_filter / id_keep); pruned databases cannot be \
          snapshotted")

let save (db : Database.t) path =
  let pager = db.Database.pager in
  let image, images, crcs =
    Bptree.with_nodes_detached (Database.trees db) (fun () ->
        Pager.export pager (fun () -> marshal db))
  in
  let sections =
    [
      ("meta", meta_of db);
      ("database", image);
      (page_table, encode_page_table ~page_size:(Pager.page_size pager) crcs);
    ]
  in
  let tmp = Filename.temp_file ~temp_dir:(Filename.dirname path) temp_prefix temp_suffix in
  let ok = ref false in
  Fun.protect
    ~finally:(fun () -> if not !ok then Sys.remove tmp)
    (fun () ->
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          write_frame oc sections images;
          (* Durability order: the tmp file's bytes must be on disk
             before the rename publishes them — otherwise a crash could
             leave the target name pointing at an empty or partial
             inode, which is worse than the old snapshot the rename was
             supposed to preserve. *)
          flush oc;
          Unix.fsync (Unix.descr_of_out_channel oc));
      (* The write is durable only as a whole: rename is atomic, so the
         target path always holds either the old snapshot or the
         complete new one, never a prefix. *)
      Sys.rename tmp path;
      (* ... and the rename itself is durable only once the directory
         entry is: callers (checkpoint in particular) may destroy the
         data that backs the old snapshot as soon as we return. *)
      fsync_dir (Filename.dirname path);
      ok := true)

let with_snapshot path f =
  let ic =
    try open_in_bin path with Sys_error e -> bad "cannot open snapshot: %s" e
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic)

external unmarshal_mapped :
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t -> 'a
  = "twigmatch_unmarshal_bigarray"

(* The image is read from a mapping of the file, not from a string
   holding a copy of it: a string the size of the database section is
   a fresh allocation on every load, and whether the allocator can
   reuse freed memory for one that large, or must map and zero new
   pages, depends on the process's allocation history, so the cost of
   a load would too. *)
let load path : Database.t =
  with_snapshot path (fun ic ->
      let image = ref None in
      let _, page_size, images, crcs =
        read_frame ~keep_pages:true ic ~section:(fun ~name ~len ~crc ic ->
            if String.equal name "database" then image := Some (pos_in ic, len);
            skip_section_checked ~name ~len ~crc ic)
      in
      match !image with
      | None -> bad "no %S section in snapshot" "database"
      | Some (pos, len) ->
        (* The frame walk above has verified length and CRC of every
           byte we are about to unmarshal, and every page image; Marshal
           never sees a damaged image. *)
        let mapped =
          try
            Unix.map_file (Unix.descr_of_in_channel ic) ~pos:(Int64.of_int pos) Bigarray.char
              Bigarray.c_layout false [| len |]
          with Unix.Unix_error (e, _, _) -> bad "cannot map snapshot: %s" (Unix.error_message e)
        in
        let db : Database.t = unmarshal_mapped (Bigarray.array1_of_genarray mapped) in
        let pager = db.Database.pager in
        if Pager.page_count pager <> Array.length images || Pager.page_size pager <> page_size then
          bad "the page table holds %d pages of %d bytes, the database %d of %d"
            (Array.length images) page_size (Pager.page_count pager) (Pager.page_size pager);
        Pager.install pager images crcs;
        (* The residency recorded at save time says nothing about this
           process: the loaded database starts cold. Neither does the
           generation: generations restart in every process, so the
           saved one may be a live database's here, and the plan cache
           would serve its plans. Mint a fresh one; the saved one is
           not invalidated, as it may be that live database's. *)
        Database.drop_caches db;
        db.Database.generation <- Database.fresh_generation ();
        db)

type summary = { sections : section list; pages : int }

let verify path =
  with_snapshot path (fun ic ->
      let sections, _, _, crcs = read_frame ic ~section:skip_section_checked in
      { sections; pages = Array.length crcs })
