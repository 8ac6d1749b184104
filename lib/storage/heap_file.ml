(** Append-only heap file of variable-length records over pages.

    Used for base relations (the Edge table and ASR relations). Records
    are byte strings identified by a {!rid} (page id, slot). Page layout:
    ['H'], u16 record count, then length-prefixed records back to back.
    A record never spans pages; records larger than a page are refused. *)

type rid = { page : int; slot : int }

(* File-level metadata, immutable and swapped wholesale (same
   discipline as {!Bptree.meta}): a transactional writer stages a
   private copy, published by one pointer write at commit, so
   epoch-pinned readers never see half-updated fill state. *)
type meta = {
  pages : int list; (* all pages, newest first *)
  current : int; (* page being filled, -1 if none *)
  current_used : int;
  current_count : int;
  n_records : int;
  n_pages : int;
}

type t = {
  pool : Buffer_pool.t;
  page_size : int;
  mutable meta : meta;
  mutable staged : meta option;
  name : string;
}

let in_txn_writer t = Buffer_pool.in_txn_writer t.pool

let m t =
  if in_txn_writer t then
    match t.staged with Some s -> s | None -> t.meta
  else t.meta

let set_m t mt =
  if in_txn_writer t then begin
    (match t.staged with
    | Some _ -> ()
    | None ->
      Buffer_pool.add_participant t.pool (fun ~committed ->
          (match t.staged with
          | Some s when committed -> t.meta <- s
          | Some _ | None -> ());
          t.staged <- None));
    t.staged <- Some mt
  end
  else t.meta <- mt

let create ~name pool =
  {
    pool;
    page_size = Pager.page_size (Buffer_pool.pager pool);
    meta =
      { pages = []; current = -1; current_used = 0; current_count = 0; n_records = 0; n_pages = 0 };
    staged = None;
    name;
  }

let name t = t.name
let record_count t = (m t).n_records
let page_count t = (m t).n_pages
let size_bytes t = (m t).n_pages * t.page_size

let header_size = 3 (* tag + u16 count *)

let decode_page bytes =
  let s = Bytes.to_string bytes in
  if String.length s = 0 || s.[0] <> 'H' then [||]
  else begin
    let count, pos = Codec.read_u16 s 1 in
    let records = Array.make count "" in
    let pos = ref pos in
    for i = 0 to count - 1 do
      let r, p = Codec.read_lstring s !pos in
      records.(i) <- r;
      pos := p
    done;
    records
  end

let encode_page records =
  let buf = Buffer.create 256 in
  Buffer.add_char buf 'H';
  Codec.add_u16 buf (List.length records);
  List.iter (Codec.add_lstring buf) records;
  Buffer.contents buf

(* The page space a record takes, by which [append] and [build] break
   pages: a length prefix of at most five bytes plus the record. *)
let record_size t record =
  let rsize = String.length record + 5 in
  if rsize + header_size > t.page_size then
    invalid_arg (Printf.sprintf "Heap_file(%s): record too large (%d bytes)" t.name rsize);
  rsize

(* [mt] with room for a record of [rsize] bytes: unchanged when it fits
   in the current page, else with a fresh page allocated and current. *)
let page_for t mt rsize =
  if mt.current >= 0 && mt.current_used + rsize <= t.page_size then mt
  else
    let page = Buffer_pool.alloc t.pool in
    {
      mt with
      current = page;
      current_used = header_size;
      current_count = 0;
      pages = page :: mt.pages;
      n_pages = mt.n_pages + 1;
    }

let with_record mt rsize =
  {
    mt with
    current_used = mt.current_used + rsize;
    current_count = mt.current_count + 1;
    n_records = mt.n_records + 1;
  }

(** Append a record; returns its rid. *)
let append t record =
  let rsize = record_size t record in
  let mt = page_for t (m t) rsize in
  let existing = Array.to_list (decode_page (Buffer_pool.read t.pool mt.current)) in
  let records = existing @ [ record ] in
  (* The pager copies the image, so the fresh string is passed without one. *)
  Buffer_pool.write t.pool mt.current (Bytes.unsafe_of_string (encode_page records));
  set_m t (with_record mt rsize);
  { page = mt.current; slot = mt.current_count }

(** A heap file holding [records] in order, each page written once: the
    pages break exactly where appending the records one by one would
    break them, so the two files are the same page for page. *)
let build ~name pool records =
  let t = create ~name pool in
  let sizes = List.map (record_size t) records in
  let mt = ref (m t) and page = ref [] (* the current page's records, newest first *) in
  let write_page () =
    if not (List.is_empty !page) then
      Buffer_pool.write t.pool !mt.current (Bytes.unsafe_of_string (encode_page (List.rev !page)))
  in
  List.iter2
    (fun record rsize ->
      let next = page_for t !mt rsize in
      if next.current <> !mt.current then begin
        write_page ();
        page := []
      end;
      mt := with_record next rsize;
      page := record :: !page)
    records sizes;
  write_page ();
  set_m t !mt;
  t

(** Pages in allocation order (fsck support). *)
let pages t = List.rev (m t).pages

(** Decode one page afresh, refusing rather than masking a bad image:
    [decode_page] treats a bad header as empty (tolerable for reads
    after a crash), but an offline checker must report it. *)
let records_of_page t page =
  match Buffer_pool.read t.pool page with
  | exception Invalid_argument m -> Error m
  | bytes ->
    let s = Bytes.to_string bytes in
    if String.length s = 0 || s.[0] <> 'H' then
      Error (Printf.sprintf "bad heap page header (%s)" t.name)
    else (
      match decode_page bytes with
      | records -> Ok records
      | exception Invalid_argument m -> Error m
      | exception Failure m -> Error m)
