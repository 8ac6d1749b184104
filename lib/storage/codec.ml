(** Byte-level codecs used throughout the storage engine.

    Two families live here:
    - {e order-preserving} codecs for B+-tree keys (fixed-width big-endian
      integers, 0x00-separated components), so that lexicographic order of
      the encoded bytes equals the intended order of the decoded values;
    - {e compact} codecs for payloads (LEB128 varints, zigzag, and the
      differential encoding of id lists described in Section 4.1 of the
      paper). *)

(** {1 Varints (LEB128)} *)

let add_varint buf n =
  (* Unsigned LEB128; [n] must be non-negative. *)
  assert (n >= 0);
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

(* Byte count of [n]'s LEB128 encoding: one byte per started 7 bits. *)
let varint_len n =
  assert (n >= 0);
  let len = ref 1 and rest = ref (n lsr 7) in
  while !rest > 0 do
    incr len;
    rest := !rest lsr 7
  done;
  !len

(* Top-level recursion, not a local closure over [b]: the leaf encoder
   calls this three times per entry and must not allocate. *)
let rec set_varint b pos n =
  assert (n >= 0);
  if n < 0x80 then begin
    Bytes.set b pos (Char.chr n);
    pos + 1
  end
  else begin
    Bytes.set b pos (Char.chr (0x80 lor (n land 0x7f)));
    set_varint b (pos + 1) (n lsr 7)
  end

let read_varint s pos =
  let rec go shift acc pos =
    let b = Char.code s.[pos] in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then (acc, pos + 1) else go (shift + 7) acc (pos + 1)
  in
  go 0 0 pos

(** {1 Zigzag (signed -> unsigned)} *)

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag n = (n lsr 1) lxor (-(n land 1))

let add_signed_varint buf n = add_varint buf (zigzag n)

let read_signed_varint s pos =
  let v, pos = read_varint s pos in
  (unzigzag v, pos)

(** {1 Length-prefixed strings} *)

let add_lstring buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

let read_lstring s pos =
  let len, pos = read_varint s pos in
  (String.sub s pos len, pos + len)

(** {1 Fixed-width big-endian integers (order-preserving)} *)

let add_u16 buf n =
  assert (n >= 0 && n < 0x10000);
  Buffer.add_char buf (Char.chr (n lsr 8));
  Buffer.add_char buf (Char.chr (n land 0xff))

let read_u16 s pos =
  ((Char.code s.[pos] lsl 8) lor Char.code s.[pos + 1], pos + 2)

let add_u32 buf n =
  assert (n >= 0 && n <= 0xffffffff);
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (n land 0xff))

let read_u32 s pos =
  let b i = Char.code s.[pos + i] in
  ((b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3, pos + 4)

let u32_to_string n =
  let buf = Buffer.create 4 in
  add_u32 buf n;
  Buffer.contents buf

(** {1 Differential encoding of id lists (paper Section 4.1)}

    Node ids along a data path are strongly correlated (each is close to
    its parent's id under depth-first numbering), so we store the first id
    as a varint and each subsequent id as a zigzag varint delta. *)

let add_idlist buf ids =
  add_varint buf (List.length ids);
  let rec go prev = function
    | [] -> ()
    | id :: rest ->
      add_signed_varint buf (id - prev);
      go id rest
  in
  go 0 ids

let read_idlist s pos =
  let n, pos = read_varint s pos in
  let rec go i prev acc pos =
    if i = n then (List.rev acc, pos)
    else
      let d, pos = read_signed_varint s pos in
      let id = prev + d in
      go (i + 1) id (id :: acc) pos
  in
  go 0 0 [] pos

let idlist_to_string ids =
  let buf = Buffer.create 16 in
  add_idlist buf ids;
  Buffer.contents buf

let idlist_of_string s = fst (read_idlist s 0)

(** Raw (non-differential) id list: one [u32] per id. Used by the
    compression ablation and by ASR relations, which the paper notes
    cannot delta-encode their id columns. *)

let add_idlist_raw buf ids =
  add_varint buf (List.length ids);
  List.iter (add_u32 buf) ids

let read_idlist_raw s pos =
  let n, pos = read_varint s pos in
  let rec go i acc pos =
    if i = n then (List.rev acc, pos)
    else
      let id, pos = read_u32 s pos in
      go (i + 1) (id :: acc) pos
  in
  go 0 [] pos

let idlist_raw_to_string ids =
  let buf = Buffer.create 16 in
  add_idlist_raw buf ids;
  Buffer.contents buf

let idlist_raw_of_string s = fst (read_idlist_raw s 0)

(** {1 Key composition}

    Composite keys are built from components separated by [0x00]. For the
    separator trick to preserve order, components that can contain
    arbitrary bytes must not contain [0x00]; tag designators are encoded
    to avoid it (see {!Xmldb.Dictionary}) and leaf values are escaped. *)

let key_sep = '\x00'

(** Escape a leaf value so it contains no 0x00/0x01 bytes and a non-null
    value is distinguishable from the null marker: null is encoded as the
    empty component, a present value as [0x02] followed by the escaped
    bytes ([0x01 0x02] for 0x00, [0x01 0x03] for 0x01). *)
let encode_value = function
  | None -> ""
  | Some v ->
    let buf = Buffer.create (String.length v + 1) in
    Buffer.add_char buf '\x02';
    String.iter
      (fun c ->
        match c with
        | '\x00' -> Buffer.add_string buf "\x01\x02"
        | '\x01' -> Buffer.add_string buf "\x01\x03"
        | c -> Buffer.add_char buf c)
      v;
    Buffer.contents buf

let decode_value s =
  if String.equal s "" then None
  else begin
    assert (s.[0] = '\x02');
    let buf = Buffer.create (String.length s) in
    let i = ref 1 in
    let n = String.length s in
    while !i < n do
      (if s.[!i] = '\x01' then begin
         incr i;
         match s.[!i] with
         | '\x02' -> Buffer.add_char buf '\x00'
         | '\x03' -> Buffer.add_char buf '\x01'
         | _ -> invalid_arg "Codec.decode_value: bad escape"
       end
       else Buffer.add_char buf s.[!i]);
      incr i
    done;
    Some (Buffer.contents buf)
  end

(** {1 CRC32 (IEEE 802.3, polynomial 0xEDB88320)}

    Slicing-by-8: eight 256-entry tables fold eight input bytes per
    step (two little-endian 32-bit reads), with a byte-at-a-time tail,
    and nothing is allocated. Every page write and read-miss in
    {!Pager}, every WAL frame and every snapshot section in [Persist]
    is checksummed here. *)

(* Table [k] (entries [k * 256 .. k * 256 + 255]) is the CRC of a byte
   followed by [k] zero bytes, so eight lookups advance the CRC by
   eight bytes at once. Built eagerly at module init: a lazy block
   would be forced from every domain that checksums a page, and
   unsynchronized forcing races on OCaml 5. *)
let crc32_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    t.(i) <- (t.(i - 256) lsr 8) lxor t.(t.(i - 256) land 0xff)
  done;
  t

let crc32_update crc data pos len =
  if pos < 0 || len < 0 || pos > Bytes.length data - len then invalid_arg "Codec.crc32_update";
  let t = crc32_tables in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let last8 = pos + len - 8 in
  while !i <= last8 do
    let lo = (Int32.to_int (Bytes.get_int32_le data !i) land 0xFFFFFFFF) lxor !c in
    let hi = Int32.to_int (Bytes.get_int32_le data (!i + 4)) land 0xFFFFFFFF in
    c :=
      Array.unsafe_get t (0x700 + (lo land 0xff))
      lxor Array.unsafe_get t (0x600 + ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t (0x500 + ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t (0x400 + (lo lsr 24))
      lxor Array.unsafe_get t (0x300 + (hi land 0xff))
      lxor Array.unsafe_get t (0x200 + ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get t (0x100 + ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get data j)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 data = crc32_update 0 data 0 (Bytes.length data)
let crc32_string s = crc32 (Bytes.unsafe_of_string s)

(** Comparator for (key, payload) entries — the bulk-load / B+-tree
    entry order (key, then payload), stated with typed comparisons. *)
let compare_kv (k1, p1) (k2, p2) =
  let c = String.compare k1 k2 in
  if c <> 0 then c else String.compare p1 p2

(** Smallest string strictly greater than every string having [s] as a
    prefix, or [None] if no such string exists (all bytes are 0xff).
    Used to turn a prefix scan into a half-open range scan. *)
let prefix_successor s =
  let n = String.length s in
  let rec last_non_ff i = if i < 0 then -1 else if s.[i] <> '\xff' then i else last_non_ff (i - 1) in
  let i = last_non_ff (n - 1) in
  if i < 0 then None
  else begin
    let b = Bytes.of_string (String.sub s 0 (i + 1)) in
    Bytes.set b i (Char.chr (Char.code s.[i] + 1));
    Some (Bytes.to_string b)
  end
