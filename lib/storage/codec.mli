(** Byte-level codecs: order-preserving key encodings and compact
    payload encodings (varints, zigzag, differential id lists). *)

(** {1 Varints (unsigned LEB128)} *)

val add_varint : Buffer.t -> int -> unit
(** Append an unsigned varint. The value must be non-negative. *)

val varint_len : int -> int
(** Number of bytes {!add_varint} appends for this value. *)

val set_varint : bytes -> int -> int -> int
(** [set_varint b pos n] writes [n]'s varint into [b] at [pos] and
    returns the position after it; [b] must have room for
    [varint_len n] bytes there. *)

val read_varint : string -> int -> int * int
(** [read_varint s pos] is [(value, next_pos)]. *)

(** {1 Zigzag-coded signed varints} *)

val add_signed_varint : Buffer.t -> int -> unit
val read_signed_varint : string -> int -> int * int

(** {1 Length-prefixed strings} *)

val add_lstring : Buffer.t -> string -> unit
val read_lstring : string -> int -> string * int

(** {1 Fixed-width big-endian integers}

    Encodings compare bytewise in numeric order, so they embed directly
    in composite B+-tree keys. *)

val add_u16 : Buffer.t -> int -> unit
val read_u16 : string -> int -> int * int
val add_u32 : Buffer.t -> int -> unit
val read_u32 : string -> int -> int * int
val u32_to_string : int -> string

(** {1 Id lists}

    [idlist] is the differential (delta + zigzag varint) encoding of
    paper Section 4.1; [idlist_raw] stores 4 bytes per id and exists
    for the compression ablation and for ASR relations. *)

val idlist_to_string : int list -> string
val idlist_of_string : string -> int list
val idlist_raw_to_string : int list -> string
val idlist_raw_of_string : string -> int list

(** {1 CRC32}

    IEEE 802.3 CRC (polynomial 0xEDB88320, reflected, slicing-by-8),
    the checksum behind per-page verification in {!Pager}, WAL frames
    and the snapshot frame format. Results fit in 32 bits (always
    non-negative). *)

val crc32 : bytes -> int
(** Checksum of the whole buffer. Does not mutate it. *)

val crc32_string : string -> int

val crc32_update : int -> bytes -> int -> int -> int
(** [crc32_update crc data pos len] extends [crc] with
    [data[pos..pos+len-1]], so checksums can be computed incrementally:
    [crc32 b = crc32_update 0 b 0 (Bytes.length b)]. Allocates nothing.
    @raise Invalid_argument if [pos] and [len] do not name a valid
    range of [data]. *)

(** {1 Composite keys} *)

val key_sep : char
(** Component separator (0x00). *)

val encode_value : string option -> string
(** Escape a leaf value into a 0x00/0x01-free component; [None] (the
    SQL-null of the 4-ary relation) encodes as the empty string and
    sorts before every present value. Order-preserving. *)

val decode_value : string -> string option

val compare_kv : string * string -> string * string -> int
(** Entry order of the B+-tree: key, then payload (typed comparison —
    the analyzer's poly-compare pass bans polymorphic [compare]). *)

val prefix_successor : string -> string option
(** Smallest string greater than every string prefixed by the argument,
    or [None] when no such string exists. Turns a prefix scan into a
    half-open range scan. *)
