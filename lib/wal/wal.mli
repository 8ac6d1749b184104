(** Checksummed, CRC-framed append-only write-ahead log.

    Frames are ["WF"] + kind byte + u32 length + payload + CRC32 over
    kind and payload. This library stores and recovers frames; it does
    not interpret [Op] payloads — the durable layer above defines them.
    A [Page] frame records a page id and the CRC32 of its post-image;
    the durable layer leaves its [image] empty, since its recovery
    re-executes the [Op] and checks CRCs rather than reading images.

    Failpoint sites (see {!Tm_fault.Fault}): [wal.append] (applied to
    the encoded frame bytes before the write; [Fail] retried boundedly,
    [Torn]/[Bitflip] persist a damaged frame), [wal.fsync], and
    [wal.replay] (guarding each frame decoded by {!scan}). *)

type frame =
  | Begin of int  (** transaction id *)
  | Op of int * string  (** transaction id, opaque logical-operation payload *)
  | Page of { txn : int; page : int; crc : int; image : string }
      (** a page the transaction wrote: page id, CRC32 of its
          post-image, and the image (empty when not logged) *)
  | Commit of int  (** transaction id *)
  | Checkpoint of int  (** last transaction id folded into the snapshot *)

type t
(** An open log handle (append side). *)

val create : string -> t
(** Create (or truncate) the log file and open it for appending. *)

val open_append : string -> t
(** Open an existing log (created if missing) for appending. *)

val size_bytes : t -> int
(** Current file size. *)

val append : t -> frame -> unit
(** Append one frame (not yet durable — call {!sync}).
    @raise Tm_fault.Fault.Io_error if the [wal.append] failpoint's
    [Fail] action outlasts the bounded retry. *)

val sync : t -> unit
(** fsync the log; after return every appended frame is durable.
    @raise Tm_fault.Fault.Io_error if the [wal.fsync] failpoint's
    [Fail] action outlasts the bounded retry. *)

val close : t -> unit

val reset : t -> unit
(** Truncate the log to empty through the open handle (checkpoint). *)

val encode_frame : frame -> string
(** The exact bytes {!append} writes — exposed for frame-boundary crash
    matrices in tests. *)

(** {1 Frame codec}

    The framing of {!append} and {!scan}, under a caller's two-byte
    magic; the flight recorder's post-mortem dumps ({!Blackbox}) use it
    with ["FB"]. *)

val add_frame : Buffer.t -> magic:string -> char -> string -> unit
(** [add_frame buf ~magic kind payload] appends one frame: [magic],
    [kind], u32 payload length, [payload], CRC32 over kind and
    payload. *)

type walk = {
  intact : (char * string * int) list;
      (** kind, payload and the offset just past each intact frame, in
          order *)
  stop : int;  (** offset just past the last intact frame *)
  damage : string option;  (** why the walk stopped before the end of the input *)
}

val read_frames : magic:string -> string -> walk
(** Walk frames from offset 0 up to the first damaged one: a truncated
    header or body, another magic, or a CRC mismatch. Kinds are not
    checked. Never raises. *)

type scanned = {
  frames : frame list;  (** every frame of the valid prefix, in file order *)
  committed : int list;  (** transaction ids with a [Commit], in commit order *)
  valid_bytes : int;  (** file offset just past the last valid frame *)
  committed_bytes : int;
      (** offset just past the last [Commit]/[Checkpoint] — the
          committed prefix recovery truncates to *)
  damaged : bool;  (** the scan stopped before the end of the file *)
}

val scan : string -> scanned
(** Walk the log from the start, stopping at the first damaged frame
    (bad magic, unknown kind, implausible length, CRC mismatch,
    truncation). Absent files scan as empty. *)

val truncate : string -> int -> unit
(** Truncate the file at [path] to a byte length (discarding a damaged
    tail and partially-logged transactions identified by {!scan}). *)
