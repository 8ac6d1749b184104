(** Checksummed, CRC-framed append-only write-ahead log.

    The WAL is the durability substrate under the pager: a transaction
    appends [Begin], its logical operations ([Op], opaque payload
    bytes — this library does not interpret them), one [Page] record
    per page it dirtied, and a [Commit]; the file is fsynced before the
    transaction is acknowledged. [Checkpoint] frames mark a snapshot
    boundary. A [Page] record carries the page id and the CRC32 of its
    post-image; the durable layer logs it with an empty [image],
    because its recovery re-executes the [Op] and checks the CRCs
    instead of reading images back. The [image] field stays in the
    format, so older logs that carry full images still scan.

    Frame format (all integers via {!Tm_storage.Codec}):

    {v
      magic   "WF"                      2 bytes
      kind    'B'|'O'|'P'|'C'|'K'       1 byte
      len     u32                       payload length
      payload len bytes
      crc     u32                       CRC32 over kind + payload
    v}

    The frame writer ({!add_frame}) and reader ({!read_frames}) take the
    magic as an argument: the flight recorder's post-mortem dumps
    ({!Blackbox}, magic ["FB"]) are framed by the same code.

    Recovery ({!scan}) walks frames from the start and stops at the
    first damaged one — bad magic, unknown kind, implausible length,
    CRC mismatch, or truncation. Everything after the last [Commit] (or
    [Checkpoint]) in the valid prefix is a partially-logged transaction
    and is discarded by truncating to {!scanned.committed_bytes}: the
    committed prefix is exactly what survives a crash at any byte
    offset.

    Failpoint sites (see {!Tm_fault.Fault}): [wal.append] fires on the
    encoded frame bytes before they reach the file (a [Fail] action is
    retried a bounded number of times and leaves nothing behind; [Torn]
    and [Bitflip] persist a damaged frame that {!scan} then rejects,
    simulating a crash mid-append); [wal.fsync] guards the fsync;
    [wal.replay] guards each frame decoded during {!scan}. *)

module Codec = Tm_storage.Codec

let c_appends = Tm_obs.Obs.counter "wal.appends"
let c_append_bytes = Tm_obs.Obs.counter "wal.append_bytes"
let c_syncs = Tm_obs.Obs.counter "wal.syncs"
let c_commits = Tm_obs.Obs.counter "wal.commits"
let c_replayed = Tm_obs.Obs.counter "wal.replayed_frames"
let c_truncations = Tm_obs.Obs.counter "wal.truncations"

let site_append = "wal.append"
let site_fsync = "wal.fsync"
let site_replay = "wal.replay"

type frame =
  | Begin of int  (** transaction id *)
  | Op of int * string  (** transaction id, opaque logical-operation payload *)
  | Page of { txn : int; page : int; crc : int; image : string }
      (** a page the transaction wrote: page id, CRC32 of its
          post-image, and the image (empty when not logged) *)
  | Commit of int  (** transaction id *)
  | Checkpoint of int  (** last transaction id folded into the snapshot *)

type t = Unix.file_descr (* the log, opened for appending *)

let magic = "WF"

(* ------------------------------------------------------------------ *)
(* Frame codec                                                         *)
(* ------------------------------------------------------------------ *)

let encode_payload frame =
  let buf = Buffer.create 64 in
  let kind =
    match frame with
    | Begin txn ->
      Codec.add_varint buf txn;
      'B'
    | Op (txn, op) ->
      Codec.add_varint buf txn;
      Codec.add_lstring buf op;
      'O'
    | Page { txn; page; crc; image } ->
      Codec.add_varint buf txn;
      Codec.add_varint buf page;
      Codec.add_u32 buf crc;
      Codec.add_lstring buf image;
      'P'
    | Commit txn ->
      Codec.add_varint buf txn;
      'C'
    | Checkpoint txn ->
      Codec.add_varint buf txn;
      'K'
  in
  (kind, Buffer.contents buf)

let decode_payload kind payload =
  match kind with
  | 'B' ->
    let txn, _ = Codec.read_varint payload 0 in
    Begin txn
  | 'O' ->
    let txn, pos = Codec.read_varint payload 0 in
    let op, _ = Codec.read_lstring payload pos in
    Op (txn, op)
  | 'P' ->
    let txn, pos = Codec.read_varint payload 0 in
    let page, pos = Codec.read_varint payload pos in
    let crc, pos = Codec.read_u32 payload pos in
    let image, _ = Codec.read_lstring payload pos in
    Page { txn; page; crc; image }
  | 'C' ->
    let txn, _ = Codec.read_varint payload 0 in
    Commit txn
  | 'K' ->
    let txn, _ = Codec.read_varint payload 0 in
    Checkpoint txn
  | c -> invalid_arg (Printf.sprintf "Wal.decode_payload: bad kind %C" c)

(* CRC over kind + payload, so a frame whose kind byte was damaged into
   another valid kind still fails verification. The kind byte seeds the
   CRC and the payload extends it in place, without first copying the
   two into one string. *)
let frame_crc kind payload =
  Codec.crc32_update
    (Codec.crc32_string (String.make 1 kind))
    (Bytes.unsafe_of_string payload) 0 (String.length payload)

let add_frame buf ~magic kind payload =
  Buffer.add_string buf magic;
  Buffer.add_char buf kind;
  Codec.add_u32 buf (String.length payload);
  Buffer.add_string buf payload;
  Codec.add_u32 buf (frame_crc kind payload)

let encode_frame frame =
  let kind, payload = encode_payload frame in
  let buf = Buffer.create (String.length payload + 16) in
  add_frame buf ~magic kind payload;
  Buffer.contents buf

type walk = {
  intact : (char * string * int) list;
  stop : int;
  damage : string option;
}

let header_len = 2 (* magic *) + 1 (* kind *) + 4 (* u32 len *)

(* Stop at the first frame that is cut short, carries another magic or
   fails its CRC; every bound is checked before a read, so no input
   raises. *)
let read_frames ~magic s =
  let total = String.length s in
  let rec go pos acc =
    let stop damage = { intact = List.rev acc; stop = pos; damage } in
    if pos = total then stop None
    else if pos + header_len > total then stop (Some "truncated frame header")
    else if not (String.equal (String.sub s pos 2) magic) then stop (Some "bad frame magic")
    else
      let kind = s.[pos + 2] in
      let len, body = Codec.read_u32 s (pos + 3) in
      if body + len + 4 > total then stop (Some "truncated frame body")
      else
        let payload = String.sub s body len in
        let crc, fin = Codec.read_u32 s (body + len) in
        if crc <> frame_crc kind payload then stop (Some "frame CRC mismatch")
        else go fin ((kind, payload, fin) :: acc)
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Appending                                                           *)
(* ------------------------------------------------------------------ *)

let openfile path flags = Unix.openfile path flags 0o644
[@@analyze.fd_ok "the descriptor is the log handle: it lives in t until close"]

let create path =
  (* O_APPEND even for a fresh log: [reset] can then ftruncate and keep
     appending through the same descriptor without repositioning. *)
  openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_APPEND; Unix.O_CLOEXEC ]
[@@analyze.fd_ok "the descriptor is the handle: it lives in t until close"]

let open_append path =
  openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
[@@analyze.fd_ok "the descriptor is the handle: it lives in t until close"]

let size_bytes t = (Unix.fstat t).Unix.st_size

let write_all fd bytes =
  let len = Bytes.length bytes in
  let rec go off = if off < len then go (off + Unix.write fd bytes off (len - off)) in
  go 0

(* Bounded retry for the Fail action on a failpoint site: a Fail leaves
   no bytes behind (the frame is corrupted or rejected before the
   write), so re-running the attempt is safe and rides out
   probabilistic fault legs. Torn/Bitflip actions do land damaged
   bytes — deliberately: they simulate the crash the recovery scan must
   contain. *)
let attempts = 4

let rec with_retry ?(attempt = 1) f =
  match f () with
  | v -> v
  | exception Tm_fault.Fault.Io_error _ when attempt < attempts ->
    with_retry ~attempt:(attempt + 1) f

(** Append one frame (buffered in the OS; not yet durable — call
    {!sync}). The [wal.append] failpoint applies to the encoded frame
    bytes: [Fail] is retried boundedly and leaves nothing behind;
    [Torn]/[Bitflip] persist a damaged frame, as a crash mid-append
    would. *)
let append t frame =
  let encoded =
    with_retry (fun () ->
        Tm_fault.Fault.apply ~site:site_append (Bytes.of_string (encode_frame frame)))
  in
  write_all t encoded;
  Tm_obs.Obs.incr c_appends;
  Tm_obs.Obs.add c_append_bytes (Bytes.length encoded);
  let kind =
    match frame with
    | Begin _ -> 'B'
    | Op _ -> 'O'
    | Page _ -> 'P'
    | Commit _ -> 'C'
    | Checkpoint _ -> 'K'
  in
  Tm_obs.Flight.emit Tm_obs.Flight.Wal_append (Char.code kind) (Bytes.length encoded) "";
  match frame with
  | Commit txn ->
    Tm_obs.Obs.incr c_commits;
    Tm_obs.Flight.emit Tm_obs.Flight.Wal_commit txn 0 ""
  | Begin _ | Op _ | Page _ | Checkpoint _ -> ()

(** Make every appended frame durable ([fsync]). The [wal.fsync]
    failpoint fires first ([Fail] retried boundedly). *)
let sync t =
  with_retry (fun () ->
      Tm_fault.Fault.guard site_fsync;
      Unix.fsync t);
  Tm_obs.Obs.incr c_syncs;
  Tm_obs.Flight.emit Tm_obs.Flight.Wal_fsync 0 0 ""

let close t = Unix.close t

(* ------------------------------------------------------------------ *)
(* Scanning (recovery)                                                 *)
(* ------------------------------------------------------------------ *)

type scanned = {
  frames : frame list;  (** every frame of the valid prefix, in file order *)
  committed : int list;  (** transaction ids with a [Commit], in commit order *)
  valid_bytes : int;  (** file offset just past the last valid frame *)
  committed_bytes : int;
      (** offset just past the last [Commit]/[Checkpoint] — the
          committed prefix recovery truncates to *)
  damaged : bool;  (** the scan stopped before the end of the file *)
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Scan a WAL file from the start, stopping at the first damaged
    frame; absent files scan as empty. The [wal.replay] failpoint
    guards each decoded frame (so recovery itself can be crashed
    mid-replay by a fault leg). *)
let scan path =
  let contents = if Sys.file_exists path then read_file path else "" in
  let walk = read_frames ~magic contents in
  let finish pos frames committed committed_bytes damaged =
    {
      frames = List.rev frames;
      committed = List.rev committed;
      valid_bytes = pos;
      committed_bytes;
      damaged;
    }
  in
  let rec go pos frames committed committed_bytes = function
    | [] -> finish pos frames committed committed_bytes (Option.is_some walk.damage)
    | (kind, payload, fin) :: rest -> (
      match decode_payload kind payload with
      | exception (Invalid_argument _ | Failure _) ->
        finish pos frames committed committed_bytes true
      | frame ->
        Tm_fault.Fault.guard site_replay;
        Tm_obs.Obs.incr c_replayed;
        let committed, committed_bytes =
          match frame with
          | Commit txn -> (txn :: committed, fin)
          | Checkpoint _ -> (committed, fin)
          | Begin _ | Op _ | Page _ -> (committed, committed_bytes)
        in
        go fin (frame :: frames) committed committed_bytes rest)
  in
  go 0 [] [] 0 walk.intact

(** Truncate the file to [len] bytes — discarding a damaged tail and
    any partially-logged transactions after {!scan}. *)
let truncate path len =
  if Sys.file_exists path then begin
    Unix.truncate path len;
    Tm_obs.Obs.incr c_truncations;
    Tm_obs.Flight.emit Tm_obs.Flight.Wal_truncate len 0 ""
  end

(** Close, truncate to empty and reopen — the checkpoint reset. *)
let reset t =
  Unix.ftruncate t 0;
  (* O_APPEND handles positioning for appends; creation-mode handles
     start at 0 already. *)
  Tm_obs.Obs.incr c_truncations;
  Tm_obs.Flight.emit Tm_obs.Flight.Wal_truncate 0 0 ""
