(** Post-mortem dumps of the flight recorder, framed with the WAL's
    frame codec (magic ["FB"]) and coded with {!Tm_storage.Codec}:

    {v
      'H'  version, pid, reason, wall time
      'D'  domain id, first sequence number, events (one per ring)
      'E'  event count
    v}

    Version 2 writes u32s big-endian; no version-1 reader is kept. *)

module Codec = Tm_storage.Codec
module Flight = Tm_obs.Flight

let magic = "FB" (* flight black-box frame *)
let version = 2

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let encode_events buf (events : Flight.event list) =
  Codec.add_varint buf (List.length events);
  let prev = ref 0 in
  List.iter
    (fun (e : Flight.event) ->
      (* Timestamps are monotonic per domain, so delta-coding keeps
         frames compact; the first delta is the absolute stamp. *)
      Codec.add_varint buf (e.e_ts_ns - !prev);
      prev := e.e_ts_ns;
      Codec.add_varint buf (Flight.kind_code e.e_kind);
      Codec.add_varint buf e.e_trace;
      Codec.add_signed_varint buf e.e_a;
      Codec.add_signed_varint buf e.e_b;
      Codec.add_lstring buf e.e_detail)
    events

let encode ~reason domains =
  let buf = Buffer.create 4096 in
  let frame kind fill =
    let payload = Buffer.create 1024 in
    fill payload;
    Wal.add_frame buf ~magic kind (Buffer.contents payload)
  in
  frame 'H' (fun b ->
      Codec.add_varint b version;
      Codec.add_varint b (Unix.getpid ());
      Codec.add_lstring b reason;
      Codec.add_lstring b (Printf.sprintf "%.6f" (Unix.gettimeofday ())));
  let total = ref 0 in
  List.iter
    (fun (domain, (events : Flight.event list)) ->
      match events with
      | [] -> ()
      | first :: _ ->
        frame 'D' (fun b ->
            Codec.add_varint b domain;
            Codec.add_varint b first.e_seq;
            encode_events b events);
        total := !total + List.length events)
    domains;
  frame 'E' (fun b -> Codec.add_varint b !total);
  Buffer.contents buf

type dump_file = {
  d_version : int;
  d_pid : int;
  d_reason : string;
  d_time : float;
  d_domains : (int * Flight.event list) list;
  d_total : int;
  d_damaged : string option;
}

let decode_events ~domain ~start_seq payload pos =
  let count, pos = Codec.read_varint payload pos in
  let rec go acc prev_ts seq pos = function
    | 0 -> List.rev acc
    | k ->
      let dts, pos = Codec.read_varint payload pos in
      let ts = prev_ts + dts in
      let kc, pos = Codec.read_varint payload pos in
      let trace, pos = Codec.read_varint payload pos in
      let a, pos = Codec.read_signed_varint payload pos in
      let b, pos = Codec.read_signed_varint payload pos in
      let detail, pos = Codec.read_lstring payload pos in
      let e =
        {
          Flight.e_domain = domain;
          e_seq = seq;
          e_ts_ns = ts;
          e_trace = trace;
          e_kind = Flight.kind_of_code kc;
          e_a = a;
          e_b = b;
          e_detail = detail;
        }
      in
      go (e :: acc) ts (seq + 1) pos (k - 1)
  in
  go [] 0 start_seq pos count

let parse_dump s =
  let walk = Wal.read_frames ~magic s in
  let header = ref None and domains = ref [] and total = ref (-1) in
  let frame kind payload =
    match kind with
    | 'H' ->
      let version, p = Codec.read_varint payload 0 in
      let pid, p = Codec.read_varint payload p in
      let reason, p = Codec.read_lstring payload p in
      let time, _ = Codec.read_lstring payload p in
      header := Some (version, pid, reason, float_of_string time)
    | 'D' ->
      let domain, p = Codec.read_varint payload 0 in
      let start_seq, p = Codec.read_varint payload p in
      domains := (domain, decode_events ~domain ~start_seq payload p) :: !domains
    | 'E' -> total := fst (Codec.read_varint payload 0)
    | _ -> () (* unknown frame kind: forward-compatible skip *)
  in
  (* Payloads passed their CRC, so a malformed one comes from a buggy
     or newer writer: keep what decoded before it. *)
  let rec decode pos = function
    | [] -> Option.map (Printf.sprintf "offset %d: %s" walk.Wal.stop) walk.Wal.damage
    | (kind, payload, fin) :: rest -> (
      match frame kind payload with
      | () -> decode fin rest
      | exception (Invalid_argument why | Failure why) ->
        Some (Printf.sprintf "offset %d: malformed payload: %s" pos why))
  in
  let damaged = decode 0 walk.Wal.intact in
  match !header with
  | None -> failwith "Blackbox.parse_dump: no valid header frame"
  | Some (version, pid, reason, time) ->
    {
      d_version = version;
      d_pid = pid;
      d_reason = reason;
      d_time = time;
      d_domains = List.sort (fun (a, _) (b, _) -> Int.compare a b) !domains;
      d_total = !total;
      d_damaged = damaged;
    }

let load_dump path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse_dump (really_input_string ic (in_channel_length ic)))

(* ------------------------------------------------------------------ *)
(* Triggers                                                            *)
(* ------------------------------------------------------------------ *)

type last_dump = {
  ld_path : string;
  ld_reason : string;
  ld_time : float;
  ld_events : int;
  ld_domains : int;
}

let last_dump_ref : last_dump option Atomic.t = Atomic.make None
let last_dump () = Atomic.get last_dump_ref

(* Write-to-temp + rename: a dump interrupted mid-write (the process
   is, after all, dying) never clobbers the previous complete one. *)
let dump_to ~path ~reason =
  let domains = Flight.snapshot_domains () in
  let data = encode ~reason domains in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc data);
  Sys.rename tmp path;
  Atomic.set last_dump_ref
    (Some
       {
         ld_path = path;
         ld_reason = reason;
         ld_time = Unix.gettimeofday ();
         ld_events = List.fold_left (fun acc (_, es) -> acc + List.length es) 0 domains;
         ld_domains = List.length domains;
       })

(* Automatic trigger: records a [Dump] event (so the dump explains
   itself) and snapshots every ring to the configured path. Errors are
   swallowed — a failing post-mortem must never mask the original
   incident. *)
let dump ~reason =
  if not (Flight.enabled ()) then None
  else
    match Flight.dump_path () with
    | None -> None
    | Some path -> (
      Flight.emit Flight.Dump 0 0 reason;
      match dump_to ~path ~reason with
      | () -> Some path
      | exception _ -> None)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render_dump d =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "flight dump v%d  pid %d  reason %S  %d domain(s), %d event(s)\n"
       d.d_version d.d_pid d.d_reason (List.length d.d_domains)
       (List.fold_left (fun acc (_, es) -> acc + List.length es) 0 d.d_domains));
  (match d.d_damaged with
  | Some why -> Buffer.add_string buf (Printf.sprintf "  DAMAGED: %s\n" why)
  | None -> ());
  let merged = Flight.merge_events d.d_domains in
  let t0 = match merged with (e : Flight.event) :: _ -> e.e_ts_ns | [] -> 0 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Flight.event_to_string ~t0 e);
      Buffer.add_char buf '\n')
    merged;
  Buffer.contents buf
