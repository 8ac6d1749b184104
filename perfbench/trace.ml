(* In-memory span recorder for the traced run. Each span has a name, a
   start and end (ns on the monotonic clock), the span that was open
   when it began, a request id, and optional counts recorded at the
   same boundary. Nothing is written until [write_chrome] at the end. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 at top level *)
  req : int;
  t0 : float;
  mutable t1 : float;
  mutable counts : (string * float) list;
}

let now_ns () = Int64.to_float (Monotonic_clock.now ())
let spans : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let current_req = ref 0
let set_request r = current_req := r

let reset () =
  spans := [];
  stack := [];
  next_id := 0;
  current_req := 0

let with_span name f =
  let parent = match !stack with s :: _ -> s.id | [] -> -1 in
  let s = { id = !next_id; name; parent; req = !current_req; t0 = now_ns (); t1 = 0.0; counts = [] } in
  incr next_id;
  stack := s :: !stack;
  let finish () =
    s.t1 <- now_ns ();
    stack := (match !stack with _ :: rest -> rest | [] -> []);
    spans := s :: !spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* Attach a count to the innermost open span. *)
let count key v = match !stack with s :: _ -> s.counts <- (key, v) :: s.counts | [] -> ()

let all () = List.rev !spans

(* Per-name totals: (calls, total ns, self ns), where self time is the
   span's duration minus the time its direct children cover. *)
let totals () =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.replace children s.parent
        ((s.t1 -. s.t0) +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    !spans;
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self = d -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id) in
      let c, tot, sf = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (c + 1, tot +. d, sf +. self))
    !spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Chrome trace-event JSON ("X" complete events, microseconds), which
   Perfetto and chrome://tracing load. At most [limit] spans are
   written, the earliest first, so the file stays small; the per-layer
   table is computed from every span. *)
let write_chrome ~path ~limit =
  let all = all () in
  let t_base = match all with s :: _ -> s.t0 | [] -> 0.0 in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
      List.iteri
        (fun i s ->
          if i < limit then begin
            if i > 0 then output_string oc ",\n";
            let counts =
              String.concat ""
                (List.map (fun (k, v) -> Printf.sprintf ",\"%s\":%.17g" (json_escape k) v) s.counts)
            in
            Printf.fprintf oc
              "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d%s}}"
              (json_escape s.name) ((s.t0 -. t_base) /. 1e3) ((s.t1 -. s.t0) /. 1e3) s.id s.parent s.req
              counts
          end)
        all;
      output_string oc "\n]}\n")
