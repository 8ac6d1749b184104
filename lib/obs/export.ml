(** Exporters over the {!Obs} sink: a human-readable trace tree, JSON
    metrics, Chrome trace events, and Prometheus-style text metrics. *)

(* ------------------------------------------------------------------ *)
(* Minimal JSON writing                                                *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_string s = "\"" ^ json_escape s ^ "\""

(* %h drops trailing zeros but stays locale-independent; JSON floats
   must not be "inf"/"nan", which no duration or bucket bound is. *)
let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

(* ------------------------------------------------------------------ *)
(* Trace rendering                                                     *)
(* ------------------------------------------------------------------ *)

let span_suffix (s : Obs.span) =
  let parts = ref [] in
  let push p = parts := p :: !parts in
  List.iter
    (fun (k, v) -> if not (String.equal k "path") then push (Printf.sprintf "%s=%s" k v))
    s.Obs.s_meta;
  let st = s.Obs.s_stats in
  Option.iter
    (fun r ->
      push
        (Printf.sprintf "pool=%.1f%% (%d read/%d miss)" (100.0 *. r)
           st.Tm_exec.Stats.logical_reads st.Tm_exec.Stats.pool_misses))
    (Tm_exec.Stats.pool_hit_rate st);
  (let w = float_of_int st.Tm_exec.Stats.minor_words in
   if w >= 1e6 then push (Printf.sprintf "alloc=%.1fMw" (w /. 1e6))
   else if w >= 1e3 then push (Printf.sprintf "alloc=%.1fkw" (w /. 1e3))
   else if w > 0.0 then push (Printf.sprintf "alloc=%.0fw" w));
  (* the §6 counts the operator moved; pool and allocation are above *)
  (match
     List.filter
       (fun (k, v) -> v <> 0 && not (List.mem k [ "logical_reads"; "pool_misses"; "minor_words" ]))
       (Tm_exec.Stats.fields st)
   with
  | [] -> ()
  | counts ->
    push
      ("[" ^ String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counts) ^ "]"));
  String.concat "  " (List.rev !parts)

(* Index-nested-loop plans open one probe span per binding; past this
   many consecutive same-named siblings the tail is folded into one
   aggregate line so analyze output stays readable. *)
let sibling_fold_threshold = 8
let sibling_fold_keep = 3

(* A rendering item: a real span, or a folded run of same-named ones. *)
type render_item = Span of Obs.span | Folded of string * int * float

let fold_siblings children =
  let runs =
    List.fold_left
      (fun acc (c : Obs.span) ->
        match acc with
        | (name, run) :: rest when String.equal name c.Obs.s_name ->
          (name, c :: run) :: rest
        | _ -> (c.Obs.s_name, [ c ]) :: acc)
      [] children
    |> List.rev_map (fun (name, run) -> (name, List.rev run))
  in
  List.concat_map
    (fun (name, run) ->
      if List.length run <= sibling_fold_threshold then List.map (fun s -> Span s) run
      else begin
        let rec split k = function
          | rest when k = 0 -> ([], rest)
          | x :: rest ->
            let kept, folded = split (k - 1) rest in
            (x :: kept, folded)
          | [] -> ([], [])
        in
        let kept, folded = split sibling_fold_keep run in
        let total_ms =
          List.fold_left (fun acc s -> acc +. Obs.elapsed_ms s) 0.0 folded
        in
        List.map (fun s -> Span s) kept @ [ Folded (name, List.length folded, total_ms) ]
      end)
    runs

let rec render_span buf prefix connector (s : Obs.span) =
  let label =
    match List.assoc_opt "path" s.Obs.s_meta with
    | Some p -> Printf.sprintf "%s %s" s.Obs.s_name p
    | None -> s.Obs.s_name
  in
  Buffer.add_string buf
    (Printf.sprintf "%s%s%-40s %8.2f ms  %s\n" prefix connector label (Obs.elapsed_ms s)
       (span_suffix s));
  let child_prefix =
    match connector with
    | "" -> prefix
    | "└─ " -> prefix ^ "   "
    | _ -> prefix ^ "│  "
  in
  let render_item connector = function
    | Span c -> render_span buf child_prefix connector c
    | Folded (name, n, ms) ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s%-40s %8.2f ms\n" child_prefix connector
           (Printf.sprintf "… %d more %s" n name)
           ms)
  in
  let rec go = function
    | [] -> ()
    | [ last ] -> render_item "└─ " last
    | c :: rest ->
      render_item "├─ " c;
      go rest
  in
  go (fold_siblings s.Obs.s_children)

let trace_to_string (s : Obs.span) =
  let buf = Buffer.create 512 in
  render_span buf "" "" s;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

(* The "complete" ("ph":"X") flavour of the Chrome trace-event format:
   one event per span with ts/dur in microseconds, ts relative to the
   root span's open time. Worker-domain spans grafted via [Obs.adopt]
   were stamped by the same monotonic clock, so their relative offsets
   line up on the Perfetto timeline. *)
let trace_to_chrome (root : Obs.span) =
  let buf = Buffer.create 1024 in
  Buffer.add_char buf '[';
  let first = ref true in
  let us_of_ns ns = Int64.to_float ns /. 1e3 in
  let rec emit (s : Obs.span) =
    if not !first then Buffer.add_char buf ',';
    first := false;
    let args =
      List.map (fun (k, v) -> json_string k ^ ":" ^ json_string v) s.Obs.s_meta
      @ List.map
          (fun (k, v) -> json_string k ^ ":" ^ string_of_int v)
          (Tm_exec.Stats.fields s.Obs.s_stats)
    in
    Buffer.add_string buf
      (Printf.sprintf
         "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%s,\"dur\":%s,\"args\":{%s}}"
         (json_string s.Obs.s_name)
         (json_float (us_of_ns (Int64.sub s.Obs.s_start_ns root.Obs.s_start_ns)))
         (json_float (us_of_ns s.Obs.s_elapsed_ns))
         (String.concat "," args));
    List.iter emit s.Obs.s_children
  in
  emit root;
  Buffer.add_char buf ']';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Flight-recorder timelines                                           *)
(* ------------------------------------------------------------------ *)

let flight_event_to_json (e : Flight.event) =
  String.concat ""
    [
      "{";
      Printf.sprintf "\"domain\":%d," e.Flight.e_domain;
      Printf.sprintf "\"seq\":%d," e.Flight.e_seq;
      Printf.sprintf "\"ts_ns\":%d," e.Flight.e_ts_ns;
      Printf.sprintf "\"trace\":%s," (if e.Flight.e_trace = 0 then "null" else string_of_int e.Flight.e_trace);
      Printf.sprintf "\"kind\":%s," (json_string (Flight.kind_name e.Flight.e_kind));
      Printf.sprintf "\"a\":%d," e.Flight.e_a;
      Printf.sprintf "\"b\":%d," e.Flight.e_b;
      Printf.sprintf "\"detail\":%s" (json_string e.Flight.e_detail);
      "}";
    ]

let flight_to_json events = "[" ^ String.concat "," (List.map flight_event_to_json events) ^ "]"

(* The merged-timeline Chrome export: every domain becomes one [tid] on
   a shared clock, so Perfetto shows the accept domain, the workers and
   the WAL on parallel tracks. Paired lifecycle events render as
   duration begin/end slices; everything else is an instant. Events of
   one request share [args.trace], which is how a 429 or a breaker flip
   is stitched back to the query that caused it. *)
let flight_to_chrome events =
  let buf = Buffer.create 4096 in
  Buffer.add_char buf '[';
  let t0 = match events with e :: _ -> e.Flight.e_ts_ns | [] -> 0 in
  let first = ref true in
  let add_event (e : Flight.event) ~ph ~name =
    if not !first then Buffer.add_char buf ',';
    first := false;
    let args =
      List.concat
        [
          (if e.Flight.e_trace = 0 then []
           else [ "\"trace\":" ^ string_of_int e.Flight.e_trace ]);
          [ "\"seq\":" ^ string_of_int e.Flight.e_seq ];
          (if e.Flight.e_a = 0 then [] else [ "\"a\":" ^ string_of_int e.Flight.e_a ]);
          (if e.Flight.e_b = 0 then [] else [ "\"b\":" ^ string_of_int e.Flight.e_b ]);
          (if String.equal e.Flight.e_detail "" then []
           else [ "\"detail\":" ^ json_string e.Flight.e_detail ]);
        ]
    in
    Buffer.add_string buf
      (Printf.sprintf "{\"name\":%s,\"ph\":%s,\"pid\":1,\"tid\":%d,\"ts\":%s%s,\"args\":{%s}}"
         (json_string name) (json_string ph) e.Flight.e_domain
         (json_float (float_of_int (e.Flight.e_ts_ns - t0) /. 1e3))
         (if String.equal ph "i" then ",\"s\":\"t\"" else "")
         (String.concat "," args))
  in
  List.iter
    (fun (e : Flight.event) ->
      let name k =
        if String.equal e.Flight.e_detail "" then Flight.kind_name k else e.Flight.e_detail
      in
      match e.Flight.e_kind with
      | Flight.Span_begin -> add_event e ~ph:"B" ~name:(name e.Flight.e_kind)
      | Flight.Span_end -> add_event e ~ph:"E" ~name:(name e.Flight.e_kind)
      | Flight.Query_begin -> add_event e ~ph:"B" ~name:"query"
      | Flight.Query_end -> add_event e ~ph:"E" ~name:"query"
      | Flight.Req_begin -> add_event e ~ph:"B" ~name:"request"
      | Flight.Req_end -> add_event e ~ph:"E" ~name:"request"
      | Flight.Task_begin -> add_event e ~ph:"B" ~name:"task"
      | Flight.Task_end -> add_event e ~ph:"E" ~name:"task"
      | k -> add_event e ~ph:"i" ~name:(Flight.kind_name k))
    events;
  Buffer.add_char buf ']';
  Buffer.contents buf

(* The recorder's own health, visible to scrapes like the journal's.
   Registered here because {!Flight} sits below {!Obs}. *)
let () =
  Obs.gauge "flight.enabled" (fun () -> if Flight.enabled () then 1.0 else 0.0);
  Obs.gauge "flight.events" (fun () -> float_of_int (Flight.total_events ()))

(* ------------------------------------------------------------------ *)
(* Histogram quantiles                                                 *)
(* ------------------------------------------------------------------ *)

(* Prometheus histogram_quantile estimation: find the bucket where the
   cumulative count crosses q*total and interpolate linearly inside it.
   The overflow bucket has no upper bound, so it reports its lower
   bound (the largest finite bound) — an underestimate, like
   Prometheus, which is why the bench buckets extend well past
   expected tails. *)
let quantile_of_counts ~(bounds : float array) ~(counts : int array) q =
  if q < 0.0 || q > 1.0 then invalid_arg "Export.quantile_of_counts: q outside [0,1]";
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then None
  else begin
    let rank = q *. float_of_int total in
    let rec find i cumulative =
      if i >= Array.length counts - 1 then
        (* overflow bucket: clamp to the largest finite bound *)
        Some (if Array.length bounds = 0 then 0.0 else bounds.(Array.length bounds - 1))
      else begin
        let cumulative' = cumulative + counts.(i) in
        if float_of_int cumulative' >= rank then begin
          let lower = if i = 0 then 0.0 else bounds.(i - 1) in
          let upper = bounds.(i) in
          if counts.(i) = 0 then Some upper
          else
            let frac = (rank -. float_of_int cumulative) /. float_of_int counts.(i) in
            Some (lower +. ((upper -. lower) *. frac))
        end
        else find (i + 1) cumulative'
      end
    in
    find 0 0
  end

let quantile (h : Obs.histogram) q = quantile_of_counts ~bounds:h.Obs.h_bounds ~counts:h.Obs.h_counts q

let summary_quantiles = [ (0.5, "p50"); (0.95, "p95"); (0.99, "p99") ]

let summary h =
  List.filter_map (fun (q, label) -> Option.map (fun v -> (label, v)) (quantile h q)) summary_quantiles

(* ------------------------------------------------------------------ *)
(* Derived gauges                                                      *)
(* ------------------------------------------------------------------ *)

(* The pool-wide hit rate over every finished query's reads, derived
   once at export time from the [query.*] totals ({!Obs.add_query})
   rather than maintained on the hot path. *)
let pool_hit_rate () =
  let total k = Option.value ~default:0 (List.assoc_opt ("query." ^ k) (Obs.counters ())) in
  let reads = total "logical_reads" in
  if reads = 0 then None
  else Some (float_of_int (reads - total "pool_misses") /. float_of_int reads)

(* Every gauge an exporter should surface: registered gauges plus the
   derived pool-wide hit rate. *)
let all_gauges () =
  let derived =
    match pool_hit_rate () with Some r -> [ ("buffer_pool.hit_rate", r) ] | None -> []
  in
  Obs.gauges () @ derived

(* ------------------------------------------------------------------ *)
(* Metrics export                                                      *)
(* ------------------------------------------------------------------ *)

let histogram_to_json (h : Obs.histogram) =
  let buckets =
    Array.to_list
      (Array.mapi
         (fun i n ->
           let le =
             if i < Array.length h.Obs.h_bounds then json_float h.Obs.h_bounds.(i)
             else "\"+Inf\""
           in
           Printf.sprintf "{\"le\":%s,\"count\":%d}" le n)
         h.Obs.h_counts)
  in
  Printf.sprintf "{\"count\":%d,\"sum\":%s,\"buckets\":[%s]}" h.Obs.h_count
    (json_float h.Obs.h_sum) (String.concat "," buckets)

let metrics_to_json ?(extra = []) () =
  let counters =
    Obs.counters ()
    |> List.map (fun (k, v) -> json_string k ^ ":" ^ string_of_int v)
    |> String.concat ","
  in
  let histograms =
    Obs.histograms ()
    |> List.map (fun h ->
           let q =
             summary h
             |> List.map (fun (label, v) -> json_string label ^ ":" ^ json_float v)
             |> String.concat ","
           in
           let body = histogram_to_json h in
           (* graft the quantile summary into the histogram object *)
           let body = String.sub body 0 (String.length body - 1) in
           json_string h.Obs.h_name ^ ":" ^ body
           ^ (if String.equal q "" then "}" else Printf.sprintf ",\"quantiles\":{%s}}" q))
    |> String.concat ","
  in
  let gauges =
    all_gauges ()
    |> List.map (fun (k, v) ->
           json_string k ^ ":" ^ if Float.is_nan v then "null" else json_float v)
    |> String.concat ","
  in
  let extra = List.map (fun (k, v) -> "," ^ json_string k ^ ":" ^ v) extra in
  Printf.sprintf "{\"counters\":{%s},\"gauges\":{%s},\"histograms\":{%s}%s}" counters gauges
    histograms
    (String.concat "" extra)

(* Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]* *)
let prometheus_name s =
  "twigmatch_"
  ^ String.map (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c | _ -> '_') s

(* Prometheus label values: backslash, double-quote and newline must be
   backslash-escaped inside the quoted value. *)
let prometheus_label_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let metrics_to_prometheus () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (k, v) ->
      let name = prometheus_name k in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" name name v))
    (Obs.counters ());
  List.iter
    (fun (k, v) ->
      if not (Float.is_nan v) then begin
        let name = prometheus_name k in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n%s %s\n" name name (json_float v))
      end)
    (all_gauges ());
  List.iter
    (fun (h : Obs.histogram) ->
      let name = prometheus_name h.Obs.h_name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" name);
      let cumulative = ref 0 in
      Array.iteri
        (fun i n ->
          cumulative := !cumulative + n;
          let le =
            if i < Array.length h.Obs.h_bounds then Printf.sprintf "%g" h.Obs.h_bounds.(i)
            else "+Inf"
          in
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name le !cumulative))
        h.Obs.h_counts;
      Buffer.add_string buf (Printf.sprintf "%s_sum %g\n" name h.Obs.h_sum);
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name h.Obs.h_count))
    (Obs.histograms ());
  Buffer.contents buf
