(** Query-lifecycle journal: a process-global, fixed-capacity ring of
    structured completion events, one per {!Twigmatch.Executor.run}.

    Design mirrors the striped buffer pool: entries are partitioned
    over [trace id mod stripes] sub-rings, each behind its own mutex,
    so concurrent domains completing queries almost never contend.
    Recording when disabled costs exactly one atomic load (the
    executor's single guard branch); nothing is allocated. The ring
    overwrites oldest-first per stripe, so under steady traffic the
    journal always holds the most recent ~capacity completions — the
    fleet-style EXPLAIN history the paper's Section 6 evaluation reads
    off DB2's instrumentation one query at a time. *)

type outcome =
  | Completed
  | Timed_out of float  (** the expired deadline, ms *)
  | Failed of string  (** printable form of the escaping exception *)

type entry = {
  j_id : int;  (** trace id (process-unique, monotonically increasing) *)
  j_time : float;  (** wall-clock completion time (Unix epoch seconds) *)
  j_query : string;
  j_shape : string;  (** normalized twig shape (the planner's cache key) *)
  j_requested : string;  (** the planned strategy *)
  j_strategy : string;  (** the strategy that answered (= requested when healthy) *)
  j_reason : string;  (** planner justification, extended with the fallback story *)
  j_fallbacks : (string * string) list;  (** losing plans, oldest first, with why *)
  j_via_naive : bool;
  j_rows : int;
  j_est_rows : int option;  (** the plan's estimated result rows, when planned *)
  j_latency_ms : float;
  j_stats : Tm_exec.Stats.t;  (** the query's cost record: §6 counts, buffer reads, minor words *)
  j_jobs : int;
  j_txn : int;
      (** last durably committed transaction folded into the database
          when the query ran (0 = a database never durably updated) *)
  j_outcome : outcome;
}

(* ------------------------------------------------------------------ *)
(* Trace ids                                                           *)
(* ------------------------------------------------------------------ *)

let next_trace_id = Atomic.make 1
let next_id () = Atomic.fetch_and_add next_trace_id 1

(* ------------------------------------------------------------------ *)
(* The striped ring                                                    *)
(* ------------------------------------------------------------------ *)

type stripe = {
  lock : Mutex.t;
  mutable ring : entry option array;
  mutable next : int;  (** entries ever written to this stripe *)
}

let stripes = 8
let default_capacity = 512

let make_stripes capacity =
  let per = max 1 ((capacity + stripes - 1) / stripes) in
  Array.init stripes (fun _ -> { lock = Mutex.create (); ring = Array.make per None; next = 0 })

let state = ref (make_stripes default_capacity) [@@analyze.guarded_by "state_lock"]
let state_lock = Mutex.create ()
let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let capacity () =
  let s = !state in
  Array.fold_left (fun acc st -> acc + Array.length st.ring) 0 s

let enable ?capacity:cap () =
  (match cap with
  | None -> ()
  | Some c ->
    if c < 1 then invalid_arg "Journal.enable: capacity must be >= 1";
    Mutex.protect state_lock (fun () -> state := make_stripes c));
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

let with_enabled on f =
  let saved = Atomic.get enabled_flag in
  Atomic.set enabled_flag on;
  Fun.protect ~finally:(fun () -> Atomic.set enabled_flag saved) f

let clear () =
  Mutex.protect state_lock (fun () ->
      let s = !state in
      Array.iter
        (fun st ->
          Mutex.protect st.lock (fun () ->
              Array.fill st.ring 0 (Array.length st.ring) None;
              st.next <- 0))
        s)

let record e =
  if Atomic.get enabled_flag then begin
    let s = !state in
    let st = s.(e.j_id mod stripes) in
    Mutex.protect st.lock (fun () ->
        st.ring.(st.next mod Array.length st.ring) <- Some e;
        st.next <- st.next + 1)
  end

let fold f acc =
  let s = !state in
  Array.fold_left
    (fun acc st ->
      Mutex.protect st.lock (fun () ->
          Array.fold_left (fun acc e -> match e with Some e -> f acc e | None -> acc) acc st.ring))
    acc s

let entries () =
  fold (fun acc e -> e :: acc) [] |> List.sort (fun a b -> Int.compare a.j_id b.j_id)

let length () = fold (fun acc _ -> acc + 1) 0

let dropped () =
  let s = !state in
  Array.fold_left
    (fun acc st ->
      let d = Mutex.protect st.lock (fun () -> max 0 (st.next - Array.length st.ring)) in
      acc + d)
    0 s

(* Gauges so the scrape endpoints can watch the journal itself. *)
let () =
  Obs.gauge "journal.entries" (fun () -> float_of_int (length ()));
  Obs.gauge "journal.dropped" (fun () -> float_of_int (dropped ()))

(* ------------------------------------------------------------------ *)
(* Slow-query view                                                     *)
(* ------------------------------------------------------------------ *)

let slow_threshold = Atomic.make 10 (* milliseconds, integral for atomicity *)

let set_slow_threshold_ms ms =
  if ms < 0.0 then invalid_arg "Journal.set_slow_threshold_ms: negative threshold";
  Atomic.set slow_threshold (int_of_float ms)

let slow_threshold_ms () = float_of_int (Atomic.get slow_threshold)

(* Slowest first: the journal view an operator reads top-down. Timeouts
   and failures always qualify — a query that never finished is the
   slowest kind. *)
let slow ?threshold_ms () =
  let threshold = match threshold_ms with Some t -> t | None -> slow_threshold_ms () in
  fold
    (fun acc e ->
      let keep =
        match e.j_outcome with
        | Completed -> e.j_latency_ms >= threshold
        | Timed_out _ | Failed _ -> true
      in
      if keep then e :: acc else acc)
    []
  |> List.sort (fun a b -> Float.compare b.j_latency_ms a.j_latency_ms)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let outcome_name = function
  | Completed -> "completed"
  | Timed_out _ -> "timeout"
  | Failed _ -> "failed"

let entry_to_string e =
  let buf = Buffer.create 160 in
  Buffer.add_string buf
    (Printf.sprintf "#%d %8.2f ms  %-9s %s" e.j_id e.j_latency_ms
       (outcome_name e.j_outcome) e.j_query);
  Buffer.add_string buf (Printf.sprintf "  [%s" e.j_strategy);
  if not (String.equal e.j_strategy e.j_requested) || e.j_via_naive then
    Buffer.add_string buf (Printf.sprintf ", planned %s" e.j_requested);
  if e.j_via_naive then Buffer.add_string buf ", naive";
  Buffer.add_string buf (Printf.sprintf ", rows=%d" e.j_rows);
  (* Estimated vs actual rows — the "why was this plan mispicked"
     column: a large gap explains a slow entry better than the strategy
     name does. *)
  (match e.j_est_rows with
  | Some est when est <> e.j_rows ->
    Buffer.add_string buf (Printf.sprintf ", est=%d" est)
  | Some _ | None -> ());
  if e.j_stats.Tm_exec.Stats.replans > 0 then
    Buffer.add_string buf (Printf.sprintf ", replans=%d" e.j_stats.Tm_exec.Stats.replans);
  (match Tm_exec.Stats.pool_hit_rate e.j_stats with
  | Some r -> Buffer.add_string buf (Printf.sprintf ", pool=%.1f%%" (100.0 *. r))
  | None -> ());
  if e.j_txn > 0 then Buffer.add_string buf (Printf.sprintf ", txn=%d" e.j_txn);
  Buffer.add_string buf "]";
  List.iter
    (fun (s, why) -> Buffer.add_string buf (Printf.sprintf "\n    lost plan %s: %s" s why))
    e.j_fallbacks;
  (match e.j_outcome with
  | Timed_out ms -> Buffer.add_string buf (Printf.sprintf "\n    deadline %.0f ms expired" ms)
  | Failed msg -> Buffer.add_string buf ("\n    error: " ^ msg)
  | Completed -> ());
  Buffer.contents buf

let json_of_float = Export.json_float
let json_of_string = Export.json_string

let entry_to_json e =
  let fallback (s, why) =
    Printf.sprintf "{\"strategy\":%s,\"why\":%s}" (json_of_string s) (json_of_string why)
  in
  let outcome =
    match e.j_outcome with
    | Completed -> Printf.sprintf "{\"kind\":\"completed\"}"
    | Timed_out ms -> Printf.sprintf "{\"kind\":\"timeout\",\"deadline_ms\":%s}" (json_of_float ms)
    | Failed msg -> Printf.sprintf "{\"kind\":\"failed\",\"error\":%s}" (json_of_string msg)
  in
  String.concat ""
    [
      "{";
      Printf.sprintf "\"id\":%d," e.j_id;
      Printf.sprintf "\"time\":%s," (json_of_float e.j_time);
      Printf.sprintf "\"query\":%s," (json_of_string e.j_query);
      Printf.sprintf "\"shape\":%s," (json_of_string e.j_shape);
      Printf.sprintf "\"requested\":%s," (json_of_string e.j_requested);
      Printf.sprintf "\"strategy\":%s," (json_of_string e.j_strategy);
      Printf.sprintf "\"reason\":%s," (json_of_string e.j_reason);
      Printf.sprintf "\"fallbacks\":[%s]," (String.concat "," (List.map fallback e.j_fallbacks));
      Printf.sprintf "\"via_naive\":%b," e.j_via_naive;
      Printf.sprintf "\"rows\":%d," e.j_rows;
      (match e.j_est_rows with
      | Some est -> Printf.sprintf "\"est_rows\":%d," est
      | None -> "\"est_rows\":null,");
      Printf.sprintf "\"replans\":%d," e.j_stats.Tm_exec.Stats.replans;
      Printf.sprintf "\"latency_ms\":%s," (json_of_float e.j_latency_ms);
      (match Tm_exec.Stats.pool_hit_rate e.j_stats with
      | Some r -> Printf.sprintf "\"pool_hit_rate\":%s," (json_of_float r)
      | None -> "\"pool_hit_rate\":null,");
      Printf.sprintf "\"stats\":{%s},"
        (String.concat ","
           (List.map
              (fun (k, v) -> Printf.sprintf "%s:%d" (json_of_string k) v)
              (Tm_exec.Stats.fields e.j_stats)));
      Printf.sprintf "\"jobs\":%d," e.j_jobs;
      Printf.sprintf "\"txn\":%d," e.j_txn;
      Printf.sprintf "\"outcome\":%s" outcome;
      "}";
    ]

let to_json es = "[" ^ String.concat "," (List.map entry_to_json es) ^ "]"

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)
(* ------------------------------------------------------------------ *)

let env_var = "TWIGMATCH_JOURNAL"

(* TWIGMATCH_JOURNAL=1 (or any positive N, taken as the capacity)
   enables the journal at link time — how the CI leg proves the whole
   suite runs unchanged with journaling on. "0", "" or unset leave it
   off. *)
let install_env () =
  match Sys.getenv_opt env_var with
  | None -> ()
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 1 -> enable ~capacity:n ()
    | Some 1 -> enable ()
    | Some _ -> ()
    | None ->
      Obs.warn ~site:"journal.env"
        (Printf.sprintf "ignoring %s=%S: expected a capacity (positive integer)" env_var s))

let () = install_env ()
