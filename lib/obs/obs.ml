(** Observability substrate: a global metrics sink (counters and
    histograms) plus monotonic-clock spans recorded into per-query
    trace trees.

    The sink is {e disabled by default} and every recording entry point
    is gated on one boolean load, so instrumented hot paths cost a
    single predictable branch when observability is off — the property
    the benchmark harness relies on. When enabled, counters accumulate
    globally (exported by {!Export}) and {!trace} additionally captures
    a tree of named spans; each span records its wall-clock time and
    the delta of the query's cost record ({!Tm_exec.Stats}) over its
    extent, which is how EXPLAIN ANALYZE attributes buffer reads,
    entries and rows to individual plan operators without the operators
    knowing about each other.

    Domain-safety: counters are {!Atomic.t}s, histogram updates are
    guarded by one mutex (both only when the sink is on), and the
    active trace stack is {e domain-local} — each domain records its
    own span tree, and a finished tree can be grafted into another
    domain's open trace with {!adopt} (how the parallel executor shows
    per-domain path spans under one query trace). The cost record is
    domain-local too, so a span counts its own query's work only. *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false

let with_enabled on f =
  let saved = Atomic.get enabled_flag in
  Atomic.set enabled_flag on;
  Fun.protect ~finally:(fun () -> Atomic.set enabled_flag saved) f

(* Registration tables are touched from whichever domain first names a
   metric (usually all at module-init time on the main domain, but a
   worker may race); one mutex covers both tables. *)
let registry_lock = Mutex.create ()

let registered lock tbl order name make =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some v -> v
      | None ->
        let v = make () in
        Hashtbl.replace tbl name v;
        order := v :: !order;
        v)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

type counter = { c_name : string; c_value : int Atomic.t }

let counter_tbl : (string, counter) Hashtbl.t = Hashtbl.create 32
[@@analyze.guarded_by "registry_lock"]

let counter_order : counter list ref = ref [] [@@analyze.guarded_by "registry_lock"]
(* registration order, reversed *)

let counter name =
  registered registry_lock counter_tbl counter_order name (fun () ->
      { c_name = name; c_value = Atomic.make 0 })

let add c n = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.c_value n)
let incr c = add c 1
let value c = Atomic.get c.c_value
let counters () = List.rev_map (fun c -> (c.c_name, Atomic.get c.c_value)) !counter_order

(* Process-wide totals of the per-query cost record: one [query.<field>]
   counter per {!Tm_exec.Stats} field, added once per finished query
   rather than bumped by the code doing the work. *)
let query_totals =
  List.map
    (fun (name, _) -> counter ("query." ^ name))
    (Tm_exec.Stats.fields (Tm_exec.Stats.create ()))

let add_query st =
  if Atomic.get enabled_flag then
    List.iter2 (fun c (_, v) -> add c v) query_totals (Tm_exec.Stats.fields st)

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

type histogram = {
  h_name : string;
  h_bounds : float array;  (** bucket upper bounds, ascending *)
  h_counts : int array;  (** per bucket, plus one overflow slot *)
  mutable h_sum : float;
  mutable h_count : int;
}

(* Latency-flavoured defaults (milliseconds); row-count histograms pass
   their own bounds. *)
let default_buckets = [| 0.01; 0.05; 0.1; 0.5; 1.0; 5.0; 10.0; 50.0; 100.0; 500.0; 1000.0 |]

let histogram_tbl : (string, histogram) Hashtbl.t = Hashtbl.create 16
[@@analyze.guarded_by "registry_lock"]

let histogram_order : histogram list ref = ref [] [@@analyze.guarded_by "registry_lock"]

let histogram ?(buckets = default_buckets) name =
  registered registry_lock histogram_tbl histogram_order name (fun () ->
      {
        h_name = name;
        h_bounds = buckets;
        h_counts = Array.make (Array.length buckets + 1) 0;
        h_sum = 0.0;
        h_count = 0;
      })

(* Histogram observations are rare next to counter bumps (one per join
   or per parallel task, not per entry), so a single global mutex is
   enough; it is only ever taken when the sink is on. *)
let histogram_lock = Mutex.create ()

let observe h v =
  if Atomic.get enabled_flag then begin
    let n = Array.length h.h_bounds in
    let rec slot i = if i >= n || v <= h.h_bounds.(i) then i else slot (i + 1) in
    let i = slot 0 in
    Mutex.protect histogram_lock (fun () ->
        h.h_counts.(i) <- h.h_counts.(i) + 1;
        h.h_sum <- h.h_sum +. v;
        h.h_count <- h.h_count + 1)
  end

let histograms () = List.rev !histogram_order

(* ------------------------------------------------------------------ *)
(* Warnings                                                            *)
(* ------------------------------------------------------------------ *)

type warning = { w_time : float; w_ctx : int option; w_site : string; w_msg : string }

(* Warnings are rare and operationally important, so they are recorded
   regardless of the enabled flag into a small bounded ring (oldest
   overwritten) and additionally passed to the handler — stderr by
   default, replaced by [serve] with its own collector. *)
let warn_capacity = 256
let warn_lock = Mutex.create ()
let warn_ring : warning option array = Array.make warn_capacity None [@@analyze.guarded_by "warn_lock"]
let warn_written = ref 0 [@@analyze.guarded_by "warn_lock"]

let warn_handler : (warning -> unit) option ref = ref None
[@@analyze.guarded_by "warn_lock"]

let default_warn_handler w = Printf.eprintf "warning: [%s] %s\n%!" w.w_site w.w_msg
let set_warn_handler h = Mutex.protect warn_lock (fun () -> warn_handler := h)

let warn ~site msg =
  let w = { w_time = Unix.gettimeofday (); w_ctx = Context.get (); w_site = site; w_msg = msg } in
  let h =
    Mutex.protect warn_lock (fun () ->
        warn_ring.(!warn_written mod warn_capacity) <- Some w;
        warn_written := !warn_written + 1;
        !warn_handler)
  in
  match h with None -> default_warn_handler w | Some f -> f w

let warnings () =
  Mutex.protect warn_lock (fun () ->
      let n = !warn_written in
      let first = max 0 (n - warn_capacity) in
      List.filter_map
        (fun i -> warn_ring.(i mod warn_capacity))
        (List.init (n - first) (fun k -> first + k)))

(* ------------------------------------------------------------------ *)
(* Gauges                                                              *)
(* ------------------------------------------------------------------ *)

(* A gauge is a registered thunk sampled at export time (journal depth,
   pool occupancy, ...): nothing is recorded on the hot path, so gauges
   are not gated on the enabled flag. *)
type gauge = { g_name : string; g_read : unit -> float }

let gauge_tbl : (string, gauge) Hashtbl.t = Hashtbl.create 8
[@@analyze.guarded_by "registry_lock"]

let gauge_order : gauge list ref = ref [] [@@analyze.guarded_by "registry_lock"]

let gauge name read =
  ignore (registered registry_lock gauge_tbl gauge_order name (fun () -> { g_name = name; g_read = read }))

(* A failing gauge thunk must not take down an export scrape, but the
   failure is not silent either: it lands in the warning ring with the
   gauge's name before the sample degrades to NaN. *)
let gauges () =
  List.rev_map
    (fun g ->
      ( g.g_name,
        try g.g_read ()
        with e ->
          warn ~site:"obs.gauge" (Printf.sprintf "%s: %s" g.g_name (Printexc.to_string e));
          Float.nan ))
    !gauge_order

let reset () =
  List.iter (fun c -> Atomic.set c.c_value 0) !counter_order;
  Mutex.protect histogram_lock (fun () ->
      List.iter
        (fun h ->
          Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
          h.h_sum <- 0.0;
          h.h_count <- 0)
        !histogram_order)

(* ------------------------------------------------------------------ *)
(* Spans and traces                                                    *)
(* ------------------------------------------------------------------ *)

type span = {
  s_name : string;
  mutable s_start_ns : int64;  (** monotonic-clock open time *)
  mutable s_elapsed_ns : int64;
  mutable s_meta : (string * string) list;  (** free-form annotations *)
  mutable s_stats : Tm_exec.Stats.t;  (** the cost record's delta over the span *)
  mutable s_children : span list;  (** execution order once finished *)
}

(* The active trace is a stack of open spans, innermost first, each
   carrying the cost-record snapshot and clock reading taken when it
   opened. Spans outside a {!trace} extent are not recorded (the stack
   is empty). The stack is domain-local: concurrent domains each build
   their own tree and never see each other's open spans. *)
let trace_stack_key : (span * Tm_exec.Stats.t * int64) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let trace_stack () = Domain.DLS.get trace_stack_key

let fresh_span ?(meta = []) name =
  {
    s_name = name;
    s_start_ns = 0L;
    s_elapsed_ns = 0L;
    s_meta = meta;
    s_stats = Tm_exec.Stats.create ();
    s_children = [];
  }

let in_trace () = match !(trace_stack ()) with [] -> false | _ :: _ -> true

let annotate k v =
  match !(trace_stack ()) with
  | (s, _, _) :: _ -> s.s_meta <- s.s_meta @ [ (k, v) ]
  | [] -> ()

let adopt child =
  match !(trace_stack ()) with
  | (s, _, _) :: _ -> s.s_children <- child :: s.s_children
  | [] -> ()

let close_span s snap t0 =
  s.s_elapsed_ns <- Int64.sub (Monotonic_clock.now ()) t0;
  s.s_stats <- Tm_exec.Stats.since snap;
  s.s_children <- List.rev s.s_children

let open_entry s =
  let snap = Tm_exec.Stats.snapshot () in
  let t0 = Monotonic_clock.now () in
  s.s_start_ns <- t0;
  (s, snap, t0)

let with_span ?meta name f =
  let stack = trace_stack () in
  match !stack with
  | [] -> f ()
  | _ :: _ when not (Atomic.get enabled_flag) -> f ()
  | _ :: _ ->
    (* Nested (operator-level) spans deliberately do NOT reach the
       flight recorder: they already live in the trace tree, and at
       ~14 operator spans per query their two emits apiece would
       dominate the timeline and the recorder's hot-path budget. The
       flight ring gets one span pair per trace root (see {!trace}). *)
    let s = fresh_span ?meta name in
    stack := open_entry s :: !stack;
    let finish () =
      match !stack with
      | (s', snap, t0) :: rest when s' == s ->
        close_span s snap t0;
        stack := rest;
        (match rest with
        | (parent, _, _) :: _ -> parent.s_children <- s :: parent.s_children
        | [] -> ())
      | _ -> () (* unbalanced finish; drop the span rather than corrupt the tree *)
    in
    Fun.protect ~finally:finish f

let trace ?meta name f =
  if not (Atomic.get enabled_flag) then (f (), None)
  else begin
    let stack = trace_stack () in
    let root = fresh_span ?meta name in
    let saved = !stack in
    stack := [ open_entry root ];
    Flight.emit Flight.Span_begin 0 0 name;
    let finish () =
      (match !stack with
      | [ (s, snap, t0) ] when s == root ->
        close_span root snap t0;
        Flight.emit Flight.Span_end (Int64.to_int root.s_elapsed_ns) 0 name
      | _ -> ());
      stack := saved
    in
    let v = Fun.protect ~finally:finish f in
    (v, Some root)
  end

let elapsed_ms s = Int64.to_float s.s_elapsed_ns /. 1e6
