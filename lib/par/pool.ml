(** Fixed domain pool for fanning independent read-only work — per-path
    index lookups, index-nested-loop probe batches, index-build entry
    generation — across OCaml 5 domains.

    Design:

    - a pool of [jobs - 1] worker domains plus the {e submitting} domain
      share one FIFO task queue; the submitter helps drain the queue
      while it waits ({!await}, {!map}), so a pool of [jobs] executes up
      to [jobs] tasks at once and never idles the caller;
    - tasks are plain closures; results travel through {!future}s, which
      capture exceptions (with their backtraces) and re-raise them at
      the {!await} point;
    - [jobs = 1] degrades to inline execution — no domains are spawned
      and {!map} is [List.map] — so sequential call sites pay nothing;
    - pools are cheap but not free (a domain spawn is ~ms): create one
      per process or benchmark run and reuse it ({!with_pool} for
      scoped use).

    The pool makes no attempt to make the {e work} thread-safe: callers
    hand it closures that must only touch concurrency-safe state (the
    striped {!Tm_storage.Buffer_pool}, locked {!Tm_storage.Bptree}
    decode caches, read-only relations). Observability counters
    ([par.tasks], [par.helped]) are recorded through {!Tm_obs.Obs}. *)

let c_tasks = Tm_obs.Obs.counter "par.tasks"
let c_helped = Tm_obs.Obs.counter "par.helped"
let h_task_ms = Tm_obs.Obs.histogram "par.task.ms"

(* ------------------------------------------------------------------ *)
(* Ambient-context propagators                                         *)
(* ------------------------------------------------------------------ *)

(* Libraries above the pool keep per-domain ambient state (the Obs
   trace context below is built in; Tm_storage's epoch pins are wired
   up by the executor) that must follow a task from the submitting
   domain onto whichever worker runs it. A propagator is a capture
   function, run at submit time on the submitter's domain; it returns a
   wrapper that re-installs the captured state around the task body on
   the executing domain. Registration is append-only and expected at
   module-initialization time. *)
type wrap = { wrap : 'a. (unit -> 'a) -> 'a }

let propagators : (unit -> wrap) list Atomic.t = Atomic.make []

let register_propagator capture =
  let rec add () =
    let cur = Atomic.get propagators in
    if not (Atomic.compare_and_set propagators cur (capture :: cur)) then add ()
  in
  add ()

type task = unit -> unit

type t = {
  jobs : int;
  queue : task Queue.t;
  lock : Mutex.t;
  work_available : Condition.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

type 'a state = Pending | Done of 'a | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  mutable state : 'a state;
  f_lock : Mutex.t;
  f_done : Condition.t;
}

let jobs t = t.jobs

let rec worker_loop t =
  let task =
    Mutex.protect t.lock (fun () ->
        while Queue.is_empty t.queue && not t.stopping do
          Condition.wait t.work_available t.lock
        done;
        if t.stopping && Queue.is_empty t.queue then None else Some (Queue.pop t.queue))
  in
  match task with
  | None -> ()
  | Some task ->
    task ();
    Tm_obs.Obs.incr c_tasks;
    worker_loop t

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      queue = Queue.create ();
      lock = Mutex.create ();
      work_available = Condition.create ();
      stopping = false;
      workers = [];
    }
  in
  t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.protect t.lock (fun () ->
      t.stopping <- true;
      Condition.broadcast t.work_available);
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* ------------------------------------------------------------------ *)
(* Futures                                                             *)
(* ------------------------------------------------------------------ *)

let fulfil fut outcome =
  Mutex.protect fut.f_lock (fun () ->
      fut.state <- outcome;
      Condition.broadcast fut.f_done)

let spawn t f =
  let fut = { state = Pending; f_lock = Mutex.create (); f_done = Condition.create () } in
  (* Capture the submitter's ambient trace context so events recorded
     inside the task — which may run on any worker domain — are
     attributed to the query that submitted it. *)
  let ctx = Tm_obs.Context.get () in
  (* Likewise capture every registered ambient propagator (epoch pins,
     etc.) on the submitting domain, to be re-installed around the body
     on the executing domain. *)
  let wraps = List.map (fun capture -> capture ()) (Atomic.get propagators) in
  let body () =
    let base () = match ctx with None -> f () | Some id -> Tm_obs.Context.with_context id f in
    (List.fold_left (fun k w () -> w.wrap k) base wraps) ()
  in
  let task () =
    let record = Tm_obs.Obs.enabled () in
    let t0 = if record then Monotonic_clock.now () else 0L in
    (* Task begin/end on the executing domain's ring: the post-mortem
       view of which worker was running what when the process died. *)
    (match ctx with
    | Some id -> Tm_obs.Flight.emit_traced id Tm_obs.Flight.Task_begin 0 0 ""
    | None -> Tm_obs.Flight.emit Tm_obs.Flight.Task_begin 0 0 "");
    (match body () with
    | v -> fulfil fut (Done v)
    | exception e -> fulfil fut (Failed (e, Printexc.get_raw_backtrace ())));
    (match ctx with
    | Some id -> Tm_obs.Flight.emit_traced id Tm_obs.Flight.Task_end 0 0 ""
    | None -> Tm_obs.Flight.emit Tm_obs.Flight.Task_end 0 0 "");
    if record then
      Tm_obs.Obs.observe h_task_ms
        (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6)
  in
  if t.jobs = 1 then task ()
  else
    Mutex.protect t.lock (fun () ->
        Queue.push task t.queue;
        Condition.signal t.work_available);
  fut

(* Pop one queued task if any; used by the submitter to help while it
   waits, so the caller's domain is a full member of the pool. *)
let try_help t =
  let task =
    Mutex.protect t.lock (fun () ->
        if Queue.is_empty t.queue then None else Some (Queue.pop t.queue))
  in
  match task with
  | Some task ->
    task ();
    Tm_obs.Obs.incr c_tasks;
    Tm_obs.Obs.incr c_helped;
    true
  | None -> false

let await t fut =
  let rec wait () =
    match fut.state with
    | Done v -> v
    | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
    | Pending ->
      if try_help t then wait ()
      else begin
        (* Nothing to steal: block until this future is fulfilled. The
           state re-check under the future's lock avoids a lost wakeup
           between the Pending read and the wait. *)
        Mutex.protect fut.f_lock (fun () ->
            while (match fut.state with Pending -> true | Done _ | Failed _ -> false) do
              Condition.wait fut.f_done fut.f_lock
            done);
        wait ()
      end
  in
  wait ()

let map t f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs when t.jobs = 1 -> List.map f xs
  | xs ->
    let futures = List.map (fun x -> spawn t (fun () -> f x)) xs in
    List.map (await t) futures

(* ------------------------------------------------------------------ *)
(* Chunking helpers (for batch fan-out of many small work items)        *)
(* ------------------------------------------------------------------ *)

let chunk ~pieces xs =
  if pieces < 1 then invalid_arg "Pool.chunk: pieces must be >= 1";
  let n = List.length xs in
  if n = 0 then []
  else begin
    let pieces = min pieces n in
    let base = n / pieces and extra = n mod pieces in
    (* contiguous slices, sizes differing by at most one *)
    let rec take k xs acc = if k = 0 then (List.rev acc, xs) else
      match xs with [] -> (List.rev acc, []) | x :: tl -> take (k - 1) tl (x :: acc)
    in
    let rec go i xs acc =
      if i >= pieces then List.rev acc
      else begin
        let size = base + if i < extra then 1 else 0 in
        let piece, rest = take size xs [] in
        go (i + 1) rest (piece :: acc)
      end
    in
    go 0 xs []
  end

let map_chunked t f xs =
  if t.jobs = 1 then [ f xs ] else map t f (chunk ~pieces:(t.jobs * 2) xs)

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

let env_jobs () =
  match Sys.getenv_opt "TWIGMATCH_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | Some _ | None -> None)

let default_jobs () = match env_jobs () with Some n -> n | None -> 1
