type cls = Outer | Inner
type t = int (* even = Outer, odd = Inner *)

(* The registry maps ticket -> mutex. Cells are [Atomic.t] so the
   lock-free fast path of [mutex_of] can read them from any domain;
   growth copies the cells themselves (not their contents) into a
   larger array, so a cell filled concurrently with a resize is never
   lost. [registry_lock] serializes allocation, growth and fills. *)
let registry : Mutex.t option Atomic.t array Atomic.t = Atomic.make [||]
let registry_lock = Mutex.create ()
let next_outer = ref 0 [@@analyze.guarded_by "registry_lock"]
let next_inner = ref 1 [@@analyze.guarded_by "registry_lock"]

(* Caller holds [registry_lock]. *)
let ensure_capacity id =
  let arr = Atomic.get registry in
  if id >= Array.length arr then begin
    let cap = max 64 (max (id + 1) (2 * Array.length arr)) in
    let bigger =
      Array.init cap (fun i -> if i < Array.length arr then arr.(i) else Atomic.make None)
    in
    Atomic.set registry bigger
  end

(* Caller holds [registry_lock]. *)
let fill_slot id =
  let cell = (Atomic.get registry).(id) in
  (match Atomic.get cell with
  | None -> Atomic.set cell (Some (Mutex.create ()))
  | Some _ -> ());
  cell

(* The fast path allocates nothing: the buffer pool takes a stripe
   lock on every page access. *)
let rec mutex_of id =
  let arr = Atomic.get registry in
  match if id < Array.length arr then Atomic.get arr.(id) else None with
  | Some m -> m
  | None ->
    (* Unregistered ticket (loaded from a snapshot) or a stale read:
       materialize the slot under the registry lock and retry. *)
    Mutex.protect registry_lock (fun () ->
        ensure_capacity id;
        ignore (fill_slot id));
    mutex_of id

let create cls =
  Mutex.protect registry_lock (fun () ->
      let counter = match cls with Outer -> next_outer | Inner -> next_inner in
      let id = !counter in
      counter := id + 2;
      ensure_capacity id;
      ignore (fill_slot id);
      id)

let acquire t = Mutex.lock (mutex_of t)
[@@analyze.manual_lock "split acquire/release primitive; callers pair it or use with_lock"]

let release t = Mutex.unlock (mutex_of t)
[@@analyze.manual_lock "split acquire/release primitive; callers pair it or use with_lock"]

let with_lock t f = Mutex.protect (mutex_of t) f

(* Ascending ticket order, each distinct ticket once: two tickets
   loaded from snapshots may name one mutex, which must not be locked
   twice. *)
let with_all ts f =
  let rec go = function [] -> f () | t :: rest -> with_lock t (fun () -> go rest) in
  go (List.sort_uniq Int.compare ts)
