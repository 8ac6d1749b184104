(* Admission counter: a fixed number of permits held in one atomic
   counter, taken without blocking ([try_acquire] refusing is the
   shedding signal) and returned by [release]; graceful drain polls for
   the counter to reach zero. *)

type t = { capacity : int; in_use : int Atomic.t }

let create capacity =
  if capacity < 0 then invalid_arg "Semaphore.create: capacity must be >= 0";
  { capacity; in_use = Atomic.make 0 }

let in_use t = Atomic.get t.in_use

let rec try_acquire t =
  let n = Atomic.get t.in_use in
  if n >= t.capacity then false
  else if Atomic.compare_and_set t.in_use n (n + 1) then begin
    Tm_obs.Flight.emit Tm_obs.Flight.Sem_acquire (n + 1) 0 "";
    true
  end
  else try_acquire t

let rec release t =
  let n = Atomic.get t.in_use in
  if n <= 0 then invalid_arg "Semaphore.release: no permit held";
  if not (Atomic.compare_and_set t.in_use n (n - 1)) then release t

(* Sleep quantum for the drain wait: long enough not to burn a core,
   short enough that the drain deadline keeps ms granularity. *)
let poll_s = 0.001

let await_idle ~timeout_ms t =
  let deadline = Int64.add (Monotonic_clock.now ()) (Int64.of_float (timeout_ms *. 1e6)) in
  let rec wait () =
    if in_use t = 0 then true
    else if Int64.compare (Monotonic_clock.now ()) deadline >= 0 then false
    else begin
      Unix.sleepf poll_s;
      wait ()
    end
  in
  wait ()
