(* The harness's own statistics: percentiles, the lower-half median
   and allocation accounting. Pure functions over arrays, so
   they are tested on known inputs (test_pbstats.ml). *)

(* Linear interpolation between the closest ranks of a sorted array:
   p = 0 gives the minimum, p = 1 the maximum. *)
let percentile_sorted (a : float array) p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pbstats.percentile_sorted: empty sample";
  if p < 0.0 || p > 1.0 then invalid_arg "Pbstats.percentile_sorted: p outside [0, 1]";
  let pos = p *. float_of_int (n - 1) in
  let lo = truncate pos in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let sorted_copy a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

let percentile a p = percentile_sorted (sorted_copy a) p
let median a = percentile a 0.5

(* The median of the lower half of [values] (the middle value counts
   as lower): a reading of repeated timings that ignores slow moments
   hitting fewer than half of them. *)
let lower_half_median (values : float array) =
  let n = Array.length values in
  if n = 0 then invalid_arg "Pbstats.lower_half_median: no values";
  median (Array.sub (sorted_copy values) 0 ((n + 1) / 2))

(* Words allocated between two [Gc.counters] readings: minor plus
   major allocations, minus the promoted words counted in both. *)
let words_between (mi0, pr0, ma0) (mi1, pr1, ma1) = mi1 -. mi0 +. (ma1 -. ma0) -. (pr1 -. pr0)

let kb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1024.0

(* Kilobytes per operation from a word total. *)
let kb_per_op ~words ~ops =
  if ops <= 0 then invalid_arg "Pbstats.kb_per_op: no operations";
  kb_of_words (words /. float_of_int ops)

(* Growable float buffer for latency samples. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.0; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n
  let to_array t = Array.sub t.a 0 t.n
end
