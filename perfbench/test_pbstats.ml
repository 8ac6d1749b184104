(* Tests of the harness's own statistics on arrays with known answers. *)

module P = Pbstats

let failures = ref 0

let close ?(eps = 1e-9) name got want =
  if Float.abs (got -. want) > eps then begin
    incr failures;
    Printf.printf "FAIL %s: got %.17g, want %.17g\n" name got want
  end

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let () =
  (* percentiles: linear interpolation between closest ranks *)
  close "p50 of 1..4" (P.percentile [| 4.0; 1.0; 3.0; 2.0 |] 0.5) 2.5;
  close "p0 is the minimum" (P.percentile [| 4.0; 1.0; 3.0 |] 0.0) 1.0;
  close "p100 is the maximum" (P.percentile [| 4.0; 1.0; 3.0 |] 1.0) 4.0;
  let hundred = Array.init 101 (fun i -> float_of_int (100 - i)) in
  close "p99 of 0..100" (P.percentile hundred 0.99) 99.0;
  close "median of one" (P.median [| 7.0 |]) 7.0;
  check "empty sample rejected" (try ignore (P.percentile [||] 0.5); false with Invalid_argument _ -> true);
  (* the lower-half median: restart times read past slow moments *)
  close "lower half of five" (P.lower_half_median [| 0.9; 0.5; 0.7; 0.4; 0.6 |]) 0.5;
  close "lower half of four" (P.lower_half_median [| 4.0; 1.0; 3.0; 2.0 |]) 1.5;
  close "lower half of one" (P.lower_half_median [| 7.0 |]) 7.0;
  check "no values rejected" (try ignore (P.lower_half_median [||]); false with Invalid_argument _ -> true);
  (* bytes per operation *)
  close "words between counter readings" (P.words_between (10.0, 2.0, 5.0) (110.0, 12.0, 25.0)) 110.0;
  close "KB per op" (P.kb_per_op ~words:2048.0 ~ops:2) (1024.0 *. float_of_int (Sys.word_size / 8) /. 1024.0);
  check "no operations rejected" (try ignore (P.kb_per_op ~words:1.0 ~ops:0); false with Invalid_argument _ -> true);
  (* the sample buffer keeps every value through growth *)
  let b = P.Fbuf.create () in
  for i = 1 to 10_000 do P.Fbuf.push b (float_of_int i) done;
  let a = P.Fbuf.to_array b in
  check "buffer keeps every sample" (P.Fbuf.length b = 10_000 && a.(0) = 1.0 && a.(9_999) = 10_000.0);
  if !failures > 0 then exit 1;
  print_endline "pbstats: all checks passed"
