(* Fixture: two exports. Callers names [called]; no other module names
   [uncalled], so the unused-export pass must flag it, at its .mli
   line, and nothing else. *)

let called n = n + 1
let uncalled n = n - 1
