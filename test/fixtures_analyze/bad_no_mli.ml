(* Fixture: a module with no interface file — the mli-coverage pass
   must flag it; every other fixture has one. *)

let answer = 42
