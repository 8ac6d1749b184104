(* Fixture: polymorphic equality at a structured type — the
   poly-compare pass must flag it, and leave the int comparison alone. *)

let same_path (a : int list) b = a = b
let before (a : int) b = a < b
