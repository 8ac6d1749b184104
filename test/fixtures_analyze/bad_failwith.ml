(* Fixture: Failure raised two ways — the no-failwith pass (lib/core
   only, widened here) must flag the call and the constructor. *)

let parse s = match int_of_string_opt s with Some n -> n | None -> failwith "not a number"
let positive n = if n < 0 then raise (Failure "negative") else n
