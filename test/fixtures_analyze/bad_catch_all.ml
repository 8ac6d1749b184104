(* Fixture: a wildcard exception handler — the catch-all pass must flag
   it even though it re-raises (which keeps typed-error quiet). *)

let first_char s = try s.[0] with _ -> raise Not_found
