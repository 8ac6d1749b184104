(* Exports nothing: this module only names Clean's values. *)
