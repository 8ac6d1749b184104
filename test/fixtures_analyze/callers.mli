(* Exports nothing: this module only names the other fixtures' values. *)
