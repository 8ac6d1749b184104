(* Fixture: names every export of the other fixtures except
   [Bad_unused_export.uncalled], so the unused-export pass has exactly
   one finding in this tree. Nothing ever calls this function. *)

let _ =
 fun () ->
  ignore (Bad_catch_all.first_char "");
  ignore (Bad_failwith.parse "1" + Bad_failwith.positive 1);
  ignore (Bad_global.lookup "k");
  ignore (Bad_io.read { Bad_io.pages = [||] } 0);
  Bad_leak.run ignore;
  Bad_lock_order.ab ();
  Bad_lock_order.ba ();
  ignore (Bad_poly_compare.same_path [] [] && Bad_poly_compare.before 1 2);
  ignore (Bad_swallow.guard ignore);
  ignore (Bad_unused_export.called 1)
