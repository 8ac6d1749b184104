(* Fixture: names every export of Clean, so the unused-export pass
   finds none in the clean tree. Nothing ever calls this function. *)

let _ =
 fun () ->
  Clean.put "k" 1;
  ignore (Clean.get "k");
  ignore (Clean.guard ignore);
  ignore (Clean.is_red Clean.Green && Clean.same_path [] []);
  ignore (Clean.first_char "")
