(** The typed planning request accepted by [Executor.run]: let the
    cost-based planner decide ([Auto]), force one strategy ([Force]),
    or execute a previously obtained plan verbatim ([Pin]). *)

type t = Auto | Force of Strategy.t | Pin of Plan.t

let to_string = function
  | Auto -> "auto"
  | Force s -> "force:" ^ Strategy.name s
  | Pin p -> "pin:" ^ Strategy.name p.Plan.strategy

let of_string s =
  match s with
  | "auto" | "Auto" | "AUTO" -> Ok Auto
  | _ ->
    let body =
      let prefix = "force:" in
      let pl = String.length prefix in
      if String.length s > pl && String.equal (String.sub s 0 pl) prefix then
        String.sub s pl (String.length s - pl)
      else s
    in
    (match Strategy.of_string body with
    | Ok strat -> Ok (Force strat)
    | Error _ ->
      Error
        (Printf.sprintf
           "unknown hint %S (expected \"auto\", a strategy name among %s, or \"force:<strategy>\")"
           s
           (String.concat ", " (List.map Strategy.name Strategy.all))))
