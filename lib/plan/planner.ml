(** The cost-based planner: turns per-path estimates into a {!Plan.t}
    by costing every built strategy and picking cover + join order +
    strategy — with a {!Cache} lookup in front keyed by (generation,
    shape). A plan is a function of the estimates alone, so a cached
    plan is exactly what a fresh one would be.

    Mid-query adaptivity contract: the executor watches each path's
    actual binding-relation cardinality against [cover.(i).p_est] and
    abandons the plan once {!should_replan} fires; it then calls
    {!plan} again with [overrides] carrying the observed cardinalities,
    which bypasses the cache (observed numbers are query-specific, not
    shape-general). *)

type path_input = {
  i_label : string;  (** rendered path, for plan display *)
  i_est : int;  (** raw estimate from {!Estimate.path_cardinality} *)
  i_len : int;  (** steps in the path *)
}

(* ------------------------------------------------------------------ *)
(* Replan trigger                                                      *)
(* ------------------------------------------------------------------ *)

let replan_factor = 10

(* Estimates below the floor are treated as the floor: a path estimated
   at 1 row that produces 30 is a huge relative miss but a cheap
   absolute one; replanning costs more than finishing. *)
let replan_floor = 16

let max_replans = 2

let should_replan ~est ~actual = actual > replan_factor * max est replan_floor

(* ------------------------------------------------------------------ *)
(* Plan construction                                                   *)
(* ------------------------------------------------------------------ *)

let cover_of ~overrides paths =
  Array.of_list
    (List.mapi
       (fun i p ->
         let est = Option.value ~default:p.i_est (List.assoc_opt i overrides) in
         { Plan.p_label = p.i_label; p_raw_est = p.i_est; p_est = est })
       paths)

let est_rows_of cover =
  if Int.equal (Array.length cover) 0 then 0
  else Array.fold_left (fun acc (pe : Plan.path_est) -> min acc pe.Plan.p_est) max_int cover

let fresh ~overrides ~shape ~built ~paths =
  let cover = cover_of ~overrides paths in
  let ests = Array.map (fun (pe : Plan.path_est) -> pe.Plan.p_est) cover in
  let lens = Array.of_list (List.map (fun p -> p.i_len) paths) in
  let strategy, cost, rivals, reason = Cost.choose { Cost.ests; lens } ~built in
  let reason =
    match overrides with [] -> reason | _ -> "replanned on observed cardinalities; " ^ reason
  in
  let p =
    {
      Plan.shape;
      strategy;
      cover;
      join_order = Cost.join_order ests;
      est_rows = est_rows_of cover;
      cost;
      rivals;
      cached = false;
      reason;
    }
  in
  (* Fresh builds only — cache hits are the common, uninteresting case.
     [b] > 0 marks a mid-query rebuild on observed cardinalities. *)
  Tm_obs.Flight.emit Tm_obs.Flight.Plan_build p.Plan.est_rows (List.length overrides)
    p.Plan.reason;
  p

(* [paths] is a thunk so a cache hit never pays for estimation: the
   catalog and Edge-table statistics are only consulted on a miss (or
   under overrides, which bypass the cache). *)
let plan ?(overrides = []) ~generation ~shape ~built ~paths () =
  match overrides with
  | _ :: _ -> fresh ~overrides ~shape ~built ~paths:(paths ())
  | [] -> (
    match Cache.find ~generation ~shape with
    | Some p -> p
    | None ->
      let p = fresh ~overrides:[] ~shape ~built ~paths:(paths ()) in
      Cache.store ~generation ~shape p;
      p)

let forced ~shape ~paths strategy =
  let cover = cover_of ~overrides:[] paths in
  let ests = Array.map (fun (pe : Plan.path_est) -> pe.Plan.p_est) cover in
  {
    Plan.shape;
    strategy;
    cover;
    join_order = Cost.join_order ests;
    est_rows = est_rows_of cover;
    cost = 0.0;
    rivals = [];
    cached = false;
    reason = "as requested";
  }
