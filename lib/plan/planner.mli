(** The cost-based planner: estimates -> cost model -> cover + join
    order + strategy, behind the (generation, shape) plan cache. *)

type path_input = {
  i_label : string;  (** rendered path, for plan display *)
  i_est : int;  (** raw estimate from {!Estimate.path_cardinality} *)
  i_len : int;  (** steps in the path *)
}

val plan :
  ?overrides:(int * int) list ->
  generation:int ->
  shape:string ->
  built:Strategy.t list ->
  paths:(unit -> path_input list) ->
  unit ->
  Plan.t
(** Plan a twig. Without [overrides], consults and fills the plan
    cache; [paths] is a thunk so a cache hit never pays for
    estimation. [overrides] maps path index -> observed actual
    cardinality (the mid-query replan input) and bypasses the
    cache. *)

val forced : shape:string -> paths:path_input list -> Strategy.t -> Plan.t
(** The plan for an explicitly forced strategy: cover and join order
    are still computed (for display), costs are not. *)

(** {1 Mid-query adaptivity thresholds} *)

val replan_factor : int
(** A path blowing its estimate by more than this factor triggers
    abandonment (the >10x rule). *)

val replan_floor : int
(** Estimates below this are treated as this for the trigger, so tiny
    absolute misses never replan. *)

val max_replans : int
(** Replan attempts per query before the executor commits to whatever
    plan it holds. *)

val should_replan : est:int -> actual:int -> bool
