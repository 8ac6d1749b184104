(** The typed planning request accepted by [Executor.run]. *)

type t =
  | Auto  (** cost-based planner decides (the default) *)
  | Force of Strategy.t  (** execute this strategy, no adaptivity *)
  | Pin of Plan.t  (** execute a previously obtained plan verbatim *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Accepts ["auto"], a bare strategy name (parsed as [Force]), or
    ["force:<strategy>"]. [Pin] has no string form. *)
