(** A chosen physical plan: PCsubpath cover with per-path estimates,
    join order, winning strategy and the cost comparison it won. *)

type path_est = {
  p_label : string;  (** rendered path, e.g. [//site/people/person/name] *)
  p_raw_est : int;  (** estimate straight from catalog / Edge statistics *)
  p_est : int;  (** estimate the plan used: raw, or observed on a replan *)
}

type t = {
  shape : string;  (** normalized twig shape — the cache key *)
  strategy : Strategy.t;
  cover : path_est array;  (** one entry per linear path, decomposition order *)
  join_order : int array;  (** indices into [cover], driver (most selective) first *)
  est_rows : int;  (** estimated result cardinality *)
  cost : float;  (** winning cost, in entries-touched units *)
  rivals : (Strategy.t * float) list;  (** every costed strategy, cheapest first *)
  cached : bool;  (** served from the plan cache *)
  reason : string;  (** one-line justification *)
}

val trivial : shape:string -> strategy:Strategy.t -> string -> t
(** A plan with an empty cover (unknown query tags, pinned defaults). *)

val to_string : t -> string
(** Multi-line operator rendering (shape, join order, costs). *)

val to_json : t -> string
