(** Cost model in "entries touched" units (paper Section 6 crossover):
    RP = sum of branch scans, DP = selective scan + INLJ probes, JI =
    DP with doubled probe cost, Edge = estimate x path length. *)

val costed : Strategy.t list
(** Strategies the Auto planner considers (RP, DP, JI, Edge); the
    simulated comparison points (DG+Edge, IF+Edge, ASR) must be
    forced. *)

type input = {
  ests : int array;  (** per-path estimates, decomposition order *)
  lens : int array;  (** per-path step counts *)
}

val join_order : int array -> int array
(** Path indices sorted by ascending estimate (driver first), stable. *)

val choose :
  input -> built:Strategy.t list -> Strategy.t * float * (Strategy.t * float) list * string
(** Winner, its cost, the full comparison — every costed, built
    strategy, cheapest first, ties broken by {!Strategy.compare} — and
    a one-line reason. *)
