(** The seven indexing strategies (paper Section 5.1.2) as a
    planner-level enum; [Database.strategy] re-exports it transparently,
    so [Strategy.RP] and [Database.RP] are the same constructor. *)

type t = RP | DP | Edge | DG_edge | IF_edge | Asr | Ji

val all : t list
val name : t -> string

val equal : t -> t -> bool

val compare : t -> t -> int
(** The planner's tie-break preference order: RP before DP before JI,
    then the Edge-family strategies. *)

val mem : t -> t list -> bool
(** Typed membership test (no polymorphic comparison). *)

val of_string : string -> (t, string) result
(** Accepts the canonical names ([RP], [DG+Edge], ...) and the
    lower-case / long spellings ([rp], [rootpaths], [dataguide], ...). *)
