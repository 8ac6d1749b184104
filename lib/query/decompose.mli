(** Twig decomposition into root-to-leaf linear paths (paper
    Section 2.3) and the anchored pattern matcher used to post-filter
    index rows and locate branch-point positions inside matched data
    paths. *)

type step = { axis : Twig.axis; name : string; uid : int }

type linear = {
  steps : step list;  (** twig root first; never empty *)
  value : string option;  (** equality predicate at the leaf *)
  range : Twig.range option;  (** inequality predicate at the leaf *)
}

val step_uids : linear -> int list

val linear_paths : Twig.t -> linear list
(** All root-to-leaf paths; an internal node with both a value
    predicate and branches contributes an extra path ending there. *)

val deepest_shared_uid : linear -> linear -> int
(** Deepest twig node shared by two paths of the same twig.
    @raise Invalid_argument if they share nothing. *)

(** {1 Patterns over tag ids} *)

type tag_pattern = (Twig.axis * int) array

val wildcard : int
(** Tag id standing for a [*] step: matches any tag. *)

val tag_matches : int -> int -> bool
(** [tag_matches want got]: equality or [want = wildcard]. *)

val match_all : tag_pattern -> int array -> int array list
(** Every way the pattern matches the path with {e both ends anchored}
    (the first step at position 0 unless [Descendant]; the last step at
    the final position). Each result maps pattern index to path
    position. *)

val matches : tag_pattern -> int array -> bool

val child_suffix : tag_pattern -> int array
(** Longest trailing run of concrete [Child]-linked tags, evaluable as
    a B+-tree prefix scan on the reversed schema path; a leading
    [Descendant] step's tag is included, wildcards never are. *)

val is_pcsubpath : tag_pattern -> bool
(** No [Descendant] edges except possibly the first (paper
    Section 2.2), and no wildcards. *)
