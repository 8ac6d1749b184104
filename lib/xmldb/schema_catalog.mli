(** In-memory catalog of the distinct rooted schema paths: the
    DataGuide's path set, ASR/JI's relation-per-path inventory, and the
    expansion table for [//] patterns. *)

type entry = {
  path : Schema_path.t;
  path_id : int;  (** dense id, used by Section 4.2 schema compression *)
  mutable instance_count : int;
  mutable value_count : int;
}

type t

val record : t -> Shred.node_info -> unit

val unrecord : t -> Shred.node_info -> unit
(** Reverse of {!record}; entries survive at zero instances so path ids
    stay stable. *)

val build : Dictionary.t -> Tm_xml.Xml_tree.document -> t

val path_count : t -> int
(** Distinct rooted schema paths — the paper's "902 / 235". *)

val entries : t -> entry list
(** In [path_id] order. *)

val find : t -> Schema_path.t -> entry option

val paths_with_suffix : t -> Schema_path.t -> entry list
(** Rooted paths ending with the given tags — the structures a
    [//]-headed pattern must visit (Figure 13's cost driver). *)

val paths_with_prefix : t -> Schema_path.t -> entry list
