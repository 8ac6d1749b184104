(** XML data model: rooted, ordered, labeled trees (paper Section 2.1).

    Non-leaf nodes are elements and attributes; leaf nodes are string
    values. Element/attribute nodes carry unique ids assigned in
    depth-first pre-order (Figure 1(b)); value leaves carry {!no_id}. A
    {!document} is a forest under a virtual root with id 0. *)

type label =
  | Elem of string  (** element, labeled with its tag *)
  | Attr of string  (** attribute, labeled with its name *)
  | Value of string  (** leaf value (element text or attribute value) *)

type node = { mutable id : int; label : label; mutable children : node array }
(** [children] is mutable to support subtree insertion/deletion
    ({!Twigmatch.Updates}); use the update API rather than mutating
    directly, so indices stay consistent. *)

type document = {
  virtual_root_id : int;  (** always 0 *)
  roots : node array;  (** document roots, children of the virtual root *)
  node_count : int;  (** numbered nodes, including the virtual root *)
}

val no_id : int

(** {1 Constructors} (ids are assigned by {!document}) *)

val elem : string -> node list -> node
val attr : string -> string -> node
(** An attribute with its value leaf. *)

val text : string -> node
val elem_text : string -> string -> node
(** An element with a single text leaf. *)

val document : node list -> document
(** Assign pre-order ids (first root = 1) and wrap the forest. *)

(** {1 Accessors and traversals} *)

val is_value : node -> bool
val label_name : node -> string

val fold_with_ancestors :
  document -> ('a -> ancestors:node list -> node -> 'a) -> 'a -> 'a
(** Pre-order fold with the ancestor chain (nearest first). *)

val fold : document -> ('a -> node -> 'a) -> 'a -> 'a
val iter : document -> (node -> unit) -> unit

val element_count : document -> int
(** Element/attribute nodes, excluding the virtual root. *)

val value_count : document -> int

val depth : document -> int
(** Maximum node depth; a document root has depth 1. *)

val leaf_value : node -> string option
(** The text value directly under a node, if any. *)

val find_by_id : document -> int -> node option
(** Linear scan; for tests and tools. *)

(** {1 Printing} *)

val to_string : document -> string
