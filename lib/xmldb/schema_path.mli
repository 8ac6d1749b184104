(** Schema paths: tag-id sequences, outermost first (paper Section 3.1).
    The encoded form concatenates 2-byte designators, so byte-prefix
    matching on the reversed encoding is exactly tag-suffix matching on
    the path — the mechanism behind ROOTPATHS/DATAPATHS [//] support. *)

type t = int array

val empty : t
val length : t -> int
val of_list : int list -> t
val to_list : t -> int list
val equal : t -> t -> bool
val reverse : t -> t

val suffix : t -> int -> t
(** Last [k] tags. @raise Invalid_argument if [k > length]. *)

val drop_last : t -> int -> t
val has_suffix : t -> t -> bool
val has_prefix : t -> t -> bool

val encode : t -> string
val encode_reversed : t -> string
val decode : string -> t
(** @raise Invalid_argument on odd-length input. *)

val decode_reversed : string -> t

val to_string : Dictionary.t -> t -> string
(** Human-readable, e.g. ["/site/regions/item"]. *)
