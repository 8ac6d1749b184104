(** In-flight binding relations: columns are twig-node uids, rows bind
    them to data-node ids. Twig answers come from natural joins on
    shared columns (the branch points). *)

type t = { columns : int array; rows : int array list }

val create : int array -> int array list -> t
val empty : int array -> t
val cardinality : t -> int
val columns : t -> int array
val column_index : t -> int -> int option

val column_values : t -> int -> int list
(** Sorted distinct values of a column.
    @raise Invalid_argument if absent. *)

val shared_columns : t -> t -> int list
val distinct : t -> t

val hash_join : ?on_result:(unit -> unit) -> t -> t -> t
(** Natural hash join on shared columns (cross product when none).
    Output columns: left's, then right's non-shared. *)

val merge_join : ?on_result:(unit -> unit) -> t -> t -> t
(** Sort-merge natural join; same result as {!hash_join} up to row
    order. Models the paper's ROOTPATHS plans. *)
