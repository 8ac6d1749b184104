(** Per-query execution statistics: the one cost record of a query —
    the cost drivers behind each figure's shape, in the paper's §6
    units. Instrumented code bumps the domain's {!current} record. *)

type t = {
  mutable index_lookups : int;  (** B+-tree probes / scans started *)
  mutable entries_scanned : int;  (** index entries touched *)
  mutable rows_produced : int;  (** rows materialized by joins *)
  mutable join_steps : int;  (** joins executed *)
  mutable inlj_probes : int;  (** index-nested-loop probes *)
  mutable structures_accessed : int;  (** distinct structures touched (ASR/JI) *)
  mutable replans : int;  (** mid-query plan abandonments (adaptive replanning) *)
  mutable logical_reads : int;  (** buffer-pool page reads (the paper's buffer reads) *)
  mutable pool_misses : int;  (** reads not served from a resident frame *)
  mutable minor_words : int;  (** minor-heap words allocated, on every domain that worked *)
}

val create : unit -> t

val merge_into : into:t -> t -> unit
(** Accumulate [b] into [into] in place (folding a pool task's record
    into its query's). *)

val fields : t -> (string * int) list
(** Every field by name, in declaration order. *)

val current : unit -> t
(** The record installed on the calling domain; outside every
    {!with_record} extent, a domain-private scratch record nothing
    reads. *)

val with_record : t -> (unit -> 'a) -> 'a
(** Run with the record installed on this domain, restoring the
    previous one afterwards; it gains the words the domain allocates
    meanwhile, except those charged to a nested record. *)

val snapshot : unit -> t
(** A copy of the installed record, minor words exact at the call. *)

val since : t -> t
(** Field-wise delta of the installed record since a {!snapshot}. *)

val pool_hit_rate : t -> float option
(** Share of reads served from a resident frame ([None] without reads). *)

val pp : Format.formatter -> t -> unit
