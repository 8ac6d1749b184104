(** Append-only heap file of variable-length records over pages, for
    base relations (the Edge table, ASR relations). *)

type rid = { page : int; slot : int }
(** Record identifier. *)

type t

val create : name:string -> Buffer_pool.t -> t
val name : t -> string
val record_count : t -> int
val page_count : t -> int
val size_bytes : t -> int

val append : t -> string -> rid
(** Append a record: the current page is decoded, extended and written
    again. @raise Invalid_argument if it cannot fit in one page. *)

val build : name:string -> Buffer_pool.t -> string list -> t
(** A heap file holding the records in order, each page written once.
    Pages break where appending the records one at a time would break
    them, so both files have the same page ids and bytes, and later
    appends continue the last page.
    @raise Invalid_argument, before any page is allocated, if a record
    cannot fit in one page. *)

(** {1 Raw page access (fsck support)} *)

val pages : t -> int list
(** Page ids in allocation order. *)

val records_of_page : t -> int -> (string array, string) result
(** Decode one page afresh; [Error] (rather than an empty page, as the
    read path tolerates) for a missing/corrupt header or truncated
    record. *)
