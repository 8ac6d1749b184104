val get : string -> int option
val put : string -> int -> unit

exception Timeout of float

val guard : (unit -> 'a) -> 'a option

type color = Red | Green

val is_red : color -> bool
val same_path : int list -> int list -> bool
val first_char : string -> char option
