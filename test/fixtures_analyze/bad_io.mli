type t = { mutable pages : bytes array }

val read : t -> int -> bytes
