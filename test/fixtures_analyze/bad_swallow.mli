exception Timeout of float

val guard : (unit -> 'a) -> 'a option
