val parse : string -> int
val positive : int -> int
