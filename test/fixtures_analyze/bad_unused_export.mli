val called : int -> int
val uncalled : int -> int
