val same_path : int list -> int list -> bool
val before : int -> int -> bool
