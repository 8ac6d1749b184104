val ab : unit -> unit
val ba : unit -> unit
