(* Fixture: the same shapes as the bad_* modules, written with the safe
   idioms — every pass must come back empty here. *)

let lock = Mutex.create ()
let table : (string, int) Hashtbl.t = Hashtbl.create 8 [@@analyze.guarded_by "lock"]
let get k = Mutex.protect lock (fun () -> Hashtbl.find_opt table k)
let put k v = Mutex.protect lock (fun () -> Hashtbl.replace table k v)

exception Timeout of float

let guard f = try Some (f ()) with Timeout ms -> raise (Timeout ms)

type color = Red | Green

let is_red c = c = Red
let same_path (a : int list) b = List.equal Int.equal a b
let first_char s = try Some s.[0] with Invalid_argument _ -> None
