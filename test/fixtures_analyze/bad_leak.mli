val run : (unit -> 'a) -> 'a
