val lookup : string -> int option
