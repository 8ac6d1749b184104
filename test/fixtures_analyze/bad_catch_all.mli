val first_char : string -> char
