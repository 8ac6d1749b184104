(** Schema paths: sequences of tag ids (paper Section 3.1).

    A schema path is the structural part of a data path — tags and
    attribute names only, no values. Encoded form is the concatenation
    of 2-byte designators; because designators are fixed width, the
    byte-wise reverse used by ROOTPATHS/DATAPATHS is a unit-wise reverse
    here, and byte-prefix matching on the encoded form is exactly
    unit-prefix matching on the path. *)

type t = int array (* tag ids, outermost first *)

let empty : t = [||]
let length (p : t) = Array.length p
let of_list = Array.of_list
let to_list = Array.to_list

let equal (a : t) (b : t) = Array.length a = Array.length b && Array.for_all2 Int.equal a b

(** Tags from the leaf end upward: [reverse [|b;u;a;f|] = [|f;a;u;b|]]. *)
let reverse (p : t) : t =
  let n = Array.length p in
  Array.init n (fun i -> p.(n - 1 - i))

(** [suffix p k] is the last [k] tags of [p]. *)
let suffix (p : t) k : t =
  let n = Array.length p in
  if k > n then invalid_arg "Schema_path.suffix";
  Array.sub p (n - k) k

(** [drop_last p k] removes the last [k] tags. *)
let drop_last (p : t) k : t =
  let n = Array.length p in
  if k > n then invalid_arg "Schema_path.drop_last";
  Array.sub p 0 (n - k)

(** [has_suffix p s] holds when [p] ends with the tag sequence [s]. *)
let has_suffix (p : t) (s : t) =
  let np = Array.length p and ns = Array.length s in
  np >= ns
  &&
  let rec go i = i >= ns || (p.(np - ns + i) = s.(i) && go (i + 1)) in
  go 0

let has_prefix (p : t) (s : t) =
  let np = Array.length p and ns = Array.length s in
  np >= ns
  &&
  let rec go i = i >= ns || (p.(i) = s.(i) && go (i + 1)) in
  go 0

(** Encoded designator string (2 bytes per tag, order-preserving). *)
let encode (p : t) =
  let buf = Buffer.create (2 * Array.length p) in
  Array.iter (fun tag -> Buffer.add_string buf (Dictionary.designator tag)) p;
  Buffer.contents buf

let encode_reversed (p : t) = encode (reverse p)

let decode s : t =
  let n = String.length s in
  if n mod 2 <> 0 then invalid_arg "Schema_path.decode: odd length";
  Array.init (n / 2) (fun i -> Dictionary.of_designator s (2 * i))

let decode_reversed s = reverse (decode s)

(** Human-readable form, e.g. ["/site/regions/item"]. *)
let to_string dict (p : t) =
  if Array.length p = 0 then "/"
  else
    Array.to_list p |> List.map (Dictionary.name dict) |> String.concat "/" |> ( ^ ) "/"
