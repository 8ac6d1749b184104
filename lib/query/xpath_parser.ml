(** Parser for the XPath fragment used in the paper's workload:
    absolute paths with [/] and [//] axes, attribute steps ([@name]),
    and predicates that are relative paths with an optional equality
    comparison to a literal, e.g.

    {[ /site[people/person/profile/@income = '9876.00']
         /open_auctions/open_auction[@increase = '75.00']/time ]}

    Literals may be single-quoted or bare (numbers). [.] refers to the
    current node ([ [. = 'XML'] ] is a value predicate on the step
    itself). The last step of the trunk is the output node. *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type lexer = { src : string; mutable pos : int }

let peek lx = if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None
let peek2 lx = if lx.pos + 1 < String.length lx.src then Some lx.src.[lx.pos + 1] else None
let advance lx = lx.pos <- lx.pos + 1

let skip_spaces lx =
  let n = String.length lx.src in
  while lx.pos < n && (lx.src.[lx.pos] = ' ' || lx.src.[lx.pos] = '\t' || lx.src.[lx.pos] = '\n') do
    advance lx
  done

let expect lx c =
  skip_spaces lx;
  match peek lx with
  | Some c' when c' = c -> advance lx
  | Some c' -> fail "expected %C at offset %d, found %C" c lx.pos c'
  | None -> fail "expected %C, found end of query" c

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true
  | _ -> false

let read_name lx =
  skip_spaces lx;
  (* '@' marks an attribute step; attributes and elements share the
     label namespace in the data model (paper Section 2.1). *)
  (match peek lx with Some '@' -> advance lx | _ -> ());
  match peek lx with
  | Some '*' ->
    (* the wildcard step *)
    advance lx;
    "*"
  | _ ->
    let start = lx.pos in
    let n = String.length lx.src in
    while lx.pos < n && is_name_char lx.src.[lx.pos] do
      advance lx
    done;
    if lx.pos = start then fail "expected a name at offset %d" lx.pos;
    String.sub lx.src start (lx.pos - start)

(* A literal: '...' or a bare token of name-ish characters. *)
let read_literal lx =
  skip_spaces lx;
  match peek lx with
  | Some '\'' ->
    advance lx;
    let start = lx.pos in
    let n = String.length lx.src in
    while lx.pos < n && lx.src.[lx.pos] <> '\'' do
      advance lx
    done;
    if lx.pos >= n then fail "unterminated string literal";
    let s = String.sub lx.src start (lx.pos - start) in
    advance lx;
    s
  | Some _ ->
    let start = lx.pos in
    let n = String.length lx.src in
    while lx.pos < n && (is_name_char lx.src.[lx.pos] || lx.src.[lx.pos] = '.') do
      advance lx
    done;
    if lx.pos = start then fail "expected a literal at offset %d" lx.pos;
    String.trim (String.sub lx.src start (lx.pos - start))
  | None -> fail "expected a literal, found end of query"

let read_axis lx =
  skip_spaces lx;
  match (peek lx, peek2 lx) with
  | Some '/', Some '/' ->
    advance lx;
    advance lx;
    Some Twig.Descendant
  | Some '/', _ ->
    advance lx;
    Some Twig.Child
  | _ -> None

(* steps: (axis, name, predicates) list; predicates attach to their step. *)
type cmp = Ceq | Cge | Cgt | Cle | Clt

type raw_pred =
  | Value_cmp of cmp * string  (** [. <op> 'v'] on the owning step *)
  | Path of (Twig.axis * string * raw_pred list) list * (cmp * string) option

(* Parse a comparison operator if present: =, >=, >, <=, <. *)
let read_cmp lx =
  skip_spaces lx;
  match (peek lx, peek2 lx) with
  | Some '=', _ ->
    advance lx;
    Some Ceq
  | Some '>', Some '=' ->
    advance lx;
    advance lx;
    Some Cge
  | Some '>', _ ->
    advance lx;
    Some Cgt
  | Some '<', Some '=' ->
    advance lx;
    advance lx;
    Some Cle
  | Some '<', _ ->
    advance lx;
    Some Clt
  | _ -> None

let rec read_steps lx ~first_axis =
  let rec go acc axis =
    let name = read_name lx in
    let preds = read_predicates lx in
    let acc = (axis, name, preds) :: acc in
    match read_axis lx with None -> List.rev acc | Some ax -> go acc ax
  in
  go [] first_axis

and read_predicates lx =
  skip_spaces lx;
  match peek lx with
  | Some '[' ->
    advance lx;
    skip_spaces lx;
    let pred =
      match (peek lx, peek2 lx) with
      | Some '.', Some '/' ->
        (* [.//a/b ...] : descendant-axis relative path *)
        advance lx;
        ignore (read_axis lx);
        read_pred_path lx ~first_axis:Twig.Descendant
      | Some '.', _ -> (
        (* [. <op> 'v'] : value/range predicate on the current step *)
        advance lx;
        match read_cmp lx with
        | Some op -> Value_cmp (op, read_literal lx)
        | None -> fail "expected a comparison operator after '.' at offset %d" lx.pos)
      | Some '/', Some '/' ->
        ignore (read_axis lx);
        read_pred_path lx ~first_axis:Twig.Descendant
      | _ -> read_pred_path lx ~first_axis:Twig.Child
    in
    expect lx ']';
    pred :: read_predicates lx
  | _ -> []

and read_pred_path lx ~first_axis =
  let steps = read_steps lx ~first_axis in
  match read_cmp lx with
  | Some op -> Path (steps, Some (op, read_literal lx))
  | None -> Path (steps, None)

(* ------------------------------------------------------------------ *)
(* Raw steps -> twig spec                                              *)
(* ------------------------------------------------------------------ *)

(* Combine the comparison predicates attached to one step into an
   equality value and/or a range (one lower and one upper bound). *)
let combine_cmps name cmps =
  let value = ref None and lo = ref None and hi = ref None in
  List.iter
    (fun (op, v) ->
      match op with
      | Ceq ->
        if Option.is_some !value then fail "conflicting equality predicates on step %s" name;
        value := Some v
      | Cge | Cgt ->
        if Option.is_some !lo then fail "conflicting lower bounds on step %s" name;
        lo := Some { Twig.bval = v; binc = op = Cge }
      | Cle | Clt ->
        if Option.is_some !hi then fail "conflicting upper bounds on step %s" name;
        hi := Some { Twig.bval = v; binc = op = Cle })
    cmps;
  let range =
    match (!lo, !hi) with
    | None, None -> None
    | rlo, rhi -> Some { Twig.rlo; rhi }
  in
  if Option.is_some !value && Option.is_some range then
    fail "step %s mixes equality and range predicates" name;
  (!value, range)

let rec pred_to_branch = function
  | Value_cmp _ -> assert false (* handled by the owning step *)
  | Path (steps, cmp) -> steps_to_spec steps ~cmp ~output_last:false

(* Builds the (axis, spec) for a step chain; returns the axis of the
   first step paired with the nested spec. [cmp] is an optional trailing
   comparison applying to the chain's last step. *)
and steps_to_spec steps ~cmp ~output_last =
  match steps with
  | [] -> assert false
  | [ (axis, name, preds) ] ->
    let value_preds, path_preds =
      List.partition (function Value_cmp _ -> true | Path _ -> false) preds
    in
    let cmps =
      List.filter_map (function Value_cmp (op, v) -> Some (op, v) | Path _ -> None) value_preds
      @ (match cmp with Some c -> [ c ] | None -> [])
    in
    let own_value, own_range = combine_cmps name cmps in
    let branches = List.map pred_to_branch path_preds in
    (axis, Twig.spec ?value:own_value ?range:own_range ~output:output_last name branches)
  | (axis, name, preds) :: rest ->
    let value_preds, path_preds =
      List.partition (function Value_cmp _ -> true | Path _ -> false) preds
    in
    let cmps =
      List.filter_map (function Value_cmp (op, v) -> Some (op, v) | Path _ -> None) value_preds
    in
    let own_value, own_range = combine_cmps name cmps in
    let branches = List.map pred_to_branch path_preds in
    let rest_branch = steps_to_spec rest ~cmp ~output_last in
    (axis, Twig.spec ?value:own_value ?range:own_range name (branches @ [ rest_branch ]))

(** Parse an absolute XPath expression into a twig. *)
let parse src =
  let lx = { src; pos = 0 } in
  let first_axis =
    match read_axis lx with
    | Some ax -> ax
    | None -> fail "query must start with / or //"
  in
  let steps = read_steps lx ~first_axis in
  skip_spaces lx;
  (match peek lx with
  | None -> ()
  | Some c -> fail "trailing garbage %C at offset %d" c lx.pos);
  let root_axis, spec = steps_to_spec steps ~cmp:None ~output_last:true in
  Twig.make root_axis spec
