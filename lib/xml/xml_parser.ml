(** Parser for the XML subset used by this reproduction.

    Supports: elements, attributes, text content, self-closing tags,
    comments ([<!-- -->]), XML declarations ([<?xml ?>]), and the five
    predefined entities. Not supported (not needed for the paper's
    datasets): DTDs, CDATA, processing instructions beyond the
    declaration, namespaces.

    Multiple top-level elements are accepted (the result is a forest
    under the virtual root), so a "document" here can be a concatenation
    of XML documents, matching the paper's data model of a forest. *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type lexer = { src : string; mutable pos : int }

let peek lx = if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None

let advance lx = lx.pos <- lx.pos + 1

let expect lx c =
  match peek lx with
  | Some c' when c' = c -> advance lx
  | Some c' -> fail "expected %C at offset %d, found %C" c lx.pos c'
  | None -> fail "expected %C at offset %d, found end of input" c lx.pos

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_spaces lx =
  let n = String.length lx.src in
  while lx.pos < n && is_space lx.src.[lx.pos] do
    advance lx
  done

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' -> true
  | _ -> false

let read_name lx =
  let start = lx.pos in
  let n = String.length lx.src in
  while lx.pos < n && is_name_char lx.src.[lx.pos] do
    advance lx
  done;
  if lx.pos = start then fail "expected a name at offset %d" start;
  String.sub lx.src start (lx.pos - start)

let decode_entities s =
  if not (String.contains s '&') then s
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      if s.[!i] = '&' then begin
        let semi =
          match String.index_from_opt s !i ';' with
          | Some j when j - !i <= 6 -> j
          | _ -> fail "unterminated entity at offset %d" !i
        in
        let name = String.sub s (!i + 1) (semi - !i - 1) in
        Buffer.add_string buf
          (match name with
          | "amp" -> "&"
          | "lt" -> "<"
          | "gt" -> ">"
          | "quot" -> "\""
          | "apos" -> "'"
          | _ -> fail "unknown entity &%s;" name);
        i := semi + 1
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  end

let read_until lx stop =
  let start = lx.pos in
  let n = String.length lx.src in
  while lx.pos < n && lx.src.[lx.pos] <> stop do
    advance lx
  done;
  String.sub lx.src start (lx.pos - start)

(* Index of the first occurrence of [needle] in [hay] at or after [from]. *)
let find_substring hay needle from =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go from

let skip_comment_or_decl lx =
  (* Called with lx.pos at '<' and the next char '!' or '?'. *)
  let n = String.length lx.src in
  if lx.pos + 3 < n && String.sub lx.src lx.pos 4 = "<!--" then begin
    match find_substring lx.src "-->" (lx.pos + 4) with
    | Some j -> lx.pos <- j + 3
    | None -> fail "unterminated comment at offset %d" lx.pos
  end
  else begin
    (* <?xml ... ?> or other <! ... > : skip to the closing '>' *)
    ignore (read_until lx '>');
    expect lx '>'
  end

let read_attribute lx =
  let name = read_name lx in
  skip_spaces lx;
  expect lx '=';
  skip_spaces lx;
  let quote =
    match peek lx with
    | Some (('"' | '\'') as q) ->
      advance lx;
      q
    | _ -> fail "expected quote at offset %d" lx.pos
  in
  let value = read_until lx quote in
  expect lx quote;
  Xml_tree.attr name (decode_entities value)

let rec read_element lx =
  expect lx '<';
  let tag = read_name lx in
  let attrs = ref [] in
  let rec attr_loop () =
    skip_spaces lx;
    match peek lx with
    | Some '>' | Some '/' -> ()
    | Some _ ->
      attrs := read_attribute lx :: !attrs;
      attr_loop ()
    | None -> fail "unexpected end of input in tag <%s>" tag
  in
  attr_loop ();
  match peek lx with
  | Some '/' ->
    advance lx;
    expect lx '>';
    Xml_tree.elem tag (List.rev !attrs)
  | Some '>' ->
    advance lx;
    let children = read_content lx tag in
    Xml_tree.elem tag (List.rev !attrs @ children)
  | _ -> fail "malformed tag <%s> at offset %d" tag lx.pos

and read_content lx tag =
  (* Children of <tag> until the matching close tag. *)
  let children = ref [] in
  let finished = ref false in
  while not !finished do
    let chunk = read_until lx '<' in
    let trimmed = String.trim chunk in
    if trimmed <> "" then children := Xml_tree.text (decode_entities trimmed) :: !children;
    (match peek lx with
    | None -> fail "unexpected end of input inside <%s>" tag
    | Some '<' ->
      if lx.pos + 1 < String.length lx.src then begin
        match lx.src.[lx.pos + 1] with
        | '/' ->
          advance lx;
          advance lx;
          let close = read_name lx in
          if close <> tag then fail "mismatched close tag </%s> for <%s>" close tag;
          skip_spaces lx;
          expect lx '>';
          finished := true
        | '!' | '?' -> skip_comment_or_decl lx
        | _ -> children := read_element lx :: !children
      end
      else fail "dangling '<' at end of input"
    | Some _ -> assert false)
  done;
  List.rev !children

(** Parse a string into a {!Xml_tree.document} (forest of roots). *)
let parse src =
  let lx = { src; pos = 0 } in
  let roots = ref [] in
  let rec loop () =
    skip_spaces lx;
    match peek lx with
    | None -> ()
    | Some '<' ->
      (if lx.pos + 1 < String.length lx.src then
         match lx.src.[lx.pos + 1] with
         | '!' | '?' -> skip_comment_or_decl lx
         | _ -> roots := read_element lx :: !roots
       else fail "dangling '<' at end of input");
      loop ()
    | Some c -> fail "unexpected character %C at top level (offset %d)" c lx.pos
  in
  loop ();
  if List.is_empty !roots then fail "no root element found";
  Xml_tree.document (List.rev !roots)
