(** Deterministic DBLP-like dataset generator.

    The paper's second dataset is a 50 MB DBLP snapshot — a {e shallow}
    bibliography, the structural opposite of XMark's deep nesting
    (Section 5.1.1). We generate a forest of [inproceedings] records
    (the paper's Q1d-Q3d address them as document roots:
    [/inproceedings/year[. = '1950']]), with a year histogram giving
    the three selectivity classes:

    - exactly one record from 1950 (Q1d, result 1);
    - ~1.6% from 1979 (Q2d, moderate);
    - ~10% from 1998 (Q3d, large). *)

module T = Tm_xml.Xml_tree

type params = { seed : int; scale : float (** 1.0 ~ 8000 records *) }

let first_names = [| "a"; "b"; "c"; "d"; "e"; "j"; "k"; "l"; "m"; "r"; "s"; "t" |]

let last_names =
  [|
    "ullman"; "widom"; "gray"; "codd"; "stonebraker"; "bernstein"; "gehrke"; "srivastava";
    "koudas"; "korn"; "chen"; "shanmugasundaram"; "abiteboul"; "buneman"; "suciu"; "vianu";
  |]

let venues =
  [| "SIGMOD"; "VLDB"; "ICDE"; "PODS"; "EDBT"; "ICDT"; "WebDB"; "CIKM"; "KDD"; "SSDBM" |]

let title_words =
  [|
    "indexing"; "query"; "optimization"; "of"; "for"; "parallel"; "distributed"; "relational";
    "semistructured"; "data"; "xml"; "paths"; "twigs"; "joins"; "storage"; "views"; "mining";
    "streams"; "approximate"; "adaptive";
  |]

let pick st arr = arr.(Random.State.int st (Array.length arr))

let year st i =
  if i = 0 then "1950"
  else begin
    let r = Random.State.float st 1.0 in
    if r < 0.016 then "1979"
    else if r < 0.116 then "1998"
    else string_of_int (1960 + Random.State.int st 43)
  end

let generate (p : params) =
  let st = Random.State.make [| p.seed |] in
  let n = max 10 (int_of_float (8000.0 *. p.scale)) in
  let common i =
    let n_authors = 1 + Random.State.int st 3 in
    let authors =
      List.init n_authors (fun _ ->
          T.elem_text "author" (pick st first_names ^ ". " ^ pick st last_names))
    in
    let title =
      String.concat " " (List.init (3 + Random.State.int st 4) (fun _ -> pick st title_words))
    in
    let optional =
      (if Random.State.float st 1.0 < 0.5 then
         [ T.elem_text "ee" (Printf.sprintf "https://doi.example/%d" i) ]
       else [])
      @ (if Random.State.float st 1.0 < 0.2 then [ T.elem_text "url" (Printf.sprintf "db/conf/%d.html" i) ] else [])
      @
      if Random.State.float st 1.0 < 0.1 then [ T.elem_text "note" (pick st title_words) ] else []
    in
    (authors, title, optional)
  in
  let start_page () = 1 + Random.State.int st 400 in
  let pages () =
    let s = start_page () in
    Printf.sprintf "%d-%d" s (s + 8 + Random.State.int st 12)
  in
  (* Q1d-Q3d target inproceedings; records 0..(0.8n) are inproceedings,
     the tail mixes the other DBLP record types for schema variety
     (real DBLP has 235 distinct paths across its record types). *)
  let record i =
    let authors, title, optional = common i in
    let r = if 5 * i < 4 * n then 0 else Random.State.int st 4 + 1 in
    match r with
    | 0 ->
      T.elem "inproceedings"
        ([ T.attr "key" (Printf.sprintf "conf/x/%d" i) ]
        @ authors
        @ [
            T.elem_text "title" title;
            T.elem_text "booktitle" (pick st venues);
            T.elem_text "year" (year st i);
            T.elem_text "pages" (pages ());
          ]
        @ optional)
    | 1 ->
      T.elem "article"
        ([ T.attr "key" (Printf.sprintf "journals/x/%d" i) ]
        @ authors
        @ [
            T.elem_text "title" title;
            T.elem_text "journal" (pick st venues);
            T.elem_text "volume" (string_of_int (1 + Random.State.int st 40));
            T.elem_text "number" (string_of_int (1 + Random.State.int st 12));
            T.elem_text "year" (year st i);
            T.elem_text "pages" (pages ());
          ]
        @ optional)
    | 2 ->
      T.elem "book"
        ([ T.attr "key" (Printf.sprintf "books/x/%d" i) ]
        @ authors
        @ [
            T.elem_text "title" title;
            T.elem_text "publisher" "Example Press";
            T.elem_text "isbn" (Printf.sprintf "0-000-%05d-%d" i (i mod 10));
            T.elem_text "year" (year st i);
          ]
        @ optional)
    | 3 ->
      T.elem "phdthesis"
        ([ T.attr "key" (Printf.sprintf "phd/x/%d" i) ]
        @ authors
        @ [
            T.elem_text "title" title;
            T.elem_text "school" "Example University";
            T.elem_text "year" (year st i);
          ])
    | _ ->
      T.elem "incollection"
        ([ T.attr "key" (Printf.sprintf "coll/x/%d" i) ]
        @ authors
        @ [
            T.elem_text "title" title;
            T.elem_text "booktitle" (pick st venues);
            T.elem_text "year" (year st i);
            T.elem_text "pages" (pages ());
            T.elem "crossref" [ T.elem_text "ref" (Printf.sprintf "conf/x/%d" (Random.State.int st n)) ];
          ])
  in
  T.document (List.init n record)
