(* Tests for the XML-to-relational layer: dictionary, schema paths,
   shredding, Edge table, schema catalog, and the 4-ary path relation —
   including literal checks of the paper's Figures 2, 4 and 5. *)

open Tm_xmldb
module T = Tm_xml.Xml_tree

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* The paper's Figure 1 example: book(1) title(2) allauthors(3)
   author(4) fn(5) ln(6) author(7) fn(8) ln(9) author(10) fn(11) ln(12)
   year(13) under our numbering. *)
let figure1_doc () =
  T.document
    [
      T.elem "book"
        [
          T.elem_text "title" "XML";
          T.elem "allauthors"
            [
              T.elem "author" [ T.elem_text "fn" "jane"; T.elem_text "ln" "poe" ];
              T.elem "author" [ T.elem_text "fn" "john"; T.elem_text "ln" "doe" ];
              T.elem "author" [ T.elem_text "fn" "jane"; T.elem_text "ln" "doe" ];
            ];
          T.elem_text "year" "2000";
        ];
    ]

(* ------------------------------------------------------------------ *)
(* Dictionary                                                          *)
(* ------------------------------------------------------------------ *)

let test_dictionary_intern () =
  let d = Dictionary.create () in
  let a = Dictionary.intern d "book" in
  let b = Dictionary.intern d "title" in
  check Alcotest.int "first id" 0 a;
  check Alcotest.int "second id" 1 b;
  check Alcotest.int "re-intern" a (Dictionary.intern d "book");
  check Alcotest.(option int) "find" (Some b) (Dictionary.find d "title");
  check Alcotest.(option int) "find missing" None (Dictionary.find d "nope");
  check Alcotest.string "name" "book" (Dictionary.name d a);
  check Alcotest.int "count" 2 (Dictionary.tag_count d)

let test_dictionary_capacity_guard () =
  (* interning near the designator space works; names round-trip *)
  let d = Dictionary.create () in
  for i = 0 to 999 do
    ignore (Dictionary.intern d (Printf.sprintf "tag%d" i))
  done;
  check Alcotest.int "count" 1000 (Dictionary.tag_count d);
  check Alcotest.string "name 999" "tag999" (Dictionary.name d 999);
  (match Dictionary.name d 1000 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument past the end");
  check Alcotest.bool "space is large" true (Dictionary.max_tags > 60000)

let test_schema_path_to_string () =
  let d = Dictionary.create () in
  let a = Dictionary.intern d "site" and b = Dictionary.intern d "item" in
  check Alcotest.string "pretty" "/site/item"
    (Schema_path.to_string d (Schema_path.of_list [ a; b ]));
  check Alcotest.string "empty" "/" (Schema_path.to_string d Schema_path.empty)

let test_designator_roundtrip () =
  List.iter
    (fun id ->
      let s = Dictionary.designator id in
      check Alcotest.int "width" 2 (String.length s);
      check Alcotest.int "roundtrip" id (Dictionary.of_designator s 0);
      (* no reserved bytes, so designators embed safely in composite keys *)
      String.iter (fun c -> if Char.code c < 0x04 then Alcotest.fail "reserved byte") s)
    [ 0; 1; 246; 247; 1000; 61008 ]

let prop_designator_order =
  QCheck.Test.make ~name:"designators are order-preserving" ~count:200
    QCheck.(pair (int_bound 60000) (int_bound 60000))
    (fun (a, b) -> compare (Dictionary.designator a) (Dictionary.designator b) = compare a b)

(* ------------------------------------------------------------------ *)
(* Schema paths                                                        *)
(* ------------------------------------------------------------------ *)

let test_schema_path_ops () =
  let p = Schema_path.of_list [ 1; 2; 3; 4 ] in
  check Alcotest.(list int) "reverse" [ 4; 3; 2; 1 ] (Schema_path.to_list (Schema_path.reverse p));
  check Alcotest.(list int) "suffix" [ 3; 4 ] (Schema_path.to_list (Schema_path.suffix p 2));
  check Alcotest.(list int) "drop_last" [ 1; 2 ] (Schema_path.to_list (Schema_path.drop_last p 2));
  check Alcotest.bool "has_suffix yes" true (Schema_path.has_suffix p (Schema_path.of_list [ 3; 4 ]));
  check Alcotest.bool "has_suffix no" false (Schema_path.has_suffix p (Schema_path.of_list [ 2; 4 ]));
  check Alcotest.bool "has_prefix yes" true (Schema_path.has_prefix p (Schema_path.of_list [ 1; 2 ]));
  check Alcotest.bool "empty suffix" true (Schema_path.has_suffix p Schema_path.empty)

let prop_schema_path_encode_roundtrip =
  QCheck.Test.make ~name:"schema path encode/decode roundtrip" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 10) (int_bound 5000))
    (fun tags ->
      let p = Schema_path.of_list tags in
      Schema_path.to_list (Schema_path.decode (Schema_path.encode p)) = tags
      && Schema_path.to_list (Schema_path.decode_reversed (Schema_path.encode_reversed p)) = tags)

let prop_reverse_encoding_is_suffix_prefix =
  (* The heart of the ROOTPATHS trick: [p] ends with [s] iff the reverse
     encoding of [p] starts with the reverse encoding of [s]. *)
  QCheck.Test.make ~name:"reverse encoding turns suffix into prefix" ~count:300
    QCheck.(
      pair (list_of_size Gen.(int_range 0 8) (int_bound 50)) (list_of_size Gen.(int_range 0 8) (int_bound 50)))
    (fun (p, s) ->
      let p = Schema_path.of_list p and s = Schema_path.of_list s in
      let prefix_of a b =
        String.length a <= String.length b && String.sub b 0 (String.length a) = a
      in
      Schema_path.has_suffix p s
      = prefix_of (Schema_path.encode_reversed s) (Schema_path.encode_reversed p))

(* ------------------------------------------------------------------ *)
(* Shredding                                                           *)
(* ------------------------------------------------------------------ *)

let test_shred_figure1 () =
  let doc = figure1_doc () in
  let dict = Dictionary.create () in
  let infos = List.rev (Shred.fold_nodes doc dict (fun acc i -> i :: acc) []) in
  check Alcotest.int "one info per element" 13 (List.length infos);
  (* first node: the book *)
  (match infos with
  | book :: title :: _ ->
    check Alcotest.int "book id" 1 book.Shred.id;
    check Alcotest.int "book parent" 0 book.Shred.parent_id;
    check Alcotest.int "title id" 2 title.Shred.id;
    check Alcotest.int "title parent" 1 title.Shred.parent_id;
    check Alcotest.(option string) "title value" (Some "XML") title.Shred.value;
    check Alcotest.(list int) "title rooted ids" [ 1; 2 ] (Array.to_list title.Shred.ids)
  | _ -> Alcotest.fail "missing infos");
  (* every node's ids end with its own id and follow its ancestors *)
  List.iter
    (fun info ->
      let ids = Array.to_list info.Shred.ids in
      check Alcotest.int "last id is own id" info.Shred.id (List.nth ids (List.length ids - 1));
      check Alcotest.int "path and ids same length" (Schema_path.length info.Shred.path)
        (List.length ids))
    infos

(* ------------------------------------------------------------------ *)
(* Path relation: Figures 2, 4 and 5                                   *)
(* ------------------------------------------------------------------ *)

let row_to_string dict (r : Path_relation.row) =
  Printf.sprintf "%d %s %s [%s]" r.Path_relation.head
    (Schema_path.to_string dict r.Path_relation.schema)
    (Option.value ~default:"null" r.Path_relation.value)
    (String.concat "," (List.map string_of_int r.Path_relation.idlist))

let test_figure4_root_rows () =
  (* Figure 4 lists, among others (translated to our ids):
     B null [1]; TB XML [1,2]; fn-jane rows with full id lists. *)
  let doc = figure1_doc () in
  let dict = Dictionary.create () in
  let rows = Path_relation.root_rows doc dict in
  let strings = List.map (row_to_string dict) rows in
  let expect s =
    if not (List.mem s strings) then
      Alcotest.failf "missing root row %S; have:\n%s" s (String.concat "\n" strings)
  in
  expect "0 /book null [1]";
  expect "0 /book/title XML [1,2]";
  expect "0 /book/allauthors null [1,3]";
  expect "0 /book/allauthors/author/fn jane [1,3,4,5]";
  expect "0 /book/allauthors/author/ln poe [1,3,4,6]";
  expect "0 /book/year 2000 [1,13]";
  (* all heads are the virtual root *)
  List.iter (fun (r : Path_relation.row) -> check Alcotest.int "head" 0 r.Path_relation.head) rows

let test_figure5_subpath_rows () =
  (* Figure 5 adds head-anchored rows: e.g. (translated) allauthors
     itself as "3 /allauthors null []" and "3 /allauthors/author/fn jane
     [4,5]". *)
  let doc = figure1_doc () in
  let dict = Dictionary.create () in
  let rows = Path_relation.all_rows doc dict in
  let strings = List.map (row_to_string dict) rows in
  let expect s =
    if not (List.mem s strings) then Alcotest.failf "missing subpath row %S" s
  in
  expect "1 /book null []";
  expect "1 /book/title XML [2]";
  expect "3 /allauthors null []";
  expect "3 /allauthors/author null [4]";
  expect "3 /allauthors/author/fn jane [4,5]";
  expect "4 /author/fn jane [5]";
  expect "5 /fn jane []"

let test_row_counts () =
  (* Root rows: one per node plus one per valued node. Subpath rows:
     one per (node, ancestor-or-self + virtual root), doubled for
     valued nodes. *)
  let doc = figure1_doc () in
  let dict = Dictionary.create () in
  let nodes = T.element_count doc in
  let valued =
    T.fold doc (fun acc n -> if (not (T.is_value n)) && T.leaf_value n <> None then acc + 1 else acc) 0
  in
  check Alcotest.int "root row count" (nodes + valued)
    (List.length (Path_relation.root_rows doc dict));
  let depth_sum =
    Shred.fold_nodes doc (Dictionary.create ()) (fun acc i -> acc + Array.length i.Shred.ids) 0
  in
  let valued_depth_sum =
    Shred.fold_nodes doc (Dictionary.create ())
      (fun acc i -> if i.Shred.value <> None then acc + Array.length i.Shred.ids else acc)
      0
  in
  (* per node: depth+1 heads; per valued node the same again *)
  check Alcotest.int "subpath row count"
    (depth_sum + nodes + (valued_depth_sum + valued))
    (List.length (Path_relation.all_rows doc dict))

(* ------------------------------------------------------------------ *)
(* Edge table                                                          *)
(* ------------------------------------------------------------------ *)

let make_pool () = Tm_storage.Buffer_pool.create ~capacity:4096 (Tm_storage.Pager.create ())

let test_edge_table_lookups () =
  let doc = figure1_doc () in
  let dict = Dictionary.create () in
  let edge = Edge_table.build (make_pool ()) dict doc in
  let tag name = Option.get (Dictionary.find dict name) in
  check Alcotest.int "edge tuples" 13
    (Tm_storage.Bptree.entry_count (List.nth (Edge_table.indices edge) 2));
  (* value index: paper Section 3.1 value index semantics *)
  check Alcotest.(list int) "fn=jane" [ 5; 11 ] (Edge_table.lookup_value edge ~tag:(tag "fn") ~value:"jane");
  check Alcotest.int "cardinality" 2 (Edge_table.value_cardinality edge ~tag:(tag "fn") ~value:"jane");
  check Alcotest.int "cardinality missing" 0
    (Edge_table.value_cardinality edge ~tag:(tag "fn") ~value:"nobody");
  (* forward link: children of allauthors(3) tagged author *)
  check Alcotest.(list int) "authors" [ 4; 7; 10 ]
    (List.sort compare (Edge_table.children_of edge ~parent:3 ~tag:(tag "author")));
  check Alcotest.(list int) "all children of book" [ 2; 3; 13 ]
    (List.sort compare (Edge_table.all_children edge ~parent:1));
  (* backward link *)
  (match Edge_table.parent_of edge 5 with
  | Some (p, ptag, tag5) ->
    check Alcotest.int "fn parent" 4 p;
    check Alcotest.string "parent tag" "author" (Dictionary.name dict ptag);
    check Alcotest.string "own tag" "fn" (Dictionary.name dict tag5)
  | None -> Alcotest.fail "no parent");
  (match Edge_table.parent_of edge 1 with
  | Some (p, ptag, _) ->
    check Alcotest.int "root parent is virtual" 0 p;
    check Alcotest.int "virtual tag" (-1) ptag
  | None -> Alcotest.fail "no parent for root")

(* The Edge tuple (parent id, parent tag, own tag, value), as pairs of
   pairs so Alcotest can print it. *)
let edge_record =
  let tuple = Alcotest.(option (pair (pair int int) (pair int (option string)))) in
  fun name expected actual ->
    let pairs = Option.map (fun (p, pt, t, v) -> ((p, pt), (t, v))) in
    check tuple name (pairs expected) (pairs actual)

let test_edge_table_node_record () =
  let doc = figure1_doc () in
  let dict = Dictionary.create () in
  let edge = Edge_table.build (make_pool ()) dict doc in
  let tag name = Option.get (Dictionary.find dict name) in
  edge_record "valued leaf fn(5)"
    (Some (4, tag "author", tag "fn", Some "jane"))
    (Edge_table.node_record edge 5);
  edge_record "inner node author(4)"
    (Some (3, tag "allauthors", tag "author", None))
    (Edge_table.node_record edge 4);
  edge_record "root book(1)" (Some (0, -1, tag "book", None)) (Edge_table.node_record edge 1);
  edge_record "no such node" None (Edge_table.node_record edge 99)

(* Indexing a fresh node and un-indexing it again leaves every lookup
   and statistic as it was. *)
let test_edge_table_insert_remove () =
  let doc = figure1_doc () in
  let dict = Dictionary.create () in
  let edge = Edge_table.build (make_pool ()) dict doc in
  let tag name = Option.get (Dictionary.find dict name) in
  let fresh : Shred.node_info =
    {
      id = 14;
      tag = tag "fn";
      parent_id = 4;
      parent_tag = tag "author";
      path = Schema_path.of_list [ tag "book"; tag "allauthors"; tag "author"; tag "fn" ];
      ids = [| 1; 3; 4; 14 |];
      value = Some "jane";
    }
  in
  let jane () = List.sort compare (Edge_table.lookup_value edge ~tag:(tag "fn") ~value:"jane") in
  let fns () = List.sort compare (Edge_table.children_of edge ~parent:4 ~tag:(tag "fn")) in
  let card () = Edge_table.value_cardinality edge ~tag:(tag "fn") ~value:"jane" in
  let parent () = Edge_table.parent_of edge 14 in
  let parent_t = Alcotest.(option (triple int int int)) in
  let ints = Alcotest.(list int) in
  let jane0, fns0, card0, parent0 = (jane (), fns (), card (), parent ()) in
  Edge_table.insert_node edge fresh;
  check ints "inserted: value index" [ 5; 11; 14 ] (jane ());
  check ints "inserted: forward link" [ 5; 14 ] (fns ());
  check Alcotest.int "inserted: cardinality" 3 (card ());
  check parent_t "inserted: backward link" (Some (4, tag "author", tag "fn")) (parent ());
  Edge_table.remove_node edge fresh;
  check ints "value index as before" jane0 (jane ());
  check ints "forward link as before" fns0 (fns ());
  check Alcotest.int "cardinality as before" card0 (card ());
  check parent_t "backward link as before" parent0 (parent ());
  edge_record "no tuple for the removed node" None (Edge_table.node_record edge 14)

(* ------------------------------------------------------------------ *)
(* Schema catalog                                                      *)
(* ------------------------------------------------------------------ *)

let test_catalog () =
  let doc = figure1_doc () in
  let dict = Dictionary.create () in
  let catalog = Schema_catalog.build dict doc in
  (* distinct rooted paths: book, book/title, book/allauthors,
     .../author, .../fn, .../ln, book/year = 7 *)
  check Alcotest.int "distinct paths" 7 (Schema_catalog.path_count catalog);
  let tag name = Option.get (Dictionary.find dict name) in
  let author_path = Schema_path.of_list [ tag "book"; tag "allauthors"; tag "author" ] in
  (match Schema_catalog.find catalog author_path with
  | Some e ->
    check Alcotest.int "author instances" 3 e.Schema_catalog.instance_count;
    check Alcotest.int "no values at author" 0 e.Schema_catalog.value_count
  | None -> Alcotest.fail "author path missing");
  let fn_suffix = Schema_path.of_list [ tag "fn" ] in
  check Alcotest.int "paths ending in fn" 1
    (List.length (Schema_catalog.paths_with_suffix catalog fn_suffix));
  check Alcotest.int "paths under book" 7
    (List.length (Schema_catalog.paths_with_prefix catalog (Schema_path.of_list [ tag "book" ])))

let suite =
  [
    ( "dictionary",
      [
        Alcotest.test_case "intern" `Quick test_dictionary_intern;
        Alcotest.test_case "designator roundtrip" `Quick test_designator_roundtrip;
        Alcotest.test_case "capacity and errors" `Quick test_dictionary_capacity_guard;
        qtest prop_designator_order;
      ] );
    ( "schema_path",
      [
        Alcotest.test_case "operations" `Quick test_schema_path_ops;
        Alcotest.test_case "to_string" `Quick test_schema_path_to_string;
        qtest prop_schema_path_encode_roundtrip;
        qtest prop_reverse_encoding_is_suffix_prefix;
      ] );
    ("shred", [ Alcotest.test_case "figure 1 shredding" `Quick test_shred_figure1 ]);
    ( "path_relation",
      [
        Alcotest.test_case "figure 4 root rows" `Quick test_figure4_root_rows;
        Alcotest.test_case "figure 5 subpath rows" `Quick test_figure5_subpath_rows;
        Alcotest.test_case "row counts" `Quick test_row_counts;
      ] );
    ( "edge_table",
      [
        Alcotest.test_case "lookups" `Quick test_edge_table_lookups;
        Alcotest.test_case "node record" `Quick test_edge_table_node_record;
        Alcotest.test_case "insert then remove" `Quick test_edge_table_insert_remove;
      ] );
    ("catalog", [ Alcotest.test_case "catalog" `Quick test_catalog ]);
  ]

let () = Alcotest.run "tm_xmldb" suite
