(* Live updates + the cost-based optimizer.

     dune exec examples/live_updates.exe

   Walks the paper's Section 7 scenario end to end: start from the
   Figure 1 book, let the optimizer explain its plans, insert an author
   into the existing book (maintaining every index incrementally),
   query again, then delete and verify the database is back where it
   started. *)

open Twigmatch
module T = Tm_xml.Xml_tree

let query_str = "/book[title = 'XML']//author[fn = 'jane'][ln = 'doe']"

let show db twig label =
  let r = Executor.run ~hint:Tm_plan.Hint.Auto db twig in
  Printf.printf "%s: %d matches under %s\n  (%s)\n" label (List.length r.Executor.ids)
    (Database.strategy_name r.Executor.strategy) r.Executor.reason;
  r.Executor.ids

let () =
  let doc =
    Tm_xml.Xml_parser.parse
      {|<book>
          <title>XML</title>
          <allauthors>
            <author><fn>jane</fn><ln>poe</ln></author>
            <author><fn>john</fn><ln>doe</ln></author>
          </allauthors>
          <year>2000</year>
        </book>|}
  in
  let db = Database.create doc in
  let twig = Tm_query.Xpath_parser.parse query_str in

  Printf.printf "== plan ==\n%s\n" (Executor.explain ~hint:(Tm_plan.Hint.Force Database.RP) db twig);

  (* 1. No jane doe yet. *)
  ignore (show db twig "before insert");

  (* 2. Insert one (the paper's Section 7 example), updating the Edge
     table, catalog, statistics, ROOTPATHS, DATAPATHS, DataGuide, Index
     Fabric, ASR and Join Indices incrementally. *)
  let allauthors =
    T.fold doc
      (fun acc n -> if T.label_name n = "allauthors" && acc = None then Some n.T.id else acc)
      None
    |> Option.get
  in
  let new_id =
    Updates.insert_subtree db ~parent:allauthors
      (T.elem "author" [ T.elem_text "fn" "jane"; T.elem_text "ln" "doe" ])
  in
  Printf.printf "\ninserted author as node %d\n" new_id;

  (* 3. Every strategy sees her. *)
  let ids = show db twig "after insert" in
  assert (ids = [ new_id ]);
  List.iter
    (fun s ->
      Printf.printf "  %-8s -> [%s]\n" (Database.strategy_name s)
        (String.concat ";" (List.map string_of_int (Executor.run ~hint:(Tm_plan.Hint.Force s) db twig).Executor.ids)))
    Database.all_strategies;

  (* 4. Range query over the updated data. *)
  let range = Tm_query.Xpath_parser.parse "//fn[. >= 'jane'][. <= 'john']" in
  Printf.printf "\n//fn in ['jane','john']: %d matches\n"
    (List.length (Executor.run ~hint:(Tm_plan.Hint.Force Database.RP) db range).Executor.ids);

  (* 5. Delete and verify we are back to the initial answers. *)
  let removed = Updates.delete_subtree db new_id in
  Printf.printf "\ndeleted subtree (%d nodes)\n" removed;
  ignore (show db twig "after delete")
