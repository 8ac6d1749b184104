(* Inputs: the XML texts, the request templates with constants drawn by
   seed from the generated document, and the answers expected for
   them, computed by walking the document — apart from every index. *)

module T = Tm_xml.Xml_tree

let xmark_text ~seed ~scale =
  T.to_string (Tm_datasets.Xmark_gen.generate { Tm_datasets.Xmark_gen.seed; scale })

(* ---- document walking ---------------------------------------------- *)

let is_elem tag (n : T.node) = match n.T.label with T.Elem t -> String.equal t tag | _ -> false
let children tag (n : T.node) = List.filter (is_elem tag) (Array.to_list n.T.children)

let rec path (n : T.node) = function
  | [] -> [ n ]
  | tag :: rest -> List.concat_map (fun c -> path c rest) (children tag n)

let attr name (n : T.node) =
  Array.to_list n.T.children
  |> List.find_map (fun (c : T.node) ->
         match c.T.label with T.Attr a when String.equal a name -> T.leaf_value c | _ -> None)

let ids nodes = List.sort_uniq Int.compare (List.map (fun (n : T.node) -> n.T.id) nodes)

let site (doc : T.document) =
  match Array.to_list doc.T.roots |> List.filter (is_elem "site") with
  | [ s ] -> s
  | _ -> failwith "Inputs.site: the document has no single <site> root"

let rec descendants tag (n : T.node) =
  Array.to_list n.T.children
  |> List.concat_map (fun c -> (if is_elem tag c then [ c ] else []) @ descendants tag c)

(* Values that occur at most [max_count] times, in document order,
   each with the nodes that carry it. *)
let rare ~max_count (pairs : (string * T.node) list) =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun (v, n) -> Hashtbl.replace tbl v (n :: Option.value ~default:[] (Hashtbl.find_opt tbl v)))
    pairs;
  let seen = Hashtbl.create 1024 in
  List.filter_map
    (fun (v, _) ->
      let ns = Hashtbl.find tbl v in
      if List.length ns <= max_count && not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        Some (v, List.rev ns)
      end
      else None)
    pairs

let with_attr name nodes =
  List.filter_map (fun n -> Option.map (fun v -> (v, n)) (attr name n)) nodes

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let draw st k l =
  let a = Array.of_list l in
  shuffle st a;
  Array.to_list (Array.sub a 0 (min k (Array.length a)))

(* ---- served templates (point) --------------------------------------- *)

type request = { xpath : string; expected : int list }

let max_count = 3

let point_requests ~seed ~per_template (doc : T.document) =
  let st = Random.State.make [| seed; 0x5eed |] in
  let s = site doc in
  let persons = path s [ "people"; "person" ] in
  let auctions = path s [ "open_auctions"; "open_auction" ] in
  let items = descendants "item" s in
  (* Fig. 11: a person by @id *)
  let by_id =
    draw st per_template (rare ~max_count (with_attr "id" persons))
    |> List.map (fun (v, ns) ->
           {
              xpath = Printf.sprintf "/site/people/person[@id = '%s']/name" v;
             expected = ids (List.concat_map (children "name") ns);
           })
  in
  (* Fig. 12(a): the Q4x twig by income and increase *)
  let incomes =
    draw st per_template (rare ~max_count (with_attr "income" (List.concat_map (children "profile") persons)))
  in
  let increases = draw st per_template (rare ~max_count (with_attr "increase" auctions)) in
  let q4x =
    List.map2
      (fun (inc, _) (incr, ns) ->
        {
          xpath =
            Printf.sprintf
              "/site[people/person/profile/@income = '%s']/open_auctions/open_auction[@increase = '%s']"
              inc incr;
          expected = ids ns;
        })
      (List.filteri (fun i _ -> i < List.length increases) incomes)
      (List.filteri (fun i _ -> i < List.length incomes) increases)
  in
  (* Fig. 12(d): the Q10x low-branch twig by annotation author *)
  let authored =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun au -> Option.map (fun v -> (v, a)) (attr "person" au))
          (path a [ "annotation"; "author" ]))
      auctions
  in
  let q10x =
    draw st per_template (rare ~max_count authored)
    |> List.map (fun (v, ns) ->
           {
              xpath =
               Printf.sprintf
                 "/site/open_auctions/open_auction[annotation/author/@person = '%s']/time" v;
             expected = ids (List.concat_map (children "time") ns);
           })
  in
  (* Fig. 13: a recursive twig by item id *)
  let fig13 =
    draw st per_template (rare ~max_count (with_attr "id" items))
    |> List.map (fun (v, ns) ->
           {
              xpath = Printf.sprintf "/site//item[@id = '%s']/mailbox/mail/date" v;
             expected = ids (List.concat_map (fun n -> path n [ "mailbox"; "mail"; "date" ]) ns);
           })
  in
  (* interleave the templates: one of each in turn *)
  let rec interleave ls =
    match List.filter (fun l -> l <> []) ls with
    | [] -> []
    | ls -> List.map List.hd ls @ interleave (List.map List.tl ls)
  in
  interleave [ by_id; q4x; q10x; fig13 ]

(* ---- answer properties for the paper's fixed queries (Q10x) ---------- *)

let node_index (doc : T.document) =
  let tbl = Hashtbl.create (doc.T.node_count * 2) in
  T.iter doc (fun n -> if n.T.id <> T.no_id then Hashtbl.replace tbl n.T.id n);
  tbl

(* Sorted, distinct, and every id a node with the output tag that
   satisfies the output node's own predicate. *)
let answer_properties_ok index twig ids =
  let out = Tm_query.Twig.output_node twig in
  let rec sorted = function a :: (b :: _ as r) -> a < b && sorted r | _ -> true in
  sorted ids
  && List.for_all
       (fun id ->
         match Hashtbl.find_opt index id with
         | None -> false
         | Some n ->
           String.equal (T.label_name n) out.Tm_query.Twig.name
           && (match out.Tm_query.Twig.value with
              | None -> true
              | Some v -> Option.equal String.equal (T.leaf_value n) (Some v))
           &&
           match out.Tm_query.Twig.range with
           | None -> true
           | Some r -> (
             match T.leaf_value n with Some v -> Tm_query.Twig.range_matches r v | None -> false))
       ids

(* ---- ingest --------------------------------------------------------- *)

let open_auctions_id doc =
  match path (site doc) [ "open_auctions" ] with
  | [ n ] -> n.T.id
  | _ -> failwith "Inputs.open_auctions_id: no single <open_auctions>"

type auction = { node : T.node; author : string; time : T.node }

(* The n-th auction the ingest sequence inserts: unique author,
   increase and time; the other values drawn from [st]. *)
let new_auction st n =
  let money () = Printf.sprintf "%d.%02d" (1 + Random.State.int st 9999) (Random.State.int st 100) in
  let author = Printf.sprintf "pb_writer%d" n in
  let time = T.elem_text "time" (Printf.sprintf "pb_time%06d" n) in
  let node =
    T.elem "open_auction"
      [
        T.attr "id" (Printf.sprintf "pb_open_auction%d" n);
        T.attr "increase" (Printf.sprintf "%d.%02d" (100_000 + n) (Random.State.int st 100));
        T.elem_text "initial" (money ());
        T.elem_text "current" (money ());
        T.elem "annotation" [ T.elem "author" [ T.attr "person" author ] ];
        time;
      ]
  in
  { node; author; time }

(* The element and attribute nodes of a subtree: what a delete of it
   reports removing. *)
let rec node_count (n : T.node) =
  (match n.T.label with T.Value _ -> 0 | T.Elem _ | T.Attr _ -> 1)
  + Array.fold_left (fun acc c -> acc + node_count c) 0 n.T.children

let author_read author =
  Printf.sprintf "/site/open_auctions/open_auction[annotation/author/@person = '%s']/time" author
