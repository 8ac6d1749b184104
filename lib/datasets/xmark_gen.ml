(** Deterministic XMark-like dataset generator.

    The paper evaluates on the 100 MB XMark auction-site benchmark
    (Section 5.1.1). We cannot ship that dataset, so this generator
    produces a scaled document with the same element hierarchy the
    workload queries traverse, and with value frequencies engineered to
    reproduce the paper's selectivity classes (Figures 7-8):

    - one item with [quantity = '5'] (highly selective, Q1x), a
      moderate ['2'] class (Q2x) and a large ['1'] class (Q3x);
    - one person with [@income = '46814.17'] and one named
      ['Hagen Artosi'] (selective branches, Q4x/Q5x), a ~20% income
      class ['9876.00'] (unselective, Q6x-Q9x);
    - [@increase = '75.00'] rare vs ['3.00'] common (Q4x vs Q8x);
    - exactly three auctions annotated by ['person22082'] (Q10x/Q11x);
    - a rare item category ['category440'] (Q12x/Q13x);
    - two location spellings: ['united states'] concentrated in
      namerica (Q7x) and ['United States'] across regions (Q14x).

    Everything is driven by one PRNG seed, so a (seed, scale) pair
    identifies a dataset exactly. *)

module T = Tm_xml.Xml_tree

type params = {
  seed : int;
  scale : float;  (** 1.0 ~ 30k element nodes *)
}

let n_scaled p base = max 1 (int_of_float (float_of_int base *. p.scale))

let word_pool =
  [|
    "quick"; "auction"; "rare"; "vintage"; "classic"; "mint"; "boxed"; "signed"; "large";
    "small"; "antique"; "modern"; "blue"; "red"; "green"; "heavy"; "light"; "royal"; "grand";
    "plain";
  |]

let first_names = [| "jane"; "john"; "hagen"; "mira"; "olaf"; "petra"; "sven"; "ines"; "takeshi"; "wen" |]
let last_names = [| "doe"; "poe"; "artosi"; "meier"; "smith"; "garcia"; "tanaka"; "olsen"; "kaur"; "li" |]
let countries = [| "germany"; "france"; "japan"; "brazil"; "canada"; "india"; "norway"; "spain" |]

let pick st arr = arr.(Random.State.int st (Array.length arr))

let words st n = String.concat " " (List.init n (fun _ -> pick st word_pool))

let money st = Printf.sprintf "%d.%02d" (1 + Random.State.int st 9999) (Random.State.int st 100)

(* ------------------------------------------------------------------ *)

(* Optional nested description structure (XMark's parlist/listitem
   recursion) — contributes the deep schema-path variety the paper's
   catalog counts (902 distinct paths) come from. *)
let gen_description st =
  if Random.State.float st 1.0 < 0.3 then
    T.elem "description"
      [
        T.elem "parlist"
          (List.init
             (1 + Random.State.int st 2)
             (fun _ ->
               T.elem "listitem"
                 [
                   (if Random.State.float st 1.0 < 0.25 then
                      T.elem "parlist" [ T.elem "listitem" [ T.elem_text "text" (words st 3) ] ]
                    else T.elem_text "text" (words st 3));
                 ]));
      ]
  else T.elem "description" [ T.elem_text "text" (words st 4) ]

let gen_item st ~region ~special_quantity ~special_category =
  let quantity =
    if special_quantity then "5"
    else begin
      let r = Random.State.float st 1.0 in
      if r < 0.51 then "1" else if r < 0.65 then "2" else if r < 0.85 then "3" else "4"
    end
  in
  let location =
    let r = Random.State.float st 1.0 in
    match region with
    | `Namerica -> if r < 0.6 then "united states" else if r < 0.75 then "United States" else pick st countries
    | `Other -> if r < 0.65 then "United States" else pick st countries
  in
  let n_incat = 1 + Random.State.int st 2 in
  let incategories =
    let special = T.elem "incategory" [ T.elem_text "category" "category440" ] in
    let normal () =
      T.elem "incategory" [ T.elem_text "category" (Printf.sprintf "category%d" (Random.State.int st 40)) ]
    in
    if special_category then special :: List.init (n_incat - 1) (fun _ -> normal ())
    else List.init n_incat (fun _ -> normal ())
  in
  let mails =
    List.init
      (1 + Random.State.int st 2)
      (fun i ->
        T.elem "mail"
          [
            T.elem_text "from" (pick st first_names ^ "@" ^ pick st countries ^ ".example");
            T.elem_text "to" (pick st first_names ^ "@" ^ pick st countries ^ ".example");
            T.elem_text "date" (Printf.sprintf "%02d/%02d/2000" (1 + Random.State.int st 12) (1 + (i mod 28)));
          ])
  in
  T.elem "item"
    ([
       T.attr "id" (Printf.sprintf "item%d" (Random.State.int st 1_000_000));
       T.elem_text "location" location;
       T.elem_text "quantity" quantity;
       T.elem_text "name" (words st 2);
       T.elem_text "payment" (if Random.State.bool st then "Creditcard" else "Cash");
       gen_description st;
     ]
    @ incategories
    @ (if Random.State.float st 1.0 < 0.2 then
         [ T.elem "shipping" [ T.elem_text "cost" (money st); T.elem_text "carrier" (pick st countries) ] ]
       else [])
    @ [ T.elem "mailbox" mails ])

let gen_person st ~special_income ~special_name i =
  let income =
    if special_income then "46814.17"
    else if Random.State.float st 1.0 < 0.2 then "9876.00"
    else money st
  in
  let name =
    if special_name then "Hagen Artosi" else pick st first_names ^ " " ^ pick st last_names
  in
  let profile =
    T.elem "profile"
      ([
         T.attr "income" income;
         T.elem_text "interest" (pick st word_pool);
         T.elem_text "education" (if Random.State.bool st then "Graduate School" else "College");
       ]
      @
      if Random.State.float st 1.0 < 0.3 then
        [ T.elem "business" [ T.elem_text "yes_no" (if Random.State.bool st then "Yes" else "No") ] ]
      else [])
  in
  let address =
    if Random.State.float st 1.0 < 0.4 then
      [
        T.elem "address"
          [
            T.elem_text "street" (words st 2);
            T.elem_text "city" (pick st countries);
            T.elem_text "country" (pick st countries);
          ];
      ]
    else []
  in
  let phone = if Random.State.float st 1.0 < 0.25 then [ T.elem_text "phone" (money st) ] else [] in
  let watches =
    if Random.State.float st 1.0 < 0.2 then
      [
        T.elem "watches"
          [ T.elem "watch" [ T.attr "open_auction" (Printf.sprintf "open_auction%d" (Random.State.int st 100)) ] ];
      ]
    else []
  in
  T.elem "person"
    ([
       T.attr "id" (Printf.sprintf "person%d" i);
       T.elem_text "name" name;
       T.elem_text "emailaddress"
         (String.lowercase_ascii (String.map (function ' ' -> '.' | c -> c) name) ^ "@example.org");
       profile;
     ]
    @ address @ phone @ watches)

let gen_open_auction st ~special_annotation ~n_people i =
  let increase =
    let r = Random.State.float st 1.0 in
    if r < 0.012 then "75.00" else if r < 0.45 then "3.00" else money st
  in
  let annot_person =
    if special_annotation then "person22082" else Printf.sprintf "person%d" (Random.State.int st n_people)
  in
  let bidders =
    List.init (Random.State.int st 4) (fun _ ->
        T.elem "bidder"
          [
            T.attr "increase" (if Random.State.float st 1.0 < 0.4 then "3.00" else money st);
            T.elem_text "date" (Printf.sprintf "%02d/%02d/2001" (1 + Random.State.int st 12) (1 + Random.State.int st 28));
          ])
  in
  let optional =
    (if Random.State.float st 1.0 < 0.3 then
       [ T.elem "itemref" [ T.attr "itemid" (Printf.sprintf "item%d" (Random.State.int st 1000)) ] ]
     else [])
    @ (if Random.State.float st 1.0 < 0.3 then
         [ T.elem "seller" [ T.attr "person" (Printf.sprintf "person%d" (Random.State.int st n_people)) ] ]
       else [])
    @ (if Random.State.float st 1.0 < 0.25 then
         [ T.elem "interval" [ T.elem_text "start" "01/01/2001"; T.elem_text "end" "12/31/2001" ] ]
       else [])
    @
    if Random.State.float st 1.0 < 0.2 then [ T.elem_text "privacy" "Yes" ] else []
  in
  T.elem "open_auction"
    ([
       T.attr "id" (Printf.sprintf "open_auction%d" i);
       T.attr "increase" increase;
       T.elem_text "initial" (money st);
       T.elem_text "current" (money st);
       T.elem "annotation" [ T.elem "author" [ T.attr "person" annot_person ] ];
       T.elem_text "time" (Printf.sprintf "%02d:%02d:00" (Random.State.int st 24) (Random.State.int st 60));
     ]
    @ optional @ bidders)

let gen_closed_auction st i =
  T.elem "closed_auction"
    [
      T.attr "id" (Printf.sprintf "closed_auction%d" i);
      T.elem_text "price" (money st);
      T.elem_text "date" (Printf.sprintf "%02d/%02d/1999" (1 + Random.State.int st 12) (1 + Random.State.int st 28));
      T.elem "buyer" [ T.attr "person" (Printf.sprintf "person%d" (Random.State.int st 100)) ];
    ]

(** Generate the document. The special (highly selective) values are
    planted deterministically: item #0 of namerica has quantity 5;
    person #7 has the unique income; person #3 the unique name;
    auctions #1, #2, #3 carry the special annotation; category440 is
    assigned with ~1.5% probability. *)
let generate (p : params) =
  let st = Random.State.make [| p.seed |] in
  let n_na = n_scaled p 550 and n_eu = n_scaled p 400 and n_as = n_scaled p 300 in
  let n_people = n_scaled p 640 in
  (* auctions are the workload's big unselective trunk (Q10x/Q11x pull
     every /time); keeping them numerous is what makes the Figure 12(d)
     merge-join-vs-INLJ tradeoff visible at laptop scale *)
  let n_auctions = max 5 (n_scaled p 1200) in
  let n_closed = n_scaled p 120 in
  let items region n =
    List.init n (fun i ->
        gen_item st ~region
          ~special_quantity:(region = `Namerica && i = 0)
          ~special_category:(Random.State.float st 1.0 < 0.015))
  in
  let region name region n = T.elem name (items region n) in
  let site =
    T.elem "site"
      [
        (* six regions, so a '//item' pattern matches six distinct
           schema paths — the paper's Figure 13 setup ("matches six
           subpaths in the data") *)
        T.elem "regions"
          [
            region "namerica" `Namerica n_na;
            region "europe" `Other n_eu;
            region "asia" `Other n_as;
            region "africa" `Other (n_scaled p 60);
            region "australia" `Other (n_scaled p 40);
            region "samerica" `Other (n_scaled p 80);
          ];
        T.elem "categories"
          (List.init 40 (fun i ->
               T.elem "category" [ T.attr "id" (Printf.sprintf "category%d" i); T.elem_text "name" (words st 1) ]));
        T.elem "people"
          (List.init n_people (fun i ->
               gen_person st ~special_income:(i = 7) ~special_name:(i = 3) i));
        T.elem "open_auctions"
          (List.init n_auctions (fun i ->
               gen_open_auction st ~special_annotation:(i >= 1 && i <= 3) ~n_people i));
        T.elem "closed_auctions" (List.init n_closed (gen_closed_auction st));
      ]
  in
  T.document [ site ]
