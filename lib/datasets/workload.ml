(** The paper's query workload (Figures 7, 8 and 10).

    Queries are stated as XPath strings over the generated datasets;
    literal values are the generators' analogues of the paper's
    (Figure 7/8) constants. [group] ties each query to the figure whose
    experiment uses it. *)

type dataset = Xmark | Dblp

type query = {
  name : string;
  dataset : dataset;
  xpath : string;
  branches : int;  (** the paper's "Num. of Branches" axis *)
  group : string;  (** experiment family, see Figure 10 *)
}

let q name dataset xpath branches group = { name; dataset; xpath; branches; group }

(* Single fully-specified path queries, selectivity sweep (Fig. 11). *)
let q1x = q "Q1x" Xmark "/site/regions/namerica/item/quantity[. = '5']" 1 "single-path"
let q2x = q "Q2x" Xmark "/site/regions/namerica/item/quantity[. = '2']" 1 "single-path"
let q3x = q "Q3x" Xmark "/site/regions/namerica/item/quantity[. = '1']" 1 "single-path"
let q1d = q "Q1d" Dblp "/inproceedings/year[. = '1950']" 1 "single-path"
let q2d = q "Q2d" Dblp "/inproceedings/year[. = '1979']" 1 "single-path"
let q3d = q "Q3d" Dblp "/inproceedings/year[. = '1998']" 1 "single-path"

(* Baselines for the branch sweeps: the shared first branch. *)
let base_selective =
  q "B1" Xmark "/site/people/person/profile[@income = '46814.17']" 1 "twig-selective"

let base_unselective =
  q "B2" Xmark "/site/people/person/profile[@income = '9876.00']" 1 "twig-unselective"

(* Twig queries with high branch points (Fig. 12(a)-(c)). *)
let q4x =
  q "Q4x" Xmark
    "/site[people/person/profile/@income = '46814.17']/open_auctions/open_auction[@increase = '75.00']"
    2 "twig-selective"

let q5x =
  q "Q5x" Xmark
    "/site[people/person/profile/@income = '46814.17'][people/person/name = 'Hagen Artosi']/open_auctions/open_auction[@increase = '75.00']"
    3 "twig-selective"

let q6x =
  q "Q6x" Xmark
    "/site[people/person/profile/@income = '9876.00']/open_auctions/open_auction[@increase = '75.00']"
    2 "twig-mixed"

let q7x =
  q "Q7x" Xmark
    "/site[people/person/profile/@income = '9876.00'][regions/namerica/item/location = 'united states']/open_auctions/open_auction[@increase = '75.00']"
    3 "twig-mixed"

let q8x =
  q "Q8x" Xmark
    "/site[people/person/profile/@income = '9876.00']/open_auctions/open_auction[@increase = '3.00']"
    2 "twig-unselective"

let q9x =
  q "Q9x" Xmark
    "/site[people/person/profile/@income = '9876.00'][regions/namerica/item/location = 'united states']/open_auctions/open_auction[@increase = '3.00']"
    3 "twig-unselective"

(* Twig queries with low branch points (Fig. 12(d)). *)
let q10x =
  q "Q10x" Xmark
    "/site/open_auctions/open_auction[annotation/author/@person = 'person22082']/time" 2
    "twig-low-branch"

let q11x =
  q "Q11x" Xmark
    "/site/open_auctions/open_auction[annotation/author/@person = 'person22082'][bidder/@increase = '3.00']/time"
    3 "twig-low-branch"

(* Branching twigs with one recursion (Fig. 8 / Fig. 13). *)
let q12x =
  q "Q12x" Xmark "/site//item[incategory/category = 'category440']/mailbox/mail/date" 2
    "recursive-mixed"

let q13x =
  q "Q13x" Xmark
    "/site//item[incategory/category = 'category440'][mailbox/mail/to]/mailbox/mail/date" 3
    "recursive-mixed"

let q14x =
  q "Q14x" Xmark "/site//item[quantity = '2'][location = 'United States']" 2
    "recursive-unselective"

let q15x =
  q "Q15x" Xmark
    "/site//item[quantity = '2'][location = 'United States']/mailbox/mail/to" 3
    "recursive-unselective"

let all =
  [
    q1x; q2x; q3x; q1d; q2d; q3d; base_selective; base_unselective; q4x; q5x; q6x; q7x; q8x;
    q9x; q10x; q11x; q12x; q13x; q14x; q15x;
  ]

let find name =
  match List.find_opt (fun query -> String.equal query.name name) all with
  | Some query -> query
  | None -> invalid_arg ("Workload.find: unknown query " ^ name)

let xmark_queries = List.filter (fun query -> query.dataset = Xmark) all

(** Section 5.2.4: the recursive variants — the same queries with the
    leading [/] turned into [//]. *)
let recursive_variant query = { query with name = query.name ^ "r"; xpath = "/" ^ query.xpath }

let parse query = Tm_query.Xpath_parser.parse query.xpath
