(** The paper's query workload (Figures 7, 8, 10), stated as XPath
    strings over the generated datasets. *)

type dataset = Xmark | Dblp

type query = {
  name : string;
  dataset : dataset;
  xpath : string;
  branches : int;  (** the "Num. of Branches" axis *)
  group : string;  (** experiment family *)
}

val all : query list

val find : string -> query
(** @raise Invalid_argument on an unknown name. *)

val xmark_queries : query list

val recursive_variant : query -> query
(** Section 5.2.4: the same query with a leading [//]. *)

val parse : query -> Tm_query.Twig.t
