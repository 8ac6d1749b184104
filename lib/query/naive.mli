(** Naive in-memory twig matcher — the golden oracle every index-based
    strategy is tested against. *)

val query : Tm_xml.Xml_tree.document -> Twig.t -> int list
(** Sorted, de-duplicated ids of data nodes bound to the twig's output
    node over all matches. *)
