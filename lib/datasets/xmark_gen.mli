(** Deterministic XMark-like auction-site dataset generator, with value
    frequencies engineered to reproduce the paper's selectivity classes
    (see the implementation header for the full inventory). A
    (seed, scale) pair identifies a dataset exactly. *)

type params = { seed : int; scale : float (** 1.0 ~ 55k element nodes *) }

val generate : params -> Tm_xml.Xml_tree.document
