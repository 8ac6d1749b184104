(** Deterministic DBLP-like bibliography generator: a shallow forest of
    mixed record types (inproceedings dominate) whose year histogram
    yields the paper's Q1d-Q3d selectivity classes (one 1950 record,
    ~1.6% 1979, ~10% 1998). *)

type params = { seed : int; scale : float (** 1.0 ~ 8000 records *) }

val generate : params -> Tm_xml.Xml_tree.document
