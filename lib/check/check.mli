(** Offline invariant verifier (fsck) for the index family.

    Walks the stored structures of a database — B+-tree pages read
    {e raw}, bypassing the decoded-node cache, so corruption the cache
    would mask is still seen — and reports typed violations with
    page/entry provenance:

    - {e B+-tree invariants}: in-node key ordering, leaf-chain ordering
      across pages, height/entry-count consistency, front-coding
      round-trip, no dangling page ids, no page cycles;
    - {e codec invariants}: delta-encoded IdList monotonicity and
      re-encode round-trip;
    - {e index-family semantics}, cross-checked against the edge table,
      region index and schema catalog: ROOTPATHS holds exactly the
      root-to-leaf prefixes, DATAPATHS the subpath closure,
      |IdList| = |SchemaPath| (paper Section 3.1), and stored id chains
      agree with parent/child edges and region containment;
    - {e the Edge relation}: its value, forward-link and backward-link
      indices hold exactly the entries the document's Edge tuples give
      them ({!Tm_xmldb.Edge_table.expected_entries}).

    Check counters ([check.structures], [check.pages_checked],
    [check.entries_checked], [check.violations]) are recorded through
    {!Tm_obs.Obs}.

    The IdList-level rules assume no [id_keep] pruning was used at build
    time (none of {!Twigmatch.Database}'s configurations uses it); the
    multiset comparison against {!Tm_index.Family.expected_entries} is
    exact under every build option. *)

(** Violation classes. *)
type code =
  | Checksum  (** stored page image fails its CRC32, or reading it raised [Corrupt_page] *)
  | Page_bounds  (** page id outside the pager's allocated range *)
  | Page_cycle  (** a page reachable twice in one tree walk *)
  | Page_decode  (** stored page image does not decode *)
  | Key_order  (** in-node key order or separator-bound breach *)
  | Leaf_chain  (** broken next pointer / cross-leaf ordering *)
  | Balance  (** leaves at different depths, or recorded height wrong *)
  | Entry_count  (** recorded entry count disagrees with the walk *)
  | Roundtrip  (** re-encoding the decoded page differs from the image *)
  | Key_decode  (** entry key does not decode under the member layout *)
  | Idlist_codec  (** IdList payload fails decode or re-encode *)
  | Idlist_order  (** decoded ids not strictly increasing *)
  | Idlist_length  (** |IdList| inconsistent with |SchemaPath| *)
  | Missing_row  (** an expected row is absent from the member or Edge index *)
  | Extra_row  (** the member or Edge index holds a row the document never produced *)
  | Edge_link  (** id chain contradicts parent/child edges or regions *)
  | Catalog  (** a rooted schema path missing from the schema catalog *)

val code_name : code -> string
(** Stable snake_case name (used in text and JSON reports). *)

type location = {
  structure : string;  (** B+-tree name, or ["pager"] for the checksum pass *)
  page : int option;
  entry : int option;  (** slot within the page *)
  key : string option;  (** raw stored key, when one is implicated *)
}

type violation = { code : code; loc : location; detail : string }

type summary = { structures : int; pages : int; entries : int }
(** What was covered, for "checked how much?" accounting. *)

type report = { violations : violation list; summary : summary }

val is_clean : report -> bool

val check_pager : Tm_storage.Pager.t -> violation list
(** Page-image checksum verification only: every allocated page is
    re-read below the buffer pool and compared against its stored
    CRC32 ({!Tm_storage.Pager.verify_page}). Read-only; the pager holds
    every page's only copy, so nothing needs flushing first. *)

val check_tree : Tm_storage.Bptree.t -> violation list
(** Structural B+-tree checks only (raw page walk). *)

val check_database : Twigmatch.Database.t -> report
(** Full verification of every structure the database materialized. *)

val report_to_string : report -> string
(** Human-readable report, one line per violation with provenance. *)

val report_to_json : report -> string
(** [{"clean":bool,"summary":{...},"violations":[...]}] — see the
    README for the schema. *)
