(** Per-query execution statistics: the one cost record of a query.

    The paper reports wall-clock time on DB2; our substrate additionally
    exposes the cost drivers directly, which makes the {e reasons} for
    each figure's shape visible: a strategy that does one index lookup
    per branch has [index_lookups] ~ branch count, while an Edge-style
    plan's [join_steps] and [entries_scanned] grow with path length and
    branch selectivity; [logical_reads] are the paper's buffer reads.

    The record is installed in domain-local storage for a query's
    extent, so the code doing the work bumps {!current} where it happens.
    Each pool task installs a record of its own, folded back with
    {!merge_into}: a query's numbers stay exact while others run. *)

type t = {
  mutable index_lookups : int;  (** B+-tree probes (point, range or prefix scans started) *)
  mutable entries_scanned : int;  (** index entries touched by scans *)
  mutable rows_produced : int;  (** rows materialized into binding relations *)
  mutable join_steps : int;  (** joins executed (of any kind) *)
  mutable inlj_probes : int;  (** index-nested-loop probe count *)
  mutable structures_accessed : int;  (** distinct physical structures touched (ASR/JI) *)
  mutable replans : int;  (** mid-query plan abandonments (adaptive replanning) *)
  mutable logical_reads : int;  (** buffer-pool page reads *)
  mutable pool_misses : int;  (** reads not served from a resident frame *)
  mutable minor_words : int;  (** minor-heap words allocated *)
}

let create () =
  {
    index_lookups = 0;
    entries_scanned = 0;
    rows_produced = 0;
    join_steps = 0;
    inlj_probes = 0;
    structures_accessed = 0;
    replans = 0;
    logical_reads = 0;
    pool_misses = 0;
    minor_words = 0;
  }

let merge_into ~into b =
  into.index_lookups <- into.index_lookups + b.index_lookups;
  into.entries_scanned <- into.entries_scanned + b.entries_scanned;
  into.rows_produced <- into.rows_produced + b.rows_produced;
  into.join_steps <- into.join_steps + b.join_steps;
  into.inlj_probes <- into.inlj_probes + b.inlj_probes;
  into.structures_accessed <- into.structures_accessed + b.structures_accessed;
  into.replans <- into.replans + b.replans;
  into.logical_reads <- into.logical_reads + b.logical_reads;
  into.pool_misses <- into.pool_misses + b.pool_misses;
  into.minor_words <- into.minor_words + b.minor_words

let fields s =
  [
    ("index_lookups", s.index_lookups);
    ("entries_scanned", s.entries_scanned);
    ("rows_produced", s.rows_produced);
    ("join_steps", s.join_steps);
    ("inlj_probes", s.inlj_probes);
    ("structures_accessed", s.structures_accessed);
    ("replans", s.replans);
    ("logical_reads", s.logical_reads);
    ("pool_misses", s.pool_misses);
    ("minor_words", s.minor_words);
  ]

(* [Gc.minor_words] reads this domain's live allocation pointer. While a
   record is installed its [minor_words] holds the words so far minus
   this counter at (re)install time, so adding the counter back gives
   the exact value at any instant. Installing a record pauses the outer
   one the same way: a word is charged to the innermost record only, so
   a task run by a helping coordinator is not counted twice once merged.
   Outside every extent a per-domain scratch record is installed, which
   nothing reads. *)
let words () = int_of_float (Gc.minor_words ())

let key =
  Domain.DLS.new_key (fun () ->
      let r = create () in
      r.minor_words <- -words ();
      ref r)

let current () = !(Domain.DLS.get key)

let with_record r f =
  let cell = Domain.DLS.get key in
  let outer = !cell in
  let w = words () in
  outer.minor_words <- outer.minor_words + w;
  r.minor_words <- r.minor_words - w;
  cell := r;
  Fun.protect
    ~finally:(fun () ->
      let w = words () in
      r.minor_words <- r.minor_words + w;
      outer.minor_words <- outer.minor_words - w;
      cell := outer)
    f

let snapshot () =
  let r = current () in
  { r with minor_words = r.minor_words + words () }

let since s0 =
  let s1 = snapshot () in
  {
    index_lookups = s1.index_lookups - s0.index_lookups;
    entries_scanned = s1.entries_scanned - s0.entries_scanned;
    rows_produced = s1.rows_produced - s0.rows_produced;
    join_steps = s1.join_steps - s0.join_steps;
    inlj_probes = s1.inlj_probes - s0.inlj_probes;
    structures_accessed = s1.structures_accessed - s0.structures_accessed;
    replans = s1.replans - s0.replans;
    logical_reads = s1.logical_reads - s0.logical_reads;
    pool_misses = s1.pool_misses - s0.pool_misses;
    minor_words = s1.minor_words - s0.minor_words;
  }

let pool_hit_rate s =
  if s.logical_reads = 0 then None
  else Some (float_of_int (s.logical_reads - s.pool_misses) /. float_of_int s.logical_reads)

let pp ppf s =
  Fmt.pf ppf "lookups=%d scanned=%d rows=%d joins=%d probes=%d structures=%d%s reads=%d misses=%d"
    s.index_lookups s.entries_scanned s.rows_produced s.join_steps s.inlj_probes
    s.structures_accessed
    (if s.replans > 0 then Printf.sprintf " replans=%d" s.replans else "")
    s.logical_reads s.pool_misses
