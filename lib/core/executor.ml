(** Query execution: one physical plan template per indexing strategy,
    mirroring Section 5.1.2 of the paper.

    Every plan follows the same outline — cover the twig with its
    root-to-leaf linear paths (Section 2.3), evaluate each path to a
    binding relation over the twig's branch points plus the output
    node, and stitch the relations together with relational joins —
    but the strategies differ in exactly the ways the paper measures:

    - {b RP} (ROOTPATHS): one index lookup per linear path ([//] heads
      become prefix scans on the reversed schema path); branch-point
      ids come straight out of the stored IdLists; stitching uses
      sort-merge joins.
    - {b DP} (DATAPATHS): evaluates the most selective path as a
      FreeIndex lookup (head = virtual root), then drives
      index-nested-loop joins, probing the BoundIndex with each branch
      id (Section 3.3).
    - {b Edge}: value-index lookup at the leaf, then one join per step
      along the path (backward-link climbs; forward expansion for
      structure-only paths).
    - {b DG+Edge}: DataGuide lookup for structure, value index for the
      predicate, a join to intersect them, then backward-link climbs
      to reach the branch point.
    - {b IF+Edge}: like DG+Edge, but a single Index Fabric lookup
      serves (rooted path, value) pairs.
    - {b ASR}: one relation per rooted schema path; a [//] pattern
      visits one structure per matching path; tuples carry all ids, so
      no climbing is needed.
    - {b JI}: join-index pairs per subpath; intermediate ids require
      one backward/forward lookup per needed position, and [//]
      patterns visit one pair per matching subpath. *)

open Tm_xmldb
open Tm_index
open Tm_query
open Tm_exec

module Cancel = Tm_par.Cancel
module Estimate = Tm_plan.Estimate

(* Pool workers must serve pages at the same epoch as the domain that
   submitted the task: propagate the submitting domain's pin (captured
   at submit time) around every task body. Registration is idempotent
   in effect — capturing an absent pin restores an absent pin. *)
let () =
  Tm_par.Pool.register_propagator (fun () ->
      let pin = Tm_storage.Epoch.capture () in
      { Tm_par.Pool.wrap = (fun f -> Tm_storage.Epoch.restore pin f) })

exception Timeout of { ms : float; stats : Stats.t }
(** The query's deadline expired; [stats] is the work done so far. *)

let () =
  Printexc.register_printer (function
    | Timeout { ms; _ } -> Some (Printf.sprintf "Executor.Timeout(deadline %.0f ms)" ms)
    | _ -> None)

type result = {
  ids : int list;
  stats : Stats.t;
  strategy : Database.strategy;  (** the strategy actually executed *)
  reason : string;  (** why (one line; "as requested" for explicit plans) *)
  fallbacks : (Database.strategy * string) list;
      (** strategies abandoned before [strategy], oldest first, each
          with why its index was unusable *)
  via_naive : bool;  (** true when every indexed strategy was unusable
                         and the naive matcher produced the answer *)
  plan : Tm_plan.Plan.t;
      (** the plan in effect when the answer was produced: cover with
          estimated rows, join order, cost comparison; after a
          mid-query replan this is the {e final} plan *)
  replans : int;  (** mid-query plan abandonments before the answer *)
  trace : Tm_obs.Obs.span option;  (** recorded when the obs sink is on *)
  trace_id : int;  (** process-unique query id (journal / log correlation) *)
}

let c_fallbacks = Tm_obs.Obs.counter "executor.fallbacks"
let h_query_ms = Tm_obs.Obs.histogram "query.ms"
let row_buckets = [| 1.; 10.; 100.; 1_000.; 10_000.; 100_000. |]
let h_merge_ms = Tm_obs.Obs.histogram "join.merge.ms"
let h_hash_ms = Tm_obs.Obs.histogram "join.hash.ms"
let h_merge_rows = Tm_obs.Obs.histogram ~buckets:row_buckets "join.merge.rows"
let h_hash_rows = Tm_obs.Obs.histogram ~buckets:row_buckets "join.hash.rows"

(* ------------------------------------------------------------------ *)
(* Compiled linear paths                                               *)
(* ------------------------------------------------------------------ *)

type cpath = {
  pattern : Decompose.tag_pattern;  (** (axis, tag id) per step, root-anchored *)
  uids : int array;  (** twig uid per step *)
  value : string option;  (** equality predicate at the leaf *)
  range : Twig.range option;  (** inequality predicate at the leaf *)
  needed_idx : int list;  (** step indices bound into the relation, ascending *)
}

(* The relation columns of the steps [needed] (ascending indices). *)
let columns_at cp needed = Array.of_list (List.map (fun i -> cp.uids.(i)) needed)

(* The needed steps of [cp] from step [first] on. *)
let needed_from cp first = List.filter (fun i -> i >= first) cp.needed_idx

(* The twig's linear paths against the dictionary; [None] when a query
   tag is absent from the data, so that any plan answers empty. *)
let compile (db : Database.t) twig =
  let exception Unknown_tag in
  let branch_uids = List.map (fun n -> n.Twig.uid) (Twig.branch_nodes twig) in
  let out_uid = (Twig.output_node twig).Twig.uid in
  let keep = out_uid :: branch_uids in
  match
    Decompose.linear_paths twig
    |> List.map (fun (l : Decompose.linear) ->
           let arr = Array.of_list l.Decompose.steps in
           let pattern =
             Array.map
               (fun (s : Decompose.step) ->
                 if String.equal s.Decompose.name "*" then (s.Decompose.axis, Decompose.wildcard)
                 else
                   match Dictionary.find db.Database.dict s.Decompose.name with
                   | Some t -> (s.Decompose.axis, t)
                   | None -> raise Unknown_tag)
               arr
           in
           let uids = Array.map (fun (s : Decompose.step) -> s.Decompose.uid) arr in
           let needed_idx =
             match
               List.filter (fun i -> List.mem uids.(i) keep) (List.init (Array.length arr) Fun.id)
             with
             | [] -> [ Array.length arr - 1 ]
             | needed -> needed
           in
           { pattern; uids; value = l.Decompose.value; range = l.Decompose.range; needed_idx })
  with
  | cpaths -> Some cpaths
  | exception Unknown_tag -> None

let relation_of_rows cp rows =
  Relation.distinct (Relation.create (columns_at cp cp.needed_idx) rows)

(* The row of the ids [resolve] gives the [needed] steps, if it
   resolves every one (the Edge and JI plans). *)
let resolved_row resolve needed =
  let ids = List.map resolve needed in
  if List.for_all Option.is_some ids then Some (Array.of_list (List.map Option.get ids)) else None

(* A path evaluated per concrete rooted schema path it matches (the
   DataGuide, Index Fabric, ASR and JI plans): the rows [rows path
   positions_list] gives each catalog path and the matches of the
   pattern in it. *)
let per_catalog_path (db : Database.t) cp rows =
  relation_of_rows cp
    (List.concat_map
       (fun ((entry : Schema_catalog.entry), positions_list) ->
         rows entry.Schema_catalog.path positions_list)
       (Estimate.catalog_matches db.Database.catalog cp.pattern))

(* Schema probe for a root-anchored pattern. *)
let schema_probe_of pattern =
  if Decompose.is_pcsubpath pattern && fst pattern.(0) = Twig.Child then
    Family.Exact (Schema_path.of_list (Array.to_list (Array.map snd pattern)))
  else Family.Suffix (Schema_path.of_list (Array.to_list (Decompose.child_suffix pattern)))

(* ------------------------------------------------------------------ *)
(* Shared join pipeline                                                *)
(* ------------------------------------------------------------------ *)

(* One relational join, instrumented: the query's cost record always,
   and — when the obs sink is on — a span plus per-algorithm latency /
   output-row histograms. Every join in every plan goes through here. *)
let join_pair ~kind a b =
  let stats = Stats.current () in
  stats.Stats.join_steps <- stats.Stats.join_steps + 1;
  let rows = ref 0 in
  let on_result () =
    stats.Stats.rows_produced <- stats.Stats.rows_produced + 1;
    incr rows
  in
  let do_join () =
    match kind with
    | `Merge -> Relation.merge_join ~on_result a b
    | `Hash -> Relation.hash_join ~on_result a b
  in
  if not (Tm_obs.Obs.enabled ()) then do_join ()
  else begin
    let name, h_ms, h_rows =
      match kind with
      | `Merge -> ("join:merge", h_merge_ms, h_merge_rows)
      | `Hash -> ("join:hash", h_hash_ms, h_hash_rows)
    in
    Tm_obs.Obs.with_span name (fun () ->
        let t0 = Monotonic_clock.now () in
        let out = do_join () in
        Tm_obs.Obs.observe h_ms
          (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6);
        Tm_obs.Obs.observe h_rows (float_of_int !rows);
        Tm_obs.Obs.annotate "rows" (string_of_int !rows);
        out)
  end

let join_all ~kind relations =
  match relations with
  | [] -> invalid_arg "join_all: no relations"
  | r :: rest -> List.fold_left (fun acc r -> join_pair ~kind acc r) r rest

(* The rendered form of a compiled path, e.g. [//a/b = "v"] — used by
   per-path spans and by {!explain}. *)
let path_label (db : Database.t) cp =
  let tags =
    Array.to_list cp.pattern
    |> List.map (fun (ax, t) ->
           (match ax with Twig.Child -> "/" | Twig.Descendant -> "//")
           ^ if t = Decompose.wildcard then "*" else Dictionary.name db.Database.dict t)
    |> String.concat ""
  in
  tags ^ match cp.value with Some v -> Printf.sprintf " = %S" v | None -> ""

(* Path [i]'s span, "path:N" annotated with the path's pattern, and
   the output cardinality its relation adds to the innermost span. *)
let path_span (db : Database.t) i cp =
  (Printf.sprintf "path:%d" (i + 1), [ ("path", path_label db cp) ])

let with_rows rel =
  if Tm_obs.Obs.in_trace () then
    Tm_obs.Obs.annotate "rows" (string_of_int (Relation.cardinality rel));
  rel

(* Evaluate path [i] of the plan under its span. *)
let eval_spanned (db : Database.t) i cp f =
  if not (Tm_obs.Obs.enabled ()) then f ()
  else
    let name, meta = path_span db i cp in
    Tm_obs.Obs.with_span ~meta name (fun () -> with_rows (f ()))

(* The query's fan-out: [map] ([Tm_par.Pool.map] or [map_chunked])
   runs one pool task per item of [xs]. A task checks the deadline at
   its start — one that begins after it does no work, and Pool.await
   carries the Cancelled exception back to the coordinator — then runs
   [work] under a cost record of its own, traced as a root span on the
   executing domain (named and annotated by [span]) when the sink is
   on. The coordinator grafts the spans and merges the records into the
   query's, in task order. *)
let in_tasks ~cancel map span work xs =
  let results =
    map
      (fun x ->
        Cancel.check cancel;
        let stats = Stats.create () in
        Stats.with_record stats (fun () ->
            if not (Tm_obs.Obs.enabled ()) then (work x, None, stats)
            else
              let name, meta = span x in
              let domain = ("domain", string_of_int (Domain.self () :> int)) in
              let v, trace = Tm_obs.Obs.trace ~meta:(domain :: meta) name (fun () -> work x) in
              (v, trace, stats)))
      xs
  in
  let into = Stats.current () in
  List.map
    (fun (v, span, stats) ->
      Option.iter Tm_obs.Obs.adopt span;
      Stats.merge_into ~into stats;
      v)
    results

(* Evaluate every compiled path to its binding relation — the Section
   5.1.2 per-PCsubpath lookups, which share no state and are the plans'
   natural unit of parallelism. With a pool of more than one job the
   evaluations fan out across domains: each task installs a private
   {!Stats.t} (merged into the query's record afterwards) and records
   its spans under a task-local trace whose root the coordinator adopts
   in path order, so [--analyze] shows the same "path:N" tree annotated
   with the domain that ran it. Relation order always matches [cpaths]
   order.

   [watch i rel] is invoked with each path's index and finished binding
   relation — the mid-query adaptivity probe. It may raise (abandoning
   the attempt); in pool mode the raise propagates out of the task and
   back through [Pool.map]. *)
let eval_paths ?par ~cancel ~watch (db : Database.t) eval cpaths =
  match par with
  | Some pool when Tm_par.Pool.jobs pool > 1 && List.length cpaths > 1 ->
    in_tasks ~cancel (Tm_par.Pool.map pool)
      (fun (i, cp) -> path_span db i cp)
      (fun (i, cp) ->
        let rel = with_rows (eval cp) in
        watch i rel;
        rel)
      (List.mapi (fun i cp -> (i, cp)) cpaths)
  | _ ->
    List.mapi
      (fun i cp ->
        Cancel.check cancel;
        let rel = eval_spanned db i cp (fun () -> eval cp) in
        watch i rel;
        rel)
      cpaths

(* ------------------------------------------------------------------ *)
(* Selectivity estimation (used by DP and JI to pick the driver path)  *)
(* ------------------------------------------------------------------ *)

(* Estimates come from the planner layer (Tm_plan.Estimate), so the
   cost model and the physical operators read the same statistics. *)
let estimate (db : Database.t) cp =
  Estimate.path_cardinality ~catalog:db.Database.catalog ~edge:db.Database.edge
    ~pattern:cp.pattern ~value:cp.value ~range:cp.range

(* ------------------------------------------------------------------ *)
(* Leaf predicates through the Edge table                              *)
(* ------------------------------------------------------------------ *)

let leaf_tag cp = snd cp.pattern.(Array.length cp.pattern - 1)

(* The ids of the [tag] nodes (default: the leaf's tag) that satisfy
   the path's leaf predicate, from the Edge value index in one lookup;
   [None] without a predicate, or for a wildcard, which has no (tag,
   value) key. *)
let value_index_ids ?tag (db : Database.t) cp =
  let tag = Option.value tag ~default:(leaf_tag cp) in
  let lookup f =
    let stats = Stats.current () in
    stats.Stats.index_lookups <- stats.Stats.index_lookups + 1;
    Some (f db.Database.edge)
  in
  match (cp.value, cp.range) with
  | _ when tag = Decompose.wildcard -> None
  | Some value, _ -> lookup (Edge_table.lookup_value ~tag ~value)
  | None, Some r ->
    let lo, hi = Estimate.vbounds r in
    lookup (Edge_table.lookup_value_range ~tag ~lo ~hi)
  | None, None -> None

let id_set ids =
  let set = Hashtbl.create (List.length ids) in
  List.iter (fun i -> Hashtbl.replace set i ()) ids;
  set

(* A wildcard leaf has no (tag, value) key in the value index, so its
   predicate is checked on each candidate's Edge tuple, one lookup
   each; any other leaf passes (the value index already filtered it). *)
let wildcard_leaf_ok (db : Database.t) cp leaf =
  leaf_tag cp <> Decompose.wildcard
  ||
  match (cp.value, cp.range) with
  | None, None -> true
  | value, range -> (
    let stats = Stats.current () in
    stats.Stats.index_lookups <- stats.Stats.index_lookups + 1;
    match (Edge_table.node_value db.Database.edge leaf, value, range) with
    | Some v, Some want, _ -> String.equal v want
    | Some v, None, Some r -> Twig.range_matches r v
    | Some _, None, None | None, _, _ -> false)

(* ------------------------------------------------------------------ *)
(* ROOTPATHS and DATAPATHS: family lookups to binding relations        *)
(* ------------------------------------------------------------------ *)

(* The one family scan-to-relation boundary, staged per path: the
   lookup under a head — ROOTPATHS ([None]), the DATAPATHS FreeIndex
   ([Some 0]) or, [anchored], the BoundIndex probe from binding [Some h].
   Each hit matching [pattern] (step [j] is step [first + j] of [cp])
   binds [cp]'s needed steps from [first] on. An anchored hit's schema
   position 0 is its head, which its stored ids exclude (Figure 5). *)
let family_scan fam cp ~anchored ~first pattern =
  let needed_list = needed_from cp first in
  let needed = Array.of_list needed_list in
  let columns = columns_at cp needed_list in
  let schema = schema_probe_of pattern in
  let bounds = Option.map Estimate.vbounds cp.range in
  fun head ->
    let h = Option.value head ~default:0 in
    let on_hit acc (hit : Family.hit) =
      let schema_tags = Array.of_list (Schema_path.to_list hit.Family.h_schema) in
      let ids = Array.of_list hit.Family.h_ids in
      List.fold_left
        (fun acc positions ->
          Array.map
            (fun i ->
              let p = positions.(i - first) in
              if not anchored then ids.(p) else if p = 0 then h else ids.(p - 1))
            needed
          :: acc)
        acc
        (Decompose.match_all pattern schema_tags)
    in
    let rows =
      match bounds with
      | Some (lo, hi) -> Family.scan_value_range fam ?head ~lo ~hi ~schema on_hit []
      | None -> Family.scan fam ?head ~value:cp.value ~schema on_hit []
    in
    Relation.distinct (Relation.create columns rows)

(* A path evaluated free: ROOTPATHS ([head] [None]) or the DATAPATHS
   FreeIndex ([Some 0]). *)
let free_scan fam ~head cp = family_scan fam cp ~anchored:false ~first:0 cp.pattern head

(* The part of [cp] at or below step [idx_b], re-anchored at that
   step's tag: what an INLJ probe from a binding of step [idx_b]
   matches. *)
let below cp ~idx_b =
  Array.init
    (Array.length cp.pattern - idx_b)
    (fun i -> if i = 0 then (Twig.Child, snd cp.pattern.(idx_b)) else cp.pattern.(idx_b + i))

(* DP's INLJ probes of one path, one BoundIndex probe per branch
   binding, into one relation over the needed steps at or below
   [idx_b]. With a pool, the bindings are fanned out in contiguous
   chunks: each chunk probes under its own Stats record (merged back)
   and records its probe spans under a "probes" trace the coordinator
   adopts beneath the open "path:N" span — so analyze output still
   attributes every probe, now labelled with the domain that ran it. *)
let dp_probe_all ?par ~cancel fam cp ~idx_b b_values =
  let scan = family_scan fam cp ~anchored:true ~first:idx_b (below cp ~idx_b) in
  let probe h =
    let stats = Stats.current () in
    stats.Stats.inlj_probes <- stats.Stats.inlj_probes + 1;
    scan (Some h)
  in
  let probes =
    match par with
    | Some pool when Tm_par.Pool.jobs pool > 1 && List.length b_values > 1 ->
      (* One deadline check per probe chunk: cancellation latency is
         bounded by a chunk of probes, not the whole binding list. *)
      in_tasks ~cancel (Tm_par.Pool.map_chunked pool)
        (fun hs -> ("probes", [ ("probes", string_of_int (List.length hs)) ]))
        (List.rev_map probe) b_values
      |> List.concat
    | _ ->
      List.rev_map
        (fun h ->
          Cancel.check cancel;
          probe h)
        b_values
  in
  List.fold_left
    (fun rel r -> Relation.create (Relation.columns r) (r.Relation.rows @ rel.Relation.rows))
    (Relation.empty (columns_at cp (needed_from cp idx_b)))
    probes

(* ------------------------------------------------------------------ *)
(* Edge plan: per-step joins                                           *)
(* ------------------------------------------------------------------ *)

(* Bottom-up climb from [leaf] along [cp.pattern], enumerating all
   bindings of pattern steps to the leaf's ancestor chain. One backward
   lookup per level climbed (each is a join with the Edge table). *)
let edge_climb (db : Database.t) cp leaf =
  let stats = Stats.current () in
  let edge = db.Database.edge in
  let n = Array.length cp.pattern in
  let parent node =
    stats.Stats.index_lookups <- stats.Stats.index_lookups + 1;
    Edge_table.parent_of edge node
  in
  (* bindings: (pattern idx -> node id) partial maps built leaf-up *)
  let results = ref [] in
  (* [go i node binding]: pattern.(i) is bound to [node]; try to bind
     pattern.(i-1..0) to ancestors of [node]. *)
  let rec go i node binding =
    if i = 0 then begin
      (* anchor check: Child root axis requires node's parent = 0 *)
      match fst cp.pattern.(0) with
      | Twig.Descendant -> results := binding :: !results
      | Twig.Child -> (
        match parent node with
        | Some (0, _, _) -> results := binding :: !results
        | _ -> ())
    end
    else
      match parent node with
      | None -> ()
      | Some (p, ptag, _) when p <> 0 -> (
        let axis, _ = cp.pattern.(i) in
        let want_tag = snd cp.pattern.(i - 1) in
        (match axis with
        | Twig.Child ->
          if Decompose.tag_matches want_tag ptag then go (i - 1) p ((i - 1, p) :: binding)
        | Twig.Descendant ->
          (* the ancestor may be any number of levels up: climb one and
             either bind here or keep climbing with the same step *)
          if Decompose.tag_matches want_tag ptag then go (i - 1) p ((i - 1, p) :: binding);
          go i p binding))
      | Some _ -> () (* reached a document root without binding all steps *)
  in
  (* verify the leaf's own tag *)
  (match Edge_table.parent_of edge leaf with
  | Some (_, _, tag) when Decompose.tag_matches (snd cp.pattern.(n - 1)) tag ->
    stats.Stats.index_lookups <- stats.Stats.index_lookups + 1;
    go (n - 1) leaf [ (n - 1, leaf) ]
  | _ -> ());
  !results

(* A Descendant step at i=0 with a document root: the node itself can be
   a document root; edge_climb's Child anchor handles roots via parent=0.
   For Descendant, any position is fine. *)

(* Top-down evaluation for structure-only paths. *)
let edge_topdown (db : Database.t) cp =
  let stats = Stats.current () in
  let edge = db.Database.edge in
  let expand_children node tag =
    stats.Stats.index_lookups <- stats.Stats.index_lookups + 1;
    if tag = Decompose.wildcard then Edge_table.all_children edge ~parent:node
    else Edge_table.children_of edge ~parent:node ~tag
  in
  (* all strict descendants of [node] with tag [tag]: matching children
     via the forward link, then recurse into every child *)
  let rec descendants_with_tag node tag acc =
    let acc = List.rev_append (expand_children node tag) acc in
    stats.Stats.index_lookups <- stats.Stats.index_lookups + 1;
    List.fold_left
      (fun acc child -> descendants_with_tag child tag acc)
      acc
      (Edge_table.all_children edge ~parent:node)
  in
  let n = Array.length cp.pattern in
  let rec step i frontier =
    (* frontier: (node bound to pattern.(i-1), partial binding) *)
    if i = n then frontier
    else begin
      let axis, tag = cp.pattern.(i) in
      let next =
        List.concat_map
          (fun (node, binding) ->
            let nodes =
              match axis with
              | Twig.Child -> expand_children node tag
              | Twig.Descendant -> descendants_with_tag node tag []
            in
            List.map (fun c -> (c, (i, c) :: binding)) nodes)
          frontier
      in
      stats.Stats.join_steps <- stats.Stats.join_steps + 1;
      step (i + 1) next
    end
  in
  let final = step 0 [ (0, []) ] in
  List.map snd final

let eval_edge_path (db : Database.t) cp =
  let n = Array.length cp.pattern in
  let bindings =
    match value_index_ids db cp with
    | Some leaves -> List.concat_map (fun leaf -> edge_climb db cp leaf) leaves
    | None ->
      (* no predicate, or a wildcard leaf: expand top-down and check the
         leaf's Edge tuple *)
      List.filter
        (fun binding ->
          match List.assoc_opt (n - 1) binding with
          | Some leaf -> wildcard_leaf_ok db cp leaf
          | None -> false)
        (edge_topdown db cp)
  in
  relation_of_rows cp
    (List.filter_map
       (fun binding -> resolved_row (fun i -> List.assoc_opt i binding) cp.needed_idx)
       bindings)

(* ------------------------------------------------------------------ *)
(* DG+Edge and IF+Edge plans                                           *)
(* ------------------------------------------------------------------ *)

(* Climb from a leaf whose full rooted path is a known concrete catalog
   path of [path_len] tags; needed ids sit at known schema positions,
   so the climb is [path_len - 1 - min_needed_pos] backward lookups
   (the paper's "5-way join" when the branch point is 5 levels up). *)
let climb_known_path (db : Database.t) ~path_len ~needed_schema_pos leaf =
  let stats = Stats.current () in
  let edge = db.Database.edge in
  let min_pos = List.fold_left min (path_len - 1) needed_schema_pos in
  let chain = Hashtbl.create 8 in
  Hashtbl.replace chain (path_len - 1) leaf;
  let rec up pos node =
    if pos > min_pos then begin
      stats.Stats.index_lookups <- stats.Stats.index_lookups + 1;
      match Edge_table.parent_of edge node with
      | Some (p, _, _) ->
        Hashtbl.replace chain (pos - 1) p;
        up (pos - 1) p
      | None -> ()
    end
  in
  up (path_len - 1) leaf;
  if List.for_all (Hashtbl.mem chain) needed_schema_pos then
    Some (List.map (Hashtbl.find chain) needed_schema_pos)
  else None

(* Evaluate one linear path via DataGuide or IndexFabric + Edge climbs:
   the instance leaves of each matching concrete rooted schema path,
   filtered by the leaf predicate, climbed to the needed positions. *)
let eval_guide_path (db : Database.t) ~guide ~fabric cp =
  let stats = Stats.current () in
  let leaf_tag = leaf_tag cp in
  let value_set ?tag () = Option.map id_set (value_index_ids ?tag db cp) in
  let leaf_set =
    match fabric with
    | Some _ -> None (* Index Fabric's own scan resolves path + value or range *)
    | None -> value_set () (* a wildcard leaf's: per catalog path below *)
  in
  per_catalog_path db cp (fun path positions_list ->
      let single_ids acc (hit : Family.hit) =
        match hit.Family.h_ids with [ id ] -> id :: acc | _ -> acc
      in
      let schema = Family.Exact path in
      let leaf_ids =
        match (fabric, cp.value, cp.range) with
        | Some fabric, Some _, _ -> Family.scan fabric ~value:cp.value ~schema single_ids []
        | Some fabric, None, Some r ->
          (* Index Fabric key order is (path, value): the range scan
             stays contiguous within this concrete path *)
          let lo, hi = Estimate.vbounds r in
          Family.scan_value_range fabric ~lo ~hi ~schema single_ids []
        | _ -> (
          let structural = Family.scan guide ~value:None ~schema single_ids [] in
          (* a wildcard leaf's concrete tag comes from this catalog path *)
          let set =
            match (leaf_set, List.rev (Schema_path.to_list path)) with
            | None, tag :: _ when leaf_tag = Decompose.wildcard -> value_set ~tag ()
            | set, _ -> set
          in
          match set with
          | Some set ->
            (* the DG (struct) |><| value-index join of Section 5.2.1 *)
            stats.Stats.join_steps <- stats.Stats.join_steps + 1;
            List.filter (Hashtbl.mem set) structural
          | None -> structural)
      in
      (* climb to the needed positions along the known concrete path *)
      let path_len = Schema_path.length path in
      List.concat_map
        (fun positions ->
          let needed_schema_pos = List.map (fun i -> positions.(i)) cp.needed_idx in
          List.filter_map
            (fun leaf ->
              climb_known_path db ~path_len ~needed_schema_pos leaf
              |> Option.map Array.of_list)
            leaf_ids)
        positions_list)

(* ------------------------------------------------------------------ *)
(* ASR plan                                                            *)
(* ------------------------------------------------------------------ *)

let eval_asr_path (db : Database.t) asrs cp =
  per_catalog_path db cp (fun path positions_list ->
      let tuple acc ids = Array.of_list ids :: acc in
      let tuples =
        match cp.range with
        | Some r ->
          let lo, hi = Estimate.vbounds r in
          Asr.scan_relation_range asrs ~path ~lo ~hi tuple []
        | None ->
          Asr.scan_relation asrs ~path
            ?value:(match cp.value with Some v -> Some (Some v) | None -> Some None)
            tuple []
      in
      List.concat_map
        (fun positions ->
          List.map
            (fun ids -> Array.of_list (List.map (fun i -> ids.(positions.(i))) cp.needed_idx))
            tuples)
        positions_list)

(* ------------------------------------------------------------------ *)
(* JI plan                                                             *)
(* ------------------------------------------------------------------ *)

(* The id at schema position [pos] of the instance of materialized
   path [path] ([len] tags) that ends at [leaf]: the leaf itself, or
   the head of one backward join-index lookup over the path's suffix
   from [pos] — JI's one way to reach an interior position. *)
let ji_backward ji ~path ~len ~leaf pos =
  if pos = len - 1 then Some leaf
  else begin
    let stats = Stats.current () in
    stats.Stats.structures_accessed <- stats.Stats.structures_accessed + 1;
    stats.Stats.index_lookups <- stats.Stats.index_lookups + 1;
    match Join_index.backward_lookup ji ~path:(Schema_path.suffix path (len - pos)) ~end_:leaf with
    | h :: _ -> Some h
    | [] -> None
  end

(* First (driver) path: candidate leaves from the value index (or all
   pairs of the matching rooted subpaths), then one backward lookup per
   needed position per matching rooted path. *)
let eval_ji_driver (db : Database.t) ji cp =
  let stats = Stats.current () in
  let leaf_candidates = value_index_ids db cp in
  per_catalog_path db cp (fun path positions_list ->
      let plen = Schema_path.length path in
      (* Join-index relations hold every occurrence of a tag sequence,
         not just root-anchored ones, so a rooted-path instance is a
         pair whose head is a document root of the path's first tag. *)
      let doc_roots =
        lazy
          (match Schema_path.to_list path with
          | tag :: _ ->
            stats.Stats.index_lookups <- stats.Stats.index_lookups + 1;
            id_set (Edge_table.children_of db.Database.edge ~parent:0 ~tag)
          | [] -> Hashtbl.create 0)
      in
      let instances () =
        (* length-1 rooted paths have no join-index pair; their
           instances are the document roots of that tag *)
        if plen = 1 then
          Hashtbl.fold (fun id () acc -> id :: acc) (Lazy.force doc_roots) []
        else begin
          stats.Stats.structures_accessed <- stats.Stats.structures_accessed + 1;
          stats.Stats.index_lookups <- stats.Stats.index_lookups + 1;
          Join_index.all_pairs ji ~path
          |> List.filter_map (fun (h, leaf) ->
                 if Hashtbl.mem (Lazy.force doc_roots) h then Some leaf else None)
        end
      in
      let leaves =
        match leaf_candidates with
        | Some ids when plen > 1 ->
          (* keep leaves whose rooted path is this concrete path: the
             unique ancestor at the path's root position must be a
             document root *)
          stats.Stats.structures_accessed <- stats.Stats.structures_accessed + 1;
          List.filter
            (fun leaf ->
              stats.Stats.index_lookups <- stats.Stats.index_lookups + 1;
              List.exists
                (fun h -> Hashtbl.mem (Lazy.force doc_roots) h)
                (Join_index.backward_lookup ji ~path ~end_:leaf))
            ids
        | Some ids ->
          let roots = Lazy.force doc_roots in
          List.filter (Hashtbl.mem roots) ids
        | None -> List.filter (wildcard_leaf_ok db cp) (instances ())
      in
      List.concat_map
        (fun positions ->
          let needed_schema_pos = List.map (fun i -> positions.(i)) cp.needed_idx in
          List.filter_map
            (fun leaf -> resolved_row (ji_backward ji ~path ~len:plen ~leaf) needed_schema_pos)
            leaves)
        positions_list)

(* Subsequent path probed from branch ids: forward lookups along the
   matching materialized subpaths below the branch. *)
let eval_ji_probe (db : Database.t) ji cp ~idx_b b_values =
  let stats = Stats.current () in
  let tag_b = snd cp.pattern.(idx_b) in
  let probe_pattern = below cp ~idx_b and needed_below = needed_from cp idx_b in
  (* materialized subpath schemas matching the below-branch pattern *)
  let sub_matches p = Decompose.matches probe_pattern (Array.of_list (Schema_path.to_list p)) in
  let sub_schemas =
    if tag_b = Decompose.wildcard then
      Join_index.fold_paths ji (fun acc p -> if sub_matches p then p :: acc else acc) []
    else Join_index.subpaths_from ji ~head_tag:tag_b sub_matches
  in
  let leaf_ok =
    match value_index_ids db cp with
    | Some ids -> Hashtbl.mem (id_set ids)
    | None -> wildcard_leaf_ok db cp
  in
  let rows =
    if Array.length probe_pattern = 1 then
      (* the path ends at the branch node itself: only its value
         predicate remains to check; needed_below = [idx_b] *)
      List.filter_map (fun b -> if leaf_ok b then Some [| b |] else None) b_values
    else
    List.concat_map
      (fun b ->
        List.concat_map
          (fun sub ->
            stats.Stats.structures_accessed <- stats.Stats.structures_accessed + 1;
            stats.Stats.index_lookups <- stats.Stats.index_lookups + 1;
            stats.Stats.inlj_probes <- stats.Stats.inlj_probes + 1;
            let leaves = List.filter leaf_ok (Join_index.forward_lookup ji ~path:sub ~start:b) in
            let slen = Schema_path.length sub in
            let positions_list =
              Decompose.match_all probe_pattern (Array.of_list (Schema_path.to_list sub))
            in
            List.concat_map
              (fun positions ->
                List.filter_map
                  (fun leaf ->
                    let resolve i =
                      let pos = positions.(i - idx_b) in
                      if pos = 0 then Some b else ji_backward ji ~path:sub ~len:slen ~leaf pos
                    in
                    resolved_row resolve needed_below)
                  leaves)
              positions_list)
          sub_schemas)
      b_values
  in
  Relation.distinct (Relation.create (columns_at cp needed_below) rows)

(* ------------------------------------------------------------------ *)
(* INLJ plans (DP, JI)                                                  *)
(* ------------------------------------------------------------------ *)

let deepest_shared_idx cp bound_cols =
  let rec go best i =
    if i >= Array.length cp.uids then best
    else if Array.exists (( = ) cp.uids.(i)) bound_cols then go (Some i) (i + 1)
    else go best (i + 1)
  in
  go None 0

(* The join order of an INLJ plan: the plan's order when it covers
   exactly these paths (Force/Pin plans may carry none), else the
   estimate sort the executor always used. Elements are (original path
   index, cpath) so adaptivity watches can name the path the plan talks
   about. *)
let indexed_order (db : Database.t) ~order cpaths =
  let arr = Array.of_list cpaths in
  if Array.length order = Array.length arr then
    Array.to_list (Array.map (fun i -> (i, arr.(i))) order)
  else
    List.stable_sort
      (fun (_, a) (_, b) -> Int.compare (estimate db a) (estimate db b))
      (List.mapi (fun i cp -> (i, cp)) cpaths)

(* The first path in join order is evaluated [free]; each later path is
   [probe]d from the bindings of its deepest column shared with the
   relation so far (evaluated free when it shares none) and hash-joined
   in. *)
let run_inlj ~cancel ~watch ~order (db : Database.t) ~free ~probe cpaths =
  let eval_free i (oi, cp) =
    let rel = eval_spanned db i cp (fun () -> free cp) in
    watch oi rel;
    rel
  in
  match indexed_order db ~order cpaths with
  | [] -> invalid_arg "run_inlj: no paths"
  | first :: rest ->
    Cancel.check cancel;
    fst
      (List.fold_left
         (fun (acc, i) ((_, cp) as path) ->
           Cancel.check cancel;
           let rel =
             match deepest_shared_idx cp (Relation.columns acc) with
             | None -> eval_free i path
             | Some idx_b ->
               let b_values = Relation.column_values acc cp.uids.(idx_b) in
               eval_spanned db i cp (fun () -> probe cp ~idx_b b_values)
           in
           (join_pair ~kind:`Hash acc rel, i + 1))
         (eval_free 0 first, 1) rest)

(* ------------------------------------------------------------------ *)
(* Cost-based strategy choice (a Lore-style optimizer, paper Section 6) *)
(* ------------------------------------------------------------------ *)

(* The planner's view of the compiled cover — the bridge from physical
   cpaths to [Tm_plan.Planner] inputs. *)
let planner_paths (db : Database.t) cpaths =
  List.map
    (fun cp ->
      {
        Tm_plan.Planner.i_label = path_label db cp;
        i_est = estimate db cp;
        i_len = Array.length cp.pattern;
      })
    cpaths

(* Plan a compiled twig through the cost model and the (generation,
   shape) plan cache. [overrides] carries observed
   per-path cardinalities during a mid-query replan (bypasses the
   cache). *)
let plan_twig ?(overrides = []) (db : Database.t) ~shape cpaths =
  Tm_plan.Planner.plan ~overrides ~generation:(Database.generation db) ~shape
    ~built:(Database.built_strategies db)
    ~paths:(fun () -> planner_paths db cpaths)
    ()

(* Why an index-based strategy cannot answer this query — the typed
   [Index_unusable] classification behind graceful degradation. Any
   exception outside these classes (a genuine bug) propagates. *)
let classify_unusable = function
  | Database.Index_not_built s ->
    Some (Printf.sprintf "%s index not materialized" (Database.strategy_name s))
  | Tm_storage.Pager.Corrupt_page { page; detail } ->
    Some (Printf.sprintf "corrupt page %d (%s)" page detail)
  | Family.Unsupported msg -> Some ("lossy index variant: " ^ msg)
  | Tm_fault.Fault.Io_error { site; detail } ->
    Some (Printf.sprintf "I/O error at %s after retries (%s)" site detail)
  | _ -> None

(* The one degradation decision, shared by planning, the fallback chain
   and replanning: [f ()], or [degrade why] when it raises a classified
   index failure and [strict] is off. Every other exception, and every
   failure under [strict], propagates. *)
let degrade_on ~strict f degrade =
  match f () with
  | v -> v
  | exception e -> (
    match classify_unusable e with
    | Some why when not strict -> degrade why
    | Some _ | None -> raise e)

(* The plan [hint] asks for, over a compiled twig ([None]: a query tag
   absent from the data, so any plan answers empty). Unusable statistics
   pages degrade to a trivial plan unless [strict]: a forced strategy
   can run without its estimates, and Auto falls back to RP (the
   fallback chain still covers execution). *)
let plan_compiled ~hint ~strict (db : Database.t) ~shape compiled =
  match (hint, compiled) with
  | Tm_plan.Hint.Pin p, _ -> p
  | Tm_plan.Hint.Force s, None -> Tm_plan.Plan.trivial ~shape ~strategy:s "as requested"
  | Tm_plan.Hint.Force s, Some cpaths ->
    degrade_on ~strict
      (fun () -> Tm_plan.Planner.forced ~shape ~paths:(planner_paths db cpaths) s)
      (fun _ -> Tm_plan.Plan.trivial ~shape ~strategy:s "as requested")
  | Tm_plan.Hint.Auto, None ->
    Tm_plan.Plan.trivial ~shape ~strategy:Database.RP "unknown tag: empty result either way"
  | Tm_plan.Hint.Auto, Some cpaths ->
    degrade_on ~strict
      (fun () -> plan_twig db ~shape cpaths)
      (fun why ->
        Tm_plan.Plan.trivial ~shape ~strategy:Database.RP ("planner statistics unusable: " ^ why))

let plan ?(hint = Tm_plan.Hint.Auto) (db : Database.t) twig =
  plan_compiled ~hint ~strict:true db ~shape:(Twig.shape twig) (compile db twig)

(* ------------------------------------------------------------------ *)
(* Query lifecycle: plan, attempt, record                              *)
(* ------------------------------------------------------------------ *)

(* One query across its three phases: the run's options, its one cost
   record [q_stats] (charged by every layer that works for the query,
   read by spans, the journal, the flight recorder and /metrics), and
   the fallbacks and replan notes the attempts add, newest first. *)
type query = {
  q_id : int;  (** the trace id *)
  q_start : int64;
  q_stats : Stats.t;
  q_twig : Twig.t;
  q_shape : string;
  q_hint : Tm_plan.Hint.t;
  q_strict : bool;
  q_dp_use_inlj : bool;
  q_deadline_ms : float option;
  q_cancel : Cancel.t option;  (** the caller's ambient token *)
  q_pool : Tm_par.Pool.t option;
  mutable q_fallbacks : (Database.strategy * string) list;
  mutable q_notes : string list;
  mutable q_observed : (int * int) list;
      (** (path index, actual rows) pairs, fed back to every replan *)
  q_blown : (int * int * int) option Atomic.t;
      (** the blow-up (path, estimate, actual) that tripped the current
          attempt. The abandonment reaches the coordinator as
          [Cancelled], like a deadline, and possibly from a sibling pool
          task on another domain — so this atomic, not the exception,
          tells a replan from a deadline. *)
}

let elapsed_ms q = Int64.to_float (Int64.sub (Monotonic_clock.now ()) q.q_start) /. 1e6
let jobs q = match q.q_pool with Some p -> Tm_par.Pool.jobs p | None -> 1

(* Plan phase: compile the twig once — every attempt and replan shares
   the compiled paths; [None] is a tag absent from the data — and plan
   it under the hint. Planning reads statistics pages, so it is charged
   to the query's record. *)
let plan_query (db : Database.t) q =
  let compiled = compile db q.q_twig in
  ( compiled,
    Stats.with_record q.q_stats (fun () ->
        plan_compiled ~hint:q.q_hint ~strict:q.q_strict db ~shape:q.q_shape compiled) )

(* Answer [cpaths] under one strategy through the one path-evaluation
   pipeline: each path evaluated through the strategy's access path and
   the binding relations joined — sort-merge for ROOTPATHS, hash joins
   otherwise — except under DP and JI, which drive index-nested-loop
   joins from the most selective path. *)
let run_strategy (db : Database.t) q ~cancel ~watch ~order strategy ~out_uid cpaths =
  let joined kind eval = join_all ~kind (eval_paths ?par:q.q_pool ~cancel ~watch db eval cpaths) in
  let inlj free probe = run_inlj ~cancel ~watch ~order db ~free ~probe cpaths in
  let relation =
    match Database.require db strategy with
    | Database.Built_rootpaths fam -> joined `Merge (free_scan fam ~head:None)
    | Database.Built_datapaths fam when q.q_dp_use_inlj ->
      inlj (free_scan fam ~head:(Some 0)) (dp_probe_all ?par:q.q_pool ~cancel fam)
    | Database.Built_datapaths fam ->
      (* The ablation (not a paper strategy): every path a FreeIndex
         lookup stitched with hash joins — DATAPATHS reduced to
         ROOTPATHS-style planning, isolating the contribution of
         index-nested-loop joins to Figure 12(d). *)
      joined `Hash (free_scan fam ~head:(Some 0))
    | Database.Built_edge -> joined `Hash (eval_edge_path db)
    | Database.Built_dataguide guide -> joined `Hash (eval_guide_path db ~guide ~fabric:None)
    | Database.Built_index_fabric { fabric; dataguide } ->
      joined `Hash (eval_guide_path db ~guide:dataguide ~fabric:(Some fabric))
    | Database.Built_asr asrs -> joined `Hash (eval_asr_path db asrs)
    | Database.Built_ji ji -> inlj (eval_ji_driver db ji) (eval_ji_probe db ji)
  in
  Relation.column_values relation out_uid

(* A tripped watch: count and narrate the replan, then plan again with
   every cardinality observed so far as an override — keeping [plan]
   when the statistics are unusable and degrading is allowed (its
   watch expires once the replans run out). *)
let replan (db : Database.t) q plan cpaths (i, est, actual) =
  let stats = q.q_stats in
  stats.Stats.replans <- stats.Stats.replans + 1;
  q.q_observed <- (i, actual) :: List.remove_assoc i q.q_observed;
  let note =
    Printf.sprintf "path %d returned %d rows against an estimate of %d" (i + 1) actual est
  in
  q.q_notes <- note :: q.q_notes;
  Tm_obs.Flight.emit Tm_obs.Flight.Replan stats.Stats.replans 0 note;
  if Tm_obs.Obs.in_trace () then
    Tm_obs.Obs.annotate (Printf.sprintf "replan:%d" stats.Stats.replans) note;
  degrade_on ~strict:q.q_strict
    (fun () -> plan_twig ~overrides:q.q_observed db ~shape:q.q_shape cpaths)
    (fun _ -> plan)

(* Attempt phase, one attempt per plan, under a token scoped to the
   remaining deadline and parented by the caller's (a replan cancelling
   the attempt leaves the caller's token untouched). The fallback chain
   runs the planned strategy, then DP, RP and JI (complete indices with
   independent structures), skipping each that fails for a classified
   reason, then the naive matcher, which reads no index page. While
   replans remain (Auto only), a path whose relation blows its estimate
   trips the token, and the next attempt runs the replanned plan.
   Timeouts never degrade. *)
let rec attempt (db : Database.t) q (plan : Tm_plan.Plan.t) ~out_uid cpaths =
  let remaining =
    match q.q_deadline_ms with None -> None | Some ms -> Some (ms -. elapsed_ms q)
  in
  (match remaining with Some r when r <= 0.0 -> raise Cancel.Cancelled | _ -> ());
  (match q.q_cancel with Some p -> Cancel.check p | None -> ());
  let cover = plan.Tm_plan.Plan.cover in
  let watching =
    (match q.q_hint with Tm_plan.Hint.Auto -> true | _ -> false)
    && q.q_stats.Stats.replans < Tm_plan.Planner.max_replans
    && Array.length cover > 1
  in
  let parent = q.q_cancel in
  let cancel =
    match remaining with
    | Some r -> Cancel.with_deadline_ms ?parent r
    | None -> (
      if watching then Cancel.token ?parent ()
      else match parent with Some p -> p | None -> Cancel.never)
  in
  let watch i rel =
    if watching && i < Array.length cover then begin
      let est = cover.(i).Tm_plan.Plan.p_est in
      let actual = Relation.cardinality rel in
      if Tm_plan.Planner.should_replan ~est ~actual then begin
        ignore (Atomic.compare_and_set q.q_blown None (Some (i, est, actual)));
        Cancel.cancel cancel;
        raise Cancel.Cancelled
      end
    end
  in
  let requested = plan.Tm_plan.Plan.strategy in
  let rec fallback = function
    | [] ->
      Cancel.check cancel;
      (plan, Tm_query.Naive.query db.Database.doc q.q_twig, requested, true)
    | strategy :: rest ->
      degrade_on ~strict:q.q_strict
        (fun () ->
          let order = plan.Tm_plan.Plan.join_order in
          (plan, run_strategy db q ~cancel ~watch ~order strategy ~out_uid cpaths, strategy, false))
        (fun why ->
          q.q_fallbacks <- (strategy, why) :: q.q_fallbacks;
          Tm_obs.Obs.incr c_fallbacks;
          if Tm_obs.Obs.in_trace () then
            Tm_obs.Obs.annotate
              (Printf.sprintf "fallback:%s" (Database.strategy_name strategy))
              why;
          fallback rest)
  in
  let others =
    List.filter (fun s -> not (Tm_plan.Strategy.equal s requested)) Database.[ DP; RP; Ji ]
  in
  match fallback (requested :: others) with
  | answered -> answered
  | exception Cancel.Cancelled -> (
    match Atomic.exchange q.q_blown None with
    | Some blown -> attempt db q (replan db q plan cpaths blown) ~out_uid cpaths
    | None -> raise Cancel.Cancelled)

(* The attempts' answer as the query's result, under its root span when
   the sink is on (the span's meta built only then). A tag absent from
   the data answers empty under the plan as made. The reason narrates
   the replans and fallbacks on top of the final plan's. *)
let answer (db : Database.t) q (plan : Tm_plan.Plan.t) compiled =
  let body () =
    match compiled with
    | None -> (plan, [], plan.Tm_plan.Plan.strategy, false)
    | Some cpaths ->
      let out_uid = (Twig.output_node q.q_twig).Twig.uid in
      let plan, ids, strategy, via_naive = attempt db q plan ~out_uid cpaths in
      (plan, List.sort_uniq Int.compare ids, strategy, via_naive)
  in
  let (final, ids, strategy, via_naive), trace =
    if not (Tm_obs.Obs.enabled ()) then (body (), None)
    else
      let name = Database.strategy_name plan.Tm_plan.Plan.strategy in
      Tm_obs.Obs.trace
        ~meta:
          [
            ("query", Twig.to_string q.q_twig);
            ("shape", q.q_shape);
            ("strategy", name);
            ("reason", plan.Tm_plan.Plan.reason);
            ("trace", string_of_int q.q_id);
            ("jobs", string_of_int (jobs q));
          ]
        ("query:" ^ name) body
  in
  let fallbacks = List.rev q.q_fallbacks in
  let reason =
    match List.rev q.q_notes with
    | [] -> final.Tm_plan.Plan.reason
    | notes -> Printf.sprintf "%s [%s]" final.Tm_plan.Plan.reason (String.concat "; " notes)
  in
  let reason =
    match fallbacks with
    | [] -> reason
    | fs ->
      let steps =
        List.map
          (fun (s, why) -> Printf.sprintf "%s unusable (%s)" (Database.strategy_name s) why)
          fs
      in
      Printf.sprintf "%s; fell back to %s after: %s" reason
        (if via_naive then "naive matcher" else Database.strategy_name strategy)
        (String.concat "; " steps)
  in
  let stats = q.q_stats and trace_id = q.q_id in
  let replans = stats.Stats.replans in
  { ids; stats; strategy; reason; fallbacks; via_naive; plan = final; replans; trace; trace_id }

(* How a query ended: its result, the budget that ran out (ms), or the
   exception that escaped. *)
type outcome = Answered of result | Expired of float | Raised of exn

(* Record phase: the one place a finished query — answered, timed out
   or failed — reaches the sinks. Its cost record is final once
   uninstalled, and feeds the [query.*] totals, the flight recorder,
   the journal and, for an answer, the [query.ms] histogram. A query
   that did not answer is journaled under its [initial] plan. *)
let record (db : Database.t) q (initial : Tm_plan.Plan.t) outcome =
  let stats = q.q_stats in
  Tm_obs.Obs.add_query stats;
  let ms = elapsed_ms q in
  (match outcome with
  | Answered r ->
    Tm_obs.Obs.observe h_query_ms ms;
    Tm_obs.Flight.emit_traced q.q_id Tm_obs.Flight.Query_end (List.length r.ids)
      stats.Stats.replans ""
  | Expired budget ->
    Tm_obs.Flight.emit_traced q.q_id Tm_obs.Flight.Cancel_deadline (int_of_float budget) 0 ""
  | Raised _ -> ());
  if Tm_obs.Journal.enabled () then begin
    let unanswered j =
      (initial, initial.Tm_plan.Plan.strategy, initial.Tm_plan.Plan.reason, false, 0, j)
    in
    let (plan : Tm_plan.Plan.t), strategy, reason, via_naive, rows, j_outcome =
      match outcome with
      | Answered r ->
        (r.plan, r.strategy, r.reason, r.via_naive, List.length r.ids, Tm_obs.Journal.Completed)
      | Expired budget -> unanswered (Tm_obs.Journal.Timed_out budget)
      | Raised e -> unanswered (Tm_obs.Journal.Failed (Printexc.to_string e))
    in
    Tm_obs.Journal.record
      {
        Tm_obs.Journal.j_id = q.q_id;
        j_time = Unix.gettimeofday ();
        j_query = Twig.to_string q.q_twig;
        j_shape = q.q_shape;
        j_requested = Database.strategy_name initial.Tm_plan.Plan.strategy;
        j_strategy = Database.strategy_name strategy;
        j_reason = reason;
        j_fallbacks =
          List.rev_map (fun (s, why) -> (Database.strategy_name s, why)) q.q_fallbacks;
        j_via_naive = via_naive;
        j_rows = rows;
        j_est_rows =
          (if Array.length plan.Tm_plan.Plan.cover = 0 then None
           else Some plan.Tm_plan.Plan.est_rows);
        j_latency_ms = ms;
        j_stats = stats;
        j_jobs = jobs q;
        j_txn = db.Database.last_txn;
        j_outcome;
      }
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* The entry point, a driver over the three phases; the interface
   documents hints, mid-query adaptivity, graceful degradation,
   deadlines and pools. *)
let run ?(dp_use_inlj = true) ?(hint = Tm_plan.Hint.Auto) ?(strict = false) ?cancel
    ?deadline_ms ?pool (db : Database.t) twig =
  let q =
    {
      q_id = Tm_obs.Journal.next_id ();
      q_start = Monotonic_clock.now ();
      q_stats = Stats.create ();
      q_twig = twig;
      q_shape = Twig.shape twig;
      q_hint = hint;
      q_strict = strict;
      q_dp_use_inlj = dp_use_inlj;
      q_deadline_ms = deadline_ms;
      q_cancel = cancel;
      q_pool = pool;
      q_fallbacks = [];
      q_notes = [];
      q_observed = [];
      q_blown = Atomic.make None;
    }
  in
  Tm_obs.Flight.emit_traced q.q_id Tm_obs.Flight.Query_begin (jobs q) 0 "";
  let compiled, plan = plan_query db q in
  match
    (* Pin the pager epoch for the whole evaluation: a durable ingest
       committing mid-query publishes a new epoch, but every page this
       query (and its pool workers, via the registered propagator) reads
       is served at the pinned one — the result is consistently pre- or
       post-commit, never torn. *)
    Stats.with_record q.q_stats (fun () ->
        Tm_storage.Epoch.with_pin db.Database.pager (fun () ->
            Tm_obs.Context.with_context q.q_id (fun () -> answer db q plan compiled)))
  with
  | r ->
    record db q plan (Answered r);
    r
  | exception Cancel.Cancelled ->
    (* Cancelled through the ambient token: report its budget. *)
    let ambient = Option.value (Option.bind cancel Cancel.deadline_ms) ~default:0.0 in
    let ms = Option.value deadline_ms ~default:ambient in
    record db q plan (Expired ms);
    raise (Timeout { ms; stats = q.q_stats })
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    record db q plan (Raised e);
    Printexc.raise_with_backtrace e bt

(* The physical shape of a strategy's plan, one or two lines. *)
let physical_description add (strategy : Database.strategy) =
  match strategy with
  | Database.RP ->
    add "  one ROOTPATHS lookup per path; extract branch ids from IdLists; sort-merge join"
  | Database.DP ->
    add "  FreeIndex lookup for the most selective path, then BoundIndex";
    add "  index-nested-loop probes per branch binding"
  | Database.Edge -> add "  value-index lookup per valued leaf; one backward-link join per step"
  | Database.DG_edge ->
    add "  DataGuide lookup per matching schema path + value-index join; backward-link climbs"
  | Database.IF_edge ->
    add "  Index Fabric (path,value) lookup per matching schema path; backward-link climbs"
  | Database.Asr ->
    add "  one relation scan per matching rooted schema path; ids taken from tuples"
  | Database.Ji ->
    add "  value-index lookup, then backward/forward join-index probes per matching subpath"

(** Human-readable plan for [twig] under [hint] (default: the planner's
    Auto choice, consulting — and filling — the plan cache). With
    [analyze:true], also executes the query with the obs sink on and
    appends the recorded trace tree — EXPLAIN ANALYZE. *)
let explain ?(analyze = false) ?(hint = Tm_plan.Hint.Auto) (db : Database.t) twig =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  add "query: %s" (Twig.to_string twig);
  let p = plan ~hint db twig in
  Buffer.add_string buf (Tm_plan.Plan.to_string p);
  physical_description (fun s -> add "%s" s) p.Tm_plan.Plan.strategy;
  if analyze then begin
    let r = Tm_obs.Obs.with_enabled true (fun () -> run ~hint db twig) in
    add "";
    add "EXPLAIN ANALYZE: %d result%s" (List.length r.ids)
      (if List.length r.ids = 1 then "" else "s");
    (match r.trace with
    | Some tr -> Buffer.add_string buf (Tm_obs.Export.trace_to_string tr)
    | None -> ());
    add "stats: %s" (Fmt.str "%a" Stats.pp r.stats)
  end;
  Buffer.contents buf

(** Per-branch result size (the paper's Figures 7-8 column), measured
    with a ROOTPATHS lookup when available, else the naive matcher. *)
let branch_cardinality (db : Database.t) cp =
  (* count matches of the path itself (leaf bindings), not the distinct
     branch-point projection the executor would keep *)
  let cp = { cp with needed_idx = [ Array.length cp.pattern - 1 ] } in
  match Database.find_rootpaths db with
  | Some fam -> Relation.cardinality (free_scan fam ~head:None cp)
  | None -> estimate db cp

(** The per-branch result sizes of a twig (one entry per linear path),
    reproducing the "Result Size Per Branch" column of Figures 7-8. *)
let path_cardinalities (db : Database.t) twig =
  match compile db twig with
  | None -> []
  | Some cpaths -> List.map (branch_cardinality db) cpaths
