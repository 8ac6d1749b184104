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

exception Unknown_tag
(** A query tag absent from the data; the query answer is empty. *)

exception Timeout of { ms : float; stats : Stats.t }
(** The query's deadline expired; [stats] is the work done so far. *)

let () =
  Printexc.register_printer (function
    | Timeout { ms; _ } -> Some (Printf.sprintf "Executor.Timeout(deadline %.0f ms)" ms)
    | _ -> None)

exception Replan_abandoned
(** Internal: a path's actual cardinality blew its estimate past the
    {!Tm_plan.Planner.should_replan} threshold; the coordinator
    abandons the attempt (cancelling in-flight pool tasks through the
    attempt's cancellation token) and re-plans with the observed
    numbers. Never escapes {!run}. *)

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

let compile (db : Database.t) twig =
  let branch_uids = List.map (fun n -> n.Twig.uid) (Twig.branch_nodes twig) in
  let out_uid = (Twig.output_node twig).Twig.uid in
  let keep = out_uid :: branch_uids in
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

(* Rows from index hits: [positions] maps pattern step -> schema
   position; [id_at] maps schema position -> data node id. *)
let rows_of_match cp ~id_at positions =
  Array.of_list (List.map (fun i -> id_at positions.(i)) cp.needed_idx)

let relation_of_rows cp rows =
  Relation.distinct (Relation.create (columns_at cp cp.needed_idx) rows)

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

let finish ~out_uid relations =
  let joined = join_all ~kind:`Hash relations in
  Relation.column_values joined out_uid

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

(* Evaluate path [i] of the plan under a "path:N" span annotated with
   the path's pattern and output cardinality. *)
let eval_spanned (db : Database.t) i cp f =
  if not (Tm_obs.Obs.enabled ()) then f ()
  else
    Tm_obs.Obs.with_span
      ~meta:[ ("path", path_label db cp) ]
      (Printf.sprintf "path:%d" (i + 1))
      (fun () ->
        let rel = f () in
        if Tm_obs.Obs.in_trace () then
          Tm_obs.Obs.annotate "rows" (string_of_int (Relation.cardinality rel));
        rel)

(* A pool task's body: [work] under a cost record of its own, traced as
   a root span on the executing domain (named and annotated by [span])
   when the sink is on. [gather] grafts the spans and merges the records
   into the submitting query's, in task order. *)
let in_task span work =
  let stats = Stats.create () in
  Stats.with_record stats (fun () ->
      if not (Tm_obs.Obs.enabled ()) then (work (), None, stats)
      else
        let name, meta = span () in
        let domain = ("domain", string_of_int (Domain.self () :> int)) in
        let v, trace = Tm_obs.Obs.trace ~meta:(domain :: meta) name work in
        (v, trace, stats))

let gather results =
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
let eval_paths ?par ?(cancel = Cancel.never) ?watch (db : Database.t) eval cpaths =
  let observe i rel = match watch with Some w -> w i rel | None -> () in
  let fan_out pool =
    Tm_par.Pool.map pool
      (fun (i, cp) ->
        (* Deadline check at task start: a task that begins after the
           deadline does no work; Pool.await carries the Cancelled
           exception back to the coordinator. *)
        Cancel.check cancel;
        let ((rel, _, _) as outcome) =
          in_task
            (fun () -> (Printf.sprintf "path:%d" (i + 1), [ ("path", path_label db cp) ]))
            (fun () ->
              let rel = eval cp in
              if Tm_obs.Obs.in_trace () then
                Tm_obs.Obs.annotate "rows" (string_of_int (Relation.cardinality rel));
              rel)
        in
        observe i rel;
        outcome)
      (List.mapi (fun i cp -> (i, cp)) cpaths)
    |> gather
  in
  match par with
  | Some pool when Tm_par.Pool.jobs pool > 1 && List.length cpaths > 1 -> fan_out pool
  | _ ->
    List.mapi
      (fun i cp ->
        Cancel.check cancel;
        let rel = eval_spanned db i cp (fun () -> eval cp) in
        observe i rel;
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
(* ROOTPATHS / DATAPATHS free evaluation of a rooted linear path       *)
(* ------------------------------------------------------------------ *)

(* [head_offset]: 0 for rooted rows (idlist = [i1..ik]); used with
   DATAPATHS head rows where idlist excludes the head. *)
let eval_family_rooted fam ~head cp =
  let schema = schema_probe_of cp.pattern in
  let on_hit acc (hit : Family.hit) =
    let schema_tags = Array.of_list (Schema_path.to_list hit.Family.h_schema) in
    let ids = Array.of_list hit.Family.h_ids in
    let id_at p = ids.(p) in
    List.fold_left
      (fun acc positions -> rows_of_match cp ~id_at positions :: acc)
      acc
      (Decompose.match_all cp.pattern schema_tags)
  in
  let rows =
    match cp.range with
    | Some r ->
      let lo, hi = Estimate.vbounds r in
      Family.scan_value_range fam ?head ~lo ~hi ~schema on_hit []
    | None -> Family.scan fam ?head ~value:cp.value ~schema on_hit []
  in
  relation_of_rows cp rows

let eval_rp fam cp = eval_family_rooted fam ~head:None cp
let eval_dp_free fam cp = eval_family_rooted fam ~head:(Some 0) cp

(* ------------------------------------------------------------------ *)
(* RP plan: one lookup per path, merge joins on branch points          *)
(* ------------------------------------------------------------------ *)

let run_rp ?par ?cancel ?watch (db : Database.t) fam ~out_uid cpaths =
  let relations = eval_paths ?par ?cancel ?watch db (eval_rp fam) cpaths in
  let joined = join_all ~kind:`Merge relations in
  Relation.column_values joined out_uid

(* ------------------------------------------------------------------ *)
(* DP plan: FreeIndex for the most selective path, then INLJ probes    *)
(* ------------------------------------------------------------------ *)

(* The part of [cp] at or below step [idx_b], re-anchored at that
   step's tag, and the needed steps there: what an INLJ probe from a
   binding of step [idx_b] evaluates. *)
let below cp ~idx_b =
  ( Array.init
      (Array.length cp.pattern - idx_b)
      (fun i -> if i = 0 then (Twig.Child, snd cp.pattern.(idx_b)) else cp.pattern.(idx_b + i)),
    List.filter (fun i -> i >= idx_b) cp.needed_idx )

(* Probe DATAPATHS for the part of [cp] at or below step [idx_b],
   rooted at head id [h]. Returns rows over the needed columns at
   steps >= idx_b. *)
let dp_probe fam cp ~idx_b ~h =
  let probe_pattern, needed_below = below cp ~idx_b in
  let stats = Stats.current () in
  stats.Stats.inlj_probes <- stats.Stats.inlj_probes + 1;
  let schema = schema_probe_of probe_pattern in
  let on_hit acc (hit : Family.hit) =
    let schema_tags = Array.of_list (Schema_path.to_list hit.Family.h_schema) in
    let ids = Array.of_list hit.Family.h_ids in
    (* schema position 0 is the head itself; ids exclude the head *)
    let id_at p = if p = 0 then h else ids.(p - 1) in
    List.fold_left
      (fun acc positions ->
        Array.of_list (List.map (fun i -> id_at positions.(i - idx_b)) needed_below) :: acc)
      acc
      (Decompose.match_all probe_pattern schema_tags)
  in
  (match cp.range with
  | Some r ->
    let lo, hi = Estimate.vbounds r in
    Family.scan_value_range fam ~head:h ~lo ~hi ~schema on_hit []
  | None -> Family.scan fam ~head:h ~value:cp.value ~schema on_hit [])
  |> fun rows -> Relation.distinct (Relation.create (columns_at cp needed_below) rows)

(* Run the INLJ probes of one path, one per branch binding, into one
   relation. With a pool, the bindings are fanned out in contiguous
   chunks: each chunk probes under its own Stats record (merged back)
   and records its probe spans under a "probes" trace the coordinator
   adopts beneath the open "path:N" span — so analyze output still
   attributes every probe, now labelled with the domain that ran it. *)
let dp_probe_all ?par ?(cancel = Cancel.never) fam cp ~idx_b b_values =
  let sequential () =
    List.rev_map
      (fun h ->
        Cancel.check cancel;
        dp_probe fam cp ~idx_b ~h)
      b_values
  in
  let fan_out pool =
    Tm_par.Pool.map_chunked pool
      (fun hs ->
        (* One deadline check per probe chunk: cancellation latency is
           bounded by a chunk of probes, not the whole binding list. *)
        Cancel.check cancel;
        in_task
          (fun () -> ("probes", [ ("probes", string_of_int (List.length hs)) ]))
          (fun () -> List.rev_map (fun h -> dp_probe fam cp ~idx_b ~h) hs))
      b_values
    |> gather |> List.concat
  in
  let probes =
    match par with
    | Some pool when Tm_par.Pool.jobs pool > 1 && List.length b_values > 1 -> fan_out pool
    | _ -> sequential ()
  in
  List.fold_left
    (fun rel r -> Relation.create (Relation.columns r) (r.Relation.rows @ rel.Relation.rows))
    (Relation.empty (columns_at cp (snd (below cp ~idx_b))))
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

let edge_rows_of_bindings cp bindings =
  List.filter_map
    (fun binding ->
      let find i = List.assoc_opt i binding in
      let cols = List.map find cp.needed_idx in
      if List.for_all Option.is_some cols then
        Some (Array.of_list (List.map Option.get cols))
      else None)
    bindings

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
  relation_of_rows cp (edge_rows_of_bindings cp bindings)

let run_edge ?par ?cancel ?watch db ~out_uid cpaths =
  finish ~out_uid (eval_paths ?par ?cancel ?watch db (eval_edge_path db) cpaths)

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
  let matches = Estimate.catalog_matches db.Database.catalog cp.pattern in
  let leaf_tag = leaf_tag cp in
  let value_set ?tag () = Option.map id_set (value_index_ids ?tag db cp) in
  let leaf_set =
    match fabric with
    | Some _ -> None (* Index Fabric's own scan resolves path + value or range *)
    | None -> value_set () (* a wildcard leaf's: per catalog path below *)
  in
  let rows =
    List.concat_map
      (fun ((entry : Schema_catalog.entry), positions_list) ->
        let path = entry.Schema_catalog.path in
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
      matches
  in
  relation_of_rows cp rows

let run_guide ?par ?cancel ?watch db ~out_uid ~guide ~fabric cpaths =
  finish ~out_uid (eval_paths ?par ?cancel ?watch db (eval_guide_path db ~guide ~fabric) cpaths)

(* ------------------------------------------------------------------ *)
(* ASR plan                                                            *)
(* ------------------------------------------------------------------ *)

let eval_asr_path (db : Database.t) asrs cp =
  let matches = Estimate.catalog_matches db.Database.catalog cp.pattern in
  let rows =
    List.concat_map
      (fun ((entry : Schema_catalog.entry), positions_list) ->
        let tuple acc ids = Array.of_list ids :: acc in
        let tuples =
          match cp.range with
          | Some r ->
            let lo, hi = Estimate.vbounds r in
            Asr.scan_relation_range asrs ~path:entry.Schema_catalog.path ~lo ~hi tuple []
          | None ->
            Asr.scan_relation asrs ~path:entry.Schema_catalog.path
              ?value:(match cp.value with Some v -> Some (Some v) | None -> Some None)
              tuple []
        in
        List.concat_map
          (fun positions ->
            List.map (fun ids -> rows_of_match cp ~id_at:(fun p -> ids.(p)) positions) tuples)
          positions_list)
      matches
  in
  relation_of_rows cp rows

let run_asr ?par ?cancel ?watch db asrs ~out_uid cpaths =
  finish ~out_uid (eval_paths ?par ?cancel ?watch db (eval_asr_path db asrs) cpaths)

(* ------------------------------------------------------------------ *)
(* JI plan                                                             *)
(* ------------------------------------------------------------------ *)

(* First (driver) path: candidate leaves from the value index (or all
   pairs of the matching rooted subpaths), then one backward lookup per
   needed position per matching rooted path. *)
let eval_ji_driver (db : Database.t) ji cp =
  let stats = Stats.current () in
  let matches = Estimate.catalog_matches db.Database.catalog cp.pattern in
  let leaf_candidates = value_index_ids db cp in
  let rows =
    List.concat_map
      (fun ((entry : Schema_catalog.entry), positions_list) ->
        let path = entry.Schema_catalog.path in
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
        let plen = Schema_path.length path in
        List.concat_map
          (fun positions ->
            let needed_schema_pos = List.map (fun i -> positions.(i)) cp.needed_idx in
            List.filter_map
              (fun leaf ->
                (* one backward lookup per needed interior position *)
                let resolve pos =
                  if pos = plen - 1 then Some leaf
                  else begin
                    stats.Stats.structures_accessed <- stats.Stats.structures_accessed + 1;
                    stats.Stats.index_lookups <- stats.Stats.index_lookups + 1;
                    match
                      Join_index.backward_lookup ji
                        ~path:(Schema_path.suffix path (plen - pos))
                        ~end_:leaf
                    with
                    | [ h ] -> Some h
                    | h :: _ -> Some h
                    | [] -> None
                  end
                in
                let ids = List.map resolve needed_schema_pos in
                if List.for_all Option.is_some ids then
                  Some (Array.of_list (List.map Option.get ids))
                else None)
              leaves)
          positions_list)
      matches
  in
  relation_of_rows cp rows

(* Subsequent path probed from branch ids: forward lookups along the
   matching materialized subpaths below the branch. *)
let eval_ji_probe (db : Database.t) ji cp ~idx_b b_values =
  let stats = Stats.current () in
  let tag_b = snd cp.pattern.(idx_b) in
  let probe_pattern, needed_below = below cp ~idx_b in
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
                      if pos = 0 then Some b
                      else if pos = slen - 1 then Some leaf
                      else begin
                        stats.Stats.structures_accessed <-
                          stats.Stats.structures_accessed + 1;
                        stats.Stats.index_lookups <- stats.Stats.index_lookups + 1;
                        match
                          Join_index.backward_lookup ji
                            ~path:(Schema_path.suffix sub (slen - pos))
                            ~end_:leaf
                        with
                        | h :: _ -> Some h
                        | [] -> None
                      end
                    in
                    let ids = List.map resolve needed_below in
                    if List.for_all Option.is_some ids then
                      Some (Array.of_list (List.map Option.get ids))
                    else None)
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
let indexed_order (db : Database.t) ?order cpaths =
  let arr = Array.of_list cpaths in
  match order with
  | Some o when Array.length o = Array.length arr ->
    Array.to_list (Array.map (fun i -> (i, arr.(i))) o)
  | _ ->
    List.stable_sort
      (fun (_, a) (_, b) -> Int.compare (estimate db a) (estimate db b))
      (List.mapi (fun i cp -> (i, cp)) cpaths)

(* The first path in join order is evaluated [free]; each later path is
   [probe]d from the bindings of its deepest column shared with the
   relation so far (evaluated free when it shares none) and hash-joined
   in. *)
let run_inlj ?(cancel = Cancel.never) ?watch ?order (db : Database.t) ~free ~probe ~out_uid
    cpaths =
  let observe i rel = match watch with Some w -> w i rel | None -> () in
  let eval_free i (oi, cp) =
    let rel = eval_spanned db i cp (fun () -> free cp) in
    observe oi rel;
    rel
  in
  match indexed_order db ?order cpaths with
  | [] -> invalid_arg "run_inlj: no paths"
  | first :: rest ->
    Cancel.check cancel;
    let joined, _ =
      List.fold_left
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
        (eval_free 0 first, 1) rest
    in
    Relation.column_values joined out_uid

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

(* Plan a compiled twig through the cost model, the journal calibration
   and the (generation, shape) plan cache. [overrides] carries observed
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

let compile_opt db twig =
  match compile db twig with cpaths -> Some cpaths | exception Unknown_tag -> None

(* The plan [hint] asks for, over a compiled twig ([None]: a query tag
   absent from the data, so any plan answers empty). Unusable statistics
   pages degrade to a trivial plan unless [strict]: a forced strategy
   can run without its estimates, and Auto falls back to RP (the
   fallback chain still covers execution). *)
let plan_compiled ~hint ~strict (db : Database.t) ~shape compiled =
  let or_trivial strategy reason f =
    match f () with
    | p -> p
    | exception e -> (
      match classify_unusable e with
      | Some why when not strict -> Tm_plan.Plan.trivial ~shape ~strategy (reason why)
      | Some _ | None -> raise e)
  in
  match (hint, compiled) with
  | Tm_plan.Hint.Pin p, _ -> p
  | Tm_plan.Hint.Force s, None -> Tm_plan.Plan.trivial ~shape ~strategy:s "as requested"
  | Tm_plan.Hint.Force s, Some cpaths ->
    or_trivial s
      (fun _ -> "as requested")
      (fun () -> Tm_plan.Planner.forced ~shape ~paths:(planner_paths db cpaths) s)
  | Tm_plan.Hint.Auto, None ->
    Tm_plan.Plan.trivial ~shape ~strategy:Database.RP "unknown tag: empty result either way"
  | Tm_plan.Hint.Auto, Some cpaths ->
    or_trivial Database.RP
      (fun why -> "planner statistics unusable: " ^ why)
      (fun () -> plan_twig db ~shape cpaths)

let plan ?(hint = Tm_plan.Hint.Auto) (db : Database.t) twig =
  plan_compiled ~hint ~strict:true db ~shape:(Twig.shape twig) (compile_opt db twig)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* The entry point; the interface documents hints, mid-query
   adaptivity, graceful degradation, deadlines and pools. *)
let run ?(dp_use_inlj = true) ?(hint = Tm_plan.Hint.Auto) ?(strict = false) ?cancel:parent
    ?deadline_ms ?pool ?jobs (db : Database.t) twig =
  let trace_id = Tm_obs.Journal.next_id () in
  let t_start = Monotonic_clock.now () in
  let latency_ms () =
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t_start) /. 1e6
  in
  (* The query's one cost record, installed for its whole extent below:
     every layer that works for the query charges it, and spans, the
     journal, the flight recorder and the /metrics totals read it. *)
  let stats = Stats.create () in
  let jobs_used =
    match pool with
    | Some p -> Tm_par.Pool.jobs p
    | None -> ( match jobs with Some j when j > 1 -> j | Some _ | None -> 1)
  in
  Tm_obs.Flight.emit_traced trace_id Tm_obs.Flight.Query_begin jobs_used 0 "";
  let shape = Twig.shape twig in
  (* Compile once; planning and every (re)plan attempt share the paths. *)
  let compiled = compile_opt db twig in
  (* Planning reads statistics pages: charged to the query's record. *)
  let initial_plan =
    Stats.with_record stats (fun () -> plan_compiled ~hint ~strict db ~shape compiled)
  in
  let fallbacks = ref [] in
  let note_fallback strategy why =
    fallbacks := (strategy, why) :: !fallbacks;
    Tm_obs.Obs.incr c_fallbacks;
    if Tm_obs.Obs.in_trace () then
      Tm_obs.Obs.annotate
        (Printf.sprintf "fallback:%s" (Database.strategy_name strategy))
        why
  in
  (* --- Mid-query adaptivity state (Auto hints only) --------------- *)
  let adaptive = match hint with Tm_plan.Hint.Auto -> true | _ -> false in
  let replan_notes = ref [] in
  (* Observed (path index, actual rows) pairs accumulated across
     replans; each replanning round feeds them back as overrides. *)
  let observed = ref [] in
  (* The blow-up that tripped the current attempt. Watches run inside
     pool tasks on other domains, and the abandonment may surface at
     the coordinator as [Cancelled] from a sibling task rather than
     [Replan_abandoned] itself — so this atomic, not the exception
     identity, is what distinguishes a replan from a deadline. *)
  let blown = Atomic.make None in
  let watch_for (plan : Tm_plan.Plan.t) cancel i rel =
    let cover = plan.Tm_plan.Plan.cover in
    if i < Array.length cover then begin
      let est = cover.(i).Tm_plan.Plan.p_est in
      let actual = Relation.cardinality rel in
      if Tm_plan.Planner.should_replan ~est ~actual then begin
        ignore (Atomic.compare_and_set blown None (Some (i, est, actual)));
        Cancel.cancel cancel;
        raise Replan_abandoned
      end
    end
  in
  (* The fallback chain: the planned strategy, then the paper's two
     primary plans and JI (complete indices with independent physical
     structures), then the index-free oracle. Every chain member that
     fails for a classified reason is recorded and skipped; anything
     else — including Timeout/Cancelled/Replan_abandoned — propagates
     immediately. *)
  let run_strategy par ~cancel ~watch ~order strategy ~out_uid cpaths =
    match Database.require db strategy with
    | Database.Built_rootpaths fam -> run_rp ?par ~cancel ?watch db fam ~out_uid cpaths
    | Database.Built_datapaths fam when dp_use_inlj ->
      run_inlj ~cancel ?watch ~order db ~free:(eval_dp_free fam)
        ~probe:(dp_probe_all ?par ~cancel fam) ~out_uid cpaths
    | Database.Built_datapaths fam ->
      (* The ablation (not a paper strategy): every path a FreeIndex
         lookup stitched with hash joins — DATAPATHS reduced to
         ROOTPATHS-style planning, isolating the contribution of
         index-nested-loop joins to Figure 12(d). *)
      finish ~out_uid (eval_paths ?par ~cancel ?watch db (eval_dp_free fam) cpaths)
    | Database.Built_edge -> run_edge ?par ~cancel ?watch db ~out_uid cpaths
    | Database.Built_dataguide guide ->
      run_guide ?par ~cancel ?watch db ~out_uid ~guide ~fabric:None cpaths
    | Database.Built_index_fabric { fabric; dataguide } ->
      run_guide ?par ~cancel ?watch db ~out_uid ~guide:dataguide ~fabric:(Some fabric) cpaths
    | Database.Built_asr asrs -> run_asr ?par ~cancel ?watch db asrs ~out_uid cpaths
    | Database.Built_ji ji ->
      run_inlj ~cancel ?watch ~order db ~free:(eval_ji_driver db ji)
        ~probe:(eval_ji_probe db ji) ~out_uid cpaths
  in
  let attempt_chain par ~cancel ~watch (plan : Tm_plan.Plan.t) ~out_uid cpaths =
    let requested = plan.Tm_plan.Plan.strategy in
    let order = plan.Tm_plan.Plan.join_order in
    let chain =
      requested
      :: List.filter
           (fun s -> not (Tm_plan.Strategy.equal s requested))
           [ Database.DP; Database.RP; Database.Ji ]
    in
    let rec go = function
      | [] ->
        (* Every indexed strategy was unusable: answer from the naive
           in-memory matcher, which touches no index pages at all. *)
        Cancel.check cancel;
        (Tm_query.Naive.query db.Database.doc twig, requested, true)
      | strategy :: rest -> (
        match run_strategy par ~cancel ~watch ~order strategy ~out_uid cpaths with
        | ids -> (ids, strategy, false)
        | exception e -> (
          match classify_unusable e with
          | Some why when not strict ->
            note_fallback strategy why;
            go rest
          | Some _ | None -> raise e))
    in
    go chain
  in
  (* One attempt = one cancellation token scoped to the remaining
     deadline budget, plus (while replans remain) a watch that trips it
     on a blown estimate. *)
  let run_attempt par (plan : Tm_plan.Plan.t) ~out_uid cpaths =
    let remaining =
      match deadline_ms with None -> None | Some ms -> Some (ms -. latency_ms ())
    in
    (match remaining with Some r when r <= 0.0 -> raise Cancel.Cancelled | _ -> ());
    (match parent with Some p -> Cancel.check p | None -> ());
    let watching =
      adaptive
      && stats.Stats.replans < Tm_plan.Planner.max_replans
      && Array.length plan.Tm_plan.Plan.cover > 1
    in
    (* Attempt tokens chain to the caller's [cancel] as parent: the
       request tripping cancels the attempt, but a replan cancelling
       this attempt token leaves the request token untouched. *)
    let cancel =
      match remaining with
      | Some r -> Cancel.with_deadline_ms ?parent r
      | None -> (
        if watching then Cancel.token ?parent ()
        else match parent with Some p -> p | None -> Cancel.never)
    in
    let watch = if watching then Some (watch_for plan cancel) else None in
    attempt_chain par ~cancel ~watch plan ~out_uid cpaths
  in
  let rec execute par (plan : Tm_plan.Plan.t) ~out_uid cpaths =
    match run_attempt par plan ~out_uid cpaths with
    | ids, strategy, via_naive -> (plan, ids, strategy, via_naive)
    | exception (Replan_abandoned | Cancel.Cancelled)
      when (match Atomic.get blown with Some _ -> true | None -> false) ->
      let i, est, actual =
        match Atomic.exchange blown None with Some b -> b | None -> assert false
      in
      stats.Stats.replans <- stats.Stats.replans + 1;
      observed := (i, actual) :: List.remove_assoc i !observed;
      let note =
        Printf.sprintf "path %d returned %d rows against an estimate of %d" (i + 1)
          actual est
      in
      replan_notes := note :: !replan_notes;
      Tm_obs.Flight.emit Tm_obs.Flight.Replan stats.Stats.replans 0 note;
      if Tm_obs.Obs.in_trace () then
        Tm_obs.Obs.annotate (Printf.sprintf "replan:%d" stats.Stats.replans) note;
      let plan' =
        match plan_twig ~overrides:!observed db ~shape cpaths with
        | p -> p
        | exception e -> (
          match classify_unusable e with
          | Some _ when not strict -> plan (* keep the plan, watch expires below *)
          | Some _ | None -> raise e)
      in
      execute par plan' ~out_uid cpaths
  in
  let run_with par =
    let body () =
      match compiled with
      | None -> (initial_plan, [], initial_plan.Tm_plan.Plan.strategy, false)
      | Some cpaths ->
        let out_uid = (Twig.output_node twig).Twig.uid in
        let plan, ids, strategy, via_naive = execute par initial_plan ~out_uid cpaths in
        (plan, List.sort_uniq Int.compare ids, strategy, via_naive)
    in
    Tm_obs.Obs.trace
      ~meta:
        [
          ("query", Twig.to_string twig);
          ("shape", shape);
          ("strategy", Database.strategy_name initial_plan.Tm_plan.Plan.strategy);
          ("reason", initial_plan.Tm_plan.Plan.reason);
          ("trace", string_of_int trace_id);
          ( "jobs",
            string_of_int (match par with Some p -> Tm_par.Pool.jobs p | None -> 1) );
        ]
      ("query:" ^ Database.strategy_name initial_plan.Tm_plan.Plan.strategy)
      body
  in
  let record_journal ~(plan : Tm_plan.Plan.t) ~strategy ~reason ~fallbacks ~via_naive ~rows ~ms
      outcome =
    if Tm_obs.Journal.enabled () then
      Tm_obs.Journal.record
        {
          Tm_obs.Journal.j_id = trace_id;
          j_time = Unix.gettimeofday ();
          j_query = Twig.to_string twig;
          j_shape = shape;
          j_requested = Database.strategy_name initial_plan.Tm_plan.Plan.strategy;
          j_strategy = Database.strategy_name strategy;
          j_reason = reason;
          j_fallbacks =
            List.map (fun (s, why) -> (Database.strategy_name s, why)) fallbacks;
          j_via_naive = via_naive;
          j_rows = rows;
          j_est_rows =
            (if Array.length plan.Tm_plan.Plan.cover = 0 then None
             else Some plan.Tm_plan.Plan.est_rows);
          j_latency_ms = ms;
          j_stats = stats;
          j_jobs = jobs_used;
          j_txn = db.Database.last_txn;
          j_outcome = outcome;
        }
  in
  match
    (* Pin the pager epoch for the whole evaluation: a durable ingest
       committing mid-query publishes a new epoch, but every page this
       query (and its pool workers, via the registered propagator) reads
       is served at the pinned one — the result is consistently pre- or
       post-commit, never torn. *)
    Stats.with_record stats (fun () ->
        Tm_storage.Epoch.with_pin db.Database.pager (fun () ->
            Tm_obs.Context.with_context trace_id (fun () ->
                match pool with
                | Some p -> run_with (Some p)
                | None -> (
                  match jobs with
                  | Some j when j > 1 -> Tm_par.Pool.with_pool ~jobs:j (fun p -> run_with (Some p))
                  | Some _ | None -> run_with None))))
  with
  | (final_plan, ids, strategy, via_naive), trace ->
    (* The record is final once uninstalled: every consumer reads it now. *)
    Tm_obs.Obs.add_query stats;
    let fallbacks = List.rev !fallbacks in
    let reason = final_plan.Tm_plan.Plan.reason in
    let reason =
      match List.rev !replan_notes with
      | [] -> reason
      | notes -> Printf.sprintf "%s [%s]" reason (String.concat "; " notes)
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
    let ms = latency_ms () in
    let rows = List.length ids in
    Tm_obs.Obs.observe h_query_ms ms;
    Tm_obs.Flight.emit_traced trace_id Tm_obs.Flight.Query_end rows stats.Stats.replans "";
    record_journal ~plan:final_plan ~strategy ~reason ~fallbacks ~via_naive ~rows
      ~ms Tm_obs.Journal.Completed;
    {
      ids;
      stats;
      strategy;
      reason;
      fallbacks;
      via_naive;
      plan = final_plan;
      replans = stats.Stats.replans;
      trace;
      trace_id;
    }
  | exception Cancel.Cancelled ->
    Tm_obs.Obs.add_query stats;
    let deadline =
      match deadline_ms with
      | Some ms -> ms
      | None -> (
        (* Cancelled through the ambient token: report its budget. *)
        match parent with
        | Some p -> Option.value (Cancel.deadline_ms p) ~default:0.0
        | None -> 0.0)
    in
    Tm_obs.Flight.emit_traced trace_id Tm_obs.Flight.Cancel_deadline
      (int_of_float deadline) 0 "";
    record_journal ~plan:initial_plan ~strategy:initial_plan.Tm_plan.Plan.strategy
      ~reason:initial_plan.Tm_plan.Plan.reason ~fallbacks:(List.rev !fallbacks)
      ~via_naive:false ~rows:0 ~ms:(latency_ms ())
      (Tm_obs.Journal.Timed_out deadline);
    raise (Timeout { ms = deadline; stats })
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Tm_obs.Obs.add_query stats;
    record_journal ~plan:initial_plan ~strategy:initial_plan.Tm_plan.Plan.strategy
      ~reason:initial_plan.Tm_plan.Plan.reason ~fallbacks:(List.rev !fallbacks)
      ~via_naive:false ~rows:0 ~ms:(latency_ms ())
      (Tm_obs.Journal.Failed (Printexc.to_string e));
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
  | Some fam -> Relation.cardinality (eval_family_rooted fam ~head:None cp)
  | None -> estimate db cp

(** The per-branch result sizes of a twig (one entry per linear path),
    reproducing the "Result Size Per Branch" column of Figures 7-8. *)
let path_cardinalities (db : Database.t) twig =
  match compile db twig with
  | exception Unknown_tag -> []
  | cpaths -> List.map (branch_cardinality db) cpaths
