(** Twig evaluation by structural joins — the two classic alternatives
    to path indexing that the paper cites as "stitching" machinery
    ([34], [1], [3]) but could not benchmark on DB2. Both engines read
    start-sorted tag / value streams and the region index; no path
    index is involved.

    - {!run_stj}: binary structural semi-joins (Stack-Tree style), one
      per twig edge — a bottom-up candidates pass and a top-down
      selection pass.
    - {!run_pathstack}: holistic PathStack (Bruno et al.) over each
      root-to-leaf path, producing path solutions merged with
      relational joins — the "holistic path matching + merge" phase of
      TwigStack. *)

open Tm_xmldb
open Tm_query
open Tm_exec

type result = { ids : int list; stats : Stats.t }

let axis_of = function Twig.Child -> Structural_join.Child | Twig.Descendant -> Structural_join.Descendant

(* Stream (start-sorted candidate ids) for one twig node, [] when the
   tag is unknown. Wildcard steps stream every node, filtered by value
   through the Edge tuple when predicated. *)
let stream_of (ctx : Context.t) (n : Twig.node) =
  let range_filter ids =
    match n.Twig.range with
    | None -> ids
    | Some r ->
      List.filter
        (fun id ->
          match Context.node_value ctx id with
          | Some v -> Twig.range_matches r v
          | None -> false)
        ids
  in
  if String.equal n.Twig.name "*" then begin
    let all = Context.all_stream ctx in
    match n.Twig.value with
    | None -> range_filter all
    | Some v ->
      List.filter
        (fun id ->
          match Context.node_value ctx id with Some v' -> String.equal v' v | None -> false)
        all
  end
  else
    match Dictionary.find ctx.Context.dict n.Twig.name with
    | None -> []
    | Some tag -> (
      match n.Twig.value with
      | Some v -> Context.value_stream ctx tag v
      | None -> range_filter (Context.tag_stream ctx tag))

let doc_roots_only (ctx : Context.t) ids =
  List.filter (fun id -> Region.level_of ctx.Context.region id = 1) ids

(* ------------------------------------------------------------------ *)
(* Binary structural semi-joins                                        *)
(* ------------------------------------------------------------------ *)

(* Each engine run installs its record for the run's extent, so page
   reads and allocation land beside the counts it bumps itself, and its
   spans show them. *)
let run_stj (ctx : Context.t) (twig : Twig.t) =
  let stats = Stats.create () in
  Stats.with_record stats @@ fun () ->
  let semijoin ~axis ~ancs ~descs =
    stats.Stats.join_steps <- stats.Stats.join_steps + 1;
    Structural_join.semijoin ctx.Context.region ~axis ~ancs ~descs
  in
  (* bottom-up: candidates satisfying each node's subtree pattern *)
  let candidates = Hashtbl.create 16 in
  let rec up (n : Twig.node) =
    List.iter (fun (_, c) -> up c) n.Twig.branches;
    stats.Stats.index_lookups <- stats.Stats.index_lookups + 1;
    let own = stream_of ctx n in
    stats.Stats.entries_scanned <- stats.Stats.entries_scanned + List.length own;
    let filtered =
      List.fold_left
        (fun acc (ax, c) ->
          let kept, _ =
            semijoin ~axis:(axis_of ax) ~ancs:acc ~descs:(Hashtbl.find candidates c.Twig.uid)
          in
          kept)
        own n.Twig.branches
    in
    Hashtbl.replace candidates n.Twig.uid filtered
  in
  Tm_obs.Obs.with_span "stj:bottom-up" (fun () -> up twig.Twig.root);
  (* top-down: keep candidates whose ancestor chain also matches *)
  let selected = Hashtbl.create 16 in
  let root_sel =
    let c = Hashtbl.find candidates twig.Twig.root.Twig.uid in
    match twig.Twig.root_axis with
    | Twig.Child -> doc_roots_only ctx c
    | Twig.Descendant -> c
  in
  Hashtbl.replace selected twig.Twig.root.Twig.uid root_sel;
  let rec down (n : Twig.node) =
    List.iter
      (fun (ax, c) ->
        let _, kept =
          semijoin ~axis:(axis_of ax)
            ~ancs:(Hashtbl.find selected n.Twig.uid)
            ~descs:(Hashtbl.find candidates c.Twig.uid)
        in
        Hashtbl.replace selected c.Twig.uid kept;
        down c)
      n.Twig.branches
  in
  Tm_obs.Obs.with_span "stj:top-down" (fun () -> down twig.Twig.root);
  let out = (Twig.output_node twig).Twig.uid in
  { ids = List.sort_uniq Int.compare (Hashtbl.find selected out); stats }

(* ------------------------------------------------------------------ *)
(* Holistic PathStack + merge                                          *)
(* ------------------------------------------------------------------ *)

(* One stack entry: the data node and how many entries were open on the
   parent stack when it was pushed (all of which contain it). *)
type ps_entry = { node : int; parent_open : int }

let run_pathstack (ctx : Context.t) (twig : Twig.t) =
  let stats = Stats.create () in
  Stats.with_record stats @@ fun () ->
  let region = ctx.Context.region in
  let out_uid = (Twig.output_node twig).Twig.uid in
  let branch_uids = List.map (fun n -> n.Twig.uid) (Twig.branch_nodes twig) in
  let keep = out_uid :: branch_uids in
  let paths = Decompose.linear_paths twig in
  let eval_path (l : Decompose.linear) =
    let steps = Array.of_list l.Decompose.steps in
    let n = Array.length steps in
    let needed_idx =
      let all = List.init n Fun.id in
      let chosen = List.filter (fun i -> List.mem steps.(i).Decompose.uid keep) all in
      match chosen with [] -> [ n - 1 ] | _ :: _ -> chosen
    in
    (* streams as arrays with cursors *)
    let streams =
      Array.mapi
        (fun i (s : Decompose.step) ->
          stats.Stats.index_lookups <- stats.Stats.index_lookups + 1;
          let tw_node = { Twig.uid = s.Decompose.uid; name = s.Decompose.name;
                          value = (if i = n - 1 then l.Decompose.value else None);
                          range = (if i = n - 1 then l.Decompose.range else None);
                          output = false; branches = [] } in
          Array.of_list (stream_of ctx tw_node))
        steps
    in
    let cursors = Array.make n 0 in
    let stacks : ps_entry list array = Array.make n [] in
    let next_start i =
      if cursors.(i) < Array.length streams.(i) then Some streams.(i).(cursors.(i)) else None
    in
    let rows = ref [] in
    (* expand solutions when a leaf is pushed: walk stack pointers
       upward, enumerating ancestor choices and checking Child axes *)
    let rec expand i node open_count acc =
      if i < 0 then rows := acc :: !rows
      else begin
        (* candidate ancestors: the first [open_count] entries of
           stacks.(i) counted from the bottom = all but the newest
           (len - open_count) *)
        let entries = List.rev stacks.(i) in
        (* bottom-first *)
        let rec take k = function
          | e :: rest when k > 0 -> e :: take (k - 1) rest
          | _ -> []
        in
        List.iter
          (fun (e : ps_entry) ->
            let ok =
              match steps.(i + 1).Decompose.axis with
              | Twig.Descendant -> Region.is_ancestor region ~anc:e.node ~desc:node
              | Twig.Child -> Region.is_parent region ~parent:e.node ~child:node
            in
            if ok then expand (i - 1) e.node e.parent_open ((i, e.node) :: acc))
          (take open_count entries)
      end
    in
    let emit_leaf node open_count =
      expand (n - 2) node open_count [ (n - 1, node) ]
    in
    let finished = ref false in
    while not !finished do
      (* the stream with the smallest next start *)
      let qmin = ref (-1) and best = ref max_int in
      Array.iteri
        (fun i _ ->
          match next_start i with
          | Some s when s < !best ->
            best := s;
            qmin := i
          | _ -> ())
        streams;
      if !qmin < 0 || Option.is_none (next_start (n - 1)) then finished := true
      else begin
        let i = !qmin in
        let v = streams.(i).(cursors.(i)) in
        cursors.(i) <- cursors.(i) + 1;
        stats.Stats.entries_scanned <- stats.Stats.entries_scanned + 1;
        (* clean every stack against v's start *)
        Array.iteri
          (fun j st ->
            stacks.(j) <-
              List.filter (fun (e : ps_entry) -> v <= Region.end_of region e.node) st)
          stacks;
        (* root anchoring *)
        let anchored =
          if i > 0 then true
          else
            match twig.Twig.root_axis with
            | Twig.Descendant -> true
            | Twig.Child -> Region.level_of region v = 1
        in
        if anchored then begin
          let parent_open = if i = 0 then 0 else List.length stacks.(i - 1) in
          if i = 0 || parent_open > 0 then begin
            stacks.(i) <- { node = v; parent_open } :: stacks.(i);
            if i = n - 1 then begin
              emit_leaf v parent_open;
              (* leaves never nest usefully; pop immediately *)
              stacks.(i) <- List.tl stacks.(i)
            end
          end
        end
      end
    done;
    (* rows bind every step; project the needed columns *)
    let cols = Array.of_list (List.map (fun i -> steps.(i).Decompose.uid) needed_idx) in
    let to_row binding =
      Array.of_list
        (List.map
           (fun i ->
             match List.assoc_opt i binding with
             | Some id -> id
             | None -> invalid_arg "pathstack: incomplete binding")
           needed_idx)
    in
    stats.Stats.rows_produced <- stats.Stats.rows_produced + List.length !rows;
    Relation.distinct (Relation.create cols (List.map to_row !rows))
  in
  let relations =
    List.mapi
      (fun i p -> Tm_obs.Obs.with_span (Printf.sprintf "pathstack:path:%d" (i + 1)) (fun () -> eval_path p))
      paths
  in
  let joined =
    match relations with
    | [] -> invalid_arg "run_pathstack: no paths"
    | r :: rest ->
      List.fold_left
        (fun acc r ->
          stats.Stats.join_steps <- stats.Stats.join_steps + 1;
          Tm_obs.Obs.with_span "join:hash" (fun () -> Relation.hash_join acc r))
        r rest
  in
  { ids = Relation.column_values joined out_uid; stats }
