(* Re-execution of a chosen ROOTPATHS or DATAPATHS plan through public
   calls, one span per layer: B+-tree walk, key decode, IdList decode,
   match, binding, INLJ probes and joins. It mirrors the executor's
   plan templates so the per-layer numbers describe the same work;
   [run] returns the hits it counted and the answer it computed, which
   the traced run checks against the executor's own result. *)

open Twigmatch
module D = Tm_query.Decompose
module Twig = Tm_query.Twig
module Codec = Tm_storage.Codec
module Bptree = Tm_storage.Bptree
module Sp = Tm_xmldb.Schema_path
module Relation = Tm_exec.Relation
module Family = Tm_index.Family

exception Not_reexecutable of string

type cpath = {
  pattern : D.tag_pattern;
  uids : int array;
  value : string option;
  needed : int list;  (** step indices bound into the relation *)
}

let compile (db : Database.t) twig =
  let keep =
    (Twig.output_node twig).Twig.uid :: List.map (fun n -> n.Twig.uid) (Twig.branch_nodes twig)
  in
  List.map
    (fun (l : D.linear) ->
      if Option.is_some l.D.range then raise (Not_reexecutable "range predicate");
      let steps = Array.of_list l.D.steps in
      let pattern =
        Array.map
          (fun (s : D.step) ->
            if String.equal s.D.name "*" then (s.D.axis, D.wildcard)
            else
              match Tm_xmldb.Dictionary.find db.Database.dict s.D.name with
              | Some t -> (s.D.axis, t)
              | None -> raise (Not_reexecutable "unknown tag"))
          steps
      in
      let uids = Array.map (fun (s : D.step) -> s.D.uid) steps in
      let needed =
        List.filter (fun i -> List.mem uids.(i) keep) (List.init (Array.length steps) Fun.id)
      in
      let needed = if needed = [] then [ Array.length steps - 1 ] else needed in
      { pattern; uids; value = l.D.value; needed })
    (D.linear_paths twig)

(* Planner inputs, as the executor builds them. *)
let planner_paths (db : Database.t) cpaths () =
  List.map
    (fun cp ->
      {
        Tm_plan.Planner.i_label = "";
        i_est =
          Tm_plan.Estimate.path_cardinality ~catalog:db.Database.catalog ~edge:db.Database.edge
            ~pattern:cp.pattern ~value:cp.value ~range:None;
        i_len = Array.length cp.pattern;
      })
    cpaths

let plan_call (db : Database.t) twig cpaths =
  Tm_plan.Planner.plan ~generation:(Database.generation db) ~shape:(Twig.shape twig)
    ~built:(Database.built_strategies db) ~paths:(planner_paths db cpaths) ()

type probe = Exact of Sp.t | Suffix of Sp.t

let schema_probe pattern =
  if D.is_pcsubpath pattern && fst pattern.(0) = Twig.Child then Exact (Array.map snd pattern)
  else Suffix (D.child_suffix pattern)

let sep = String.make 1 Codec.key_sep

(* The probe key of a ROOTPATHS ([Value; Schema_rev]) or DATAPATHS
   ([Head; Value; Schema_rev]) lookup, and whether it is a whole key. *)
let probe_key ~head ~value schema =
  let head_part = match head with None -> "" | Some h -> Codec.u32_to_string h ^ sep in
  let v = Codec.encode_value value in
  match schema with
  | Exact p -> (head_part ^ v ^ sep ^ Sp.encode_reversed p, true)
  | Suffix p -> (head_part ^ v ^ sep ^ Sp.encode_reversed p, false)

type tally = {
  mutable hits : int;  (** entries the lookup returns (the executor's entries_scanned) *)
  mutable walked : int;  (** entries the B+-tree walk visits *)
  mutable words : float;  (** minor words allocated by walk, decode and match *)
  mutable probes : int;
  mutable join_rows : int;
}

let new_tally () = { hits = 0; walked = 0; words = 0.0; probes = 0; join_rows = 0 }

(* One index lookup, layer by layer. Returns (schema tags, ids) per hit. *)
let lookup tally fam ~head ~value schema =
  let tree = Family.tree fam in
  let prefix, exact = probe_key ~head ~value schema in
  let walk f acc =
    if exact then Bptree.fold_range tree ~lo:prefix ~hi:(Some (prefix ^ sep)) f acc
    else Bptree.fold_prefix tree ~prefix f acc
  in
  let w0 = Gc.minor_words () in
  let n = Trace.with_span "storage.walk" (fun () -> walk (fun n _ _ -> n + 1) 0) in
  Trace.count "entries" (float_of_int n);
  let w1 = Gc.minor_words () in
  let entries =
    Trace.with_span "trace.collect" (fun () ->
        Array.of_list (List.rev (walk (fun acc k p -> (k, p) :: acc) [])))
  in
  let w2 = Gc.minor_words () in
  let keys =
    Trace.with_span "index.key_decode" (fun () ->
        Array.map (fun (k, _) -> Family.decode_entry_key fam k) entries)
  in
  let schema_ok s = match schema with Exact p -> Sp.equal s p | Suffix p -> Sp.has_suffix s p in
  let hit_idx =
    List.filter
      (fun i ->
        let _, v, s = keys.(i) in
        Option.equal String.equal v value && schema_ok s)
      (List.init (Array.length entries) Fun.id)
  in
  let hits =
    Trace.with_span "index.idlist_decode" (fun () ->
        List.map
          (fun i ->
            let _, _, s = keys.(i) in
            (s, Array.of_list (Family.decode_idlist fam (snd entries.(i)))))
          hit_idx)
  in
  let w3 = Gc.minor_words () in
  tally.walked <- tally.walked + n;
  tally.hits <- tally.hits + List.length hits;
  tally.words <- tally.words +. (w1 -. w0) +. (w3 -. w2);
  hits

(* Match hits against [pattern] and bind the needed columns. [id_at]
   maps (ids, schema position) to a data node id. *)
let bind tally ~pattern ~cols ~needed ~id_at hits =
  let w0 = Gc.minor_words () in
  let rows =
    Trace.with_span "query.match" (fun () ->
        List.fold_left
          (fun acc ((s : Sp.t), ids) ->
            List.fold_left
              (fun acc positions ->
                Array.of_list (List.map (fun i -> id_at ids positions.(i)) needed) :: acc)
              acc (D.match_all pattern s))
          [] hits)
  in
  tally.words <- tally.words +. (Gc.minor_words () -. w0);
  Trace.with_span "exec.bind" (fun () -> Relation.distinct (Relation.create cols rows))

let cols_of cp idx = Array.of_list (List.map (fun i -> cp.uids.(i)) idx)

let eval_free tally fam ~head cp =
  let hits = lookup tally fam ~head ~value:cp.value (schema_probe cp.pattern) in
  bind tally ~pattern:cp.pattern ~cols:(cols_of cp cp.needed) ~needed:cp.needed
    ~id_at:(fun ids p -> ids.(p))
    hits

let join tally kind a b =
  Trace.with_span "exec.join" (fun () ->
      let r =
        match kind with `Merge -> Relation.merge_join a b | `Hash -> Relation.hash_join a b
      in
      tally.join_rows <- tally.join_rows + Relation.cardinality r;
      Trace.count "rows" (float_of_int (Relation.cardinality r));
      r)

let dp_probe tally fam cp ~idx_b ~h =
  tally.probes <- tally.probes + 1;
  Trace.with_span "index.inlj_probe" (fun () ->
      let n = Array.length cp.pattern in
      let pattern =
        Array.init (n - idx_b) (fun i ->
            if i = 0 then (Twig.Child, snd cp.pattern.(idx_b)) else cp.pattern.(idx_b + i))
      in
      let below = List.filter (fun i -> i >= idx_b) cp.needed in
      let hits = lookup tally fam ~head:(Some h) ~value:cp.value (schema_probe pattern) in
      bind tally ~pattern ~cols:(cols_of cp below)
        ~needed:(List.map (fun i -> i - idx_b) below)
        ~id_at:(fun ids p -> if p = 0 then h else ids.(p - 1))
        hits)

let deepest_shared_idx cp bound =
  let best = ref None in
  Array.iteri (fun i u -> if Array.exists (Int.equal u) bound then best := Some i) cp.uids;
  !best

let run_dp tally (db : Database.t) fam (plan : Tm_plan.Plan.t) ~out_uid cpaths =
  let arr = Array.of_list cpaths in
  let order =
    let o = plan.Tm_plan.Plan.join_order in
    if Array.length o = Array.length arr then Array.to_list o
    else
      List.init (Array.length arr) Fun.id
      |> List.map (fun i -> (List.hd (planner_paths db [ arr.(i) ] ()), i))
      |> List.stable_sort (fun (a, _) (b, _) ->
             Int.compare a.Tm_plan.Planner.i_est b.Tm_plan.Planner.i_est)
      |> List.map snd
  in
  match order with
  | [] -> raise (Not_reexecutable "no paths")
  | first :: rest ->
    let acc = ref (eval_free tally fam ~head:(Some 0) arr.(first)) in
    List.iter
      (fun i ->
        let cp = arr.(i) in
        match deepest_shared_idx cp (Relation.columns !acc) with
        | None -> acc := join tally `Hash !acc (eval_free tally fam ~head:(Some 0) cp)
        | Some idx_b ->
          let b_values = Relation.column_values !acc cp.uids.(idx_b) in
          let probes = List.rev_map (fun h -> dp_probe tally fam cp ~idx_b ~h) b_values in
          let cols = cols_of cp (List.filter (fun i -> i >= idx_b) cp.needed) in
          let rel =
            Trace.with_span "exec.bind" (fun () ->
                List.fold_left
                  (fun rel (r : Relation.t) ->
                    Relation.create (Relation.columns r) (r.Relation.rows @ rel.Relation.rows))
                  (Relation.empty cols) probes)
          in
          acc := join tally `Hash !acc rel)
      rest;
    Relation.column_values !acc out_uid

let run_rp tally fam ~out_uid cpaths =
  match List.map (eval_free tally fam ~head:None) cpaths with
  | [] -> raise (Not_reexecutable "no paths")
  | r :: rest ->
    let joined = List.fold_left (fun acc r -> join tally `Merge acc r) r rest in
    Relation.column_values joined out_uid

(* Re-execute [plan] for [twig]: the answer and the layer tallies. *)
let run (db : Database.t) twig (plan : Tm_plan.Plan.t) =
  let cpaths = compile db twig in
  let tally = new_tally () in
  let out_uid = (Twig.output_node twig).Twig.uid in
  let ids =
    match Database.require db plan.Tm_plan.Plan.strategy with
    | Database.Built_rootpaths fam -> run_rp tally fam ~out_uid cpaths
    | Database.Built_datapaths fam -> run_dp tally db fam plan ~out_uid cpaths
    | _ -> raise (Not_reexecutable (Database.strategy_name plan.Tm_plan.Plan.strategy))
  in
  (ids, tally)
