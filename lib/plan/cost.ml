(** The planner's cost model, in "entries touched" units — the paper's
    Section 6 crossover, generalized from the executor's original
    RP-vs-DP comparison to every costed strategy.

    - {b RP} scans and materializes every branch: cost = sum of branch
      estimates. Wins when branches are equally (un)selective — the
      Figure 12(a)/(c) regime where INLJ cannot be exploited.
    - {b DP} scans the most selective branch and probes the BoundIndex
      once per binding and remaining branch; each probe costs about one
      root-to-leaf descent ({!probe_cost_entries}). Wins when one branch
      is far more selective than the rest (Figure 12(b)/(d)).
    - {b JI} drives like DP but resolves interior positions with extra
      backward join-index lookups, so probes cost roughly twice as much;
      it only wins when DP is unavailable (the paper's "under reuse"
      niche).
    - {b Edge} climbs one backward link per step per instance: cost =
      sum of estimate x path length. Competitive only for short, highly
      selective paths. *)

(* Cost of one BoundIndex probe, in contiguous-entry-scan units;
   calibrated against the benchmark harness (raising it biases toward
   merge joins). *)
let probe_cost_entries = 6

(* Strategies the Auto planner will consider; DG+Edge / IF+Edge / ASR
   are simulated comparison points and must be forced explicitly. *)
let costed = [ Strategy.RP; Strategy.DP; Strategy.Ji; Strategy.Edge ]

type input = {
  ests : int array;  (** per-path estimates, decomposition order *)
  lens : int array;  (** per-path step counts *)
}

let join_order ests =
  let idx = Array.init (Array.length ests) Fun.id in
  Array.stable_sort (fun a b -> Int.compare ests.(a) ests.(b)) idx;
  idx

let costs { ests; lens } ~built =
  let k = Array.length ests in
  let total = Array.fold_left ( + ) 0 ests in
  let emin = Array.fold_left min max_int ests in
  let fl = float_of_int in
  let edge_cost =
    let acc = ref 0.0 in
    Array.iteri (fun i e -> acc := !acc +. (fl e *. fl lens.(i))) ests;
    !acc
  in
  let cost_of = function
    | Strategy.RP -> Some (fl total)
    | Strategy.DP -> Some (fl emin +. (fl emin *. fl (k - 1) *. fl probe_cost_entries))
    | Strategy.Ji ->
      Some ((2.0 *. fl emin) +. (fl emin *. fl (k - 1) *. fl probe_cost_entries *. 2.0))
    | Strategy.Edge -> Some edge_cost
    | Strategy.DG_edge | Strategy.IF_edge | Strategy.Asr -> None
  in
  costed
  |> List.filter (fun s -> Strategy.mem s built)
  |> List.filter_map (fun s -> Option.map (fun c -> (s, c)) (cost_of s))
  |> List.sort (fun (sa, ca) (sb, cb) ->
         match Float.compare ca cb with 0 -> Strategy.compare sa sb | c -> c)

let describe = function
  | Strategy.RP -> "merge join over branch scans"
  | Strategy.DP -> "INLJ from the selective branch"
  | Strategy.Ji -> "join-index probes from the selective branch"
  | Strategy.Edge -> "per-step edge joins"
  | (Strategy.DG_edge | Strategy.IF_edge | Strategy.Asr) as s -> Strategy.name s ^ " plan"

let choose input ~built =
  match costs input ~built with
  | [] -> (Strategy.Edge, 0.0, [], "no costed strategy built: Edge table fallback")
  | ((winner, cost) :: _) as rivals ->
    let ests_s =
      Array.to_list input.ests |> List.map string_of_int |> String.concat ";"
    in
    let costs_s =
      List.map (fun (s, c) -> Printf.sprintf "%s~%.0f" (Strategy.name s) c) rivals
      |> String.concat " "
    in
    let reason =
      if Int.equal (Array.length input.ests) 1 then
        Printf.sprintf "single path: one %s lookup" (Strategy.name winner)
      else
        Printf.sprintf "%s: branch estimates [%s]; %s entries" (describe winner) ests_s
          costs_s
    in
    (winner, cost, rivals, reason)
