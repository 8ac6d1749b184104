(** Query execution: one physical plan template per indexing strategy
    (paper Section 5.1.2). Every plan covers the twig with its linear
    root-to-leaf paths, evaluates each to a binding relation over the
    branch points and the output node, and stitches the relations with
    relational joins — using exactly the access paths and join
    algorithms the paper attributes to each strategy.

    Planning is delegated to {!Tm_plan}: the cost-based planner picks
    cover, join order and strategy (cached per (generation, twig
    shape)), and {!run} adapts mid-query when a path's observed
    cardinality blows its estimate. *)

exception Timeout of { ms : float; stats : Tm_exec.Stats.t }
(** Raised by {!run} when its [deadline_ms] expires: [ms] is the
    deadline that was set, [stats] the work completed before expiry. *)

type result = {
  ids : int list;  (** sorted distinct data-node ids of the output node *)
  stats : Tm_exec.Stats.t;
      (** the query's cost record — §6 counts, buffer reads and misses,
          minor words — charged by every domain that worked for it and
          by nothing else; the journal entry, the root span and the
          [query.*] metrics totals read this same record *)
  strategy : Database.strategy;  (** the strategy actually executed *)
  reason : string;
      (** one-line justification ("as requested" for forced plans, the
          planner's cost comparison under [Auto]; extended with the
          replan and fallback stories when either occurred) *)
  fallbacks : (Database.strategy * string) list;
      (** strategies abandoned before [strategy] answered, oldest
          first, each with why its index was unusable (empty on the
          healthy path) *)
  via_naive : bool;
      (** [true] when every indexed strategy was unusable and the
          answer came from the naive in-memory matcher; [strategy] then
          holds the originally planned strategy *)
  plan : Tm_plan.Plan.t;
      (** the plan in effect when the answer was produced: PCsubpath
          cover with estimates, join order, cost comparison; after a
          mid-query replan this is the {e final} plan *)
  replans : int;
      (** mid-query plan abandonments before the answer (Auto hints
          only; capped at {!Tm_plan.Planner.max_replans}) *)
  trace : Tm_obs.Obs.span option;
      (** the query's span tree, recorded when the {!Tm_obs.Obs} sink
          is enabled ([None] otherwise) *)
  trace_id : int;
      (** process-unique query id, assigned unconditionally; the
          {!Tm_obs.Journal} entry (when journaling is on), the root
          span's [trace] meta, and warnings raised during execution
          all carry it *)
}

val run :
  ?dp_use_inlj:bool ->
  ?hint:Tm_plan.Hint.t ->
  ?strict:bool ->
  ?cancel:Tm_par.Cancel.t ->
  ?deadline_ms:float ->
  ?pool:Tm_par.Pool.t ->
  Database.t ->
  Tm_query.Twig.t ->
  result
(** Evaluate a twig under [hint]:
    - {!Tm_plan.Hint.Auto} (default) — the cost-based planner decides,
      consulting the plan cache, and adapting mid-query (below);
    - [Force s] — execute strategy [s]; cover and join order are still
      computed for display, no costing, no adaptivity;
    - [Pin p] — execute a previously obtained {!Tm_plan.Plan.t}
      verbatim (no cache, no adaptivity) — the reproducibility and
      regression-pinning hook.

    Query tags absent from the data yield an empty result.
    [dp_use_inlj:false] (default true) disables index-nested-loop
    joins for the DP strategy — an ablation isolating the Figure 12(d)
    effect.

    {b Mid-query adaptivity} (Auto only): the executor watches each
    path's finished binding relation against the plan's estimate. When
    one blows it past the {!Tm_plan.Planner.should_replan} threshold
    (>10x), the attempt's cancellation token trips (stopping in-flight
    pool tasks), the query is re-planned with the observed cardinality
    as an override, and execution restarts — at most
    {!Tm_plan.Planner.max_replans} times. [replans] counts the
    abandonments; [plan] is the final plan; [reason] narrates each
    trigger.

    {b Graceful degradation} (default, [strict:false]): when the
    planned strategy's index is unusable — not materialized, corrupt
    ({!Tm_storage.Pager.Corrupt_page} from a checksum failure), failing
    I/O after the buffer pool's retries, or a lossy variant rejecting
    the query shape ({!Tm_index.Family.Unsupported}: [//] under Section
    4.2 schema compression, a Section 4.3-pruned head id) — execution
    falls back through DP, RP and JI to the naive in-memory matcher.
    Abandoned attempts are listed in [fallbacks] and narrated in
    [reason]; answers remain oracle-identical. With [strict:true] the
    first such failure propagates typed instead.

    [deadline_ms] arms a per-query deadline, checked between per-path
    evaluations and INLJ probe chunks (including inside pool tasks);
    expiry raises {!Timeout} with partial stats. Timeouts are never
    absorbed by fallback or replanning. [cancel] is an ambient
    {!Tm_par.Cancel.t} (e.g. a serving layer's per-request token): it
    parents every attempt-scoped token, so the caller tripping it —
    explicitly or by deadline — raises {!Timeout} here, while internal
    replan cancellations never leak into the caller's token. With both
    [cancel] and [deadline_ms], whichever expires first wins.

    [pool] fans the independent per-path index lookups (and DP's INLJ
    probe batches) out across a domain pool, joining the binding
    relations as they complete; results are identical to a sequential
    run. JI plans run sequentially.
    @raise Timeout when [deadline_ms] expires.
    @raise Tm_index.Family.Unsupported ([strict] only) when the
    strategy's index cannot answer the query shape.
    @raise Database.Index_not_built ([strict] only) when the strategy's
    index set was not materialized at {!Database.create} time.
    @raise Tm_storage.Pager.Corrupt_page ([strict] only) when an index
    page fails its checksum. *)

val path_cardinalities : Database.t -> Tm_query.Twig.t -> int list
(** Per-branch result sizes (the "Result Size Per Branch" column of
    Figures 7-8), one per linear path. *)

val plan : ?hint:Tm_plan.Hint.t -> Database.t -> Tm_query.Twig.t -> Tm_plan.Plan.t
(** The plan {!run} starts from under [hint] (default [Auto]) — the
    Lore-style optimizer integration of paper Section 6:
    - [Auto]: the cost-based planner's choice from the pre-collected
      selectivity statistics (consults and fills the plan cache);
    - [Force s]: strategy [s], with cover and join order for display;
    - [Pin p]: [p] itself.

    A query tag absent from the data yields a trivial plan (empty
    cover), RP under [Auto].
    @raise Tm_storage.Pager.Corrupt_page (and the other typed errors
    {!run} degrades on with [strict:false]) when a statistics page
    cannot be read; {!run} itself falls back instead. *)

val explain : ?analyze:bool -> ?hint:Tm_plan.Hint.t -> Database.t -> Tm_query.Twig.t -> string
(** Human-readable plan: the {!Tm_plan.Plan.t} rendering (shape, join
    order with per-path estimates, cost comparison, cache marker) of
    {!plan} under [hint] (default [Auto]), followed by the
    strategy's physical plan shape. With [analyze:true] the query is
    also executed with the obs sink enabled, and the recorded span tree
    (per-path and per-join timings, buffer-pool hit rates, row counts)
    plus the executor statistics are appended — EXPLAIN ANALYZE. *)
