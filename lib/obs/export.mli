(** Exporters over the {!Obs} sink: human-readable trace trees, JSON
    metrics, Chrome trace-event JSON, and Prometheus-style text
    metrics. *)

(** {1 JSON helpers} *)

val json_string : string -> string
(** A quoted, escaped JSON string literal. *)

val json_float : float -> string
(** A JSON-safe float rendering (no trailing-zero noise, never
    ["inf"]/["nan"]). *)

(** {1 Traces} *)

val trace_to_string : Obs.span -> string
(** Render a span tree with per-operator elapsed time, annotations,
    buffer-pool hit rate, allocation and the nonzero fields of each
    span's cost-record delta. *)

val trace_to_chrome : Obs.span -> string
(** Chrome trace-event JSON (an array of ["ph":"X"] complete events
    with [ts]/[dur] in microseconds, relative to the root span), as
    loaded by [chrome://tracing] and Perfetto. Span meta and the span's
    cost-record delta ride along in each event's [args]. *)

(** {1 Flight-recorder timelines} *)

val flight_to_json : Flight.event list -> string
(** Flight events as a JSON array (merged-timeline order is the
    caller's: pass {!Flight.snapshot} or {!Flight.merge_events}). *)

val flight_to_chrome : Flight.event list -> string
(** Merged-timeline Chrome trace-event JSON: one [tid] per domain on a
    shared clock, paired lifecycle events as ["B"]/["E"] slices, the
    rest as instants, correlated by [args.trace]. *)

(** {1 Histogram quantiles} *)

val quantile_of_counts : bounds:float array -> counts:int array -> float -> float option
(** Estimate the [q]-quantile (0 ≤ q ≤ 1) from bucket counts by linear
    interpolation within the crossing bucket ([histogram_quantile]
    style); [None] when the counts are all zero. [counts] has one more
    slot than [bounds] (the overflow bucket, which clamps to the
    largest finite bound). Raises [Invalid_argument] on q outside
    [0,1]. *)

val summary : Obs.histogram -> (string * float) list
(** [("p50", v); ("p95", v); ("p99", v)] — empty when the histogram has
    no observations. *)

(** {1 Derived gauges} *)

val all_gauges : unit -> (string * float) list
(** Registered {!Obs.gauge}s plus the derived [buffer_pool.hit_rate]. *)

(** {1 Metrics} *)

val metrics_to_json : ?extra:(string * string) list -> unit -> string
(** All registered counters, gauges and histograms (with p50/p95/p99
    summaries) as one JSON object. [extra] appends top-level fields
    whose values are already-rendered JSON. *)

val metrics_to_prometheus : unit -> string
(** Prometheus text exposition format ([# TYPE] lines, cumulative
    histogram buckets ending [le="+Inf"], gauges incl. the pool-wide
    hit rate). *)

val prometheus_name : string -> string
(** Mangle a sink metric name into a valid Prometheus metric name
    ([twigmatch_] prefix, non-alphanumerics replaced by [_]). *)

val prometheus_label_escape : string -> string
(** Escape a label value for the Prometheus text format (backslash,
    double quote, newline). *)
