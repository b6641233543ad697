(** Per-document pipeline tracing.

    The aggregate metrics of [xy_obs] answer "how fast is each stage
    on average?"; this library answers "where did *this* document
    spend its time?".  A sampled document receives a trace context at
    fetch time; the context propagates with the document through
    crawler → loader → alerters → MQP → trigger engine → reporter,
    and crosses the parallel pipeline's domains with it, so a worker's
    wait for its hand-off is attributed to a [bus/wait] span of the
    same trace.

    Sampling is deterministic (1-in-N via {!Xy_util.Prng}), so a
    simulation replayed from the same seed samples the same documents.
    An unsampled document carries no context ([None]) and every
    tracing entry point is a no-op — the disabled-path cost is one
    option match per stage.

    Spans record their stage, start and duration on both clocks (the
    virtual simulation {!Xy_util.Clock} and {!Xy_obs.Obs.now}),
    and key attributes (url, event counts, report size).  Completed
    traces are retained in a bounded ring buffer and exported as JSONL,
    the one trace export.

    The library is safe across OCaml domains: span completion and
    trace retirement take a tracer-internal lock, which only sampled
    documents ever touch. *)

(** {2 Wall clock}

    Wall times are {!Xy_obs.Obs.now} readings: [CLOCK_MONOTONIC]
    seconds from an arbitrary origin, so a [*_dur_wall] is never
    negative and a [*_start_wall] orders spans but is not calendar
    time.  The export prints both exactly ({!Xy_obs.Obs.Export}), so
    spans a nanosecond apart keep distinct [start_wall]s. *)

(** {2 Spans and traces} *)

type span = {
  sp_stage : string;  (** pipeline stage, e.g. ["mqp"] *)
  sp_name : string;  (** operation, e.g. ["match"] *)
  sp_start_wall : float;  (** {!Xy_obs.Obs.now} at span start *)
  sp_dur_wall : float;
  sp_start_virtual : float;  (** simulation time at span start *)
  sp_dur_virtual : float;
  sp_attrs : (string * string) list;
}

type trace = {
  tr_id : int;
  tr_root : string;  (** the traced document's URL *)
  tr_start_wall : float;
  tr_dur_wall : float;  (** start of first span to end of last *)
  tr_start_virtual : float;
  tr_spans : span list;  (** ascending by wall start time *)
}

(** {2 Tracer} *)

type t

(** [create ()] — [sample_every] is the 1-in-N sampling rate ([0],
    the default, disables tracing entirely; [1] traces every
    document); [capacity] bounds the completed-trace ring buffer
    (default 256, oldest evicted); [seed] feeds the sampling PRNG.
    Span virtual times read constantly [0.] until
    {!set_virtual_clock} binds a simulation clock. *)
val create : ?capacity:int -> ?sample_every:int -> ?seed:int -> unit -> t

val sample_every : t -> int

(** [set_sampling t ~every] changes the sampling rate of a live
    tracer (e.g. a CLI flag applied to a system-owned tracer). *)
val set_sampling : t -> every:int -> unit

(** [set_virtual_clock t f] rebinds the simulation clock (the system
    facade binds a user-supplied tracer to its own clock). *)
val set_virtual_clock : t -> (unit -> float) -> unit

(** {2 Trace contexts}

    A context is an immutable handle naming one sampled document's
    trace; it is designed to ride inside pipeline messages (alerts,
    batch documents) across domains.  Pipeline stages receive a
    [ctx option] and pay nothing when it is [None]. *)

type ctx

(** [start t ~root] makes the sampling decision for one document:
    [Some ctx] for the 1-in-N sampled ones, [None] otherwise (and
    always [None] when sampling is disabled). *)
val start : t -> root:string -> ctx option

(** [start_always t ~root] bypasses sampling (tests, forced traces). *)
val start_always : t -> root:string -> ctx

(** [finish ctx] retires the trace into the completed ring.  Spans
    ended after [finish] are dropped; a second [finish] is a no-op. *)
val finish : ctx -> unit

val trace_id : ctx -> int

(** {2 Recording spans} *)

type span_handle

(** [begin_span ctx ~stage ~name] opens a span at the current wall and
    virtual instants. *)
val begin_span : ctx -> stage:string -> name:string -> span_handle

(** [end_span ?attrs handle] closes the span and files it under its
    trace. *)
val end_span : ?attrs:(string * string) list -> span_handle -> unit

(** [wrap ctx ~stage ~name ?attrs f] runs [f] inside a span when [ctx]
    is [Some] (closing it on exception too); just runs [f] when
    [None]. *)
val wrap :
  ctx option ->
  stage:string ->
  name:string ->
  ?attrs:(string * string) list ->
  (unit -> 'a) ->
  'a

(** [record ctx ~stage ~name ~start_wall ~dur_wall] files a span
    retroactively — the producing side only kept timestamps (e.g. a
    hand-off instant measured on another domain).  Virtual start is
    the tracer's current simulation time, virtual duration [0.]. *)
val record :
  ctx ->
  stage:string ->
  name:string ->
  ?attrs:(string * string) list ->
  start_wall:float ->
  dur_wall:float ->
  unit ->
  unit

(** {2 Completed traces} *)

(** [traces t] — completed traces, most recent first. *)
val traces : t -> trace list

(** [slowest t ~k] — the [k] longest completed traces, slowest
    first. *)
val slowest : t -> k:int -> trace list

(** [started t] counts sampling decisions that returned a context;
    [completed t] counts retired traces (including ones evicted from
    the ring). *)
val started : t -> int

val completed : t -> int
val clear : t -> unit

(** {2 Analysis} *)

(** [stage_breakdown trace] sums wall time per stage, largest first —
    the critical-path view of one document ([(stage, seconds,
    fraction-of-total)]). *)
val stage_breakdown : trace -> (string * float * float) list

type stage_stat = {
  st_stage : string;
  st_spans : int;
  st_total_wall : float;
  st_max_wall : float;
}

(** [summary t] aggregates {!stage_breakdown} over every trace in the
    ring, largest total first. *)
val summary : t -> stage_stat list

(** {2 Export}

    JSON Lines is the one machine encoding of traces: the telemetry
    endpoint's [/traces] and [xyleme_cli simulate --trace --jsonl]
    serve it.
    Numbers and strings go through {!Xy_obs.Obs.Export}. *)

(** [trace_to_jsonl trace] is one JSON object on one line: [id],
    [root], [start_wall], [dur_wall], [start_virtual] and [spans], each
    span with [stage], [name], its four times and an [attrs] object. *)
val trace_to_jsonl : trace -> string

(** [to_jsonl_string t] is one line per completed trace, oldest
    first. *)
val to_jsonl_string : t -> string

(** [pp_trace] renders one trace for the terminal: header, span table
    and per-stage breakdown. *)
val pp_trace : Format.formatter -> trace -> unit
