(** Live telemetry endpoint: a minimal HTTP/1.1 server on stdlib
    [Unix] + [Thread], serving read-only observability routes
    ([/metrics], [/health], [/slo], [/traces]) while a simulation
    runs.  One accept thread, connections served serially, every
    response closed — scrapes are rare and tiny, so an unscraped
    endpoint costs the simulation nothing. *)

type response = { status : int; content_type : string; body : string }

val text : ?status:int -> string -> response
(** Prometheus text exposition content type. *)

val json : ?status:int -> string -> response
val jsonl : ?status:int -> string -> response

type t

val start :
  ?host:string ->
  port:int ->
  routes:(string * (unit -> response)) list ->
  unit ->
  t
(** [start ~port ~routes ()] binds [host] (default [127.0.0.1]) and
    serves [routes] (path → handler; handlers run on the accept
    thread and must be thread-safe) from a background thread.
    [~port:0] picks an ephemeral port — read it back with {!port}.
    Raises [Unix.Unix_error] if the bind fails. *)

val port : t -> int
(** The bound port (useful with [~port:0]). *)

val stop : t -> unit
(** Close the listening socket and join the accept thread. *)

val prometheus_of_snapshot : Xy_obs.Obs.Snapshot.t -> string
(** Render a metrics snapshot in the Prometheus text exposition
    format.  Metric names are [xyleme_<name>] with a [stage] label;
    counters gain a [_total] suffix; histograms emit cumulative
    [_bucket{le=...}] series plus [_sum]/[_count] and bucket-estimated
    [_p50]/[_p95]/[_p99] gauges.  Values and [le] labels print with
    {!Xy_obs.Obs.Export.number}. *)
