(** The crawler: drains the fetch queue against the (synthetic) web.

    "Currently, one Xyleme crawler is able to fetch about 4 million
    pages per day, that is approximately 50 per second" — the crawl
    rate here is bounded by the per-step [limit] the caller passes,
    letting benches reproduce that regime. *)

type fetch = {
  url : string;
  content : string option;  (** [None]: the page disappeared *)
  kind : Synthetic_web.kind option;
  trace : Xy_trace.Trace.ctx option;
      (** tracing context when this fetch was sampled *)
  birth : float option;
      (** virtual birth time of the oldest change this fetch observed
          ({!Synthetic_web.take_change_birth}); rides the document
          downstream so the reporter can record notification lag *)
}

type t

(** Bounded-retry policy for transient fetch failures.  The [n]-th
    consecutive failure of a URL retries after
    [backoff * backoff_factor^(n-1)] seconds plus up to [jitter] of
    that as deterministic jitter; a URL of a site with at least
    [site_threshold] accumulated failures (a repeat offender) waits
    twice as long again.  After [max_retries] failures the URL is
    requeued at demoted importance (period multiplied by
    [demote_factor]) — never dropped. *)
type retry_policy = {
  max_retries : int;
  backoff : float;  (** seconds before the first retry *)
  backoff_factor : float;
  jitter : float;  (** fraction of the backoff, in [0, 1] *)
  demote_factor : float;
  site_threshold : int;
}

(** 3 retries, 5 min backoff doubling with 50 % jitter, period
    doubled on exhaustion, sites flagged at 10 failures. *)
val default_retry : retry_policy

(** [create ~web ~queue ()] — fetch metrics are registered under the
    [crawler] stage of [obs] (default {!Xy_obs.Obs.default}).  When a
    [tracer] is given, each fetch makes the 1-in-N sampling decision
    and a sampled fetch carries a trace context with a [fetch] span
    already recorded.

    [faults] (default {!Xy_fault.Fault.none}) drives the [fetch]
    failure point (a due fetch fails transiently and enters the
    [retry] path) and the [malformed] point (fetched content is
    mangled before the alerters see it).  Failure/retry accounting
    lands in the [fault] stage of [obs]: [fetch_failures],
    [fetch_retries], [retry_exhausted], [requeued_demoted] counters
    and the [flagged_sites] gauge.

    [clock] binds the system's virtual clock for staleness accounting
    (without it, the web's own {!Synthetic_web.vnow} serves): each
    successful fetch of a changed page records birth → now in the
    [crawler/detection_lag] histogram (virtual seconds), and
    {!update_watermark} maintains the
    [crawler/staleness_watermark_age] and
    [crawler/staleness_pending_changes] gauges. *)
val create :
  ?obs:Xy_obs.Obs.t ->
  ?clock:Xy_util.Clock.t ->
  ?tracer:Xy_trace.Trace.t ->
  ?faults:Xy_fault.Fault.t ->
  ?retry:retry_policy ->
  web:Synthetic_web.t ->
  queue:Fetch_queue.t ->
  unit ->
  t

(** [discover t] adds every currently known web URL to the queue
    (bootstrap; newly born pages are discovered by later calls). *)
val discover : t -> unit

(** [step t ~limit] fetches up to [limit] due pages.  The caller must
    report each outcome back with {!conclude} after loading, so the
    queue adapts the refresh period.  A fetch failed by the [fetch]
    fault point emits no record — the URL is rescheduled internally
    (retry or demotion) and must not be concluded. *)
val step : t -> limit:int -> fetch list

(** [fetch_one t ~url] fetches a single already-popped URL — the
    per-document half of {!step}, exposed so a durable system can
    bracket each document's pop + fetch + ingest in one WAL
    transaction.  [None] means the fetch failed transiently and was
    rescheduled internally (do not conclude it). *)
val fetch_one : t -> url:string -> fetch option

(** [conclude t ~url ~changed] finishes one fetch. *)
val conclude : t -> url:string -> changed:bool -> unit

val fetches : t -> int

(** [site_failures t ~url] is the accumulated failure count of [url]'s
    site (decayed by one per successful fetch from that site). *)
val site_failures : t -> url:string -> int

(** [pending_retries t] is how many URLs currently sit in the bounded
    retry path. *)
val pending_retries : t -> int

(** [update_watermark t] refreshes the freshness-watermark gauges from
    the web's pending-change stamps; the scheduler calls it once per
    advance/crawl step. *)
val update_watermark : t -> unit

(** {2 Durability} — retry/penalty bookkeeping (attempt counts, site
    failure tallies, the fetch counter) journals each mutation's
    post-state and snapshots wholesale. *)

val set_journal : t -> (string -> unit) option -> unit
val encode_snapshot : t -> string

(** Raises {!Xy_util.Codec.Malformed} on damage. *)
val decode_snapshot : t -> string -> unit

val apply_op : t -> string -> unit
