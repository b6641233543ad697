(** The Monitoring Query Processor (paper §4).

    Receives, for each fetched document, the *alert* built by the
    alerters — the ordered set of atomic events detected plus opaque
    XML payload — and emits one *notification* per complex event
    included in the alert's event set.  "All the complex events are
    detected on a document simultaneously and thus are sent to the
    Reporter/Trigger Engine in one batch."

    The processor "has no semantic knowledge of the data associated to
    the atomic or complex events it handles": payloads flow through
    untouched. *)

type alert = {
  url : string;
  events : Xy_events.Event_set.t;
  payload : string;  (** opaque XML, alerter → reporter *)
  trace : Xy_trace.Trace.ctx option;
      (** tracing context of a sampled document; rides the alert
          across queues and domains *)
  birth : float option;
      (** virtual birth time of the web change behind this document
          (staleness accounting); opaque to the processor *)
}

type algorithm = Use_aes | Use_aes_compact | Use_naive | Use_counting

(** [algorithm_of_name "aes-compact"] etc. — the inverse of each
    matcher's [name], for command-line plumbing. *)
val algorithm_of_name : string -> algorithm option

(** Every selectable algorithm, in presentation order. *)
val algorithms : algorithm list

val algorithm_name_of : algorithm -> string

type t

(** [create ~algorithm ()] — defaults to the paper's {!Aes};
    {!Use_aes_compact} selects the frozen flat-array variant
    ({!Aes_compact}).  Processor metrics (match-latency histogram,
    batch sizes, alert and notification counters) are registered
    under the [mqp] stage of [obs] (default {!Xy_obs.Obs.default}). *)
val create : ?algorithm:algorithm -> ?obs:Xy_obs.Obs.t -> unit -> t

val algorithm_name : t -> string

(** [freeze t] forces an {!Aes_compact.freeze} when the processor
    runs the compact algorithm (e.g. after bulk subscription load);
    a no-op for every other algorithm. *)
val freeze : t -> unit

(** [compact_stats t] is the compact structure's freeze/delta
    statistics, or [None] unless the algorithm is {!Use_aes_compact}. *)
val compact_stats : t -> Aes_compact.compact_stats option

(** [subscribe t ~id events] registers a complex event (a conjunction
    of atomic-event codes).  Dynamic: allowed while processing. *)
val subscribe : t -> id:int -> Xy_events.Event_set.t -> unit

val unsubscribe : t -> id:int -> unit

(** [process t alert] matches the alert and returns the batch of
    matched complex-event ids (sorted); listeners installed with
    {!on_batch} receive it when it is not empty. *)
val process : t -> alert -> int list

(** {2 Split matching — the parallel pipeline's surface}

    {!process} = {!match_alert} + {!dispatch_matched}.  The sharded
    crawl pipeline matches on shard domains and dispatches at its
    single drainer, so instruments, stats and listeners fire exactly
    once per alert, in document order, on one domain — identical to
    the serial totals. *)

(** [match_readonly t events] is the bare sorted match list: no
    metrics, no stats, no listeners, no span.  Every matcher is
    read-only under [match_set], so this is safe to call concurrently
    from several domains provided no subscribe/unsubscribe runs
    meanwhile. *)
val match_readonly : t -> Xy_events.Event_set.t -> int list

(** [match_alert t alert] is [(matched, latency)]: {!match_readonly}
    on the alert's events, timed, and recorded as an [mqp/match] span
    on the alert's trace when it has one.  Touches no metrics, stats
    or listeners, so the concurrency contract of {!match_readonly}
    applies. *)
val match_alert : t -> alert -> int list * float

(** [dispatch_matched t alert ~matched ~latency] records the per-alert
    instruments (with [latency] as the match-latency sample), updates
    the lifetime stats and fires the batch listeners for a match
    produced by {!match_alert} — then returns [matched].
    Single-threaded: owner/drainer domain only. *)
val dispatch_matched :
  t -> alert -> matched:int list -> latency:float -> int list

(** [iter_complex t f] applies [f] to every registered complex event
    (unspecified order) — bulk export, e.g. for an oracle matcher. *)
val iter_complex : t -> (id:int -> Xy_events.Event_set.t -> unit) -> unit

(** [mutations t] counts subscribes + unsubscribes over the processor's
    lifetime — a cheap epoch for invalidating a {!split} or another
    matcher derived with {!iter_complex}. *)
val mutations : t -> int

(** [split t ~parts] is the memory axis of the paper's §4.2 ("split
    the subscriptions into several partitions and assign a Monitoring
    Query Processor to each block"): [parts] frozen processors of
    [t]'s algorithm that hold [t]'s complex events between them,
    complex event [id] in subset [id mod parts].  Each instruments
    into its own scratch registry.  Matching an event set against
    every subset and merging the sorted lists gives {!match_readonly}
    on [t].  The subsets are a copy: later subscribes and
    unsubscribes on [t] do not reach them ({!mutations} tells when to
    split again).  Raises [Invalid_argument] on [parts <= 0]. *)
val split : t -> parts:int -> t array

(** [on_batch t f] installs a batch listener: [f alert matched] is
    called once per processed alert with the full (sorted) match list
    — "all the complex events are detected on a document
    simultaneously and thus are sent ... in one batch".  Used by the
    Subscription Manager to deduplicate disjunctive monitoring
    queries within a document. *)
val on_batch : t -> (alert -> int list -> unit) -> unit

val complex_count : t -> int
val approx_memory_words : t -> int

type stats = {
  alerts_processed : int;
  notifications_emitted : int;
  complex_events : int;
}

val stats : t -> stats

(** [restore_counters t ...] reinstates the lifetime counters after a
    warm restart (the matching structure itself is rebuilt by
    subscription-log recovery). *)
val restore_counters :
  t -> alerts_processed:int -> notifications_emitted:int -> unit
