(** Acquisition & refresh scheduling (paper §2.1, citing [19]).

    "Its task is to decide when to (re)read an XML or HTML document.
    This decision is based on criteria such as the importance of a
    document, its estimated change rate or subscriptions involving
    this particular document."

    Each known URL carries a refresh period, adapted multiplicatively:
    a fetch that found a change shortens the period, an unchanged
    fetch lengthens it.  Subscription refresh statements put a ceiling
    on the period ("such pages will be read more often"). *)

type t

(** [create ~clock ()] — new URLs start with [initial_period]
    (default one day), bounded by [min_period]/[max_period]
    (defaults: one hour / four weeks).  Queue metrics are registered
    under the [crawler] stage of [obs] (default
    {!Xy_obs.Obs.default}). *)
val create :
  ?initial_period:float ->
  ?min_period:float ->
  ?max_period:float ->
  ?obs:Xy_obs.Obs.t ->
  clock:Xy_util.Clock.t ->
  unit ->
  t

(** [add t ~url] registers a URL for crawling (first fetch due
    immediately).  Idempotent. *)
val add : t -> url:string -> unit

(** [forget t ~url] drops a URL (page gone). *)
val forget : t -> url:string -> unit

(** [boost t ~url ~period] applies a subscription refresh statement:
    the URL's refresh period will never exceed [period].  Boosts only
    tighten the ceiling — applying several subscriptions' statements
    in any order leaves the strongest demand in force; relaxation
    (when a subscription leaves) is {!reset_ceiling} followed by
    re-applying the survivors' statements.  A forgotten
    URL is resurrected ("subscriptions involving this particular
    document" re-demand it), and when the clamped period brings the
    next fetch closer than the currently scheduled deadline, the
    fetch is rescheduled to [now + period] — without this, a boost
    from the four-week default down to one hour would only take
    effect after the old, possibly weeks-away deadline fired. *)
val boost : t -> url:string -> period:float -> unit

(** [pop_due t ~limit] returns up to [limit] URLs whose fetch deadline
    passed, earliest first (deadline ties broken by URL, so the batch
    order is a pure function of queue state — what warm-restart
    refetch equivalence needs).  The caller must conclude each with
    {!mark_fetched} (success), {!retry} (transient failure) or
    {!penalize} (retries exhausted) to reschedule — a popped URL left
    unconcluded only comes back through a subscription {!boost} or a
    restore's {!rearm_in_flight}. *)
val pop_due : t -> limit:int -> string list

(** [retry t ~url ~delay] re-enqueues an in-flight URL (popped, fetch
    failed transiently) at [now + delay], leaving its refresh period
    untouched.  No-op for unknown, dead or already-queued URLs. *)
val retry : t -> url:string -> delay:float -> unit

(** [penalize t ~url ~factor] concludes a fetch whose retries were
    exhausted: the URL is *kept* but demoted — its refresh period is
    multiplied by [factor >= 1] (clamped to the usual bounds; a
    subscription boost ceiling still caps it) and the next attempt is
    scheduled one full period away.  Raises [Invalid_argument] when
    [factor < 1]. *)
val penalize : t -> url:string -> factor:float -> unit

(** [mark_fetched t ~url ~changed] adapts the period (shorter when
    the fetch found a change) and schedules the next fetch. *)
val mark_fetched : t -> url:string -> changed:bool -> unit

(** [next_deadline t] is the earliest pending fetch time. *)
val next_deadline : t -> float option

(** [period t ~url] is the current refresh period (tests). *)
val period : t -> url:string -> float option

val known_count : t -> int

(** [clock t] is the virtual clock the queue schedules against. *)
val clock : t -> Xy_util.Clock.t

(** [reset_ceiling t ~url] lifts a subscription boost ceiling back to
    the queue's [max_period] — called when the last subscription
    demanding [url] is deleted, before the survivors' refresh
    statements are re-applied.  The refresh period may then grow
    naturally again. *)
val reset_ceiling : t -> url:string -> unit

(** A read-only copy of one entry's state (tests, state diffing). *)
type view = {
  v_url : string;
  v_period : float;
  v_ceiling : float;
  v_live : bool;
  v_queued : bool;
  v_deadline : float;
}

(** [view t] is every known entry, sorted by URL. *)
val view : t -> view list

(** {2 Durability}

    Every mutation journals the entry's post-state; replay upserts
    entries and re-adds heap slots for queued ones (duplicates are
    skipped by {!pop_due}'s staleness checks). *)

(** [set_journal t (Some emit)] calls [emit payload] with an encoded
    entry post-state after every mutation. *)
val set_journal : t -> (string -> unit) option -> unit

(** [encode_snapshot t] lists every entry in [String.compare] order
    of its URL, so the bytes depend only on the queue's contents. *)
val encode_snapshot : t -> string

(** [decode_snapshot t payload] replaces the queue's entries and heap
    wholesale.  Raises {!Xy_util.Codec.Malformed} on damage. *)
val decode_snapshot : t -> string -> unit

(** [apply_op t payload] applies one journaled entry post-state. *)
val apply_op : t -> string -> unit

(** [rearm_in_flight t] requeues entries that were popped but never
    concluded (a crash caught their fetch in flight) at their original
    deadline; returns how many. *)
val rearm_in_flight : t -> int
