(** The (Xyleme) Reporter (paper §3, §5.3).

    "The Reporter stores the notifications it receives.  When a report
    condition is satisfied, it sends these notifications as an XML
    document.  The Xyleme Reporter post-processes this report,
    basically by applying an XML query to it."

    Per registered subscription the reporter keeps the notification
    buffer, evaluates the [when] disjunction (count, count(tag),
    frequencies, immediate), enforces [atmost] (buffer cap or report
    rate cap), applies the report query and delivers the [<Report>]
    to every recipient.  "The generation of a report for a
    subscription empties the global buffer of notification answers."
    Reports are archived per the [archive] clause and garbage
    collected when they expire. *)

type t

(** Reporting metrics (notifications, reports, atmost drops, total
    buffer depth, delivery-latency and report-size histograms) are
    registered under the [reporter] stage of [obs] (default
    {!Xy_obs.Obs.default}). *)
val create : ?obs:Xy_obs.Obs.t -> clock:Xy_util.Clock.t -> sink:Sink.t -> unit -> t

(** [register t ~subscription ~recipient spec] starts buffering for a
    subscription.  Re-registering replaces the spec but keeps the
    buffer. *)
val register :
  t -> subscription:string -> recipient:string -> Xy_sublang.S_ast.report -> unit

(** [add_recipient t ~subscription ~recipient] subscribes another
    recipient (virtual subscriptions). *)
val add_recipient : t -> subscription:string -> recipient:string -> unit

(** [remove_recipient t ~subscription ~recipient] detaches one
    recipient (virtual unsubscription); no-op when unknown. *)
val remove_recipient : t -> subscription:string -> recipient:string -> unit

(** [unregister t ~subscription] drops the buffer, spec and archive,
    and journals a [u] op: replaying it clears the name's dynamic state
    (buffer, tag counts, last report time, held-back flag, archive,
    deadline, re-armed from the spec) but keeps its spec and
    recipients, so that a restore does not hand a replacement
    registered under the same name its predecessor's state.  The op is
    committed through the [commit] hook at once. *)
val unregister : t -> subscription:string -> unit

(** [notify t ~subscription notification] buffers a notification and
    fires the report if the condition now holds.  A [trace] context
    records buffering as a [reporter/notify] span and a synchronous
    fire as a [reporter/report] span (with report-size attributes). *)
val notify :
  ?trace:Xy_trace.Trace.ctx -> t -> subscription:string -> Notification.t -> unit

(** [alert t f] runs [f], the dispatch of one alert: the notifications
    it buffers are journaled as one [N] op, which closes when [f]
    returns or raises, or earlier, before any other op of the reporter's
    is journaled.  Outside [alert] each buffered notification is an
    [N] op of its own.  Nested calls join the open op. *)
val alert : t -> (unit -> 'a) -> 'a

(** [tick t] evaluates time-based report conditions (periodic [when]
    disjuncts, [atmost] rate release) and garbage-collects expired
    archives.  Call it whenever the virtual clock advanced.

    It visits only the subscriptions with timed state — a periodic
    deadline, a report held back by [atmost], or a non-empty archive —
    in name order, the order that assigns delivery sequence numbers.
    Its cost follows the subscriptions that can fire or expire, not
    the number registered. *)
val tick : t -> unit

(** [buffered_count t ~subscription] is the current buffer size
    ([0] for unknown subscriptions). *)
val buffered_count : t -> subscription:string -> int

(** [archived t ~subscription] returns the reports retained by the
    [archive] clause, oldest first. *)
val archived : t -> subscription:string -> Xy_xml.Types.element list

(** {2 Durability}

    Every delivery carries a global, monotonically increasing sequence
    number that survives a warm restart.  The fire path journals one
    delivery *intent* per recipient into the enclosing transaction and
    keeps the delivery pending; the durable host commits the
    transaction, syncs the WAL, calls {!deliver_pending} (which runs
    the sink and journals the acknowledgements), and commits again.
    A crawl batch commits one transaction per document and syncs
    once, after its last document, so the whole batch's reports are
    pending together and the sink sees them when the batch ends.  A
    crash in the window leaves committed, unacked intents, which
    replay makes pending again and the restarted host's
    {!deliver_pending} re-sends with the same sequence numbers —
    at-least-once delivery, deduplicated by seq.  Deferring the sink
    this way keeps every transaction atomic on disk: the pre-delivery
    sync can never persist half of the transaction a report fired
    inside.  Without a commit hook each fire delivers its reports
    inline and delivery stays synchronous.

    Journaling costs each notification value one encoding, however
    many subscriptions buffer it: its {!Notification.t} [rendered]
    field keeps the bytes, built for the first [N] op that carries it
    (or kept from the bytes it was decoded from).  An [N] op holds each
    distinct value's encoding once, then one (subscription, value
    index) entry per buffered notification, so an alert that notifies
    many subscriptions with one value pays for one copy; replay decodes
    each value once, and the subscriptions share it again.  Every
    snapshot frame that holds a notification writes its cached bytes.
    A report is printed only for the journal, once per fire: its [f]
    op carries every recipient's delivery intent. *)

(** [set_persistence t ~journal ~commit] attaches the durable hooks:
    [journal] buffers an op into the current transaction, [commit]
    makes the transaction durable ({!unregister} calls it after its
    op; the fire path defers to the host instead).  Pass [None] to
    detach. *)
val set_persistence :
  t -> journal:(string -> unit) option -> commit:(unit -> unit) option -> unit

(** [deliver_pending t] invokes the sink for every pending delivery
    (in sequence order), journals their acknowledgements into the
    current transaction, and returns how many were delivered.  The
    durable host must call it only after every transaction carrying
    the delivery intents is committed and synced: once per crawl
    batch, once per single-call entry (ingest, subscribe, advance...),
    and once at restart for the intents replay left unacked. *)
val deliver_pending : t -> int

(** [pending_count t] is the number of unacked delivery intents. *)
val pending_count : t -> int

(** [pending_delivery t ~seq] is the unacked delivery intent with that
    sequence number.  The sink runs before {!deliver_pending} journals
    the acks, so a sink that journals its own op per delivery finds
    the intent here when that op replays. *)
val pending_delivery : t -> seq:int -> Sink.delivery option

val encode_snapshot : t -> string

(** [snapshot_pieces t] is {!encode_snapshot}'s bytes in pieces, to be
    written in order: a header, then one frame per subscription in name
    order.  A frame is the subscription's fields around one piece per
    buffered notification, its cached encoding, shared rather than
    copied.  The name order is cached until the subscription set
    changes. *)
val snapshot_pieces : t -> string list

(** [decode_snapshot t payload] restores global counters, the delivery
    sequence, unacked intents and per-subscription dynamic state
    (buffers, tag counts, rate-limit clocks, periodic deadlines,
    archives).  Specs and recipients are *not* in the snapshot — they
    come from subscription-log recovery, which must run first; state
    for subscriptions the log no longer knows is dropped, and so is a
    periodic deadline the registered spec has no frequency for (the
    state of a spec an update replaced); a spec with a frequency keeps
    its registered deadline if the snapshot holds none.  The [p] op
    replays under the same rule.  Raises {!Xy_util.Codec.Malformed} on
    damage. *)
val decode_snapshot : t -> string -> unit

(** [apply_op t payload] replays one journaled effect.  Replay applies
    recorded effects directly (no condition re-evaluation, no sink
    deliveries), so it can never double-deliver.  Raises
    {!Xy_util.Codec.Malformed} on damage, an [N] entry's value index
    out of range and printed XML that does not parse included. *)
val apply_op : t -> string -> unit

type stats = { notifications_received : int; reports_sent : int; dropped_by_atmost : int }

val stats : t -> stats
