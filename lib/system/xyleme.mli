(** The assembled monitoring system (paper Figure 3).

    Wires crawler → loader → alerters → Monitoring Query Processor →
    {Reporter, Trigger Engine}, under one virtual clock, with the
    Subscription Manager controlling all of it.  This is the facade a
    downstream user programs against; the examples and the end-to-end
    benches are built on it. *)

type t

(** [create ()] wires a fresh registry into every stage: all pipeline
    metrics (crawler, warehouse, alerters, mqp, trigger, reporter,
    submgr, system) land in [obs] (a private {!Xy_obs.Obs.create}d
    registry by default — pass one to share it).

    [tracer] carries per-document pipeline tracing (default: a fresh
    {!Xy_trace.Trace.create}d tracer with sampling disabled — enable
    with {!Xy_trace.Trace.set_sampling} on {!tracer}).  Its virtual
    clock is bound to this system's simulation clock.

    [fault_plan] arms {!Xy_fault.Fault} failure points across the
    pipeline (fetch failures, malformed documents, torn persist
    writes, ...), seeded from [seed]: the same [(seed, fault_plan)]
    pair reproduces the exact same failure schedule, so a faulted run
    is as replayable as a clean one.  The crawler answers those
    failures with {!Xy_crawler.Crawler.default_retry}, and the
    Subscription Manager validates subscriptions against
    {!Xy_sublang.S_compile.default_policy}.  Documents the loader
    rejects as unparseable (e.g. the [malformed] point fired) are
    quarantined: counted under [fault/quarantined], logged, and
    skipped — never fatal.

    [durable_dir] makes the whole system durable: the directory is
    (re)initialised ({!Xy_durable.Durable.open_fresh}), the
    subscription log lives inside it, and every state change is
    journaled to a write-ahead log so that {!restore} can warm-restart
    the system after a crash.  Checkpoint with {!checkpoint}; a
    durable system always carries a real fault injector so the
    [crash] point can be armed.

    [slos] arms freshness objectives ({!Xy_slo.Slo}): each {!advance}
    evaluates them against the live metrics, and an objective whose
    breached status flips gets an SLO document ingested at
    [xyleme://self/slo/<name>.xml] — subscriptions on that prefix do
    the actual alerting through the unmodified pipeline.

    [parallel] selects the parallel crawl → match → report pipeline
    ({!Parallel}): with [domains > 1], each crawl step's fetches fan
    out over up to that many pool workers, which load, detect and
    match along the chosen §4.2 [axis] ([shards] subscription subsets
    under [By_subscriptions]).  The default
    ({!Parallel.default_config}) stays serial.  Either way, and with
    any [algorithm], the observable behaviour is identical —
    notifications, reports and journal ops come out in the serial
    order.

    [sync_every] sets the WAL group-commit batch size (transactions
    per fsync, default 32; [1] syncs every commit), forwarded into
    {!Xy_durable.Durable.config}.  Each generation's WAL is one file
    that grows until the next {!checkpoint}.

    [serve_port] opens the wire-protocol serving surface
    ({!Xy_serve.Serve}) on that TCP port (0 picks an ephemeral one,
    read it back via {!serve}): remote clients SUBSCRIBE/UNSUBSCRIBE,
    poll STATUS (answered with the [<metrics>] document of
    {!Xy_obs.Obs.Snapshot.to_xml_string}), and receive streamed report
    frames they acknowledge by delivery seq.  Deliveries tee into the
    wire path without disturbing [sink].  [serve_config] gives full control (host,
    backlog, per-client outbox window, frame-size cap) and wins over
    [serve_port]. *)
val create :
  ?seed:int ->
  ?algorithm:Xy_core.Mqp.algorithm ->
  ?sink:Xy_reporter.Sink.t ->
  ?web:Xy_crawler.Synthetic_web.t ->
  ?obs:Xy_obs.Obs.t ->
  ?tracer:Xy_trace.Trace.t ->
  ?fault_plan:Xy_fault.Fault.spec ->
  ?slos:Xy_slo.Slo.objective list ->
  ?parallel:Parallel.config ->
  ?serve_port:int ->
  ?serve_config:Xy_serve.Serve.config ->
  ?durable_dir:string ->
  ?sync_every:int ->
  unit ->
  t

(** {2 Component access} *)

(** [obs t] is the metrics registry every stage reports into; snapshot
    it with {!Xy_obs.Obs.snapshot}. *)
val obs : t -> Xy_obs.Obs.t

(** [tracer t] is the per-document span tracer threaded through every
    stage; read completed traces with {!Xy_trace.Trace.traces}. *)
val tracer : t -> Xy_trace.Trace.t

(** [faults t] is the armed fault-injection plan ({!Xy_fault.Fault.none}
    when [create] got no [fault_plan]); its {!Xy_fault.Fault.injected}
    counts say which points actually fired.  Wire-level points are
    split out of the plan into {!wire_faults}. *)
val faults : t -> Xy_fault.Fault.t

(** [wire_faults t] is the {!Xy_fault.Fault.wire_points} slice of the
    fault plan, armed on the serving surface's chaotic transport
    ({!Xy_fault.Fault.none} when no wire point was in the plan).  Its
    draws happen on connection threads and are never journaled: the
    network is external state, so a restored run restarts its wire
    schedules from the seed. *)
val wire_faults : t -> Xy_fault.Fault.t

val clock : t -> Xy_util.Clock.t
val registry : t -> Xy_events.Registry.t
val mqp : t -> Xy_core.Mqp.t
val reporter : t -> Xy_reporter.Reporter.t
val trigger : t -> Xy_trigger.Trigger_engine.t
val manager : t -> Xy_submgr.Manager.t
val store : t -> Xy_warehouse.Store.t
val loader : t -> Xy_warehouse.Loader.t
val domains : t -> Xy_warehouse.Domains.t
val chain : t -> Xy_alerters.Chain.t
val web : t -> Xy_crawler.Synthetic_web.t
val queue : t -> Xy_crawler.Fetch_queue.t

(** {2 Serving surface} *)

(** [serve t] is the wire-protocol server when the system was created
    with [serve_port]/[serve_config] ([None] otherwise); its
    {!Xy_serve.Serve.port} is where clients connect. *)
val serve : t -> Xy_serve.Serve.t option

(** [serve_pump t] applies queued wire mutations (SUBSCRIBE /
    UNSUBSCRIBE / ACK) on the caller's thread and commits the
    resulting transaction, returning how many were applied.  {!run}
    calls it around every step and once more at its end; drive it
    directly when serving without stepping. *)
val serve_pump : t -> int

(** [stop_serve ?drain t] stops the serving surface: no new
    connections, then a deadline-bounded graceful drain ([drain]
    seconds, default the server config's [drain]) flushing queued
    frames to connected clients before the sessions are closed.
    Reports still unacked at the deadline stay in the journaled
    pending store, exactly as a crash would leave them.  Idempotent;
    a no-op for systems without a serving surface. *)
val stop_serve : ?drain:float -> t -> unit

(** [steps_done t] counts completed {!crawl_step}s (journaled, so a
    restored system knows where the schedule left off). *)
val steps_done : t -> int

(** [restarts t] counts warm restarts over the durable directory's
    whole life (the [system/restarts] counter, carried across restores
    with the rest of the metrics; [0] on a fresh system). *)
val restarts : t -> int

(** [slo_reports t] is the latest evaluation of each armed freshness
    objective ([[]] without [slos], or before the first {!advance}).
    Thread-safe — the telemetry endpoint reads it live. *)
val slo_reports : t -> Xy_slo.Slo.report list

(** [durable_dir t] is the durable directory, when the system has one. *)
val durable_dir : t -> string option

(** {2 Subscriptions} *)

val subscribe :
  t -> owner:string -> text:string -> (string, Xy_submgr.Manager.error) result

(** [unsubscribe t ~name] tears a subscription down.  A durable system
    syncs the WAL before it returns (one fsync), so that a restore
    never hands a later subscription of the same name this one's
    reporter state. *)
val unsubscribe : t -> name:string -> (unit, Xy_submgr.Manager.error) result

(** [update t ~name ~owner ~text] replaces an installed subscription;
    the old one survives any validation failure.  A durable system
    syncs the WAL between the teardown and the re-install, as
    {!unsubscribe} does. *)
val update :
  t -> name:string -> owner:string -> text:string -> (unit, Xy_submgr.Manager.error) result

(** {2 Document flow} *)

type ingest_outcome = {
  status : Xy_warehouse.Loader.status;
  alerted : bool;  (** an alert reached the processor *)
  matched : int list;  (** complex events detected *)
}

(** [ingest t ~url ~content ~kind] pushes one fetched page through
    loader → alerters → processor.  A [trace] context attributes each
    stage to the document's trace; the caller remains responsible for
    {!Xy_trace.Trace.finish}.  [birth] is the virtual birth time of
    the oldest change this content carries
    ({!Xy_crawler.Crawler.fetch.birth}): it rides the alert to the
    reporter, which records the end-to-end notification lag when the
    resulting report fires.

    An unparseable page raises {!Xy_warehouse.Loader.Rejected}: it is
    counted under [fault/quarantined] and logged, not counted under
    [system/ingested].  [system/ingest_latency] samples the load,
    detection and match time of each ingested page.

    Like {!subscribe}, it commits its transaction on a durable system,
    so the reports it fires are delivered before it returns. *)
val ingest :
  ?trace:Xy_trace.Trace.ctx ->
  ?birth:float ->
  t ->
  url:string ->
  content:string ->
  kind:Xy_warehouse.Loader.content_kind ->
  ingest_outcome

(** [ingest_missing t ~url] handles a page that disappeared. *)
val ingest_missing : ?trace:Xy_trace.Trace.ctx -> t -> url:string -> unit

(** [mqp_alert ?trace ?birth alert] is the processor's alert for what
    the alerter chain detected in one document: its URL, its events,
    its payload printed with {!Xy_alerters.Alert.payload_string}, and
    the document's tracing context and change birth time ({!ingest}'s
    [trace] and [birth]).  Every ingest path builds its alerts with
    it. *)
val mqp_alert :
  ?trace:Xy_trace.Trace.ctx -> ?birth:float -> Xy_alerters.Alert.t -> Xy_core.Mqp.alert

(** {2 Batch ingestion — the parallel pipeline}

    One crawl step's fetches form a batch.  With a [parallel]
    configuration of [domains > 1], {!ingest_batch} (and {!crawl_step},
    which routes through the same path) fans the batch out over the
    {!Parallel} engine; otherwise it runs the documents through the
    serial path one by one.  Both modes first pre-allocate (and, when
    durable, journal) DOCIDs for fresh URLs in batch order, so document
    numbering — which is embedded in alert payloads — never depends on
    which pool worker finishes first. *)

type batch_doc = {
  bd_url : string;
  bd_content : string option;  (** [None]: the page disappeared *)
  bd_kind : Xy_warehouse.Loader.content_kind;
  bd_trace : Xy_trace.Trace.ctx option;
  bd_birth : float option;
}

(** [ingest_batch t docs] processes one batch end to end (loader →
    alerters → MQP → reporter/trigger), honouring the system's
    parallel configuration.  Notifications, reports and journal ops
    are emitted in batch order regardless of the configuration.  On a
    durable system each document commits its own transaction and the
    batch syncs the WAL once, after its last document; only then do
    the batch's reports reach the sinks. *)
val ingest_batch : t -> batch_doc list -> unit

(** {2 The crawl loop} *)

(** [discover t] seeds the fetch queue with the synthetic web's
    current URLs. *)
val discover : t -> unit

(** [crawl_step t ~limit] fetches and ingests up to [limit] due pages
    as one {!ingest_batch}; returns the number fetched. *)
val crawl_step : t -> limit:int -> int

(** [advance t ~seconds] moves virtual time: the web evolves, the
    trigger engine runs due continuous queries, the reporter evaluates
    periodic report conditions. *)
val advance : t -> seconds:float -> unit

(** [run t ~days ~step ~fetch_limit] alternates [advance] and
    [crawl_step] until [steps_done t] reaches the schedule's
    [ceil (days * 86400 / step)] steps: [days] is the total, counted
    from step 0, not an amount to add, so a second call on the same
    system passes the cumulative total.  The position is journaled,
    so on a {!restore}d system it continues from the step the killed
    run died in, without repeating a committed [advance].
    [days = infinity] runs until [between] stops it.

    [between] runs after every step (pacing, a stop request); when it
    answers [false] the run ends there.  [checkpoint_every] (steps,
    default [0] = never) checkpoints a durable system whenever
    [steps_done] reaches a multiple of it.  The run ends by applying
    the queued wire mutations and syncing the WAL, so a restore of a
    completed run resumes nothing. *)
val run :
  ?checkpoint_every:int ->
  ?between:(unit -> bool) ->
  t ->
  days:float ->
  step:float ->
  fetch_limit:int ->
  unit

(** {2 Checkpoint & warm restart}

    A durable system (created with [durable_dir]) journals every
    committed state change into a write-ahead log and can snapshot the
    whole pipeline into a new generation.  After a crash — including a
    [kill -9] at an arbitrary point — {!restore} rebuilds the system
    from [MANIFEST] + snapshot + WAL:

    - no subscribed URL, subscription, or buffered notification is
      lost;
    - report delivery is at-least-once: committed-but-unacked
      deliveries are re-sent with their original sequence numbers, so
      consumers that dedup by [seq] (e.g. {!Xy_reporter.Sink.directory},
      or a {!Xy_reporter.Sink.ledger} read back with
      {!Xy_reporter.Sink.read_ledger}) never observe a duplicate;
    - documents popped from the fetch queue but not yet processed are
      re-queued at their original deadline.

    The cumulative metrics themselves are carried in the checkpoint
    (the [obs] section): a restored run's [/metrics] counters and
    histograms continue from where the killed run left off, and the
    [system/restarts] counter records the warm restart itself.

    Not persisted (documented trade-offs): per-subscription
    {!Xy_query.Result_delta} tracker state and SLO sliding-window
    samples (a restored run's burn rates re-fill from the carried
    cumulative metrics within one slow window).  The warehouse keeps
    only each document's current version, live or restored. *)

type checkpoint_info = {
  generation : int;  (** the new current generation *)
  compacted_records : int;
      (** subscription-log records this checkpoint's rewrite dropped
          ([0] when the log was not rewritten) *)
}

(** [checkpoint t] snapshots every stage into the next generation and
    starts a fresh WAL.  Each stage is re-encoded, except the
    reporter, which is written as a delta on its last inline payload
    while the ops it journaled since are smaller than that payload
    ({!Xy_durable.Durable.set_wal_carried}).  Then the subscription
    log is rewritten to what a replay installs
    ({!Xy_submgr.Persist.rewrite}) once the records superseded since
    its last rewrite number at least its live subscriptions, so a
    rewrite drops at least as many records as it keeps and an
    insert-only log is never rewritten; {!restore}'s closing
    checkpoint applies the same rule.  A rewrite that cannot run
    leaves the log as it was, and the checkpoint stands.  Raises
    [Invalid_argument] on a non-durable system. *)
val checkpoint : t -> checkpoint_info

type restore_info = {
  generation : int;  (** generation after the post-restore checkpoint *)
  subscriptions_recovered : int;
  txns_replayed : int;  (** committed WAL transactions re-applied *)
  wal_tail : Xy_durable.Durable.tail;
      (** what the WAL's end looked like ([Torn] after a mid-write kill) *)
  requeued_fetches : int;  (** in-flight fetches re-armed *)
  redelivered_reports : int;  (** unacked report deliveries re-sent *)
}

(** [restore ~dir ()] warm-restarts a durable run: replays the
    subscription log, loads the latest snapshot, re-applies the WAL's
    committed transactions, re-arms in-flight fetches, checkpoints
    into a fresh generation, and re-delivers unacked reports.  The
    configuration arguments must match the original [create] call
    (they are not persisted).  [Error _] when [dir] holds no durable
    run or its state is damaged beyond the WAL's torn tail, when
    a WAL it would replay was rotated into segments by an older build
    ([gen-N.wal.1] exists), and when its [MANIFEST] is in the record
    format older builds wrote ({!Xy_durable.Record_log.Older_format}):
    the error names that format, and nothing of the directory is
    restored. *)
val restore :
  ?seed:int ->
  ?algorithm:Xy_core.Mqp.algorithm ->
  ?sink:Xy_reporter.Sink.t ->
  ?web:Xy_crawler.Synthetic_web.t ->
  ?obs:Xy_obs.Obs.t ->
  ?tracer:Xy_trace.Trace.t ->
  ?fault_plan:Xy_fault.Fault.spec ->
  ?slos:Xy_slo.Slo.objective list ->
  ?parallel:Parallel.config ->
  ?serve_port:int ->
  ?serve_config:Xy_serve.Serve.config ->
  ?sync_every:int ->
  dir:string ->
  unit ->
  (t * restore_info, string) result

(** {2 Warehouse view} *)

(** [warehouse_view t] is the integrated view continuous queries are
    answered over: a [<warehouse>] element with one child per semantic
    domain (documents whose root tag equals the domain name are
    spliced, so the paper's [culture/museum] paths resolve), plus
    [<unclassified>].  Domains appear in name order and, within each,
    documents in URL order, so a restored system answers continuous
    queries in the same order as an uninterrupted one.  Only the
    queries {!query_runner} cannot split by document are evaluated
    over it.  It is built at most once per
    {!Xy_warehouse.Store.mutations} count, and dropped when an
    {!advance} tick ends. *)
val warehouse_view : t -> Xy_xml.Types.element

(** [query_runner t query] is how every installed continuous query is
    answered: each call returns nodes equal to those
    {!Xy_query.Eval.eval} returns for [query] over {!warehouse_view} at
    that moment.  A query that
    {!Xy_query.Eval.by_document} splits keeps each document's answer
    with the stored tree it came from and re-evaluates only the
    documents whose tree is no longer physically that one, over a view
    of the one document; the stripped documents are shared by the
    queries of one {!advance} tick.  Any other query is evaluated over
    {!warehouse_view}. *)
val query_runner : t -> Xy_query.Ast.t -> unit -> Xy_xml.Types.node list

type stats = {
  documents_fetched : int;
  documents_stored : int;
  alerts_sent : int;
  notifications : int;
  reports : int;
  complex_events : int;
  atomic_events : int;
}

val stats : t -> stats
