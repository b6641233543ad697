(** The sharded crawl → match → report pipeline.

    One batch of fetched documents saturates the cores in three
    stages, wired with bounded {!Bus} queues (per-stage backpressure):

    {v
      feeder ─▶ loader inboxes ─▶ loaders (×domains)
                                     │ parse/warehouse/diff/detect
                                     ▼
                            shard inboxes ─▶ MQP shards (×shards)
                                     │ match (+ work stealing)
                                     ▼
                               results bus ─▶ drainer (caller's domain)
                                               journal/report, in order
    v}

    Both of the paper's §4.2 distribution axes
    ({!Xy_core.Partition.axis}) apply to the shard stage:
    [By_documents] routes each alert to one shard (every shard holds
    the full subscription set), [By_subscriptions] broadcasts each
    alert to all shards and the drainer merges the partial matches.
    Idle shards steal half of the longest sibling inbox.  Documents
    route to loaders by URL hash, so one URL's version chain is always
    built in order by one worker.

    The drainer is the single owner of all serial state (journal,
    reporter, trigger): results apply strictly in batch order, so a
    parallel run is observationally identical to the serial loop. *)

type config = {
  domains : int;  (** loader workers (the crawl/warehouse stage) *)
  shards : int;  (** monitoring-query-processor shards *)
  axis : Xy_core.Partition.axis;
}

(** [domains = 1]: callers treat a single domain as "stay serial". *)
val default_config : config

type stats = {
  p_deaths : int;  (** shard workers killed by the [worker] fault point *)
  p_respawns : int;
  p_steals : int;  (** successful steal operations *)
  p_stolen : int;  (** items moved by stealing *)
}

(** [run config ~docs ~kill ~url_of ~worker ~shard_match ~drain ()]
    processes one batch and returns once every document has been
    drained and every spawned domain joined.

    - [kill.(i)] arms the worker-death fault on document [i]'s alert
      (pre-drawn serially by the caller — fault accounting is not
      multi-domain safe); the shard that dequeues it dies holding its
      work, and the supervisor respawns it with that work carried
      over, so deaths redistribute rather than lose messages.
    - [worker ~slot doc] runs on loader domain [slot]: it must not
      raise, and must touch only per-slot or internally synchronized
      state.  Returns the outcome handed to [drain] plus the alert to
      match, if any.
    - [shard_match ~dest alert] runs on any shard domain and returns
      the match list and its latency; [dest] is the shard the alert
      was routed to, which differs from the running shard when the
      work was stolen.  Subscription-axis callers must select the
      [dest] subset.  Several shards call it at once, so the matchers
      it reads must be safe for concurrent readers.
    - [drain idx outcome matched] runs on the caller's domain, in
      strictly increasing [idx] order; [matched] is the merged match
      list and summed match latency when the document alerted.  If it
      raises, no later document is drained, every stage is still run
      to completion and joined, and the exception is re-raised — the
      crash leaves exactly what a serial crash would.

    Steal/death telemetry goes to [obs] ([bus/steals],
    [bus/stolen_items], [fault/worker_deaths], [fault/worker_respawns])
    and comes back in {!stats}. *)
val run :
  config ->
  ?obs:Xy_obs.Obs.t ->
  docs:'d array ->
  kill:bool array ->
  url_of:('d -> string) ->
  worker:(slot:int -> 'd -> 'r * Xy_core.Mqp.alert option) ->
  shard_match:(dest:int -> Xy_core.Mqp.alert -> int list * float) ->
  drain:(int -> 'r -> (int list * float) option -> unit) ->
  unit ->
  stats
