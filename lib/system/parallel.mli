(** The parallel ingest engine: a persistent worker pool.

    One process-wide pool of at most {!pool_size} worker domains serves
    every batch of every system.  The workers start on first use and
    wait on a condition variable between batches, so a batch spawns a
    domain only to replace a worker that died.  The caller's own domain
    feeds and drains:

    {v
      caller: route by URL hash ─▶ workers (×min domains pool_size)
                                     │ load, detect, match inline;
                                     │ publish into the document's cell
                                     ▼
      caller: drain the cells in batch order
              (journal, reporter, trigger)
    v}

    Documents go to workers by URL hash, so one URL's versions are
    always loaded in order, by one worker.  The drainer is the single
    owner of all serial state (journal, reporter, trigger): results
    apply strictly in batch order, so a parallel run is
    observationally identical to the serial loop.

    Both of the paper's §4.2 distribution axes are the caller's
    matching choice: [By_documents] matches each alert against the one
    shared subscription set, [By_subscriptions] against [shards]
    disjoint subsets ({!Xy_core.Mqp.split}) in turn, merging the
    partial matches.  Every matcher runs under either axis and any
    number of domains. *)

(** The paper's two directions of distribution (§4.2). *)
type axis =
  | By_documents
      (** "split the flow of documents": every worker matches against
          all subscriptions *)
  | By_subscriptions
      (** "split the subscriptions": each alert is matched against
          every subset and the matches are merged *)

type config = {
  domains : int;  (** an upper bound on the pool workers a batch uses *)
  shards : int;
      (** subscription subsets under [By_subscriptions]; unused under
          [By_documents] *)
  axis : axis;
}

(** [domains = 1]: callers treat a single domain as "stay serial". *)
val default_config : config

(** [max 1 (Domain.recommended_domain_count () - 1)]: with the caller's
    domain, the engine never runs more domains than the host has
    cores (and at least two). *)
val pool_size : int

(** [workers config] — [min config.domains pool_size]: the workers a
    batch under [config] uses, numbered [0 .. workers config - 1]. *)
val workers : config -> int

(** [run config ~docs ~kill ~url_of ~trace_of ~worker ~drain ()]
    processes one batch and returns once every document has been
    drained and the batch's workers are idle again.

    - [worker ~slot doc] runs on pool worker [slot] (the URL hash of
      [doc] modulo {!workers}); it must touch only per-slot or
      internally synchronized state.  A traced document ([trace_of])
      first records its hand-off wait as a [bus/wait] span.
    - [drain idx result] runs on the caller's domain, in strictly
      increasing [idx] order.
    - [kill.(i)] arms the worker-death fault on document [i]
      (pre-drawn serially by the caller — fault accounting is not
      multi-domain safe): the worker that takes it clears the flag and
      dies holding its unfinished documents, and the caller starts a
      replacement that carries them over, so deaths never lose or
      repeat a document.
      Deaths and respawns count under [fault/worker_deaths] and
      [fault/worker_respawns] in [obs].

    If [worker] or [drain] raises, no later document is drained, the
    workers stop at their next document, and the first exception is
    re-raised once they are idle.  The pool stays usable.  Calls are
    serialized: a second caller waits for the pool. *)
val run :
  config ->
  ?obs:Xy_obs.Obs.t ->
  docs:'d array ->
  kill:bool array ->
  url_of:('d -> string) ->
  trace_of:('d -> Xy_trace.Trace.ctx option) ->
  worker:(slot:int -> 'd -> 'r) ->
  drain:(int -> 'r -> unit) ->
  unit ->
  unit
