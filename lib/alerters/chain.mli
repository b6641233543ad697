(** The alerter chain (paper §6.1).

    "We collect all the atomic events of interest on a given document
    before sending them to the Monitoring Query Processor": the URL
    alerter runs first on the metadata, then the XML or HTML alerter
    on the content, and a single alert carrying the union is produced.

    The weak/strong rule (§5.1) is enforced here: a document raises an
    alert only if at least one *strong* event was detected — otherwise
    every fetched page would raise [new]/[updated]/[unchanged] and
    flood the processor.

    Pages that carry a stored tree go to the XML alerter, the others
    to the HTML path, so an unchanged page the loader did not parse
    again is read like any other.  The chain memoizes each URL's
    current-content codes under the page's signature and a registry
    epoch, which every content condition's registration or retirement
    bumps: an unchanged fetch reuses them without walking the page
    again.  URL conditions and change patterns are detected on every
    fetch. *)

type t

(** Detection metrics (docs, alerts, weak-rule suppressions, memo hits,
    [memo_invalidated] for memoized pages re-read because the content
    conditions changed, events-per-doc and detect-latency histograms)
    are registered under the [alerters] stage of [obs] (default
    {!Xy_obs.Obs.default}). *)
val create : ?obs:Xy_obs.Obs.t -> Xy_events.Registry.t -> t

(** [process t ~result ~content] runs the chain on one loaded page.
    [None] when no strong event of interest was raised.  A [trace]
    context records detection as an [alerters/detect] span. *)
val process :
  ?trace:Xy_trace.Trace.ctx ->
  t ->
  result:Xy_warehouse.Loader.result ->
  content:string ->
  Alert.t option

(** [process_deleted t ~meta ~tree] handles a page that disappeared:
    [deleted self] plus element deletions from its last stored
    version.  The page's memo entry is dropped. *)
val process_deleted :
  ?trace:Xy_trace.Trace.ctx ->
  t ->
  meta:Xy_warehouse.Meta.t ->
  tree:Xy_xml.Xid.tree option ->
  Alert.t option
