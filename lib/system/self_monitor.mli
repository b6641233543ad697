(** Xyleme monitoring itself.

    The paper's system is its own best use case: system health is just
    more XML data on (a virtual) web.  Each freshness objective
    ({!Xy_slo.Slo}) gets one document under [xyleme://self/slo/],
    rendered here.  [Xyleme.advance] evaluates the objectives and feeds
    a document whose status flipped through the *unmodified* pipeline
    — loader, alerters, MQP, reporter — so operators watch Xyleme with
    ordinary subscriptions, e.g.

    {v
subscription FreshnessPager
monitoring
where URL extends "xyleme://self/slo/"
  and modified self\\status contains "breached"
report when immediate
    v}

    Numeric thresholds work through the word-based condition language
    via {e decade markers}: a number element's text carries its value
    plus one marker word per power of ten it reaches ([over_1]
    [over_10] [over_100] …), so [contains "over_1000"] is exactly
    "value ≥ 1000".  Since word matching is exact, [over_10] does not
    fire for [over_100].  Values print with
    {!Xy_obs.Obs.Export.number}. *)

(** [markers v] is the decade-marker words for value [v], smallest
    first ([[]] when [v < 1]). *)
val markers : float -> string list

(** [slo_url name] is ["xyleme://self/slo/<name>.xml"] — one stable
    URL per objective, so a subscription on
    [URL extends "xyleme://self/slo/"] sees every status transition. *)
val slo_url : string -> string

(** [slo_document report] is a [<slo>] element whose [<status>] child
    carries the word [breached] or [ok] (the word alerting
    subscriptions test with [contains]), plus burn rates and window
    tallies with decade markers. *)
val slo_document : Xy_slo.Slo.report -> Xy_xml.Types.element

(** [slo_content report] is {!slo_document} serialized, ready for
    ingest. *)
val slo_content : Xy_slo.Slo.report -> string
