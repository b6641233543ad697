(** Notifications: what flows into the Reporter.

    A notification is "the code of the complex event along with some
    additional data" (monitoring) or "the query code combined with the
    result of the query" (continuous).  By the time it reaches the
    reporter it has been resolved to a tag (the monitoring query's
    construct tag, or the continuous query's name) and an XML body. *)

type source = Monitoring | Continuous

type t = {
  source : source;
  tag : string;  (** e.g. ["UpdatedPage"], ["AmsterdamPaintings"] *)
  body : Xy_xml.Types.node list;  (** the notification content *)
  at : float;  (** virtual arrival time *)
  birth : float option;
      (** virtual birth time of the web change behind this
          notification (staleness accounting); [None] for continuous
          queries and self-monitor documents *)
  mutable rendered : string option;
      (** memoized codec encoding of the whole notification, built the
          first time the reporter journals or snapshots it (or kept
          from the bytes it was decoded from); its [n] op copies it and
          every snapshot frame that holds the notification writes it;
          construct with [None] *)
}

(** [to_xml t] renders the notification as it appears inside a
    report: the body nodes themselves when the select clause produced
    elements, or a [<tag>] wrapper element otherwise. *)
val to_xml : t -> Xy_xml.Types.node list
