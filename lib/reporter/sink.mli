(** Report delivery.

    The paper's reporter emails reports (bounded by the sendmail
    daemon — "the Reporter supports hundreds of thousands of emails
    per day on a single PC") and plans web publication for very large
    reports.  Sinks abstract the delivery channel; the simulated SMTP
    sink models a per-mail latency so the [tbl-rep] bench can
    reproduce the sendmail bottleneck shape. *)

type delivery = {
  seq : int;
      (** the reporter's global delivery sequence number: monotonically
          increasing across all subscriptions, stable across a warm
          restart — the key consumers dedup at-least-once
          re-deliveries by *)
  recipient : string;
  subscription : string;
  report : Xy_xml.Types.element;
  printed : string Lazy.t;
      (** [report] as {!Xy_xml.Printer.element_to_string} prints it:
          printed at most once for all of a report's deliveries, and
          kept as read when a delivery is decoded.  The reporter
          journals these bytes and the wire carries them. *)
  at : float;  (** virtual delivery time *)
}

type t = { deliver : delivery -> unit }

(** [memory ()] collects deliveries in order. *)
val memory : unit -> t * delivery list ref

(** [null ()] drops deliveries (throughput benches). *)
val null : unit -> t

(** [counting ()] counts deliveries without retaining them. *)
val counting : unit -> t * int ref

(** [simulated_smtp ~per_mail_seconds ~clock] advances the virtual
    clock by [per_mail_seconds] per delivery — the sendmail model —
    and counts deliveries. *)
val simulated_smtp :
  per_mail_seconds:float -> clock:Xy_util.Clock.t -> t * int ref

(** [tee a b] delivers to both. *)
val tee : t -> t -> t

(** [directory ~root ()] publishes reports on the "web": each delivery
    is written to [root/<subscription>/<seq>.xml] and
    [root/<subscription>/index.xml] lists the published reports —
    "we are considering the support of an access to reports via web
    publication which seems more appropriate for very large reports"
    (§3).  Directories are created as needed.

    Publication is atomic: the report is written to a temp file and
    renamed into place, and the index is extended only after the
    rename — a crash mid-delivery never leaves a half-written or
    indexed-but-missing report.  File names carry the delivery [seq],
    so a post-crash re-delivery overwrites the same file (and is not
    re-indexed) instead of duplicating the report.

    The index is extended in place (the closing tag is overwritten
    with the new entry plus the closing tag), so publishing N reports
    costs O(N) file writes, not O(N²) rewrite work.  [written], when
    given, accumulates the total bytes written — the hook the
    regression test uses to assert that bound. *)
val directory : root:string -> ?written:int ref -> unit -> t

(** {2 The delivery ledger}

    One {!Xy_durable.Record_log} record per delivery, every field
    inside the record's checksum — the evidence a crash-restart run is
    diffed against an uninterrupted one with.  Duplicate [seq] numbers
    are exactly the at-least-once re-deliveries; consumers dedup by
    [seq]. *)

type ledger_entry = {
  l_seq : int;
  l_at : float;
  l_recipient : string;
  l_subscription : string;
  l_report : string;  (** the report element, rendered *)
}

(** [ledger ~path ()] appends one entry per delivery.  The file opens
    at the first delivery and stays open (a sink has no close).  It
    is the caller's file: nothing compacts or clears it. *)
val ledger : path:string -> unit -> t

(** [read_ledger path] scans the ledger, stopping at damage: a torn
    final entry is the expected post-crash state, mid-log damage is
    corruption.  A missing file is [([], Clean)]. *)
val read_ledger : string -> ledger_entry list * Xy_durable.Record_log.tail
