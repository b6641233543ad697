module S = Xy_sublang.S_ast
module T = Xy_xml.Types
module Obs = Xy_obs.Obs
module Codec = Xy_util.Codec
module Names = Set.Make (String)

type metrics = {
  m_notifications : Obs.Counter.t;
  m_reports : Obs.Counter.t;
  m_dropped : Obs.Counter.t;
  m_buffer_depth : Obs.Gauge.t;
  m_delivery_latency : Obs.Histogram.t;
  m_report_size : Obs.Histogram.t;
  m_notification_lag : Obs.Histogram.t;
      (** virtual seconds from a web change's birth to the report that
          told a subscriber about it *)
}

type subscription_state = {
  mutable spec : S.report;
  mutable recipients : string list;
  mutable buffer : Notification.t list;  (** newest first *)
  mutable buffered : int;
  mutable tag_counts : (string * int) list;
  mutable last_report_at : float option;
  mutable periodic_deadline : float option;
      (** next time a frequency disjunct fires *)
  mutable pending_rate_limited : bool;
      (** the when-condition fired but atmost-frequency held it back *)
  mutable archive : (float * T.element) list;  (** (sent_at, report) *)
  mutable is_timed : bool;  (** a member of the reporter's [timed] set *)
}

type t = {
  clock : Xy_util.Clock.t;
  sink : Sink.t;
  subscriptions : (string, subscription_state) Hashtbl.t;
  mutable notifications_received : int;
  mutable reports_sent : int;
  mutable dropped_by_atmost : int;
  mutable total_buffered : int;
  mutable next_seq : int;
      (** global delivery sequence — every sink delivery gets a fresh
          number, stable across a warm restart *)
  mutable timed : Names.t;
      (** the subscriptions with timed state — a periodic deadline, a
          report held back by atmost-frequency, or a non-empty archive:
          the only ones {!tick} can act on *)
  mutable by_name : (string * subscription_state) array option;
      (** every subscription in name order, the snapshot's order;
          rebuilt only after the subscription set changed *)
  pending : (int, Sink.delivery) Hashtbl.t;
      (** by seq: deliveries whose intents are journaled but not yet
          acknowledged, awaiting {!deliver_pending} *)
  metrics : metrics;
  mutable journal : (string -> unit) option;
  mutable commit : (unit -> unit) option;
  mutable in_alert : bool;  (** inside {!alert}: the [N] op stays open *)
  mutable n_values : (Notification.t * int) list;
      (** the open [N] op's distinct values with their indexes, newest
          first *)
  mutable n_entries : (string * int) list;
      (** the open [N] op's (subscription, value index) entries, newest
          first *)
}

let stage = "reporter"

let create ?(obs = Obs.default) ~clock ~sink () =
  {
    clock;
    sink;
    subscriptions = Hashtbl.create 64;
    notifications_received = 0;
    reports_sent = 0;
    dropped_by_atmost = 0;
    total_buffered = 0;
    next_seq = 1;
    timed = Names.empty;
    by_name = None;
    pending = Hashtbl.create 4;
    metrics =
      {
        m_notifications = Obs.counter obs ~stage "notifications";
        m_reports = Obs.counter obs ~stage "reports";
        m_dropped = Obs.counter obs ~stage "dropped_by_atmost";
        m_buffer_depth = Obs.gauge obs ~stage "buffer_depth";
        m_delivery_latency = Obs.histogram obs ~stage "delivery_latency";
        m_report_size = Obs.histogram obs ~stage "report_size";
        m_notification_lag = Obs.histogram obs ~stage "notification_lag";
      };
    journal = None;
    commit = None;
    in_alert = false;
    n_values = [];
    n_entries = [];
  }

(* Every mutation of a subscription's state ends here: it keeps
   [t.timed] exact.  The flag turns the common case, a buffered
   notification, into a comparison rather than a set operation. *)
let touch t name state =
  let timed =
    state.periodic_deadline <> None || state.pending_rate_limited
    || state.archive <> []
  in
  if timed <> state.is_timed then begin
    state.is_timed <- timed;
    t.timed <-
      (if timed then Names.add name t.timed else Names.remove name t.timed)
  end

let set_persistence t ~journal ~commit =
  t.journal <- journal;
  t.commit <- commit

let commit_now t = match t.commit with Some f -> f () | None -> ()

(* Reports and notification bodies are kept printed: one that does not
   parse back is damage, like any other field that does not decode. *)
let parse_element s =
  match Xy_xml.Parser.parse_element s with
  | element -> element
  | exception Xy_xml.Parser.Error { message; _ } ->
      raise (Codec.Malformed ("unparsable XML: " ^ message))

(* Notification bodies are node lists; wrapping them in a throwaway
   element makes the stock printer/parser the codec. *)
let encode_body body =
  Xy_xml.Printer.element_to_string (T.element "N" body)

let decode_body s = (parse_element s).T.children

(* Notifications are immutable once buffered and may sit in a buffer
   across many checkpoints: encode one once, the first time an [N] op
   or a snapshot frame needs it, and reuse those bytes from then on. *)
let encoded (n : Notification.t) =
  match n.Notification.rendered with
  | Some s -> s
  | None ->
      let buf = Buffer.create 256 in
      Codec.bool buf (n.Notification.source = Notification.Monitoring);
      Codec.string buf n.Notification.tag;
      Codec.float buf n.Notification.at;
      (match n.Notification.birth with
      | Some birth ->
          Codec.bool buf true;
          Codec.float buf birth
      | None -> Codec.bool buf false);
      Codec.string buf (encode_body n.Notification.body);
      let s = Buffer.contents buf in
      n.Notification.rendered <- Some s;
      s

(* A decoded notification keeps the bytes it was decoded from as its
   encoding. *)
let decode_notification r =
  let (monitoring, tag, at, birth, body), bytes =
    Codec.read_span r @@ fun r ->
    let monitoring = Codec.read_bool r in
    let tag = Codec.read_string r in
    let at = Codec.read_float r in
    let birth = if Codec.read_bool r then Some (Codec.read_float r) else None in
    (monitoring, tag, at, birth, decode_body (Codec.read_string r))
  in
  {
    Notification.source =
      (if monitoring then Notification.Monitoring else Notification.Continuous);
    tag;
    body;
    at;
    birth;
    rendered = Some bytes;
  }

(* The open [N] op: each distinct value's encoding once, then one
   (subscription, value index) entry per buffered notification, in
   buffering order. *)
let close_notifications t =
  match t.journal with
  | Some emit when t.n_entries <> [] ->
      let buf = Buffer.create 256 in
      Codec.string buf "N";
      Codec.list buf
        (fun buf (n, _) -> Buffer.add_string buf (encoded n))
        (List.rev t.n_values);
      Codec.list buf
        (fun buf (name, i) ->
          Codec.string buf name;
          Codec.int buf i)
        (List.rev t.n_entries);
      t.n_values <- [];
      t.n_entries <- [];
      emit (Buffer.contents buf)
  | Some _ | None -> ()

(* A value the open op already holds is referred to by its index:
   [==], because one alert hands the same value to every subscription
   it notifies. *)
let journal_notification t name (n : Notification.t) =
  if t.journal <> None then begin
    let index =
      match List.find_opt (fun (v, _) -> v == n) t.n_values with
      | Some (_, i) -> i
      | None ->
          let i = match t.n_values with (_, i) :: _ -> i + 1 | [] -> 0 in
          t.n_values <- (n, i) :: t.n_values;
          i
    in
    t.n_entries <- (name, index) :: t.n_entries;
    if not t.in_alert then close_notifications t
  end

let alert t f =
  if t.in_alert || t.journal = None then f ()
  else begin
    t.in_alert <- true;
    Fun.protect f ~finally:(fun () ->
        t.in_alert <- false;
        close_notifications t)
  end

(* Every other op closes the open [N] op first, so the journal holds
   the effects in the order they happened. *)
let emit_op t encode =
  match t.journal with
  | None -> ()
  | Some emit ->
      close_notifications t;
      let buf = Buffer.create 128 in
      encode buf;
      emit (Buffer.contents buf)

let set_buffered t state n =
  t.total_buffered <- t.total_buffered - state.buffered + n;
  state.buffered <- n;
  Obs.Gauge.set_int t.metrics.m_buffer_depth t.total_buffered

let shortest_frequency spec =
  List.fold_left
    (fun acc disjunct ->
      match disjunct with
      | S.R_frequency f -> (
          let s = S.seconds f in
          match acc with Some best -> Some (min best s) | None -> Some s)
      | S.R_count _ | S.R_count_query _ | S.R_immediate -> acc)
    None spec.S.r_when

let journal_deadline t subscription state =
  emit_op t (fun buf ->
      Codec.string buf "p";
      Codec.string buf subscription;
      match state.periodic_deadline with
      | Some d ->
          Codec.bool buf true;
          Codec.float buf d
      | None -> Codec.bool buf false)

(* The deadline a registration of [spec] starts with: one period from
   now, when [spec] has a frequency disjunct. *)
let fresh_deadline t spec =
  Option.map (fun s -> Xy_util.Clock.now t.clock +. s) (shortest_frequency spec)

let register t ~subscription ~recipient spec =
  let deadline = fresh_deadline t spec in
  let state, previous =
    match Hashtbl.find_opt t.subscriptions subscription with
    | Some state ->
        let previous = state.periodic_deadline in
        state.spec <- spec;
        if not (List.mem recipient state.recipients) then
          state.recipients <- recipient :: state.recipients;
        state.periodic_deadline <- deadline;
        (state, previous)
    | None ->
        let state =
          {
            spec;
            recipients = [ recipient ];
            buffer = [];
            buffered = 0;
            tag_counts = [];
            last_report_at = None;
            periodic_deadline = deadline;
            pending_rate_limited = false;
            archive = [];
            is_timed = false;
          }
        in
        Hashtbl.replace t.subscriptions subscription state;
        t.by_name <- None;
        (state, None)
  in
  touch t subscription state;
  (* Log recovery re-registers at the recovery clock; journaling the
     authentic deadline lets replay correct it.  A cleared deadline is
     journaled too: replay must not restore a deadline the new spec
     has no period for. *)
  if deadline <> None || previous <> None then
    journal_deadline t subscription state

let add_recipient t ~subscription ~recipient =
  match Hashtbl.find_opt t.subscriptions subscription with
  | Some state ->
      if not (List.mem recipient state.recipients) then
        state.recipients <- recipient :: state.recipients
  | None -> invalid_arg "Reporter.add_recipient: unknown subscription"

let remove_recipient t ~subscription ~recipient =
  match Hashtbl.find_opt t.subscriptions subscription with
  | Some state ->
      state.recipients <- List.filter (fun r -> r <> recipient) state.recipients
  | None -> ()

(* The [u] op tells replay that the state journaled under this name so
   far belongs to a registration that is gone: a restore registers the
   name's latest spec first, and must not hand it its predecessor's
   state.  The op is committed and synced at once, before the
   subscription log can record the name's next insert: a restore that
   found the insert without the op would hand the new registration the
   old one's state. *)
let unregister t ~subscription =
  match Hashtbl.find_opt t.subscriptions subscription with
  | Some state ->
      set_buffered t state 0;
      Hashtbl.remove t.subscriptions subscription;
      t.by_name <- None;
      t.timed <- Names.remove subscription t.timed;
      emit_op t (fun buf ->
          Codec.string buf "u";
          Codec.string buf subscription);
      commit_now t
  | None -> ()

let tag_count state tag =
  match List.assoc_opt tag state.tag_counts with Some n -> n | None -> 0

let bump_tag state tag =
  let n = tag_count state tag in
  state.tag_counts <- (tag, n + 1) :: List.remove_assoc tag state.tag_counts

(* The when disjunction, ignoring frequency disjuncts (those fire from
   tick). *)
let count_condition_holds state =
  List.exists
    (fun disjunct ->
      match disjunct with
      | S.R_count n -> state.buffered > n
      | S.R_count_query (tag, n) -> tag_count state tag > n
      | S.R_immediate -> state.buffered > 0
      | S.R_frequency _ -> false)
    state.spec.S.r_when

let rate_allows state ~now =
  match state.spec.S.r_atmost, state.last_report_at with
  | Some (S.At_frequency f), Some last -> now -. last >= S.seconds f
  | Some (S.At_frequency _), None -> true
  | Some (S.At_count _), _ | None, _ -> true

(* Apply the state effects of sending a report: the buffer empties,
   the rate-limit clock restarts, the archive grows.  Shared between
   the live [fire] path and WAL replay. *)
let apply_fire_state t subscription state ~now ~report =
  state.buffer <- [];
  set_buffered t state 0;
  state.tag_counts <- [];
  state.last_report_at <- Some now;
  state.pending_rate_limited <- false;
  (match state.spec.S.r_archive with
  | Some _ -> state.archive <- (now, report) :: state.archive
  | None -> ());
  touch t subscription state;
  t.reports_sent <- t.reports_sent + 1;
  Obs.Counter.incr t.metrics.m_reports

let pending_deliveries t =
  List.sort
    (fun (a : Sink.delivery) (b : Sink.delivery) -> Int.compare a.seq b.seq)
    (Hashtbl.fold (fun _ d acc -> d :: acc) t.pending [])

(* Invoke the sink for every pending delivery, in seq order, then
   acknowledge each one.  The durable host calls this once the
   transactions carrying the intents are committed *and synced*: after
   a crawl batch or a single-call entry, and at restart for the
   intents a crash left unacked.  The acks land in the transaction the
   host opens next. *)
let deliver_pending t =
  match pending_deliveries t with
  | [] -> 0
  | deliveries ->
      Obs.Histogram.time t.metrics.m_delivery_latency (fun () ->
          List.iter t.sink.Sink.deliver deliveries);
      List.iter
        (fun (d : Sink.delivery) ->
          Hashtbl.remove t.pending d.Sink.seq;
          emit_op t (fun buf ->
              Codec.string buf "A";
              Codec.int buf d.Sink.seq))
        deliveries;
      List.length deliveries

(* A copy of [node] that shares no element with it.  Buffered bodies
   can share elements (a continuous query answers an unchanged document
   with the same value every run), and paths drop an element they reach
   twice.  A restored reporter parses every body afresh, so a report
   query runs over copies to read what a restored one reads. *)
let rec unshared = function
  | T.Element e -> T.Element { e with T.children = List.map unshared e.T.children }
  | (T.Text _ | T.Cdata _ | T.Comment _ | T.Pi _) as node -> node

(* Build and send the report; empties the buffer.

   Durability protocol (at-least-once): the fire's state effects and
   one delivery intent per recipient are journaled into the enclosing
   transaction and the deliveries left pending; the durable host
   commits and syncs that transaction as a whole, *then* delivers the
   pending reports and commits the acknowledgements.  A crash anywhere
   in the window leaves committed intents without acks, which the
   restarted host delivers again with the same sequence numbers, and
   consumers dedup by seq.  Deferring the sink keeps the enclosing
   transaction atomic: a lost group-commit batch can never contain
   *half* of an ingest whose report barrier made the other half
   durable.  Without a durable host (no commit hook) the pending
   reports are delivered inline — delivery stays synchronous. *)
let fire ?trace t subscription state =
  let span =
    Option.map
      (fun ctx ->
        Xy_trace.Trace.begin_span ctx ~stage ~name:"report")
      trace
  in
  let now = Xy_util.Clock.now t.clock in
  let notifications = List.rev state.buffer in
  (* Notification lag, birth → delivery: the virtual clock cannot move
     between this fire and the sink flush of the same transaction, so
     observing at fire time equals observing on sink ack.  Live path
     only — WAL replay must not re-count. *)
  List.iter
    (fun (n : Notification.t) ->
      match n.Notification.birth with
      | Some birth ->
          Obs.Histogram.observe t.metrics.m_notification_lag
            (Float.max 0. (now -. birth))
      | None -> ())
    notifications;
  let body = List.concat_map Notification.to_xml notifications in
  let report_body =
    match state.spec.S.r_query with
    | None -> body
    | Some query ->
        Xy_query.Eval.eval query
          (Xy_query.Eval.env (T.element "Notifications" (List.map unshared body)))
  in
  let report = T.element "Report" report_body in
  let printed = lazy (Xy_xml.Printer.element_to_string report) in
  Obs.Histogram.observe t.metrics.m_report_size
    (float_of_int (List.length notifications));
  apply_fire_state t subscription state ~now ~report;
  (* Intents: one per recipient, each with a fresh global seq. *)
  let targets =
    List.map
      (fun recipient ->
        let seq = t.next_seq in
        t.next_seq <- t.next_seq + 1;
        Hashtbl.replace t.pending seq
          { Sink.seq; recipient; subscription; report; printed; at = now };
        (seq, recipient))
      state.recipients
  in
  (* One [f] op: the report, printed once, and every recipient's
     intent. *)
  emit_op t (fun buf ->
      Codec.string buf "f";
      Codec.string buf subscription;
      Codec.float buf now;
      Codec.string buf (Lazy.force printed);
      Codec.list buf
        (fun buf (seq, recipient) ->
          Codec.int buf seq;
          Codec.string buf recipient)
        targets);
  if t.commit = None then ignore (deliver_pending t);
  Option.iter
    (Xy_trace.Trace.end_span
       ~attrs:
         [
           ("subscription", subscription);
           ("size", string_of_int (List.length notifications));
           ("recipients", string_of_int (List.length state.recipients));
         ])
    span

let maybe_fire ?trace t subscription state =
  let now = Xy_util.Clock.now t.clock in
  if count_condition_holds state then begin
    if rate_allows state ~now then fire ?trace t subscription state
    else if not state.pending_rate_limited then begin
      state.pending_rate_limited <- true;
      touch t subscription state;
      emit_op t (fun buf ->
          Codec.string buf "l";
          Codec.string buf subscription)
    end
  end

let buffer_notification t name state (n : Notification.t) =
  state.buffer <- n :: state.buffer;
  set_buffered t state (state.buffered + 1);
  bump_tag state n.Notification.tag;
  touch t name state

(* Buffer [notification], or drop it when [atmost] caps the buffer. *)
let intake t subscription state notification =
  let capped =
    match state.spec.S.r_atmost with
    | Some (S.At_count n) -> state.buffered >= n
    | Some (S.At_frequency _) | None -> false
  in
  if capped then begin
    t.dropped_by_atmost <- t.dropped_by_atmost + 1;
    Obs.Counter.incr t.metrics.m_dropped;
    emit_op t (fun buf ->
        Codec.string buf "x";
        Codec.string buf subscription)
  end
  else begin
    buffer_notification t subscription state notification;
    journal_notification t subscription notification
  end

let notify ?trace t ~subscription notification =
  match Hashtbl.find_opt t.subscriptions subscription with
  | None -> ()
  | Some state ->
      t.notifications_received <- t.notifications_received + 1;
      Obs.Counter.incr t.metrics.m_notifications;
      (* The buffering span stops before [maybe_fire] so an immediate
         report shows up as its own [reporter/report] span rather than
         inflating [notify].  Untraced intake builds no span closure. *)
      (match trace with
      | None -> intake t subscription state notification
      | Some _ ->
          Xy_trace.Trace.wrap trace ~stage ~name:"notify"
            ~attrs:[ ("subscription", subscription) ]
          @@ fun () -> intake t subscription state notification);
      maybe_fire ?trace t subscription state

let gc_archive t subscription state =
  let trim horizon =
    let before = List.length state.archive in
    state.archive <- List.filter (fun (at, _) -> at >= horizon) state.archive;
    if List.length state.archive <> before then begin
      touch t subscription state;
      emit_op t (fun buf ->
          Codec.string buf "g";
          Codec.string buf subscription;
          Codec.float buf horizon)
    end
  in
  match state.spec.S.r_archive with
  | None -> trim infinity
  | Some f -> trim (Xy_util.Clock.now t.clock -. S.seconds f)

(* Only subscriptions with timed state can fire or expire here, so the
   walk covers [t.timed] as it stood when the tick began.  Its name
   order is the firing order, which assigns the global delivery seq
   (and some sinks advance the clock per mail): a function of the
   subscription *set*, not of hashtable internals that differ after a
   warm restart. *)
let tick t =
  let now = Xy_util.Clock.now t.clock in
  Names.iter
    (fun subscription ->
      match Hashtbl.find_opt t.subscriptions subscription with
      | None -> ()
      | Some state ->
          (* Periodic disjuncts. *)
          (match state.periodic_deadline with
          | Some deadline when now >= deadline ->
              (* Catch up missed periods without emitting a burst. *)
              let period = Option.get (shortest_frequency state.spec) in
              let rec advance d =
                if d <= now then advance (d +. period) else d
              in
              state.periodic_deadline <- Some (advance deadline);
              touch t subscription state;
              journal_deadline t subscription state;
              if state.buffered > 0 && rate_allows state ~now then
                fire t subscription state
          | Some _ | None -> ());
          (* A count condition held back by atmost-frequency. *)
          if
            state.pending_rate_limited && rate_allows state ~now
            && state.buffered > 0
          then fire t subscription state;
          gc_archive t subscription state)
    t.timed

let buffered_count t ~subscription =
  match Hashtbl.find_opt t.subscriptions subscription with
  | Some state -> state.buffered
  | None -> 0

let archived t ~subscription =
  match Hashtbl.find_opt t.subscriptions subscription with
  | Some state -> List.rev_map snd state.archive
  | None -> []

(* {2 Durable snapshot / replay} *)

let pending_count t = Hashtbl.length t.pending
let pending_delivery t ~seq = Hashtbl.find_opt t.pending seq

(* A subscription's frame: its name and buffer length, one piece per
   buffered notification (its cached encoding, oldest first), then the
   rest of its state. *)
let encode_frame (name, state) =
  let head = Buffer.create 32 in
  Codec.string head name;
  Codec.int head (List.length state.buffer);
  let buf = Buffer.create 64 in
  Codec.list buf
    (fun buf (tag, n) ->
      Codec.string buf tag;
      Codec.int buf n)
    state.tag_counts;
  (match state.last_report_at with
  | Some at ->
      Codec.bool buf true;
      Codec.float buf at
  | None -> Codec.bool buf false);
  (match state.periodic_deadline with
  | Some d ->
      Codec.bool buf true;
      Codec.float buf d
  | None -> Codec.bool buf false);
  Codec.bool buf state.pending_rate_limited;
  Codec.list buf
    (fun buf (at, report) ->
      Codec.float buf at;
      Codec.string buf (Xy_xml.Printer.element_to_string report))
    (List.rev state.archive);
  Buffer.contents head
  :: List.fold_left
       (fun pieces n -> encoded n :: pieces)
       [ Buffer.contents buf ] state.buffer

(* By name, so that equal reporters encode to equal bytes. *)
let by_name t =
  match t.by_name with
  | Some subs -> subs
  | None ->
      let subs = Array.of_seq (Hashtbl.to_seq t.subscriptions) in
      Array.sort (fun (a, _) (b, _) -> String.compare a b) subs;
      t.by_name <- Some subs;
      subs

(* The section as a header piece followed by each subscription's
   frame pieces, written in order without being joined.  The reporter
   is WAL-carried, so this runs only when a delta chain starts. *)
let snapshot_pieces t =
  let buf = Buffer.create 1024 in
  Codec.int buf t.next_seq;
  Codec.int buf t.notifications_received;
  Codec.int buf t.reports_sent;
  Codec.int buf t.dropped_by_atmost;
  Codec.list buf
    (fun buf (d : Sink.delivery) ->
      Codec.int buf d.seq;
      Codec.string buf d.recipient;
      Codec.string buf d.subscription;
      Codec.float buf d.at;
      Codec.string buf (Lazy.force d.printed))
    (pending_deliveries t);
  let subs = by_name t in
  Codec.int buf (Array.length subs);
  Buffer.contents buf
  :: Array.fold_right (fun sub pieces -> encode_frame sub @ pieces) subs []

let encode_snapshot t = String.concat "" (snapshot_pieces t)

(* A deadline is only ever state of a spec with a frequency disjunct.
   Restore registers a subscription's latest spec before it applies
   the snapshot and the WAL, whose deadline may belong to the spec an
   update replaced: a deadline the registered spec has no period for
   is dropped, and a spec with a period keeps the one registration
   gave it. *)
let reconcile_deadline state deadline =
  match (shortest_frequency state.spec, deadline) with
  | None, _ -> None
  | Some _, None -> state.periodic_deadline
  | Some _, Some _ -> deadline

(* The snapshot restores *state*, not structure: specs and recipients
   come from subscription-log recovery, which runs first.  Dynamic
   state of subscriptions the log no longer knows is dropped. *)
let decode_snapshot t payload =
  let r = Codec.reader payload in
  t.next_seq <- Codec.read_int r;
  t.notifications_received <- Codec.read_int r;
  t.reports_sent <- Codec.read_int r;
  t.dropped_by_atmost <- Codec.read_int r;
  Hashtbl.reset t.pending;
  let intents =
    Codec.read_list r (fun r ->
        let seq = Codec.read_int r in
        let recipient = Codec.read_string r in
        let subscription = Codec.read_string r in
        let at = Codec.read_float r in
        let printed = Codec.read_string r in
        let report = parse_element printed in
        let printed = Lazy.from_val printed in
        { Sink.seq; recipient; subscription; report; printed; at })
  in
  List.iter
    (fun (d : Sink.delivery) -> Hashtbl.replace t.pending d.seq d)
    intents;
  let states =
    Codec.read_list r (fun r ->
        let name = Codec.read_string r in
        let buffer = Codec.read_list r decode_notification in
        let tag_counts =
          Codec.read_list r (fun r ->
              let tag = Codec.read_string r in
              let n = Codec.read_int r in
              (tag, n))
        in
        let last_report_at =
          if Codec.read_bool r then Some (Codec.read_float r) else None
        in
        let periodic_deadline =
          if Codec.read_bool r then Some (Codec.read_float r) else None
        in
        let pending_rate_limited = Codec.read_bool r in
        let archive =
          Codec.read_list r (fun r ->
              let at = Codec.read_float r in
              let report = parse_element (Codec.read_string r) in
              (at, report))
        in
        ( name,
          buffer,
          tag_counts,
          last_report_at,
          periodic_deadline,
          pending_rate_limited,
          archive ))
  in
  Codec.expect_end r;
  List.iter
    (fun (name, buffer, tag_counts, last, deadline, limited, archive) ->
      match Hashtbl.find_opt t.subscriptions name with
      | None -> ()
      | Some state ->
          state.buffer <- List.rev buffer;
          set_buffered t state (List.length buffer);
          state.tag_counts <- tag_counts;
          state.last_report_at <- last;
          state.periodic_deadline <- reconcile_deadline state deadline;
          state.pending_rate_limited <- limited;
          state.archive <- List.rev archive;
          touch t name state)
    states

(* Replay applies the journaled effects directly — no conditions are
   re-evaluated and no sink runs, so replay can never double-deliver.
   Global counters replay even when the subscription has since been
   unsubscribed (the events did happen); per-subscription state is
   only touched while the subscription exists. *)
let apply_op t payload =
  let r = Codec.reader payload in
  let with_state name f =
    match Hashtbl.find_opt t.subscriptions name with
    | Some state -> f state
    | None -> ()
  in
  (match Codec.read_string r with
  | "N" ->
      let values = Array.of_list (Codec.read_list r decode_notification) in
      let entries =
        Codec.read_list r (fun r ->
            let name = Codec.read_string r in
            let i = Codec.read_int r in
            if i < 0 || i >= Array.length values then
              raise (Codec.Malformed "notification index out of range");
            (name, values.(i)))
      in
      List.iter
        (fun (name, notification) ->
          t.notifications_received <- t.notifications_received + 1;
          Obs.Counter.incr t.metrics.m_notifications;
          with_state name (fun state ->
              buffer_notification t name state notification))
        entries
  | "x" ->
      let _name = Codec.read_string r in
      t.notifications_received <- t.notifications_received + 1;
      Obs.Counter.incr t.metrics.m_notifications;
      t.dropped_by_atmost <- t.dropped_by_atmost + 1;
      Obs.Counter.incr t.metrics.m_dropped
  | "f" ->
      let name = Codec.read_string r in
      let now = Codec.read_float r in
      let printed = Codec.read_string r in
      let report = parse_element printed in
      let printed = Lazy.from_val printed in
      let targets =
        Codec.read_list r (fun r ->
            let seq = Codec.read_int r in
            (seq, Codec.read_string r))
      in
      (match Hashtbl.find_opt t.subscriptions name with
      | Some state -> apply_fire_state t name state ~now ~report
      | None ->
          (* the subscription is gone, but the report was sent *)
          t.reports_sent <- t.reports_sent + 1;
          Obs.Counter.incr t.metrics.m_reports);
      List.iter
        (fun (seq, recipient) ->
          Hashtbl.replace t.pending seq
            { Sink.seq; recipient; subscription = name; report; printed; at = now };
          if seq >= t.next_seq then t.next_seq <- seq + 1)
        targets
  | "A" -> Hashtbl.remove t.pending (Codec.read_int r)
  | "p" ->
      let name = Codec.read_string r in
      let deadline =
        if Codec.read_bool r then Some (Codec.read_float r) else None
      in
      with_state name (fun state ->
          state.periodic_deadline <- reconcile_deadline state deadline;
          touch t name state)
  | "l" ->
      let name = Codec.read_string r in
      with_state name (fun state ->
          state.pending_rate_limited <- true;
          touch t name state)
  | "u" ->
      (* The registration that follows starts afresh, its deadline
         re-armed from the registered spec as [register] would: its
         own [p] op, if it reached the disk, corrects it. *)
      let name = Codec.read_string r in
      with_state name (fun state ->
          state.buffer <- [];
          set_buffered t state 0;
          state.tag_counts <- [];
          state.last_report_at <- None;
          state.pending_rate_limited <- false;
          state.archive <- [];
          state.periodic_deadline <- fresh_deadline t state.spec;
          touch t name state)
  | "g" ->
      let name = Codec.read_string r in
      let horizon = Codec.read_float r in
      with_state name (fun state ->
          state.archive <-
            List.filter (fun (at, _) -> at >= horizon) state.archive;
          touch t name state)
  | tag -> raise (Codec.Malformed ("unknown reporter op " ^ tag)));
  Codec.expect_end r

type stats = {
  notifications_received : int;
  reports_sent : int;
  dropped_by_atmost : int;
}

let stats (t : t) =
  {
    notifications_received = t.notifications_received;
    reports_sent = t.reports_sent;
    dropped_by_atmost = t.dropped_by_atmost;
  }
