let log_src = Logs.Src.create "xy.serve" ~doc:"Wire-protocol serving surface"

module Log = (val Logs.src_log log_src)
module Obs = Xy_obs.Obs
module Codec = Xy_util.Codec
module Imap = Map.Make (Int)
module Record_log = Xy_durable.Record_log

type config = {
  host : string;
  port : int;
  backlog : int;
  outbox : int;
  max_connections : int;
  retry_after : float;
  idle_deadline : float;
  read_deadline : float;
  drain : float;
}

let config ?(host = "127.0.0.1") ?(backlog = 128) ?(outbox = 64)
    ?(max_connections = 0) ?(retry_after = 1.) ?(idle_deadline = 300.)
    ?(read_deadline = 30.) ?(drain = 0.5) ~port () =
  {
    host;
    port;
    backlog;
    outbox;
    max_connections;
    retry_after;
    idle_deadline;
    read_deadline;
    drain;
  }

(* Liveness deadlines are enforced from the reader thread, which
   wakes on a receive timeout: often enough to be prompt, never so
   often as to matter when idle. *)
let reader_tick cfg =
  let actives =
    List.filter (fun d -> d > 0.) [ cfg.idle_deadline; cfg.read_deadline ]
  in
  match actives with
  | [] -> None
  | ds -> Some (Float.max 0.01 (Float.min 1.0 (List.fold_left Float.min infinity ds /. 4.)))

type callbacks = {
  cb_subscribe : owner:string -> text:string -> (string, string) result;
  cb_unsubscribe : string -> (unit, string) result;
  cb_status : unit -> string;
}

(* One undelivered report.  [e_wall] is the enqueue wall-clock time
   feeding the send-lag histogram; it is not persisted. *)
type entry = {
  e_subscription : string;
  e_at : float;
  e_body : string;
  e_wall : float;
}

type session = {
  s_fd : Unix.file_descr;
  s_peer : string;
  mutable s_id : string option;
  s_resp : string Queue.t;  (* encoded control frames awaiting write *)
  mutable s_cursor : int;  (* highest report seq handed to the writer *)
  mutable s_closed : bool;
  mutable s_poisoned : bool;  (* close once the response queue drains *)
  mutable s_refs : int;  (* reader + writer; last one closes the fd *)
  mutable s_last_read : float;  (* wall clock of the last inbound bytes *)
  mutable s_partial_since : float option;
      (* wall clock since an incomplete frame has been buffered *)
  mutable s_writing : bool;  (* writer is mid-frame (drain accounting) *)
  s_cond : Condition.t;
}

type recipient = {
  mutable r_floor : int;  (* highest cumulatively acked seq *)
  mutable r_unacked : entry Imap.t;  (* seq -> entry, floor < seq *)
  mutable r_session : session option;
}

type command =
  | C_subscribe of session * string * string
  | C_unsubscribe of session * string
  | C_ack of string * int

type t = {
  cfg : config;
  chaos : Chaos.t;
  mu : Mutex.t;
  recipients : (string, recipient) Hashtbl.t;
  commands : command Queue.t;
  mutable sessions : session list;
  mutable threads : Thread.t list;
  mutable listener : Listener.t option;
  mutable callbacks : callbacks option;
  mutable journal : (string -> unit) option;
  mutable fuse : (string -> unit) option;
  mutable stopped : bool;
  m_connections : Obs.Gauge.t;
  m_connected_total : Obs.Counter.t;
  m_requests : Obs.Counter.t;
  m_malformed : Obs.Counter.t;
  m_registrations : Obs.Counter.t;
  m_acks : Obs.Counter.t;
  m_enqueued : Obs.Counter.t;
  m_sent : Obs.Counter.t;
  m_overflow : Obs.Counter.t;
  m_pending : Obs.Gauge.t;
  m_send_lag : Obs.Histogram.t;
  m_evictions : Obs.Counter.t;
  m_read_timeouts : Obs.Counter.t;
  m_reconnects : Obs.Counter.t;
  m_sheds : Obs.Counter.t;
  m_accept_errors : Obs.Counter.t;
  m_drains : Obs.Counter.t;
  m_drain_seconds : Obs.Gauge.t;
}

let create ~obs ?(faults = Xy_fault.Fault.none) ~config:cfg () =
  {
    cfg;
    chaos = Chaos.wrap faults;
    mu = Mutex.create ();
    recipients = Hashtbl.create 64;
    commands = Queue.create ();
    sessions = [];
    threads = [];
    listener = None;
    callbacks = None;
    journal = None;
    fuse = None;
    stopped = false;
    m_connections = Obs.gauge obs ~stage:"serve" "connections";
    m_connected_total = Obs.counter obs ~stage:"serve" "connected_total";
    m_requests = Obs.counter obs ~stage:"serve" "requests";
    m_malformed = Obs.counter obs ~stage:"serve" "malformed";
    m_registrations = Obs.counter obs ~stage:"serve" "registrations";
    m_acks = Obs.counter obs ~stage:"serve" "acks";
    m_enqueued = Obs.counter obs ~stage:"serve" "reports_enqueued";
    m_sent = Obs.counter obs ~stage:"serve" "reports_sent";
    m_overflow = Obs.counter obs ~stage:"serve" "outbox_overflow";
    m_pending = Obs.gauge obs ~stage:"serve" "reports_pending";
    m_send_lag = Obs.histogram obs ~stage:"serve" "send_lag_seconds";
    m_evictions = Obs.counter obs ~stage:"serve" "evictions";
    m_read_timeouts = Obs.counter obs ~stage:"serve" "read_timeouts";
    m_reconnects = Obs.counter obs ~stage:"serve" "reconnects";
    m_sheds = Obs.counter obs ~stage:"serve" "sheds";
    m_accept_errors = Obs.counter obs ~stage:"serve" "accept_errors";
    m_drains = Obs.counter obs ~stage:"serve" "drains";
    m_drain_seconds = Obs.gauge obs ~stage:"serve" "drain_seconds";
  }

let set_journal t j = t.journal <- j
let set_fuse t f = t.fuse <- f
let fire_fuse t label = match t.fuse with None -> () | Some f -> f label
let journal_op t payload = match t.journal with None -> () | Some j -> j payload

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* ---- session lifecycle (lock held unless noted) ---- *)

let pending_total_locked t =
  Hashtbl.fold (fun _ r acc -> acc + Imap.cardinal r.r_unacked) t.recipients 0

let refresh_pending_gauge t =
  Obs.Gauge.set_int t.m_pending (pending_total_locked t)

let close_session t ss =
  if not ss.s_closed then begin
    ss.s_closed <- true;
    (try Unix.shutdown ss.s_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (match ss.s_id with
    | Some id -> (
        match Hashtbl.find_opt t.recipients id with
        | Some r when r.r_session == Some ss -> r.r_session <- None
        | _ -> ())
    | None -> ());
    t.sessions <- List.filter (fun s -> s != ss) t.sessions;
    Obs.Gauge.set_int t.m_connections (List.length t.sessions);
    Condition.broadcast ss.s_cond
  end

(* Last thread out closes the descriptor. *)
let release_session t ss =
  let close_fd =
    locked t (fun () ->
        ss.s_refs <- ss.s_refs - 1;
        ss.s_refs = 0)
  in
  if close_fd then try Unix.close ss.s_fd with Unix.Unix_error _ -> ()

let enqueue_resp ss frame =
  if not ss.s_closed then begin
    Queue.push frame ss.s_resp;
    Condition.signal ss.s_cond
  end

(* ---- writer ---- *)

type outgoing = O_none | O_control of string | O_report of string * float

(* [r_unacked] only holds seq > floor, and the cursor never drops
   below the floor, so the in-flight window (sent but unacked) is
   exactly the unacked entries at or below the cursor. *)
let in_flight r ss =
  let below, at, _ = Imap.split ss.s_cursor r.r_unacked in
  Imap.cardinal below + (match at with Some _ -> 1 | None -> 0)

let writer_next t ss =
  if not (Queue.is_empty ss.s_resp) then O_control (Queue.pop ss.s_resp)
  else if ss.s_poisoned then begin
    close_session t ss;
    O_none
  end
  else
    match ss.s_id with
    | None -> O_none
    | Some id -> (
        match Hashtbl.find_opt t.recipients id with
        | None -> O_none
        | Some r ->
            if in_flight r ss >= t.cfg.outbox then O_none
            else (
              match
                Imap.find_first_opt (fun s -> s > ss.s_cursor) r.r_unacked
              with
              | None -> O_none
              | Some (seq, e) ->
                  ss.s_cursor <- seq;
                  O_report
                    ( Frame.encode_event
                        (Frame.Report
                           {
                             seq;
                             subscription = e.e_subscription;
                             at = e.e_at;
                             body = e.e_body;
                           }),
                      e.e_wall )))

(* All outbound bytes cross the chaotic transport: an armed injector
   can stall, truncate, mangle or kill any write.  Injected failures
   raise [Unix.Unix_error] like real ones and close the session the
   same way. *)
let write_all t fd data =
  let len = String.length data in
  let rec go off =
    if off < len then begin
      let n =
        try Chaos.write_substring t.chaos fd data off (len - off)
        with Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      go (off + n)
    end
  in
  go 0

let writer_loop t ss =
  let rec loop () =
    let next =
      locked t (fun () ->
          let rec wait () =
            if ss.s_closed then O_none
            else
              match writer_next t ss with
              | O_none ->
                  (* [writer_next] may have just closed a poisoned
                     session; re-check before sleeping. *)
                  if ss.s_closed then O_none
                  else begin
                    Condition.wait ss.s_cond t.mu;
                    wait ()
                  end
              | out ->
                  (* mid-frame marker: graceful drain must not cut a
                     frame the writer has already dequeued *)
                  ss.s_writing <- true;
                  out
          in
          wait ())
    in
    let finish_write () = locked t (fun () -> ss.s_writing <- false) in
    match next with
    | O_none -> ()
    | O_control data -> (
        match write_all t ss.s_fd data with
        | () ->
            finish_write ();
            loop ()
        | exception _ ->
            locked t (fun () ->
                ss.s_writing <- false;
                close_session t ss))
    | O_report (data, wall) -> (
        match write_all t ss.s_fd data with
        | () ->
            Obs.Counter.incr t.m_sent;
            Obs.Histogram.observe t.m_send_lag (Obs.now () -. wall);
            finish_write ();
            loop ()
        | exception _ ->
            locked t (fun () ->
                ss.s_writing <- false;
                close_session t ss))
  in
  loop ();
  release_session t ss

(* ---- reader ---- *)

let poison t ss msg =
  Obs.Counter.incr t.m_malformed;
  locked t (fun () ->
      if not ss.s_closed then begin
        enqueue_resp ss (Frame.encode_event (Frame.Err msg));
        ss.s_poisoned <- true;
        Condition.signal ss.s_cond
      end)

let handle_request t ss req =
  Obs.Counter.incr t.m_requests;
  match req with
  | Frame.Hello id ->
      locked t (fun () ->
          let r =
            match Hashtbl.find_opt t.recipients id with
            | Some r ->
                (* the identity was seen before (an earlier session,
                   or a restored pending store): this is a resume *)
                Obs.Counter.incr t.m_reconnects;
                r
            | None ->
                let r =
                  { r_floor = 0; r_unacked = Imap.empty; r_session = None }
                in
                Hashtbl.replace t.recipients id r;
                r
          in
          (* Re-binding an identity evicts the previous connection. *)
          (match r.r_session with
          | Some old when old != ss -> close_session t old
          | _ -> ());
          ss.s_id <- Some id;
          ss.s_cursor <- r.r_floor;
          (* Re-stamp the pending entries: the send-lag histogram
             measures the server-side push latency (eligible-to-write),
             and while no session existed the peer's absence is what
             kept these queued — that window is accounted by the
             [reconnects]/[evictions] counters, not as send lag. *)
          let now = Obs.now () in
          r.r_unacked <- Imap.map (fun e -> { e with e_wall = now }) r.r_unacked;
          r.r_session <- Some ss;
          enqueue_resp ss
            (Frame.encode_event (Frame.Welcome (Imap.cardinal r.r_unacked))))
  | Frame.Status ->
      let xml =
        match t.callbacks with
        | Some cb -> cb.cb_status ()
        | None -> "<metrics/>"
      in
      locked t (fun () ->
          enqueue_resp ss (Frame.encode_event (Frame.Status_reply xml)))
  | Frame.Ping token ->
      locked t (fun () ->
          enqueue_resp ss (Frame.encode_event (Frame.Pong token)))
  | Frame.Subscribe { owner; text } ->
      locked t (fun () -> Queue.push (C_subscribe (ss, owner, text)) t.commands)
  | Frame.Unsubscribe name ->
      locked t (fun () -> Queue.push (C_unsubscribe (ss, name)) t.commands)
  | Frame.Ack seq -> (
      match locked t (fun () -> ss.s_id) with
      | None -> poison t ss "ACK before HELLO"
      | Some id -> locked t (fun () -> Queue.push (C_ack (id, seq)) t.commands))

let reader_loop t ss =
  let dec = Record_log.decoder () in
  (* The liveness deadlines ride the receive timeout: the blocking
     read returns EAGAIN every tick, and the tick handler decides
     whether the peer is merely quiet or dead. *)
  (match reader_tick t.cfg with
  | Some tick -> (
      try Unix.setsockopt_float ss.s_fd Unix.SO_RCVTIMEO tick
      with Unix.Unix_error _ -> ())
  | None -> ());
  let rec drain () =
    match Record_log.next dec with
    | Ok None -> true
    | Ok (Some payload) -> (
        match Frame.decode_request payload with
        | Ok req ->
            handle_request t ss req;
            drain ()
        | Error msg ->
            poison t ss ("malformed request: " ^ msg);
            false)
    | Error e ->
        poison t ss (Record_log.error_to_string e);
        false
  in
  let overdue deadline since = deadline > 0. && Obs.now () -. since > deadline in
  let rec loop () =
    match Record_log.fill dec (Chaos.read t.chaos ss.s_fd) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
        (* receive-timeout tick: enforce the liveness deadlines *)
        match ss.s_partial_since with
        | Some since when overdue t.cfg.read_deadline since ->
            (* slow loris: a frame has been incomplete for too long *)
            Obs.Counter.incr t.m_read_timeouts;
            Log.info (fun m -> m "read deadline exceeded by %s" ss.s_peer);
            locked t (fun () -> close_session t ss)
        | _ ->
            if overdue t.cfg.idle_deadline ss.s_last_read then begin
              (* dead peer: no bytes (not even a PING) for a whole
                 idle deadline *)
              Obs.Counter.incr t.m_evictions;
              Log.info (fun m -> m "evicting idle peer %s" ss.s_peer);
              locked t (fun () -> close_session t ss)
            end
            else if ss.s_closed then locked t (fun () -> close_session t ss)
            else loop ())
    | exception _ -> locked t (fun () -> close_session t ss)
    | 0 -> locked t (fun () -> close_session t ss)
    | _ ->
        ss.s_last_read <- Obs.now ();
        if drain () then begin
          (if Record_log.buffered dec = 0 then ss.s_partial_since <- None
           else
             match ss.s_partial_since with
             | None -> ss.s_partial_since <- Some ss.s_last_read
             | Some _ -> ());
          loop ()
        end
  in
  loop ();
  release_session t ss

(* ---- accept ---- *)

let string_of_sockaddr = function
  | Unix.ADDR_INET (a, p) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | Unix.ADDR_UNIX p -> p

let on_accept t fd addr =
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let ss =
    {
      s_fd = fd;
      s_peer = string_of_sockaddr addr;
      s_id = None;
      s_resp = Queue.create ();
      s_cursor = 0;
      s_closed = false;
      s_poisoned = false;
      s_refs = 2;
      s_last_read = Obs.now ();
      s_partial_since = None;
      s_writing = false;
      s_cond = Condition.create ();
    }
  in
  let reject =
    locked t (fun () ->
        if t.stopped then true
        else begin
          t.sessions <- ss :: t.sessions;
          Obs.Gauge.set_int t.m_connections (List.length t.sessions);
          Obs.Counter.incr t.m_connected_total;
          false
        end)
  in
  if reject then (try Unix.close fd with Unix.Unix_error _ -> ())
  else begin
    let reader = Thread.create (fun () -> reader_loop t ss) () in
    let writer = Thread.create (fun () -> writer_loop t ss) () in
    locked t (fun () -> t.threads <- reader :: writer :: t.threads);
    Log.debug (fun m -> m "connection from %s" ss.s_peer)
  end

(* Admission control: consulted on the accept thread before the
   session exists.  A shed peer gets a best-effort [ERR busy] with a
   retry hint so a well-behaved client backs off instead of hammering
   the accept queue. *)
let admit t () =
  t.cfg.max_connections <= 0
  || locked t (fun () -> List.length t.sessions) < t.cfg.max_connections

let shed t fd _addr =
  Obs.Counter.incr t.m_sheds;
  let frame =
    Frame.encode_event
      (Frame.Err (Printf.sprintf "busy retry-after=%g" t.cfg.retry_after))
  in
  try ignore (Unix.write_substring fd frame 0 (String.length frame))
  with Unix.Unix_error _ -> ()

let listen t ~callbacks =
  t.callbacks <- Some callbacks;
  let listener =
    Listener.start ~host:t.cfg.host ~backlog:t.cfg.backlog ~port:t.cfg.port
      ~admit:(admit t) ~shed:(shed t)
      ~on_accept_error:(fun _ -> Obs.Counter.incr t.m_accept_errors)
      ~handle:(on_accept t) ()
  in
  t.listener <- Some listener;
  Log.info (fun m -> m "serving wire protocol on port %d" (Listener.port listener))

let port t =
  match t.listener with Some l -> Listener.port l | None -> t.cfg.port

(* A session is flushed when the writer has nothing more it could
   send right now: no queued control frames, not mid-frame, and no
   unsent report it is allowed to push (either none above the cursor,
   or the in-flight window is full and only an ACK — which drain does
   not process — could open it). *)
let session_flushed t ss =
  Queue.is_empty ss.s_resp && (not ss.s_writing)
  &&
  match ss.s_id with
  | None -> true
  | Some id -> (
      match Hashtbl.find_opt t.recipients id with
      | None -> true
      | Some r ->
          in_flight r ss >= t.cfg.outbox
          || Imap.find_first_opt (fun s -> s > ss.s_cursor) r.r_unacked = None)

let stop ?drain t =
  (* no new connections from here on *)
  Option.iter Listener.stop t.listener;
  let budget = match drain with Some d -> d | None -> t.cfg.drain in
  let live = locked t (fun () -> List.length t.sessions) in
  if budget > 0. && live > 0 then begin
    (* Graceful drain: give the writers a bounded window to flush
       their outboxes before the sessions are cut.  Commands (ACKs
       included) are deliberately not processed — anything unacked at
       the deadline stays in the journaled pending store and is
       redelivered on the next HELLO, exactly as a crash would leave
       it. *)
    Obs.Counter.incr t.m_drains;
    let started = Obs.now () in
    let deadline = started +. budget in
    let rec wait () =
      let flushed =
        locked t (fun () -> List.for_all (session_flushed t) t.sessions)
      in
      if (not flushed) && Obs.now () < deadline then begin
        Thread.delay 0.01;
        wait ()
      end
    in
    wait ();
    Obs.Gauge.set t.m_drain_seconds (Obs.now () -. started)
  end;
  let threads =
    locked t (fun () ->
        t.stopped <- true;
        List.iter (close_session t) t.sessions;
        let ths = t.threads in
        t.threads <- [];
        ths)
  in
  List.iter Thread.join threads

(* ---- pipeline-thread interface ---- *)

(* An enqueue ([P]) and an ack ([A]) both name (recipient, seq) only:
   replay takes an enqueued report from the reporter's intent. *)
let journal_seq t tag ~recipient ~seq =
  journal_op t
    (let buf = Buffer.create 32 in
     Codec.string buf tag;
     Codec.string buf recipient;
     Codec.int buf seq;
     Buffer.contents buf)

let deliver t ~seq ~recipient ~subscription ~at ~body =
  let state =
    locked t (fun () ->
        match Hashtbl.find_opt t.recipients recipient with
        | None -> `Unknown
        | Some r ->
            if seq <= r.r_floor || Imap.mem seq r.r_unacked then `Duplicate
            else `Fresh)
  in
  match state with
  | `Unknown | `Duplicate -> ()
  | `Fresh ->
      fire_fuse t "frame";
      journal_seq t "P" ~recipient ~seq;
      fire_fuse t "frame_written";
      locked t (fun () ->
          match Hashtbl.find_opt t.recipients recipient with
          | None -> ()
          | Some r ->
              r.r_unacked <-
                Imap.add seq
                  {
                    e_subscription = subscription;
                    e_at = at;
                    e_body = body;
                    e_wall = Obs.now ();
                  }
                  r.r_unacked;
              Obs.Counter.incr t.m_enqueued;
              refresh_pending_gauge t;
              (match r.r_session with
              | Some ss when not ss.s_closed ->
                  if Imap.cardinal r.r_unacked > t.cfg.outbox then
                    (* beyond the window: stays in the journaled
                       pending store until acks open the window.
                       Judged by queue depth, not by the writer's
                       cursor — the writer may lag arbitrarily behind
                       a delivery burst, but an entry past the window
                       can only ever leave via an ack (which signals
                       the writer itself), so depth is the
                       race-free criterion. *)
                    Obs.Counter.incr t.m_overflow
                  else Condition.signal ss.s_cond
              | _ -> ()))

let apply_ack t ~recipient ~seq =
  locked t (fun () ->
      match Hashtbl.find_opt t.recipients recipient with
      | None -> ()
      | Some r ->
          if seq > r.r_floor then begin
            let _, _, above = Imap.split seq r.r_unacked in
            r.r_unacked <- above;
            r.r_floor <- seq;
            (match r.r_session with
            | Some ss ->
                if ss.s_cursor < seq then ss.s_cursor <- seq;
                Condition.signal ss.s_cond
            | None -> ());
            refresh_pending_gauge t
          end)

let pump ?(span = fun _ f -> f ()) t =
  let cmds =
    locked t (fun () ->
        let cs = List.of_seq (Queue.to_seq t.commands) in
        Queue.clear t.commands;
        cs)
  in
  List.iter
    (fun cmd ->
      match cmd with
      | C_subscribe (ss, owner, text) ->
          span "subscribe" (fun () ->
              let reply =
                match t.callbacks with
                | None -> Frame.Err "server not ready"
                | Some cb -> (
                    match cb.cb_subscribe ~owner ~text with
                    | Ok name ->
                        Obs.Counter.incr t.m_registrations;
                        Frame.Okay name
                    | Error e -> Frame.Err e)
              in
              locked t (fun () -> enqueue_resp ss (Frame.encode_event reply)))
      | C_unsubscribe (ss, name) ->
          span "unsubscribe" (fun () ->
              let reply =
                match t.callbacks with
                | None -> Frame.Err "server not ready"
                | Some cb -> (
                    match cb.cb_unsubscribe name with
                    | Ok () -> Frame.Okay name
                    | Error e -> Frame.Err e)
              in
              locked t (fun () -> enqueue_resp ss (Frame.encode_event reply)))
      | C_ack (recipient, seq) ->
          span "ack" (fun () ->
              fire_fuse t "ack";
              journal_seq t "A" ~recipient ~seq;
              fire_fuse t "acked";
              Obs.Counter.incr t.m_acks;
              apply_ack t ~recipient ~seq))
    cmds;
  List.length cmds

(* ---- durability ---- *)

let encode_snapshot t =
  locked t (fun () ->
      let buf = Buffer.create 256 in
      let recipients =
        Hashtbl.fold (fun id r acc -> (id, r) :: acc) t.recipients []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      Codec.list buf
        (fun buf (id, r) ->
          Codec.string buf id;
          Codec.int buf r.r_floor;
          Codec.list buf
            (fun buf (seq, e) ->
              Codec.int buf seq;
              Codec.string buf e.e_subscription;
              Codec.float buf e.e_at;
              Codec.string buf e.e_body)
            (Imap.bindings r.r_unacked))
        recipients;
      Buffer.contents buf)

let decode_snapshot t payload =
  let r = Codec.reader payload in
  let recipients =
    Codec.read_list r (fun r ->
        let id = Codec.read_string r in
        let floor = Codec.read_int r in
        let entries =
          Codec.read_list r (fun r ->
              let seq = Codec.read_int r in
              let sub = Codec.read_string r in
              let at = Codec.read_float r in
              let body = Codec.read_string r in
              ( seq,
                {
                  e_subscription = sub;
                  e_at = at;
                  e_body = body;
                  e_wall = Obs.now ();
                } ))
        in
        (id, floor, entries))
  in
  Codec.expect_end r;
  locked t (fun () ->
      Hashtbl.reset t.recipients;
      List.iter
        (fun (id, floor, entries) ->
          Hashtbl.replace t.recipients id
            {
              r_floor = floor;
              r_unacked = Imap.of_seq (List.to_seq entries);
              r_session = None;
            })
        recipients;
      refresh_pending_gauge t)

let apply_op t ~intent payload =
  let r = Codec.reader payload in
  (match Codec.read_string r with
  | "P" ->
      let recipient = Codec.read_string r in
      let seq = Codec.read_int r in
      let sub, at, body =
        match intent seq with
        | Some report -> report
        | None ->
            raise
              (Codec.Malformed
                 (Printf.sprintf "serve: delivery %d has no intent" seq))
      in
      locked t (fun () ->
          let rcp =
            match Hashtbl.find_opt t.recipients recipient with
            | Some rcp -> rcp
            | None ->
                let rcp =
                  { r_floor = 0; r_unacked = Imap.empty; r_session = None }
                in
                Hashtbl.replace t.recipients recipient rcp;
                rcp
          in
          if seq > rcp.r_floor && not (Imap.mem seq rcp.r_unacked) then
            rcp.r_unacked <-
              Imap.add seq
                {
                  e_subscription = sub;
                  e_at = at;
                  e_body = body;
                  e_wall = Obs.now ();
                }
                rcp.r_unacked;
          refresh_pending_gauge t)
  | "A" ->
      let recipient = Codec.read_string r in
      let seq = Codec.read_int r in
      apply_ack t ~recipient ~seq
  | op -> raise (Codec.Malformed (Printf.sprintf "serve: unknown op %S" op)));
  Codec.expect_end r

(* ---- introspection ---- *)

let connections t = locked t (fun () -> List.length t.sessions)
let pending_total t = locked t (fun () -> pending_total_locked t)
