(* Supervised wire-protocol client.

   One supervisor thread owns the socket for its whole life: it
   dials, re-HELLOs under the same client id, replays every request
   the previous connection left unanswered, pumps inbound events, and
   keeps the link honest with PING/PONG.  Losing the connection — a
   peer reset, an injected fault, an [ERR busy] shed — never
   surfaces to the caller: the supervisor backs off (capped
   exponential with jitter) and dials again.  Exactly-once delivery
   to the [on_report] callback is recovered from the server's
   at-least-once stream by seq dedup that survives reconnects. *)

let log_src = Logs.Src.create "xy.serve.client" ~doc:"Supervised wire client"

module Log = (val Logs.src_log log_src)
module Obs = Xy_obs.Obs
module Prng = Xy_util.Prng
module Record_log = Xy_durable.Record_log

type config = {
  host : string;
  port : int;
  id : string;
  backoff_initial : float;
  backoff_max : float;
  ping_interval : float;
  pong_deadline : float;
  seed : int;
}

let config ?(host = "127.0.0.1") ?(backoff_initial = 0.05) ?(backoff_max = 2.)
    ?(ping_interval = 5.) ?(pong_deadline = 10.) ?(seed = 42) ~port ~id () =
  {
    host;
    port;
    id;
    backoff_initial;
    backoff_max;
    ping_interval;
    pong_deadline;
    seed;
  }

(* Each backoff delay is spread uniformly by +/- this fraction. *)
let jitter = 0.25

type report = { seq : int; subscription : string; at : float; body : string }

type stats = {
  connects : int;  (** successful HELLO/WELCOME handshakes *)
  reconnects : int;  (** connects beyond the first *)
  attempts : int;  (** dial attempts, including failures *)
  reports : int;  (** unique reports delivered to the callback *)
  duplicates : int;  (** redeliveries suppressed by seq dedup *)
}

(* A request the caller is (maybe) blocked on.  [attempts] counts
   sends across reconnects: a replayed SUBSCRIBE that the server
   already registered comes back as a "duplicate subscription" error,
   which on a retry is success. *)
type op_kind =
  | Op_subscribe of string * string  (* owner, text *)
  | Op_unsubscribe of string
  | Op_status

type op = {
  kind : op_kind;
  mutable result : (string, string) result option;
  mutable sends : int;
}

type t = {
  cfg : config;
  on_report : (report -> unit) option;
  mu : Mutex.t;
  pending : op Queue.t;  (* not yet written to the current connection *)
  inflight : op Queue.t;  (* written, awaiting a reply *)
  seen : (int, unit) Hashtbl.t;  (* seq dedup, survives reconnects *)
  prng : Prng.t;  (* backoff jitter *)
  mutable connected : bool;
  mutable stopped : bool;
  mutable fd : Unix.file_descr option;  (* owned by the supervisor *)
  mutable thread : Thread.t option;
  mutable st_connects : int;
  mutable st_attempts : int;
  mutable st_reports : int;
  mutable st_duplicates : int;
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* stdlib [Condition] has no timed wait, so every blocking API polls
   its predicate on a small sleep instead of sleeping on a condvar. *)
let poll_tick = 0.005

let rec poll_until ~deadline p =
  match p () with
  | Some v -> Some v
  | None ->
      if Obs.now () >= deadline then None
      else begin
        Thread.delay poll_tick;
        poll_until ~deadline p
      end

(* ---- supervisor internals ---- *)

let close_fd_quietly fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let write_all fd data =
  let len = String.length data in
  let rec go off =
    if off < len then
      let n =
        try Unix.write_substring fd data off (len - off)
        with Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      go (off + n)
  in
  go 0

exception Link_down of string

let send t fd req =
  try write_all fd (Frame.encode_request req)
  with Unix.Unix_error (e, _, _) ->
    ignore t;
    raise (Link_down (Unix.error_message e))

(* The server answers SUBSCRIBE/UNSUBSCRIBE from the pipeline pump
   but STATUS straight from the reader, so replies of the two classes
   can interleave; within each class order is preserved.  Match a
   reply to the first inflight op of the matching class. *)
let take_inflight t which =
  locked t (fun () ->
      let rest = Queue.create () in
      let found = ref None in
      Queue.iter
        (fun op ->
          if !found = None && which op.kind then found := Some op
          else Queue.push op rest)
        t.inflight;
      Queue.clear t.inflight;
      Queue.transfer rest t.inflight;
      !found)

let is_command = function
  | Op_subscribe _ | Op_unsubscribe _ -> true
  | Op_status -> false

let is_status k = not (is_command k)

let duplicate_prefix = "duplicate subscription: "

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let complete op result = op.result <- Some result

(* The server poisons a session (ERR, then close) when chaos mangles
   our bytes in flight.  Those ERRs describe the transport, not any
   request — treating one as a SUBSCRIBE verdict would fail the op
   terminally for a transient network fault, so they tear the link
   down instead and the op replays on the next connection. *)
let poison_prefixes =
  [ "malformed request"; "bad frame header"; "frame length"; "frame checksum" ]

let is_poison msg =
  List.exists (fun p -> starts_with ~prefix:p msg) poison_prefixes

let handle_command_reply t result =
  match take_inflight t (fun k -> is_command k) with
  | None ->
      Log.debug (fun m ->
          m "unmatched reply: %s"
            (match result with Ok s -> "OK " ^ s | Error e -> "ERR " ^ e))
  | Some op -> (
      match (op.kind, result) with
      | Op_subscribe _, Error msg
        when op.sends > 1 && starts_with ~prefix:duplicate_prefix msg ->
          (* the previous connection's SUBSCRIBE did land before the
             link died; the replay finding it registered is success *)
          complete op (Ok (String.sub msg (String.length duplicate_prefix)
                             (String.length msg - String.length duplicate_prefix)))
      | _, r -> complete op r)

(* Dial + handshake.  Returns the connected fd, or the number of
   seconds the server asked us to stay away ([ERR busy]). *)
let dial t =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd
      (Unix.ADDR_INET (Unix.inet_addr_of_string t.cfg.host, t.cfg.port));
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.05;
    write_all fd (Frame.encode_request (Frame.Hello t.cfg.id));
    let dec = Record_log.decoder () in
    let deadline = Obs.now () +. 5. in
    let rec await () =
      match Record_log.next dec with
      | Ok (Some payload) -> (
          match Frame.decode_event payload with
          | Ok (Frame.Welcome pending) -> `Connected pending
          | Ok (Frame.Err msg) when starts_with ~prefix:"busy" msg -> (
              (* admission shed: honor the retry hint *)
              match String.index_opt msg '=' with
              | Some i -> (
                  match
                    float_of_string_opt
                      (String.sub msg (i + 1) (String.length msg - i - 1))
                  with
                  | Some h when h > 0. -> `Busy h
                  | _ -> `Busy 1.)
              | None -> `Busy 1.)
          | Ok _ -> await ()
          | Error msg -> `Failed msg)
      | Ok None ->
          if Obs.now () >= deadline then `Failed "handshake timeout"
          else (
            match Record_log.fill dec (Unix.read fd) with
            | exception
                Unix.Unix_error
                  ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                await ()
            | exception Unix.Unix_error (e, _, _) ->
                `Failed (Unix.error_message e)
            | 0 -> `Failed "closed during handshake"
            | _ -> await ())
      | Error e -> `Failed (Record_log.error_to_string e)
    in
    match await () with
    | `Connected pending ->
        Log.debug (fun m ->
            m "connected to %s:%d (%d pending)" t.cfg.host t.cfg.port pending);
        Ok (fd, dec)
    | `Busy hint ->
        close_fd_quietly fd;
        Error (`Busy hint)
    | `Failed msg ->
        close_fd_quietly fd;
        Error (`Failed msg)
  with
  | Unix.Unix_error (e, _, _) ->
      close_fd_quietly fd;
      Error (`Failed (Unix.error_message e))
  | e ->
      close_fd_quietly fd;
      raise e

let handle_event t fd ev =
  match ev with
  | Frame.Report r ->
      (* at-least-once stream in; exactly-once callback out *)
      if Hashtbl.mem t.seen r.seq then
        locked t (fun () -> t.st_duplicates <- t.st_duplicates + 1)
      else begin
        Hashtbl.replace t.seen r.seq ();
        locked t (fun () -> t.st_reports <- t.st_reports + 1);
        match t.on_report with
        | Some f -> (
            try
              f { seq = r.seq; subscription = r.subscription; at = r.at; body = r.body }
            with e ->
              Log.warn (fun m ->
                  m "on_report raised: %s" (Printexc.to_string e)))
        | None -> ()
      end;
      send t fd (Frame.Ack r.seq)
  | Frame.Okay name -> handle_command_reply t (Ok name)
  | Frame.Err msg when is_poison msg -> raise (Link_down ("poisoned: " ^ msg))
  | Frame.Err msg -> handle_command_reply t (Error msg)
  | Frame.Status_reply xml -> (
      match take_inflight t (fun k -> is_status k) with
      | Some op -> complete op (Ok xml)
      | None -> ())
  | Frame.Pong _ -> ()  (* liveness handled by the session loop *)
  | Frame.Welcome _ -> ()

(* One connected session: replay unanswered ops, then pump until the
   link dies.  Raises [Link_down] on any failure. *)
let session t fd dec =
  (* everything the old connection left unanswered goes first, in
     order, ahead of newly queued ops *)
  locked t (fun () ->
      let replay = Queue.create () in
      Queue.transfer t.inflight replay;
      Queue.transfer t.pending replay;
      Queue.transfer replay t.pending);
  let last_ping = ref (Obs.now ()) in
  let awaiting_pong = ref None in
  let flush_pending () =
    let ops =
      locked t (fun () ->
          let ops = List.of_seq (Queue.to_seq t.pending) in
          Queue.clear t.pending;
          List.iter (fun op -> Queue.push op t.inflight) ops;
          ops)
    in
    List.iter
      (fun op ->
        op.sends <- op.sends + 1;
        send t fd
          (match op.kind with
          | Op_subscribe (owner, text) -> Frame.Subscribe { owner; text }
          | Op_unsubscribe name -> Frame.Unsubscribe name
          | Op_status -> Frame.Status))
      ops
  in
  let maybe_ping () =
    let now = Obs.now () in
    (match !awaiting_pong with
    | Some t0 when t.cfg.pong_deadline > 0. && now -. t0 > t.cfg.pong_deadline
      ->
        raise (Link_down "pong deadline exceeded")
    | _ -> ());
    if
      t.cfg.ping_interval > 0.
      && now -. !last_ping >= t.cfg.ping_interval
      && !awaiting_pong = None
    then begin
      last_ping := now;
      awaiting_pong := Some now;
      send t fd (Frame.Ping (string_of_float now))
    end
  in
  let rec drain () =
    match Record_log.next dec with
    | Ok None -> ()
    | Ok (Some payload) -> (
        match Frame.decode_event payload with
        | Ok (Frame.Pong _) ->
            awaiting_pong := None;
            drain ()
        | Ok ev ->
            handle_event t fd ev;
            drain ()
        | Error msg -> raise (Link_down ("malformed event: " ^ msg)))
    | Error e -> raise (Link_down (Record_log.error_to_string e))
  in
  let rec loop () =
    if t.stopped then ()
    else begin
      flush_pending ();
      maybe_ping ();
      (match Record_log.fill dec (Unix.read fd) with
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error (e, _, _) ->
          raise (Link_down (Unix.error_message e))
      | 0 -> raise (Link_down "connection closed by server")
      | _ -> drain ());
      loop ()
    end
  in
  loop ()

let backoff_delay t n =
  let base =
    Float.min t.cfg.backoff_max
      (t.cfg.backoff_initial *. Float.pow 2. (float_of_int n))
  in
  (* uniform in [base*(1-jitter), base*(1+jitter)] *)
  base *. (1. -. jitter +. Prng.float t.prng (2. *. jitter))

let supervisor t =
  let failures = ref 0 in
  while not t.stopped do
    locked t (fun () -> t.st_attempts <- t.st_attempts + 1);
    match dial t with
    | Ok (fd, dec) ->
        failures := 0;
        locked t (fun () ->
            t.fd <- Some fd;
            t.connected <- true;
            t.st_connects <- t.st_connects + 1);
        (try session t fd dec with
        | Link_down reason ->
            if not t.stopped then
              Log.info (fun m -> m "link down (%s), reconnecting" reason)
        | e ->
            Log.warn (fun m ->
                m "session error: %s" (Printexc.to_string e)));
        locked t (fun () ->
            t.fd <- None;
            t.connected <- false);
        close_fd_quietly fd
    | Error (`Busy hint) ->
        Log.info (fun m -> m "shed by server, retrying in %gs" hint);
        if not t.stopped then Thread.delay hint
    | Error (`Failed reason) ->
        let d = backoff_delay t !failures in
        incr failures;
        Log.debug (fun m ->
            m "dial failed (%s), retrying in %.3fs" reason d);
        if not t.stopped then Thread.delay d
  done

(* ---- public API ---- *)

let connect ?on_report cfg =
  let t =
    {
      cfg;
      on_report;
      mu = Mutex.create ();
      pending = Queue.create ();
      inflight = Queue.create ();
      seen = Hashtbl.create 256;
      prng = Prng.create ~seed:cfg.seed;
      connected = false;
      stopped = false;
      fd = None;
      thread = None;
      st_connects = 0;
      st_attempts = 0;
      st_reports = 0;
      st_duplicates = 0;
    }
  in
  t.thread <- Some (Thread.create supervisor t);
  t

let wait_connected ?(timeout = 5.) t =
  let deadline = Obs.now () +. timeout in
  poll_until ~deadline (fun () -> if t.connected then Some () else None)
  <> None

let submit t kind ~timeout =
  let op = { kind; result = None; sends = 0 } in
  locked t (fun () -> Queue.push op t.pending);
  let deadline = Obs.now () +. timeout in
  match poll_until ~deadline (fun () -> op.result) with
  | Some r -> r
  | None -> Error "timeout"

let subscribe ?(timeout = 10.) t ~owner ~text =
  submit t (Op_subscribe (owner, text)) ~timeout

let unsubscribe ?(timeout = 10.) t name =
  submit t (Op_unsubscribe name) ~timeout

let status ?(timeout = 10.) t = submit t Op_status ~timeout

let connected t = t.connected

let stats t =
  locked t (fun () ->
      {
        connects = t.st_connects;
        reconnects = Int.max 0 (t.st_connects - 1);
        attempts = t.st_attempts;
        reports = t.st_reports;
        duplicates = t.st_duplicates;
      })

let close t =
  if not t.stopped then begin
    t.stopped <- true;
    (match locked t (fun () -> t.fd) with
    | Some fd -> (
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    | None -> ());
    Option.iter Thread.join t.thread;
    t.thread <- None
  end
