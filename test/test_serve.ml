(* Tests for the serving surface (lib/serve): the frame codec, the
   wire protocol driven over real sockets, adversarial byte streams,
   backpressure against stalled clients, the journaled pending store
   and its crash-fault boundaries (kill-at-every-point matrix over a
   durable run with a live wire subscriber), wire-path equivalence
   with the in-process sink, and the shared Listener's shutdown
   discipline. *)

module Frame = Xy_serve.Frame
module Record_log = Xy_durable.Record_log
module Durable = Xy_durable.Durable
module Codec = Xy_util.Codec
module Serve = Xy_serve.Serve
module Listener = Xy_serve.Listener
module Telemetry = Xy_telemetry.Telemetry
module Xyleme = Xy_system.Xyleme
module Fault = Xy_fault.Fault
module Obs = Xy_obs.Obs
module Sink = Xy_reporter.Sink
module Web = Xy_crawler.Synthetic_web
module Printer = Xy_xml.Printer
module Manager = Xy_submgr.Manager

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Socket client helper *)

type reply = Event of Frame.event | Closed | Timeout

type client = { c_fd : Unix.file_descr; c_dec : Record_log.decoder }

(* No Nagle delay, as on the server's side of the socket: an ACK sent
   right after another must not wait for the peer's delayed ACK. *)
let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { c_fd = fd; c_dec = Record_log.decoder () }

let close_client c = try Unix.close c.c_fd with Unix.Unix_error _ -> ()

let send_raw c data =
  let n = String.length data in
  let rec push off =
    if off < n then push (off + Unix.write_substring c.c_fd data off (n - off))
  in
  try push 0 with Unix.Unix_error _ -> ()

let send c req = send_raw c (Frame.encode_request req)

(* Next event within [timeout] seconds; framing violations on the
   client side are test failures (the server never sends bad frames). *)
let recv ?(timeout = 5.) c =
  let deadline = Unix.gettimeofday () +. timeout in
  let buf = Bytes.create 4096 in
  let rec go () =
    match Record_log.next c.c_dec with
    | Error e ->
        Alcotest.failf "client framing: %s" (Record_log.error_to_string e)
    | Ok (Some payload) -> (
        match Frame.decode_event payload with
        | Ok ev -> Event ev
        | Error m -> Alcotest.failf "client decode: %s" m)
    | Ok None -> (
        (* wait for bytes no longer than the time left *)
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then Timeout
        else
          match Unix.select [ c.c_fd ] [] [] left with
          | [], _, _ -> go ()
          | _ -> (
              match Unix.read c.c_fd buf 0 (Bytes.length buf) with
              | 0 -> Closed
              | n ->
                  Record_log.feed c.c_dec (Bytes.sub_string buf 0 n);
                  go ()
              | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> Closed)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let hello ?(id = "u0") c =
  send c (Frame.Hello id);
  match recv c with
  | Event (Frame.Welcome pending) -> pending
  | r ->
      Alcotest.failf "expected WELCOME, got %s"
        (match r with
        | Closed -> "close"
        | Timeout -> "timeout"
        | Event _ -> "another event")

(* An adversarial connection must get an ERR frame and then the
   server's close — and nothing else. *)
let expect_err_close c =
  (match recv c with
  | Event (Frame.Err _) -> ()
  | r ->
      Alcotest.failf "expected ERR, got %s"
        (match r with
        | Closed -> "close"
        | Timeout -> "timeout"
        | Event _ -> "another event"));
  match recv c with
  | Closed -> ()
  | Timeout -> Alcotest.fail "connection not closed after ERR"
  | Event _ -> Alcotest.fail "traffic after ERR"

(* ------------------------------------------------------------------ *)
(* Standalone server fixture *)

let stub_callbacks ?(registry = ref []) () =
  {
    Serve.cb_subscribe =
      (fun ~owner ~text ->
        if text = "reject me" then Error "rejected"
        else begin
          registry := (owner, text) :: !registry;
          Ok ("W" ^ owner)
        end);
    cb_unsubscribe =
      (fun name -> if name = "ghost" then Error "unknown subscription" else Ok ());
    cb_status = (fun () -> "<health/>");
  }

let with_serve ?(outbox = 64) f =
  let obs = Obs.create () in
  let s = Serve.create ~obs ~config:(Serve.config ~outbox ~port:0 ()) () in
  Serve.listen s ~callbacks:(stub_callbacks ());
  Fun.protect
    ~finally:(fun () -> Serve.stop s)
    (fun () -> f s (Serve.port s) obs)

(* Apply queued client mutations until [n] were processed (commands
   queue on connection threads, so a freshly sent request may not be
   visible to the first pump). *)
let pump_until ?(n = 1) pump =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go total =
    if total >= n then total
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "pump timed out: %d of %d commands" total n
    else begin
      let got = pump () in
      if got = 0 then Thread.delay 0.005;
      go (total + got)
    end
  in
  go 0

let serve_counter obs name =
  Obs.Snapshot.counter_value (Obs.snapshot obs) ~stage:"serve" name

let serve_histogram_count obs name =
  match Obs.Snapshot.find (Obs.snapshot obs) ~stage:"serve" name with
  | Some (Obs.Snapshot.Histogram h) -> h.Obs.Snapshot.count
  | _ -> 0

(* ------------------------------------------------------------------ *)
(* Frame codec *)

let sample_requests =
  [
    Frame.Hello "u0";
    Frame.Subscribe { owner = "alice"; text = "line one\nline two \"quoted\"" };
    Frame.Unsubscribe "W0";
    Frame.Status;
    Frame.Ack 42;
    Frame.Ping "tok en";
  ]

let sample_events =
  [
    Frame.Welcome 3;
    Frame.Okay "W0";
    Frame.Err "no such subscription";
    Frame.Status_reply "<health at=\"1\"/>";
    Frame.Pong "tok en";
    Frame.Report
      { seq = 17; subscription = "W0"; at = 86400.5; body = "<Report/>\n" };
  ]

let decode_one ?max_frame frame =
  let d = Record_log.decoder ?max_frame () in
  Record_log.feed d frame;
  Record_log.next d

let test_frame_roundtrip () =
  List.iter
    (fun req ->
      match decode_one (Frame.encode_request req) with
      | Ok (Some payload) ->
          checkb "request round-trips" true (Frame.decode_request payload = Ok req)
      | _ -> Alcotest.fail "frame did not decode")
    sample_requests;
  List.iter
    (fun ev ->
      match decode_one (Frame.encode_event ev) with
      | Ok (Some payload) ->
          checkb "event round-trips" true (Frame.decode_event payload = Ok ev)
      | _ -> Alcotest.fail "frame did not decode")
    sample_events

let test_frame_byte_at_a_time () =
  let frames =
    String.concat ""
      (List.map Frame.encode_request [ Frame.Hello "u0"; Frame.Ping "p" ])
  in
  let d = Record_log.decoder () in
  let got = ref [] in
  String.iter
    (fun ch ->
      Record_log.feed d (String.make 1 ch);
      match Record_log.next d with
      | Ok (Some payload) -> got := payload :: !got
      | Ok None -> ()
      | Error e ->
          Alcotest.failf "split feed: %s" (Record_log.error_to_string e))
    frames;
  checki "both frames decoded from 1-byte feeds" 2 (List.length !got);
  checki "nothing left buffered" 0 (Record_log.buffered d)

let test_frame_truncated_is_incomplete () =
  let frame = Frame.encode_request (Frame.Hello "u0") in
  for cut = 0 to String.length frame - 1 do
    let d = Record_log.decoder () in
    Record_log.feed d (String.sub frame 0 cut);
    match Record_log.next d with
    | Ok None -> ()
    | Ok (Some _) -> Alcotest.failf "cut %d: decoded a truncated frame" cut
    | Error e ->
        Alcotest.failf "cut %d: truncation misdiagnosed: %s" cut
          (Record_log.error_to_string e)
  done

let test_frame_bad_crc_poisons () =
  let frame = Frame.encode_request (Frame.Subscribe { owner = "a"; text = "b" }) in
  let bytes = Bytes.of_string frame in
  (* flip one payload byte, leaving header and trailer intact *)
  let header_end = String.index frame '\n' in
  Bytes.set bytes (header_end + 1)
    (Char.chr (Char.code (Bytes.get bytes (header_end + 1)) lxor 0x01));
  let d = Record_log.decoder () in
  Record_log.feed d (Bytes.to_string bytes);
  (match Record_log.next d with
  | Error Record_log.Bad_crc -> ()
  | _ -> Alcotest.fail "corrupted payload not diagnosed Bad_crc");
  (* poisoned: even a subsequent valid frame is refused *)
  Record_log.feed d (Frame.encode_request Frame.Status);
  match Record_log.next d with
  | Error Record_log.Bad_crc -> ()
  | _ -> Alcotest.fail "decoder not poisoned after Bad_crc"

let test_frame_missing_trailer () =
  let payload = "p" in
  let frame =
    Printf.sprintf "W %d %s\n%sX" (String.length payload)
      (Record_log.checksum payload) payload
  in
  match decode_one frame with
  | Error Record_log.Bad_crc -> ()
  | _ -> Alcotest.fail "missing trailer newline not diagnosed"

let test_frame_oversize () =
  (match decode_one "W 99999999999 0123456789abcdef\n" with
  | Error (Record_log.Oversize n) ->
      checkb "declared length" true (n = 99999999999)
  | _ -> Alcotest.fail "oversize declaration accepted");
  (* a legitimate frame above a negotiated smaller maximum *)
  let frame = Frame.encode_request (Frame.Hello (String.make 64 'x')) in
  match decode_one ~max_frame:16 frame with
  | Error (Record_log.Oversize _) -> ()
  | _ -> Alcotest.fail "per-connection maximum not enforced"

let test_frame_bad_headers () =
  let bad h =
    match decode_one h with
    | Error (Record_log.Bad_header _) -> ()
    | _ -> Alcotest.failf "header %S accepted" h
  in
  bad "Y 3 0123456789abcdef\n";
  bad "W abc 0123456789abcdef\n";
  bad "W 3 short\n";
  bad "W 3\n";
  bad "GET / HTTP/1.1\n";
  bad "W 0x10 0123456789abcdef\n";
  bad "W -1 0123456789abcdef\n";
  (* a header that can no longer become valid is rejected even
     without a newline *)
  let d = Record_log.decoder () in
  Record_log.feed d (String.make 64 'x');
  match Record_log.next d with
  | Error (Record_log.Bad_header _) -> ()
  | _ -> Alcotest.fail "runaway header not rejected"

let gen_wire_string =
  QCheck.Gen.(string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 40))

let gen_request =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Frame.Hello s) gen_wire_string;
        map2
          (fun owner text -> Frame.Subscribe { owner; text })
          gen_wire_string gen_wire_string;
        map (fun s -> Frame.Unsubscribe s) gen_wire_string;
        return Frame.Status;
        map (fun n -> Frame.Ack n) (0 -- 1_000_000);
        map (fun s -> Frame.Ping s) gen_wire_string;
      ])

let qcheck_frame_request_roundtrip =
  QCheck.Test.make ~name:"random requests round-trip the wire" ~count:200
    QCheck.(make Gen.(list_size (0 -- 6) gen_request))
    (fun reqs ->
      let d = Record_log.decoder () in
      Record_log.feed d (String.concat "" (List.map Frame.encode_request reqs));
      let rec pop acc =
        match Record_log.next d with
        | Ok (Some payload) -> (
            match Frame.decode_request payload with
            | Ok r -> pop (r :: acc)
            | Error _ -> acc)
        | Ok None | Error _ -> acc
      in
      List.rev (pop []) = reqs)

let qcheck_frame_garbage_never_raises =
  QCheck.Test.make ~name:"random bytes never crash the decoder" ~count:300
    QCheck.(
      make Gen.(string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 120)))
    (fun bytes ->
      let d = Record_log.decoder () in
      Record_log.feed d bytes;
      let rec drain n =
        if n = 0 then true
        else
          match Record_log.next d with
          | Ok (Some _) -> drain (n - 1)
          | Ok None | Error _ -> true
      in
      drain 64)

(* ------------------------------------------------------------------ *)
(* Protocol conformance *)

let test_hello_ping_status () =
  with_serve @@ fun _s port obs ->
  let c = connect port in
  checki "welcome with nothing pending" 0 (hello c);
  send c (Frame.Ping "t1");
  checkb "pong echoes the token" true (recv c = Event (Frame.Pong "t1"));
  send c Frame.Status;
  checkb "status returns the health XML" true
    (recv c = Event (Frame.Status_reply "<health/>"));
  checki "requests counted" 3 (serve_counter obs "requests");
  checki "connection counted" 1 (serve_counter obs "connected_total");
  close_client c

let test_subscribe_unsubscribe () =
  let registry = ref [] in
  let obs = Obs.create () in
  let s = Serve.create ~obs ~config:(Serve.config ~port:0 ()) () in
  Serve.listen s ~callbacks:(stub_callbacks ~registry ());
  Fun.protect ~finally:(fun () -> Serve.stop s) @@ fun () ->
  let c = connect (Serve.port s) in
  ignore (hello c);
  send c (Frame.Subscribe { owner = "alice"; text = "sub text" });
  (* mutations apply at pump time, never on the connection thread *)
  checkb "no reply before the pipeline pumps" true (recv ~timeout:0.1 c = Timeout);
  ignore (pump_until (fun () -> Serve.pump s));
  checkb "OK carries the registered name" true (recv c = Event (Frame.Okay "Walice"));
  checkb "callback saw the registration" true
    (!registry = [ ("alice", "sub text") ]);
  send c (Frame.Subscribe { owner = "alice"; text = "reject me" });
  ignore (pump_until (fun () -> Serve.pump s));
  checkb "callback errors surface as ERR" true
    (recv c = Event (Frame.Err "rejected"));
  send c (Frame.Unsubscribe "ghost");
  send c (Frame.Unsubscribe "Walice");
  ignore (pump_until ~n:2 (fun () -> Serve.pump s));
  checkb "unsubscribe error" true
    (recv c = Event (Frame.Err "unknown subscription"));
  checkb "unsubscribe ok" true (recv c = Event (Frame.Okay "Walice"));
  checki "one registration counted" 1 (serve_counter obs "registrations");
  close_client c

let test_pipelined_requests () =
  with_serve @@ fun s port _obs ->
  let c = connect port in
  (* one write carrying five requests: immediate replies come back in
     request order, the queued SUBSCRIBE answers after the pump *)
  send_raw c
    (String.concat ""
       (List.map Frame.encode_request
          [
            Frame.Hello "u0";
            Frame.Ping "a";
            Frame.Status;
            Frame.Subscribe { owner = "u0"; text = "t" };
            Frame.Ping "b";
          ]));
  checkb "1st: welcome" true (recv c = Event (Frame.Welcome 0));
  checkb "2nd: pong a" true (recv c = Event (Frame.Pong "a"));
  checkb "3rd: status" true (recv c = Event (Frame.Status_reply "<health/>"));
  checkb "4th: pong b" true (recv c = Event (Frame.Pong "b"));
  ignore (pump_until (fun () -> Serve.pump s));
  checkb "5th: the pumped OK" true (recv c = Event (Frame.Okay "Wu0"));
  close_client c

let test_ack_before_hello () =
  with_serve @@ fun _s port obs ->
  let c = connect port in
  send c (Frame.Ack 3);
  expect_err_close c;
  checki "counted as malformed" 1 (serve_counter obs "malformed");
  close_client c

let test_hello_rebind_evicts () =
  with_serve @@ fun _s port _obs ->
  let a = connect port in
  ignore (hello ~id:"shared" a);
  let b = connect port in
  ignore (hello ~id:"shared" b);
  (* the old holder of the identity is closed ... *)
  checkb "first connection evicted" true (recv a = Closed);
  (* ... and the new one owns the session *)
  send b (Frame.Ping "still here");
  checkb "rebound session serves" true (recv b = Event (Frame.Pong "still here"));
  close_client a;
  close_client b

(* ------------------------------------------------------------------ *)
(* Adversarial inputs.  Every case keeps a victim session open through
   the attack and proves it unharmed. *)

let with_victim port f =
  let victim = connect port in
  ignore (hello ~id:"victim" victim);
  f ();
  send victim (Frame.Ping "unharmed");
  checkb "victim session survives the attack" true
    (recv victim = Event (Frame.Pong "unharmed"));
  close_client victim

let test_adversarial_garbage_header () =
  with_serve @@ fun _s port obs ->
  with_victim port @@ fun () ->
  let c = connect port in
  send_raw c "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  expect_err_close c;
  close_client c;
  checkb "malformed counted" true (serve_counter obs "malformed" >= 1)

let test_adversarial_bad_crc () =
  with_serve @@ fun _s port _obs ->
  with_victim port @@ fun () ->
  let c = connect port in
  let frame = Bytes.of_string (Frame.encode_request (Frame.Ping "x")) in
  let payload_at = Bytes.index frame '\n' + 1 in
  Bytes.set frame payload_at
    (Char.chr (Char.code (Bytes.get frame payload_at) lxor 0xff));
  send_raw c (Bytes.to_string frame);
  expect_err_close c;
  close_client c

let test_adversarial_oversize () =
  with_serve @@ fun _s port _obs ->
  with_victim port @@ fun () ->
  let c = connect port in
  send_raw c "W 99999999999 0123456789abcdef\n";
  expect_err_close c;
  close_client c

let test_adversarial_unknown_verb () =
  with_serve @@ fun _s port _obs ->
  with_victim port @@ fun () ->
  let c = connect port in
  let buf = Buffer.create 16 in
  Xy_util.Codec.string buf "BOGUS";
  send_raw c (Record_log.encode (Buffer.contents buf));
  expect_err_close c;
  close_client c

let test_adversarial_truncated_eof () =
  with_serve @@ fun _s port _obs ->
  with_victim port @@ fun () ->
  let c = connect port in
  let frame = Frame.encode_request (Frame.Hello "u9") in
  send_raw c (String.sub frame 0 (String.length frame / 2));
  close_client c;
  (* server must shrug it off: a fresh client completes a session *)
  let fresh = connect port in
  checki "fresh client welcome" 0 (hello ~id:"fresh" fresh);
  close_client fresh

(* The qcheck property: an arbitrary byte-mangled request stream —
   pure noise or a valid pipeline with one byte flipped — never
   crashes the server, and never corrupts another client's session. *)
let gen_attack =
  QCheck.Gen.(
    let raw = string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 120) in
    let mangled_valid =
      list_size (1 -- 3) gen_request >>= fun reqs ->
      let stream = String.concat "" (List.map Frame.encode_request reqs) in
      if stream = "" then return stream
      else
        pair (0 -- (String.length stream - 1)) (0 -- 255) >|= fun (i, b) ->
        let bytes = Bytes.of_string stream in
        Bytes.set bytes i (Char.chr b);
        Bytes.to_string bytes
    in
    frequency [ (1, raw); (2, mangled_valid) ])

let qcheck_mangled_stream_isolation =
  QCheck.Test.make
    ~name:"mangled request streams: server survives, sessions isolated"
    ~count:30
    (QCheck.make gen_attack)
    (fun attack ->
      with_serve @@ fun _s port _obs ->
      let victim = connect port in
      let ok_victim_hello =
        send victim (Frame.Hello "victim");
        match recv victim with Event (Frame.Welcome _) -> true | _ -> false
      in
      let attacker = connect port in
      send_raw attacker attack;
      close_client attacker;
      let fresh = connect port in
      send fresh (Frame.Hello "fresh");
      let ok_fresh =
        match recv fresh with Event (Frame.Welcome _) -> true | _ -> false
      in
      send victim (Frame.Ping "alive");
      let ok_victim =
        match recv victim with Event (Frame.Pong "alive") -> true | _ -> false
      in
      close_client fresh;
      close_client victim;
      ok_victim_hello && ok_fresh && ok_victim)

(* ------------------------------------------------------------------ *)
(* Delivery, backpressure and the pending store (standalone server) *)

let test_deliver_and_ack () =
  with_serve @@ fun s port obs ->
  let c = connect port in
  ignore (hello c);
  (* deliveries for identities that never connected are ignored: the
     in-process sink covers them *)
  Serve.deliver s ~seq:1 ~recipient:"nobody" ~subscription:"S" ~at:1. ~body:"<r/>";
  checki "unknown recipient ignored" 0 (Serve.pending_total s);
  Serve.deliver s ~seq:1 ~recipient:"u0" ~subscription:"S" ~at:2.5 ~body:"<r/>";
  (match recv c with
  | Event (Frame.Report { seq = 1; subscription = "S"; at = 2.5; body = "<r/>" })
    ->
      ()
  | _ -> Alcotest.fail "report frame not streamed");
  (* duplicate redelivery of a pending seq is dropped *)
  Serve.deliver s ~seq:1 ~recipient:"u0" ~subscription:"S" ~at:2.5 ~body:"<r/>";
  checki "no duplicate entry" 1 (Serve.pending_total s);
  send c (Frame.Ack 1);
  ignore (pump_until (fun () -> Serve.pump s));
  checki "acked entry retired" 0 (Serve.pending_total s);
  (* a redelivery of an acked seq is also dropped *)
  Serve.deliver s ~seq:1 ~recipient:"u0" ~subscription:"S" ~at:2.5 ~body:"<r/>";
  checki "acked seq stays retired" 0 (Serve.pending_total s);
  checki "enqueued once" 1 (serve_counter obs "reports_enqueued");
  (* the writer thread counts a report only after its write returns,
     which can be after the client already holds the frame *)
  let deadline = Unix.gettimeofday () +. 10. in
  while
    serve_counter obs "reports_sent" < 1
    || serve_histogram_count obs "send_lag_seconds" < 1
  do
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "report send never counted";
    Thread.delay 0.005
  done;
  checki "sent once" 1 (serve_counter obs "reports_sent");
  checki "acked once" 1 (serve_counter obs "acks");
  checki "send lag observed" 1 (serve_histogram_count obs "send_lag_seconds");
  close_client c

let test_outbox_window () =
  with_serve ~outbox:2 @@ fun s port obs ->
  let c = connect port in
  ignore (hello c);
  let deliver seq =
    Serve.deliver s ~seq ~recipient:"u0" ~subscription:"S" ~at:(float_of_int seq)
      ~body:"<r/>"
  in
  let expect_report seq =
    match recv c with
    | Event (Frame.Report r) -> checki "in-order seq" seq r.seq
    | _ -> Alcotest.failf "report %d not received" seq
  in
  deliver 1;
  deliver 2;
  expect_report 1;
  expect_report 2;
  (* window full (2 in flight, nothing acked): later deliveries stay
     in the pending store and are counted as overflow *)
  deliver 3;
  deliver 4;
  deliver 5;
  checki "overflow counted" 3 (serve_counter obs "outbox_overflow");
  checkb "nothing streamed past the window" true (recv ~timeout:0.15 c = Timeout);
  checki "all five pending" 5 (Serve.pending_total s);
  (* cumulative ack opens the window *)
  send c (Frame.Ack 2);
  ignore (pump_until (fun () -> Serve.pump s));
  expect_report 3;
  expect_report 4;
  checkb "window caps again" true (recv ~timeout:0.15 c = Timeout);
  send c (Frame.Ack 4);
  ignore (pump_until (fun () -> Serve.pump s));
  expect_report 5;
  send c (Frame.Ack 5);
  ignore (pump_until (fun () -> Serve.pump s));
  checki "store drained" 0 (Serve.pending_total s);
  close_client c

let test_delivery_fuses () =
  with_serve @@ fun s port _obs ->
  let labels = ref [] in
  Serve.set_fuse s (Some (fun l -> labels := l :: !labels));
  let c = connect port in
  ignore (hello c);
  Serve.deliver s ~seq:1 ~recipient:"u0" ~subscription:"S" ~at:1. ~body:"<r/>";
  checkb "frame boundaries in order" true
    (List.rev !labels = [ "frame"; "frame_written" ]);
  (match recv c with
  | Event (Frame.Report _) -> ()
  | _ -> Alcotest.fail "no report");
  send c (Frame.Ack 1);
  ignore (pump_until (fun () -> Serve.pump s));
  checkb "ack boundaries in order" true
    (List.rev !labels = [ "frame"; "frame_written"; "ack"; "acked" ]);
  (* a crash at the pre-journal boundary leaves the store untouched *)
  Serve.set_fuse s
    (Some (fun l -> if l = "frame" then raise (Fault.Crash "serve:frame")));
  (match
     Serve.deliver s ~seq:2 ~recipient:"u0" ~subscription:"S" ~at:2. ~body:"<r/>"
   with
  | exception Fault.Crash "serve:frame" -> ()
  | () -> Alcotest.fail "fuse did not fire");
  checki "nothing enqueued past a pre-journal crash" 0 (Serve.pending_total s);
  close_client c

let test_journal_replay_and_snapshot () =
  with_serve @@ fun s port _obs ->
  let ops = ref [] in
  Serve.set_journal s (Some (fun op -> ops := op :: !ops));
  let c = connect port in
  ignore (hello c);
  let report seq = ("S", float_of_int seq, Printf.sprintf "<r n=\"%d\"/>" seq) in
  List.iter
    (fun seq ->
      let subscription, at, body = report seq in
      Serve.deliver s ~seq ~recipient:"u0" ~subscription ~at ~body)
    [ 1; 2; 3 ];
  (* a [P] op names (recipient, seq) only: replay takes the report from
     the reporter's intent, played here by the delivered reports *)
  let apply_op s' =
    Serve.apply_op s' ~intent:(fun seq ->
        if List.mem seq [ 1; 2; 3 ] then Some (report seq) else None)
  in
  for _ = 1 to 3 do
    match recv c with
    | Event (Frame.Report _) -> ()
    | _ -> Alcotest.fail "missing report"
  done;
  send c (Frame.Ack 2);
  ignore (pump_until (fun () -> Serve.pump s));
  checki "floor 2 leaves one pending" 1 (Serve.pending_total s);
  let snap = Serve.encode_snapshot s in
  let fresh () =
    Serve.create ~obs:(Obs.create ()) ~config:(Serve.config ~port:0 ()) ()
  in
  (* the journaled ops alone rebuild the store *)
  let s2 = fresh () in
  List.iter (apply_op s2) (List.rev !ops);
  checks "journal replay reproduces the snapshot" snap (Serve.encode_snapshot s2);
  checki "replayed pending" 1 (Serve.pending_total s2);
  (* and the snapshot round-trips *)
  let s3 = fresh () in
  Serve.decode_snapshot s3 snap;
  checks "snapshot round-trips" snap (Serve.encode_snapshot s3);
  (* replaying a duplicate P op over the restored store is a no-op *)
  List.iter (apply_op s3) (List.rev !ops);
  checks "replay over a snapshot dedups" snap (Serve.encode_snapshot s3);
  close_client c

(* ------------------------------------------------------------------ *)
(* System-level fixtures *)

let with_temp_dir f =
  let dir = Filename.temp_file "xy_serve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect
    ~finally:(fun () -> try rm dir with Sys_error _ -> ())
    (fun () -> f dir)

let site_subscription ?(name = "Wire0") () =
  Printf.sprintf
    {|subscription %s
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://site0.example.org/" and modified self
report when immediate|}
    name

(* Register [text] over the wire and pump until the OK comes back. *)
let wire_subscribe x c ~text =
  send c (Frame.Subscribe { owner = "u0"; text });
  ignore (pump_until (fun () -> Xyleme.serve_pump x));
  match recv c with
  | Event (Frame.Okay name) -> name
  | Event (Frame.Err m) -> Alcotest.failf "wire subscription rejected: %s" m
  | _ -> Alcotest.fail "expected OK for the wire subscription"

(* Read report frames, acking each, until the pending store drains.
   Dedups by seq into [received] — at-least-once redeliveries collapse. *)
let drain_reports ?(timeout = 30.) ~pump serve c received =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go idle =
    ignore (pump ());
    if Serve.pending_total serve = 0 && idle > 0 then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "drain timed out with %d report(s) pending"
        (Serve.pending_total serve)
    else
      match recv ~timeout:0.002 c with
      | Event (Frame.Report { seq; subscription; at = _; body }) ->
          Hashtbl.replace received seq (subscription, body);
          send c (Frame.Ack seq);
          go 0
      | Event _ -> go 0
      | Timeout -> go (idle + 1)
      | Closed -> Alcotest.fail "server closed the connection mid-drain"
  in
  go 0

let sorted_received received =
  List.sort compare
    (Hashtbl.fold (fun seq (sub, body) acc -> (seq, sub, body) :: acc) received [])

(* ------------------------------------------------------------------ *)
(* Wire-path equivalence: the same seed and subscription served over
   the socket must yield exactly the in-process sink's deliveries,
   deduped by seq — with and without fault injection. *)

let eq_seed = 7
let eq_days = 3.
let eq_step = 21600.
let eq_fetch = 200
let eq_web () = Web.generate ~seed:eq_seed ~sites:2 ~pages_per_site:3 ()

let rendered_deliveries deliveries =
  List.sort compare
    (List.rev_map
       (fun d ->
         ( d.Sink.seq,
           d.Sink.subscription,
           Printer.element_to_string d.Sink.report ))
       !deliveries)

let in_process_run ?fault_plan () =
  let sink, deliveries = Sink.memory () in
  let x = Xyleme.create ~seed:eq_seed ?fault_plan ~web:(eq_web ()) ~sink () in
  (match Xyleme.subscribe x ~owner:"u0" ~text:(site_subscription ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "subscribe: %s" (Manager.error_to_string e));
  Xyleme.run x ~days:eq_days ~step:eq_step ~fetch_limit:eq_fetch;
  rendered_deliveries deliveries

let wire_run ?fault_plan () =
  let sink, deliveries = Sink.memory () in
  let x =
    Xyleme.create ~seed:eq_seed ?fault_plan ~web:(eq_web ()) ~sink ~serve_port:0
      ()
  in
  let s = Option.get (Xyleme.serve x) in
  let c = connect (Serve.port s) in
  checki "nothing pending on first contact" 0 (hello c);
  checks "wire registration names the subscription" "Wire0"
    (wire_subscribe x c ~text:(site_subscription ()));
  Xyleme.run x ~days:eq_days ~step:eq_step ~fetch_limit:eq_fetch;
  let received = Hashtbl.create 64 in
  drain_reports ~pump:(fun () -> Xyleme.serve_pump x) s c received;
  close_client c;
  Xyleme.stop_serve x;
  (rendered_deliveries deliveries, sorted_received received)

let test_wire_equivalence () =
  let baseline = in_process_run () in
  checkb "baseline produced reports" true (baseline <> []);
  let in_proc, over_wire = wire_run () in
  checkb "the tee does not disturb the in-process sink" true
    (in_proc = baseline);
  checkb "wire deliveries equal the in-process sink's" true
    (over_wire = baseline)

let test_wire_equivalence_under_faults () =
  let fault_plan = [ ("fetch", 0.1); ("malformed", 0.2) ] in
  let baseline = in_process_run ~fault_plan () in
  let in_proc, over_wire = wire_run ~fault_plan () in
  checkb "faulted runs stay deterministic through the serve tee" true
    (in_proc = baseline);
  checkb "faulted wire deliveries equal the sink's" true (over_wire = baseline)

(* A served system answers STATUS with its metrics snapshot: the one
   [<metrics>] document that [stats --xml] prints. *)
let test_status_is_metrics_document () =
  let x = Xyleme.create ~seed:eq_seed ~web:(eq_web ()) ~serve_port:0 () in
  Fun.protect ~finally:(fun () -> Xyleme.stop_serve x) @@ fun () ->
  Xyleme.run x ~days:1. ~step:eq_step ~fetch_limit:eq_fetch;
  let c = connect (Serve.port (Option.get (Xyleme.serve x))) in
  ignore (hello c);
  send c Frame.Status;
  (match recv c with
  | Event (Frame.Status_reply xml) ->
      let root = (Xy_xml.Parser.parse xml).Xy_xml.Types.root in
      checks "root element" "metrics" root.Xy_xml.Types.tag;
      checkb "the crawler's stage is reported" true
        (List.exists
           (fun stage -> Xy_xml.Types.attr stage "name" = Some "crawler")
           (Xy_xml.Types.children_elements root))
  | _ -> Alcotest.fail "expected a STATUS reply");
  close_client c

(* ------------------------------------------------------------------ *)
(* Slow clients and abrupt disconnects (system level) *)

(* sized so the site-0 subscription fires more times than the stalled
   client's 4-slot outbox: ~9 deliveries at this seed *)
let bp_seed = 11
let bp_days = 6.
let bp_web () = Web.generate ~seed:bp_seed ~sites:2 ~pages_per_site:8 ()

let bp_run_seconds x =
  let t0 = Unix.gettimeofday () in
  Xyleme.run x ~days:bp_days ~step:eq_step ~fetch_limit:eq_fetch;
  Unix.gettimeofday () -. t0

let test_slow_client_does_not_stall () =
  (* baseline: serving surface open, subscription in-process, no
     client attached *)
  let sink0, deliveries0 = Sink.memory () in
  let x0 = Xyleme.create ~seed:bp_seed ~web:(bp_web ()) ~sink:sink0 ~serve_port:0 () in
  (match Xyleme.subscribe x0 ~owner:"u0" ~text:(site_subscription ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "subscribe: %s" (Manager.error_to_string e));
  let t_base = bp_run_seconds x0 in
  Xyleme.stop_serve x0;
  let base_docs = (Xyleme.stats x0).Xyleme.documents_fetched in
  (* same run with a connected subscriber that never reads *)
  let sink1, _ = Sink.memory () in
  let x1 =
    Xyleme.create ~seed:bp_seed ~web:(bp_web ()) ~sink:sink1
      ~serve_config:(Serve.config ~outbox:4 ~port:0 ())
      ()
  in
  let s = Option.get (Xyleme.serve x1) in
  let c = connect (Serve.port s) in
  ignore (hello c);
  ignore (wire_subscribe x1 c ~text:(site_subscription ()));
  let t_stalled = bp_run_seconds x1 in
  checki "stalled run crawled the same documents" base_docs
    (Xyleme.stats x1).Xyleme.documents_fetched;
  (* The issue's bar is docs/sec within 10% of baseline.  Both runs do
     identical work, so compare wall time directly; the absolute slack
     absorbs scheduler noise on a single-core host, where the 10%
     margin alone is well inside timer jitter for sub-second runs. *)
  checkb
    (Printf.sprintf
       "stalled client must not stall the pipeline (%.3fs vs %.3fs baseline)"
       t_stalled t_base)
    true
    (t_stalled <= (t_base *. 1.10) +. 0.5);
  (* the stalled client's window filled and overflowed to the store *)
  let expected = rendered_deliveries deliveries0 in
  checkb "run produced enough reports to overflow" true
    (List.length expected > 4);
  checkb "overflow accounted" true
    (serve_counter (Xyleme.obs x1) "outbox_overflow" >= 1);
  (* resuming the reader recovers every missed report, deduped by seq *)
  let received = Hashtbl.create 64 in
  drain_reports ~pump:(fun () -> Xyleme.serve_pump x1) s c received;
  checkb "resumed client received every report" true
    (sorted_received received = expected);
  close_client c;
  Xyleme.stop_serve x1

let test_abrupt_disconnect_then_resume () =
  let sink, deliveries = Sink.memory () in
  let x =
    Xyleme.create ~seed:bp_seed ~web:(bp_web ()) ~sink ~serve_port:0 ()
  in
  let s = Option.get (Xyleme.serve x) in
  let c = connect (Serve.port s) in
  ignore (hello c);
  ignore (wire_subscribe x c ~text:(site_subscription ()));
  (* half the run, then the client vanishes without a goodbye; [days]
     is the cumulative total, so the second call runs bp_days more *)
  Xyleme.run x ~days:(bp_days /. 2.) ~step:eq_step ~fetch_limit:eq_fetch;
  close_client c;
  Xyleme.run x ~days:(1.5 *. bp_days) ~step:eq_step ~fetch_limit:eq_fetch;
  (* reconnect: WELCOME advertises the backlog, the writer replays it *)
  let c2 = connect (Serve.port s) in
  let pending = hello c2 in
  checkb "backlog advertised on reconnect" true
    (pending = Serve.pending_total s);
  let received = Hashtbl.create 64 in
  drain_reports ~pump:(fun () -> Xyleme.serve_pump x) s c2 received;
  checkb "every report recovered after the disconnect" true
    (sorted_received received = rendered_deliveries deliveries);
  close_client c2;
  Xyleme.stop_serve x

(* ------------------------------------------------------------------ *)
(* Kill-at-every-point crash matrix over the wire path: a durable run
   with a live wire subscriber, killed at the K-th crash boundary
   (including the serve stage's own frame/ack fault points), restored,
   reconnected and resumed — the client's deduped notification
   multiset must equal the uninterrupted run's, for every K. *)

(* smallest workload whose site-0 subscription still reports (4
   deliveries at this seed): the matrix reruns it once per crash
   boundary, so its size is the test's whole budget *)
let m_seed = 7
let m_days = 3.
let m_step = 21600.
let m_fetch = 100
let m_web () = Web.generate ~seed:m_seed ~sites:1 ~pages_per_site:4 ()

let m_resume x =
  Xyleme.run ~checkpoint_every:2 x ~days:m_days ~step:m_step ~fetch_limit:m_fetch

(* Half the schedule, an ack exchange, then the rest: the mid-run
   drain guarantees the serve:ack/acked boundaries are consulted while
   the fuse is still live. *)
let m_drive x s c received =
  Xyleme.run ~checkpoint_every:2 x ~days:(m_days /. 2.) ~step:m_step
    ~fetch_limit:m_fetch;
  drain_reports ~pump:(fun () -> Xyleme.serve_pump x) s c received;
  m_resume x;
  drain_reports ~pump:(fun () -> Xyleme.serve_pump x) s c received

let m_connect x =
  let s = Option.get (Xyleme.serve x) in
  let c = connect (Serve.port s) in
  ignore (hello c);
  (s, c)

let m_run ~dir ~kill =
  let x =
    Xyleme.create ~seed:m_seed ~web:(m_web ()) ~durable_dir:dir ~serve_port:0 ()
  in
  let s, c = m_connect x in
  ignore (wire_subscribe x c ~text:(site_subscription ~name:"Wm" ()));
  if kill > 0 then Fault.arm_after (Xyleme.faults x) "crash" kill;
  let received = Hashtbl.create 64 in
  match m_drive x s c received with
  | () ->
      close_client c;
      Xyleme.stop_serve x;
      (received, None)
  | exception Fault.Crash label -> (
      close_client c;
      Xyleme.stop_serve x;
      match
        Xyleme.restore ~seed:m_seed ~web:(m_web ()) ~serve_port:0 ~dir ()
      with
      | Error e -> Alcotest.failf "kill %d (%s): restore failed: %s" kill label e
      | Ok (x', _info) ->
          let s', c' = m_connect x' in
          (* pick up anything redelivered before resuming the schedule *)
          drain_reports ~pump:(fun () -> Xyleme.serve_pump x') s' c' received;
          m_drive x' s' c' received;
          close_client c';
          Xyleme.stop_serve x';
          (received, Some label))

let test_serve_crash_matrix () =
  with_temp_dir @@ fun base ->
  let baseline, label0 = m_run ~dir:base ~kill:0 in
  checkb "baseline survived unkilled" true (label0 = None);
  checkb "baseline produced reports" true (Hashtbl.length baseline > 0);
  let base_set = sorted_received baseline in
  let labels = ref [] in
  let finished = ref false in
  let k = ref 1 in
  while not !finished do
    if !k > 400 then Alcotest.fail "crash matrix never outlived the fuse";
    with_temp_dir (fun dir ->
        let received, label = m_run ~dir ~kill:!k in
        match label with
        | None ->
            (* the fuse outlived the run: every boundary is covered *)
            finished := true
        | Some l ->
            labels := l :: !labels;
            checkb
              (Printf.sprintf
                 "K=%d (%s): reconnected client's multiset equals the \
                  uninterrupted run"
                 !k l)
              true
              (sorted_received received = base_set));
    incr k
  done;
  List.iter
    (fun boundary ->
      checkb (Printf.sprintf "killed at %s" boundary) true
        (List.mem boundary !labels))
    [ "serve:frame"; "serve:frame_written"; "serve:ack"; "serve:acked" ]

(* ------------------------------------------------------------------ *)
(* The serve stage's journal: an enqueue names (recipient, seq), and
   its report comes from the reporter's intent at replay. *)

(* The committed ops of [dir]'s latest generation, read without
   restoring (which would checkpoint the directory). *)
let committed_ops dir =
  let d = Option.get (Durable.open_existing dir) in
  match Durable.load_latest d with
  | Ok (_, txns, _) -> List.concat txns
  | Error e -> Alcotest.failf "load %s: %s" dir e

(* The matrix's workload, uninterrupted and never checkpointed, so
   the one generation's WAL holds every op; the system keeps serving. *)
let m_served ~dir =
  let x =
    Xyleme.create ~seed:m_seed ~web:(m_web ()) ~durable_dir:dir ~serve_port:0 ()
  in
  let s, c = m_connect x in
  ignore (wire_subscribe x c ~text:(site_subscription ~name:"Wm" ()));
  Xyleme.run x ~days:m_days ~step:m_step ~fetch_limit:m_fetch;
  let received = Hashtbl.create 64 in
  drain_reports ~pump:(fun () -> Xyleme.serve_pump x) s c received;
  close_client c;
  (x, received)

let test_enqueue_ops_carry_no_report () =
  with_temp_dir @@ fun dir ->
  let x, received = m_served ~dir in
  Xyleme.stop_serve x;
  checkb "the client received reports" true (Hashtbl.length received > 0);
  let enqueues =
    List.filter_map
      (fun { Durable.stage; payload } ->
        let r = Codec.reader payload in
        if stage = "serve" && Codec.read_string r = "P" then Some r
        else None)
      (committed_ops dir)
  in
  checki "one P op per delivered report" (Hashtbl.length received)
    (List.length enqueues);
  List.iter
    (fun r ->
      ignore (Codec.read_string r);
      ignore (Codec.read_int r);
      match Codec.expect_end r with
      | () -> ()
      | exception Codec.Malformed _ ->
          Alcotest.fail "a P op carries more than (recipient, seq)")
    enqueues

let test_restore_refuses_enqueue_without_intent () =
  with_temp_dir @@ fun dir ->
  let x, _ = m_served ~dir in
  (* a P op for a seq the reporter never fired, committed and synced
     by one more step of the run *)
  let s = Option.get (Xyleme.serve x) in
  let c = connect (Serve.port s) in
  ignore (hello c);
  Serve.deliver s ~seq:1_000_000 ~recipient:"u0" ~subscription:"Wm" ~at:0.
    ~body:"<Report/>";
  Xyleme.run x ~days:(m_days +. 1.) ~step:m_step ~fetch_limit:m_fetch;
  close_client c;
  Xyleme.stop_serve x;
  match Xyleme.restore ~seed:m_seed ~web:(m_web ()) ~serve_port:0 ~dir () with
  | Ok (x', _) ->
      Xyleme.stop_serve x';
      Alcotest.fail "restore accepted a P op with no intent"
  | Error e ->
      checkb
        (Printf.sprintf "refused as damaged (%s)" e)
        true
        (String.starts_with ~prefix:"damaged durable state: " e)

(* ------------------------------------------------------------------ *)
(* Listener regression (the shared accept-loop hardening) *)

let test_listener_rebind () =
  let l1 = Listener.start ~port:0 ~handle:(fun fd _ -> Unix.close fd) () in
  let port = Listener.port l1 in
  checkb "running" true (Listener.running l1);
  Listener.stop l1;
  checkb "stopped" false (Listener.running l1);
  (* SO_REUSEADDR: the port rebinds immediately, no TIME_WAIT fight *)
  let l2 = Listener.start ~port ~handle:(fun fd _ -> Unix.close fd) () in
  checki "same port" port (Listener.port l2);
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.close fd;
  Listener.stop l2

let test_listener_handler_exception () =
  let hits = ref 0 in
  let l =
    Listener.start ~port:0
      ~handle:(fun _fd _ ->
        incr hits;
        failwith "handler bug")
      ()
  in
  let poke () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Listener.port l));
    (* the listener closes its side; wait for that close *)
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
    (try ignore (Unix.read fd (Bytes.create 1) 0 1) with Unix.Unix_error _ -> ());
    Unix.close fd
  in
  poke ();
  poke ();
  checkb "accept loop survives handler exceptions" true (Listener.running l);
  checki "both connections reached the handler" 2 !hits;
  Listener.stop l

let test_listener_stop_concurrent () =
  let l = Listener.start ~port:0 ~handle:(fun fd _ -> Unix.close fd) () in
  let port = Listener.port l in
  let stoppers = List.init 4 (fun _ -> Thread.create (fun () -> Listener.stop l) ()) in
  List.iter Thread.join stoppers;
  Listener.stop l;
  checkb "not running" false (Listener.running l);
  match
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)))
  with
  | () -> Alcotest.fail "stopped listener still accepts"
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()

(* --telemetry and --serve in one process: both ride the shared
   Listener, stop cleanly in either order, and release their ports for
   an immediate rebind — the regression the old per-component accept
   threads failed. *)
let http_get ~port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.1\r\nHost: x\r\n\r\n" path in
      let _ = Unix.write_substring fd req 0 (String.length req) in
      let buf = Buffer.create 512 in
      let chunk = Bytes.create 1024 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
      in
      drain ();
      Buffer.contents buf)

let test_telemetry_and_serve_coexist () =
  let obs = Obs.create () in
  let telemetry =
    Telemetry.start ~port:0 ~routes:[ ("/ping", fun () -> Telemetry.text "pong") ] ()
  in
  let s = Serve.create ~obs ~config:(Serve.config ~port:0 ()) () in
  Serve.listen s ~callbacks:(stub_callbacks ());
  let tport = Telemetry.port telemetry and sport = Serve.port s in
  let c = connect sport in
  ignore (hello c);
  checkb "telemetry answers beside the wire server" true
    (String.length (http_get ~port:tport "/ping") > 0);
  (* stop the wire server first: telemetry keeps serving *)
  close_client c;
  Serve.stop s;
  checkb "telemetry survives the wire server's shutdown" true
    (String.length (http_get ~port:tport "/ping") > 0);
  Telemetry.stop telemetry;
  (* both ports rebind immediately: nothing leaked a socket *)
  let telemetry2 =
    Telemetry.start ~port:tport
      ~routes:[ ("/ping", fun () -> Telemetry.text "pong") ]
      ()
  in
  let s2 = Serve.create ~obs:(Obs.create ()) ~config:(Serve.config ~port:sport ()) () in
  Serve.listen s2 ~callbacks:(stub_callbacks ());
  let c2 = connect sport in
  ignore (hello c2);
  close_client c2;
  Serve.stop s2;
  Telemetry.stop telemetry2

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "serve"
    [
      ( "frame",
        [
          tc "round-trip" test_frame_roundtrip;
          tc "byte-at-a-time feed" test_frame_byte_at_a_time;
          tc "truncation is incomplete, not an error" test_frame_truncated_is_incomplete;
          tc "bad crc poisons" test_frame_bad_crc_poisons;
          tc "missing trailer" test_frame_missing_trailer;
          tc "oversize" test_frame_oversize;
          tc "bad headers" test_frame_bad_headers;
          qc qcheck_frame_request_roundtrip;
          qc qcheck_frame_garbage_never_raises;
        ] );
      ( "protocol",
        [
          tc "hello, ping, status" test_hello_ping_status;
          tc "subscribe and unsubscribe" test_subscribe_unsubscribe;
          tc "pipelined requests" test_pipelined_requests;
          tc "ack before hello" test_ack_before_hello;
          tc "hello rebind evicts" test_hello_rebind_evicts;
          tc "a served system's status is its metrics document"
            test_status_is_metrics_document;
        ] );
      ( "adversarial",
        [
          tc "garbage header" test_adversarial_garbage_header;
          tc "bad crc" test_adversarial_bad_crc;
          tc "oversize declaration" test_adversarial_oversize;
          tc "unknown verb" test_adversarial_unknown_verb;
          tc "truncated then eof" test_adversarial_truncated_eof;
          qc qcheck_mangled_stream_isolation;
        ] );
      ( "delivery",
        [
          tc "deliver and ack" test_deliver_and_ack;
          tc "outbox window" test_outbox_window;
          tc "fault boundaries" test_delivery_fuses;
          tc "journal replay and snapshot" test_journal_replay_and_snapshot;
        ] );
      ( "equivalence",
        [
          tc "wire path equals in-process sink" test_wire_equivalence;
          tc "equivalence under fault injection" test_wire_equivalence_under_faults;
        ] );
      ( "backpressure",
        [
          tc "slow client does not stall the pipeline" test_slow_client_does_not_stall;
          tc "abrupt disconnect then resume" test_abrupt_disconnect_then_resume;
        ] );
      ( "crash matrix",
        [ tc "kill at every boundary over the wire" test_serve_crash_matrix ] );
      ( "journal",
        [
          tc "enqueue ops carry recipient and seq only"
            test_enqueue_ops_carry_no_report;
          tc "restore refuses an enqueue without an intent"
            test_restore_refuses_enqueue_without_intent;
        ] );
      ( "listener",
        [
          tc "rebind released port" test_listener_rebind;
          tc "handler exception" test_listener_handler_exception;
          tc "concurrent stop" test_listener_stop_concurrent;
          tc "telemetry and serve coexist" test_telemetry_and_serve_coexist;
        ] );
    ]
