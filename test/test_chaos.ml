(* Chaos-hardening tests for the serving surface: the deterministic
   chaotic transport (wire-level fault points at the socket
   boundary), keepalive and dead-peer eviction, slow-loris read
   deadlines, admission control with counted shedding, graceful
   drain, and the supervised reconnecting client — whose deduped
   report multiset must equal the fault-free baseline under any
   seeded network fault plan. *)

module Frame = Xy_serve.Frame
module Record_log = Xy_durable.Record_log
module Serve = Xy_serve.Serve
module Chaos = Xy_serve.Chaos
module Client = Xy_serve.Client
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
(* Raw socket client helper (same shape as test_serve's) *)

type reply = Event of Frame.event | Closed | Timeout

type client = { c_fd : Unix.file_descr; c_dec : Record_log.decoder }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.05;
  { c_fd = fd; c_dec = Record_log.decoder () }

let close_client c = try Unix.close c.c_fd with Unix.Unix_error _ -> ()

let send_raw c data =
  let n = String.length data in
  let rec push off =
    if off < n then push (off + Unix.write_substring c.c_fd data off (n - off))
  in
  try push 0 with Unix.Unix_error _ -> ()

let send c req = send_raw c (Frame.encode_request req)

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
        if Unix.gettimeofday () > deadline then Timeout
        else
          match Unix.read c.c_fd buf 0 (Bytes.length buf) with
          | 0 -> Closed
          | n ->
              Record_log.feed c.c_dec (Bytes.sub_string buf 0 n);
              go ()
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              go ()
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> Closed)
  in
  go ()

let reply_name = function
  | Closed -> "close"
  | Timeout -> "timeout"
  | Event _ -> "another event"

let hello ?(id = "u0") c =
  send c (Frame.Hello id);
  match recv c with
  | Event (Frame.Welcome pending) -> pending
  | r -> Alcotest.failf "expected WELCOME, got %s" (reply_name r)

let stub_callbacks () =
  {
    Serve.cb_subscribe = (fun ~owner ~text:_ -> Ok ("W" ^ owner));
    cb_unsubscribe = (fun _ -> Ok ());
    cb_status = (fun () -> "<health/>");
  }

let serve_counter obs name =
  Obs.Snapshot.counter_value (Obs.snapshot obs) ~stage:"serve" name

let wait_for ?(timeout = 5.) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let with_config ?faults config f =
  let obs = Obs.create () in
  let s = Serve.create ~obs ?faults ~config () in
  Serve.listen s ~callbacks:(stub_callbacks ());
  Fun.protect
    ~finally:(fun () -> Serve.stop ~drain:0. s)
    (fun () -> f s (Serve.port s) obs)

(* ------------------------------------------------------------------ *)
(* Wire fault points: registered, parseable, deterministic streams *)

let test_wire_points_known () =
  List.iter
    (fun p ->
      checkb (p ^ " is a registered point") true
        (List.mem_assoc p Fault.points))
    Fault.wire_points;
  match
    Fault.parse_spec
      "conn_drop=0.05,partial_write=0.1,net_delay=0.2,net_mangle=0.01"
  with
  | Ok spec -> checki "all four wire points parse" 4 (List.length spec)
  | Error e -> Alcotest.failf "wire spec rejected: %s" e

(* Same seed + spec => identical per-point decision and shape
   streams.  This is the schedule-determinism contract the chaotic
   transport inherits. *)
let test_wire_stream_determinism () =
  let spec =
    [ ("conn_drop", 0.3); ("partial_write", 0.5); ("net_delay", 0.7);
      ("net_mangle", 0.4) ]
  in
  let trace seed =
    let f = Fault.create ~obs:(Obs.create ()) ~seed spec in
    List.concat_map
      (fun point ->
        List.init 50 (fun i ->
            if i mod 3 = 0 then Bool.to_int (Fault.fire f point)
            else if i mod 3 = 1 then Fault.draw_int f point ~bound:1000
            else int_of_float (Fault.draw_float f point *. 1e6)))
      Fault.wire_points
  in
  checkb "same seed reproduces the wire schedule" true (trace 9 = trace 9);
  checkb "different seeds diverge" true (trace 9 <> trace 10)

(* ------------------------------------------------------------------ *)
(* Chaotic transport at the socket boundary (socketpair, no server) *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let chaos_of spec = Chaos.wrap (Fault.create ~obs:(Obs.create ()) ~seed:5 spec)

let test_chaos_conn_drop () =
  with_socketpair @@ fun a _b ->
  let t = chaos_of [ ("conn_drop", 1.0) ] in
  match Chaos.write_substring t a "hello" 0 5 with
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  | _ -> Alcotest.fail "conn_drop at rate 1.0 did not kill the write"

let test_chaos_partial_write () =
  with_socketpair @@ fun a b ->
  let t = chaos_of [ ("partial_write", 1.0) ] in
  let payload = String.make 64 'x' in
  (match Chaos.write_substring t a payload 0 64 with
  | exception Unix.Unix_error (Unix.EPIPE, _, _) -> ()
  | _ -> Alcotest.fail "partial_write at rate 1.0 did not tear the write");
  (* the peer got a strict prefix, then EOF *)
  let buf = Bytes.create 256 in
  let n = Unix.read b buf 0 256 in
  checkb "peer saw a strict prefix" true (n >= 1 && n < 64);
  checki "then the stream ends" 0
    (try Unix.read b buf 0 256 with Unix.Unix_error _ -> 0)

let test_chaos_mangle_is_caught () =
  with_socketpair @@ fun a b ->
  let t = chaos_of [ ("net_mangle", 1.0) ] in
  let frame = Frame.encode_request (Frame.Ping "token") in
  let n = Chaos.write_substring t a frame 0 (String.length frame) in
  checki "whole frame written" (String.length frame) n;
  let buf = Bytes.create 1024 in
  let got = Unix.read b buf 0 1024 in
  let d = Record_log.decoder () in
  Record_log.feed d (Bytes.sub_string buf 0 got);
  (* one byte was flipped somewhere: the header grammar or the CRC
     must refuse the frame (or leave it forever incomplete) — a
     mangled frame never decodes as a valid one *)
  match Record_log.next d with
  | Error _ -> ()
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "mangled frame slipped past the checksum"

let test_chaos_delay_completes () =
  with_socketpair @@ fun a b ->
  let t = chaos_of [ ("net_delay", 1.0) ] in
  let n = Chaos.write_substring t a "slow" 0 4 in
  checki "delayed write still completes" 4 n;
  let buf = Bytes.create 16 in
  checki "delayed bytes arrive intact" 4 (Unix.read b buf 0 16);
  checks "payload unchanged" "slow" (Bytes.sub_string buf 0 4)

(* ------------------------------------------------------------------ *)
(* Keepalive, eviction, slow-loris deadlines *)

let test_idle_client_evicted_once () =
  with_config (Serve.config ~port:0 ~idle_deadline:0.3 ~read_deadline:0. ())
  @@ fun s port obs ->
  let c = connect port in
  ignore (hello c);
  (* no bytes at all: past the deadline the server cuts us loose *)
  (match recv ~timeout:5. c with
  | Closed -> ()
  | Timeout -> Alcotest.fail "idle client not evicted"
  | Event _ -> Alcotest.fail "unexpected traffic for an idle client");
  checki "evicted exactly once" 1 (serve_counter obs "evictions");
  checkb "session torn down" true
    (wait_for (fun () -> Serve.connections s = 0));
  close_client c

let test_pinging_client_never_evicted () =
  with_config (Serve.config ~port:0 ~idle_deadline:0.4 ~read_deadline:0. ())
  @@ fun _s port obs ->
  let c = connect port in
  ignore (hello c);
  (* keep whispering PINGs well past several idle deadlines *)
  for i = 1 to 10 do
    send c (Frame.Ping (string_of_int i));
    (match recv c with
    | Event (Frame.Pong _) -> ()
    | r -> Alcotest.failf "ping %d went unanswered (%s)" i (reply_name r));
    Thread.delay 0.12
  done;
  checki "never evicted" 0 (serve_counter obs "evictions");
  send c (Frame.Ping "still");
  checkb "session alive after 1.2s of deadline 0.4" true
    (recv c = Event (Frame.Pong "still"));
  close_client c

let test_slow_loris_read_deadline () =
  with_config (Serve.config ~port:0 ~idle_deadline:0. ~read_deadline:0.3 ())
  @@ fun _s port obs ->
  let c = connect port in
  ignore (hello c);
  (* half a frame, then silence: the read deadline cuts the loris *)
  let frame = Frame.encode_request (Frame.Hello "loris") in
  send_raw c (String.sub frame 0 (String.length frame / 2));
  (match recv ~timeout:5. c with
  | Closed -> ()
  | Timeout -> Alcotest.fail "slow loris outlived the read deadline"
  | Event _ -> Alcotest.fail "unexpected traffic");
  checki "read timeout counted" 1 (serve_counter obs "read_timeouts");
  checki "not billed as an idle eviction" 0 (serve_counter obs "evictions");
  close_client c

(* ------------------------------------------------------------------ *)
(* Admission control *)

let test_admission_ceiling () =
  with_config (Serve.config ~port:0 ~max_connections:2 ~retry_after:3. ())
  @@ fun s port obs ->
  let c1 = connect port in
  ignore (hello ~id:"a" c1);
  let c2 = connect port in
  ignore (hello ~id:"b" c2);
  (* third connection: shed with a busy hint, then closed *)
  let c3 = connect port in
  (match recv c3 with
  | Event (Frame.Err msg) ->
      checks "busy hint carries retry-after" "busy retry-after=3" msg
  | r -> Alcotest.failf "expected ERR busy, got %s" (reply_name r));
  (match recv c3 with
  | Closed -> ()
  | r -> Alcotest.failf "shed connection not closed (%s)" (reply_name r));
  close_client c3;
  checki "shed counted" 1 (serve_counter obs "sheds");
  (* capacity frees: the next connection is admitted *)
  close_client c1;
  checkb "session count drops" true
    (wait_for (fun () -> Serve.connections s < 2));
  let c4 = connect port in
  checki "admitted after capacity freed" 0 (hello ~id:"d" c4);
  close_client c4;
  close_client c2

(* ------------------------------------------------------------------ *)
(* Graceful drain *)

let test_graceful_drain_flushes () =
  let obs = Obs.create () in
  let s = Serve.create ~obs ~config:(Serve.config ~port:0 ~drain:2. ()) () in
  Serve.listen s ~callbacks:(stub_callbacks ());
  let c = connect (Serve.port s) in
  ignore (hello c);
  for seq = 1 to 5 do
    Serve.deliver s ~seq ~recipient:"u0" ~subscription:"S"
      ~at:(float_of_int seq)
      ~body:(Printf.sprintf "<r n=\"%d\"/>" seq)
  done;
  (* stop immediately: the drain window must flush all five frames
     before the session is cut *)
  Serve.stop s;
  let got = ref 0 in
  let closed = ref false in
  while not !closed do
    match recv ~timeout:2. c with
    | Event (Frame.Report _) -> incr got
    | Closed -> closed := true
    | Timeout -> Alcotest.fail "drain left the connection dangling"
    | Event _ -> ()
  done;
  checki "all five reports flushed through the drain" 5 !got;
  checki "drain counted" 1 (serve_counter obs "drains");
  (* unacked at the deadline: everything stays pending for redelivery *)
  checki "unacked reports stay in the pending store" 5 (Serve.pending_total s);
  close_client c

(* ------------------------------------------------------------------ *)
(* Supervised client, standalone server: reconnect-resume equals the
   baseline under injected faults (deterministic schedule per seed) *)

let baseline_reports nreports =
  List.init nreports (fun i -> (i + 1, Printf.sprintf "<r n=\"%d\"/>" (i + 1)))

let run_standalone ~spec ~seed ~nreports =
  let obs = Obs.create () in
  let faults =
    match spec with [] -> Fault.none | spec -> Fault.create ~obs ~seed spec
  in
  let s =
    Serve.create ~obs ~faults
      ~config:
        (Serve.config ~port:0 ~outbox:4 ~idle_deadline:10. ~read_deadline:5. ())
      ()
  in
  Serve.listen s ~callbacks:(stub_callbacks ());
  Fun.protect ~finally:(fun () -> Serve.stop ~drain:0. s) @@ fun () ->
  let mu = Mutex.create () in
  let received = Hashtbl.create 64 in
  let client =
    Client.connect
      ~on_report:(fun r ->
        Mutex.lock mu;
        Hashtbl.replace received r.Client.seq r.Client.body;
        Mutex.unlock mu)
      (Client.config ~port:(Serve.port s) ~id:"u0" ~backoff_initial:0.01
         ~backoff_max:0.1 ~ping_interval:0.2 ~pong_deadline:1.5 ~seed ())
  in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  checkb "first connection" true (Client.wait_connected ~timeout:10. client);
  for seq = 1 to nreports do
    Serve.deliver s ~seq ~recipient:"u0" ~subscription:"S"
      ~at:(float_of_int seq)
      ~body:(Printf.sprintf "<r n=\"%d\"/>" seq)
  done;
  (* the client auto-acks; pump until the pending store drains *)
  let converged =
    wait_for ~timeout:60. (fun () ->
        ignore (Serve.pump s);
        Serve.pending_total s = 0)
  in
  checkb "pending store drained" true converged;
  Mutex.lock mu;
  let got =
    List.sort compare
      (Hashtbl.fold (fun seq body acc -> (seq, body) :: acc) received [])
  in
  Mutex.unlock mu;
  (got, Client.stats client, faults)

let test_supervised_client_clean () =
  let got, stats, _ = run_standalone ~spec:[] ~seed:3 ~nreports:12 in
  checkb "clean run delivers everything exactly once" true
    (got = baseline_reports 12);
  checki "no reconnects on a clean link" 0 stats.Client.reconnects

let test_supervised_client_under_chaos () =
  (* a hostile schedule: drops, stalls, torn and mangled writes *)
  let spec =
    [ ("conn_drop", 0.03); ("partial_write", 0.03); ("net_delay", 0.1);
      ("net_mangle", 0.02) ]
  in
  let got, stats, faults = run_standalone ~spec ~seed:3 ~nreports:12 in
  checkb "deduped multiset equals the fault-free baseline" true
    (got = baseline_reports 12);
  let fired =
    List.fold_left (fun n p -> n + Fault.injected faults p) 0 Fault.wire_points
  in
  checkb "the run was actually hostile (some fault fired)" true (fired > 0);
  checkb "dial attempts cover every connect" true
    (stats.Client.attempts >= stats.Client.connects)

let test_supervised_client_forced_drop_resume () =
  (* rate 0 + arm_after: exactly one drop, at a deterministic position *)
  let obs = Obs.create () in
  let faults = Fault.create ~obs ~seed:3 [ ("conn_drop", 0.) ] in
  let s =
    Serve.create ~obs ~faults ~config:(Serve.config ~port:0 ~outbox:4 ()) ()
  in
  Serve.listen s ~callbacks:(stub_callbacks ());
  Fun.protect ~finally:(fun () -> Serve.stop ~drain:0. s) @@ fun () ->
  let mu = Mutex.create () in
  let received = Hashtbl.create 64 in
  let client =
    Client.connect
      ~on_report:(fun r ->
        Mutex.lock mu;
        Hashtbl.replace received r.Client.seq r.Client.body;
        Mutex.unlock mu)
      (Client.config ~port:(Serve.port s) ~id:"u0" ~backoff_initial:0.01
         ~backoff_max:0.1 ~ping_interval:0.2 ~pong_deadline:1.5 ())
  in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  checkb "connected" true (Client.wait_connected ~timeout:5. client);
  (* let a few reports through, then force the link down mid-stream *)
  for seq = 1 to 3 do
    Serve.deliver s ~seq ~recipient:"u0" ~subscription:"S"
      ~at:(float_of_int seq) ~body:(Printf.sprintf "<r n=\"%d\"/>" seq)
  done;
  checkb "first batch acked" true
    (wait_for ~timeout:10. (fun () ->
         ignore (Serve.pump s);
         Serve.pending_total s = 0));
  Fault.arm_after faults "conn_drop" 1;
  for seq = 4 to 10 do
    Serve.deliver s ~seq ~recipient:"u0" ~subscription:"S"
      ~at:(float_of_int seq) ~body:(Printf.sprintf "<r n=\"%d\"/>" seq)
  done;
  checkb "converged across the forced drop" true
    (wait_for ~timeout:30. (fun () ->
         ignore (Serve.pump s);
         Serve.pending_total s = 0));
  checki "the armed drop fired" 1 (Fault.injected faults "conn_drop");
  let stats = Client.stats client in
  checkb "the client reconnected" true (stats.Client.connects >= 2);
  checkb "server counted the resume" true (serve_counter obs "reconnects" >= 1);
  Mutex.lock mu;
  let got =
    List.sort compare
      (Hashtbl.fold (fun seq body acc -> (seq, body) :: acc) received [])
  in
  Mutex.unlock mu;
  checkb "deduped multiset equals the uninterrupted baseline" true
    (got = baseline_reports 10)

(* qcheck: any random drop/delay schedule converges to the full set *)
let qcheck_random_drop_schedules =
  QCheck.Test.make ~name:"random drop schedules always converge" ~count:5
    QCheck.(pair (int_range 1 1000) (int_range 0 12))
    (fun (seed, drop_pct) ->
      let spec =
        [ ("conn_drop", float_of_int drop_pct /. 100.); ("net_delay", 0.1) ]
      in
      let got, _, _ = run_standalone ~spec ~seed ~nreports:8 in
      got = baseline_reports 8)

(* ------------------------------------------------------------------ *)
(* System level: a served simulation under a seeded wire fault plan
   converges to the fault-free in-process baseline, per point and
   combined. *)

let ch_seed = 7
let ch_days = 3.
let ch_step = 21600.
let ch_fetch = 200
let ch_web () = Web.generate ~seed:ch_seed ~sites:2 ~pages_per_site:3 ()

let site_subscription () =
  {|subscription Wire0
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://site0.example.org/" and modified self
report when immediate|}

let rendered_deliveries deliveries =
  List.sort compare
    (List.rev_map
       (fun d ->
         ( d.Sink.seq,
           d.Sink.subscription,
           Printer.element_to_string d.Sink.report ))
       !deliveries)

let in_process_baseline () =
  let sink, deliveries = Sink.memory () in
  let x = Xyleme.create ~seed:ch_seed ~web:(ch_web ()) ~sink () in
  (match Xyleme.subscribe x ~owner:"u0" ~text:(site_subscription ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "subscribe: %s" (Manager.error_to_string e));
  Xyleme.run x ~days:ch_days ~step:ch_step ~fetch_limit:ch_fetch;
  rendered_deliveries deliveries

(* Drive a blocking client call while pumping the pipeline from this
   thread (SUBSCRIBE verdicts only move at pump time). *)
let with_pumping x f =
  let result = ref None in
  let th = Thread.create (fun () -> result := Some (f ())) () in
  while !result = None do
    ignore (Xyleme.serve_pump x);
    Thread.delay 0.01
  done;
  Thread.join th;
  Option.get !result

let served_chaos_run ~fault_plan () =
  let sink, deliveries = Sink.memory () in
  let x =
    Xyleme.create ~seed:ch_seed ~fault_plan ~web:(ch_web ()) ~sink
      ~serve_port:0 ()
  in
  let s = Option.get (Xyleme.serve x) in
  let mu = Mutex.create () in
  let received = Hashtbl.create 64 in
  let client =
    Client.connect
      ~on_report:(fun r ->
        Mutex.lock mu;
        Hashtbl.replace received r.Client.seq
          (r.Client.subscription, r.Client.body);
        Mutex.unlock mu)
      (Client.config ~port:(Serve.port s) ~id:"u0" ~backoff_initial:0.01
         ~backoff_max:0.1 ~ping_interval:0.2 ~pong_deadline:1.5 ~seed:ch_seed
         ())
  in
  Fun.protect
    ~finally:(fun () ->
      Client.close client;
      Xyleme.stop_serve ~drain:0. x)
  @@ fun () ->
  checkb "client connected" true (Client.wait_connected ~timeout:10. client);
  (match
     with_pumping x (fun () ->
         Client.subscribe ~timeout:30. client ~owner:"u0"
           ~text:(site_subscription ()))
   with
  | Ok name -> checks "wire registration" "Wire0" name
  | Error e -> Alcotest.failf "wire subscribe failed: %s" e);
  Xyleme.run x ~days:ch_days ~step:ch_step ~fetch_limit:ch_fetch;
  let converged =
    wait_for ~timeout:90. (fun () ->
        ignore (Xyleme.serve_pump x);
        Serve.pending_total s = 0)
  in
  checkb "pending store drained under chaos" true converged;
  Mutex.lock mu;
  let got =
    List.sort compare
      (Hashtbl.fold
         (fun seq (sub, body) acc -> (seq, sub, body) :: acc)
         received [])
  in
  Mutex.unlock mu;
  (rendered_deliveries deliveries, got, Xyleme.wire_faults x)

let chaos_plans =
  [
    ("conn_drop", [ ("conn_drop", 0.05) ]);
    ("partial_write", [ ("partial_write", 0.05) ]);
    ("net_delay", [ ("net_delay", 0.1) ]);
    ("net_mangle", [ ("net_mangle", 0.05) ]);
    ( "combined",
      [ ("conn_drop", 0.05); ("partial_write", 0.03); ("net_delay", 0.1);
        ("net_mangle", 0.02) ] );
  ]

let test_served_convergence_under_fault_plans () =
  let baseline = in_process_baseline () in
  checkb "baseline produced reports" true (baseline <> []);
  List.iter
    (fun (label, fault_plan) ->
      let in_proc, over_wire, wire = served_chaos_run ~fault_plan () in
      checkb
        (Printf.sprintf "%s: plan armed the wire injector" label)
        true (Fault.active wire);
      checkb
        (Printf.sprintf "%s: the pipeline sink is untouched by wire chaos"
           label)
        true (in_proc = baseline);
      checkb
        (Printf.sprintf
           "%s: supervised client's deduped multiset equals the baseline"
           label)
        true (over_wire = baseline))
    chaos_plans

(* Splitting the plan must not shift the pipeline points' schedules:
   a run arming pipeline + wire points produces the same pipeline
   delivery stream as one arming the pipeline points alone. *)
let test_plan_split_preserves_pipeline_schedule () =
  let pipeline_plan = [ ("fetch", 0.1); ("malformed", 0.2) ] in
  let run plan =
    let sink, deliveries = Sink.memory () in
    let x =
      Xyleme.create ~seed:ch_seed ~fault_plan:plan ~web:(ch_web ()) ~sink
        ~serve_port:0 ()
    in
    (match Xyleme.subscribe x ~owner:"u0" ~text:(site_subscription ()) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "subscribe: %s" (Manager.error_to_string e));
    Xyleme.run x ~days:ch_days ~step:ch_step ~fetch_limit:ch_fetch;
    Xyleme.stop_serve ~drain:0. x;
    rendered_deliveries deliveries
  in
  let plain = run pipeline_plan in
  let with_wire =
    run (pipeline_plan @ [ ("conn_drop", 0.2); ("net_delay", 0.3) ])
  in
  checkb "wire points do not perturb pipeline fault schedules" true
    (with_wire = plain)

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "chaos"
    [
      ( "fault points",
        [
          tc "wire points registered and parseable" test_wire_points_known;
          tc "seeded streams are deterministic" test_wire_stream_determinism;
        ] );
      ( "transport",
        [
          tc "conn_drop kills the operation" test_chaos_conn_drop;
          tc "partial_write delivers a prefix then dies"
            test_chaos_partial_write;
          tc "net_mangle is always caught" test_chaos_mangle_is_caught;
          tc "net_delay stalls but completes" test_chaos_delay_completes;
        ] );
      ( "liveness",
        [
          tc "idle client evicted exactly once" test_idle_client_evicted_once;
          tc "pinging client never evicted" test_pinging_client_never_evicted;
          tc "slow loris cut by the read deadline" test_slow_loris_read_deadline;
        ] );
      ( "admission",
        [ tc "ceiling sheds with a retry hint" test_admission_ceiling ] );
      ( "drain",
        [ tc "graceful drain flushes the outbox" test_graceful_drain_flushes ]
      );
      ( "supervised client",
        [
          tc "clean link: exactly-once" test_supervised_client_clean;
          tc "hostile link: dedups to baseline"
            test_supervised_client_under_chaos;
          tc "forced drop: resume dedups to baseline"
            test_supervised_client_forced_drop_resume;
          qc qcheck_random_drop_schedules;
        ] );
      ( "system",
        [
          tc "served run converges under every fault plan"
            test_served_convergence_under_fault_plans;
          tc "plan split preserves pipeline schedules"
            test_plan_split_preserves_pipeline_schedule;
        ] );
    ]
