(* tbl-serve: the serving surface under load.

   Two measurements against a live [Serve] instance on the loopback
   interface, at up to 10^3 concurrent subscriber connections:

   - register@N — connection setup throughput: TCP connect + HELLO
     handshake for N clients, sessions/sec.
   - fanout@N — report fan-out: every client receives [reports_each]
     REPORT frames (delivered round-robin, so all N outboxes are hot
     at once), reads them and acknowledges cumulatively; reports/sec
     end to end, plus the p99 delivery lag from the serve stage's
     [send_lag_seconds] histogram (deliver-to-socket-write, which is
     the server-side half of the paper's notification latency).

   The load generator lives in this process: clients are plain
   blocking sockets polled sequentially.  That understates nothing —
   the server's writer threads push frames concurrently, so by the
   time the generator reaches client i its frames are already queued
   in the kernel buffer; the sequential reads just drain them. *)

open Harness
module Serve = Xy_serve.Serve
module Frame = Xy_serve.Frame
module Record_log = Xy_durable.Record_log
module Obs = Xy_obs.Obs

let connections = function Quick -> 100 | Default -> 1000 | Paper -> 2000
let reports_each = function Quick -> 8 | Default -> 8 | Paper -> 16

type client = { fd : Unix.file_descr; dec : Record_log.decoder }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  { fd; dec = Record_log.decoder () }

let send c req =
  let frame = Frame.encode_request req in
  let n = String.length frame in
  let rec push off =
    if off < n then push (off + Unix.write_substring c.fd frame off (n - off))
  in
  push 0

let next_event c =
  let rec go () =
    match Record_log.next c.dec with
    | Error e -> failwith (Record_log.error_to_string e)
    | Ok (Some payload) -> (
        match Frame.decode_event payload with
        | Ok ev -> ev
        | Error m -> failwith m)
    | Ok None -> (
        match Record_log.fill c.dec (Unix.read c.fd) with
        | 0 -> failwith "server closed the connection"
        | _ -> go ())
  in
  go ()

let callbacks =
  {
    Serve.cb_subscribe = (fun ~owner ~text:_ -> Ok ("W" ^ owner));
    cb_unsubscribe = (fun _ -> Ok ());
    cb_status = (fun () -> "<health/>");
  }

let client_id i = Printf.sprintf "c%d" i

let run scale =
  let n = connections scale in
  let k = reports_each scale in
  let obs = Obs.create () in
  let s =
    Serve.create ~obs ~config:(Serve.config ~backlog:512 ~port:0 ()) ()
  in
  Serve.listen s ~callbacks;
  let port = Serve.port s in
  Fun.protect ~finally:(fun () -> Serve.stop s) @@ fun () ->
  (* -- register: connect + HELLO for every client ------------------- *)
  let clients, register_seconds =
    time_once (fun () ->
        Array.init n (fun i ->
            let c = connect port in
            send c (Frame.Hello (client_id i));
            (match next_event c with
            | Frame.Welcome _ -> ()
            | _ -> failwith "expected WELCOME");
            c))
  in
  let register_rate = float_of_int n /. register_seconds in
  (* -- fanout: k reports to each of the N outboxes ------------------ *)
  let total = n * k in
  let (), fanout_seconds =
    time_once (fun () ->
        for seq = 1 to k do
          for i = 0 to n - 1 do
            Serve.deliver s ~seq ~recipient:(client_id i) ~subscription:"W"
              ~at:(float_of_int seq)
              ~body:"<Report><UpdatedPage url=\"http://site0/p\"/></Report>"
          done
        done;
        Array.iter
          (fun c ->
            for _ = 1 to k do
              match next_event c with
              | Frame.Report _ -> ()
              | _ -> failwith "expected REPORT"
            done;
            (* cumulative ack: one frame retires the whole window *)
            send c (Frame.Ack k))
          clients;
        (* apply the queued acks until the pending store drains *)
        let deadline = Unix.gettimeofday () +. 60. in
        while Serve.pending_total s > 0 do
          if Unix.gettimeofday () > deadline then failwith "acks never drained";
          if Serve.pump s = 0 then Thread.yield ()
        done)
  in
  let fanout_rate = float_of_int total /. fanout_seconds in
  let p99_lag_ms =
    match Obs.Snapshot.find (Obs.snapshot obs) ~stage:"serve" "send_lag_seconds" with
    | Some (Obs.Snapshot.Histogram h) -> Obs.Snapshot.quantile h 0.99 *. 1e3
    | _ -> nan
  in
  (* live heap with the server and all N sessions still up *)
  Gc.full_major ();
  let memory_words = (Gc.stat ()).Gc.live_words in
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) clients;
  print_table ~title:(Printf.sprintf "tbl-serve (%d connections)" n)
    ~header:[ "phase"; "items"; "items/sec"; "p99 lag (ms)" ]
    [
      [ "register"; string_of_int n; Printf.sprintf "%.0f" register_rate; "-" ];
      [
        "fanout";
        string_of_int total;
        Printf.sprintf "%.0f" fanout_rate;
        Printf.sprintf "%.3f" p99_lag_ms;
      ];
    ];
  note "live heap with %d sessions: %d words" n memory_words;
  record_mqp
    ~name:(Printf.sprintf "tbl-serve/register@%d" n)
    ~docs_per_sec:register_rate ~memory_words ();
  record_mqp ~p99_lag_ms
    ~name:(Printf.sprintf "tbl-serve/fanout@%d" n)
    ~docs_per_sec:fanout_rate ~memory_words ()

let all = [ ("tbl-serve", run) ]
