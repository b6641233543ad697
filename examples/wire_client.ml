(* wire_client — a subscriber speaking the serving-surface protocol,
   used by the CI smoke jobs and handy for poking a running
   `xyleme simulate --serve PORT` by hand.

     wire_client --port 9110 --id u0 --site 0 --await-reports 1

   Built on the supervised client ({!Xy_serve.Client}): the
   connection is dialed (and re-dialed) by a supervisor thread, the
   identity re-binds with HELLO after every drop, reports are
   acknowledged automatically and deduplicated by seq — so a
   mid-stream disconnect (or injected network fault) is survived
   transparently, and a report count short of the target at the
   deadline is a *timeout* (exit 3), never a protocol error.

   Exits 0 once satisfied, 2 on usage errors, 3 on timeout, 1 only
   when the server terminally rejects the subscription. *)

module Client = Xy_serve.Client

let port = ref 0
let id = ref "u0"
let site = ref 0
let await_reports = ref 1
let timeout = ref 60.
let status = ref false
let subscribe_file = ref ""
let quiet = ref false
let ping_interval = ref 5.
let hold = ref 0.
let no_subscribe = ref false

let usage = "wire_client --port PORT [options]"

let spec =
  [
    ("--port", Arg.Set_int port, "PORT server TCP port (required)");
    ("--id", Arg.Set_string id, "ID recipient identity (default u0)");
    ("--site", Arg.Set_int site, "N subscribe to synthetic site N (default 0)");
    ( "--subscribe-file",
      Arg.Set_string subscribe_file,
      "FILE subscription text to register (overrides --site)" );
    ( "--no-subscribe",
      Arg.Set no_subscribe,
      " register nothing: HELLO only (an existing identity resumes its \
       pending stream; a fresh one just idles)" );
    ( "--await-reports",
      Arg.Set_int await_reports,
      "N wait for N distinct report frames (default 1; 0 skips waiting)" );
    ("--timeout", Arg.Set_float timeout, "SECONDS overall deadline (default 60)");
    ("--status", Arg.Set status, " request STATUS and print the <metrics> XML");
    ( "--ping-interval",
      Arg.Set_float ping_interval,
      "SECONDS keepalive PING period (default 5; 0 disables — the server \
       may evict an idle client)" );
    ( "--hold",
      Arg.Set_float hold,
      "SECONDS keep the connection open after the target is met (exercises \
       keepalive/eviction; default 0)" );
    ("--quiet", Arg.Set quiet, " only print the final summary");
  ]

let say fmt =
  Printf.ksprintf (fun s -> if not !quiet then print_endline s) fmt

let () =
  Arg.parse spec (fun _ -> ()) usage;
  if !port = 0 then begin
    prerr_endline usage;
    exit 2
  end;
  let deadline = Unix.gettimeofday () +. !timeout in
  let remaining () = Float.max 0.01 (deadline -. Unix.gettimeofday ()) in
  let received = ref 0 in
  let mu = Mutex.create () in
  let on_report (r : Client.report) =
    Mutex.lock mu;
    incr received;
    Mutex.unlock mu;
    say "report seq=%d subscription=%s at=%.0f (%d bytes)" r.Client.seq
      r.Client.subscription r.Client.at
      (String.length r.Client.body)
  in
  let client =
    Client.connect ~on_report
      (Client.config ~port:!port ~id:!id ~ping_interval:!ping_interval
         ~pong_deadline:(2. *. Float.max 5. !ping_interval)
         ())
  in
  if not (Client.wait_connected ~timeout:(remaining ()) client) then begin
    prerr_endline "wire_client: connect timed out";
    exit 3
  end;
  say "connected as %s" !id;
  if !status then begin
    match Client.status ~timeout:(remaining ()) client with
    | Ok xml -> print_endline xml
    | Error "timeout" ->
        prerr_endline "wire_client: timed out waiting for STATUS";
        exit 3
    | Error m ->
        Printf.eprintf "wire_client: STATUS failed: %s\n" m;
        exit 1
  end;
  let text =
    if !subscribe_file <> "" then
      In_channel.with_open_bin !subscribe_file In_channel.input_all
    else
      Printf.sprintf
        {|subscription W%s
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://site%d.example.org/" and modified self
report when immediate|}
        !id !site
  in
  if not !no_subscribe then
    (match Client.subscribe ~timeout:(remaining ()) client ~owner:!id ~text with
    | Ok name -> say "subscribed %s" name
    | Error "timeout" ->
        prerr_endline "wire_client: timed out registering the subscription";
        exit 3
    | Error m ->
        (* a terminal verdict from the server, not a link failure *)
        Printf.eprintf "wire_client: subscription rejected: %s\n" m;
        exit 1);
  let target_met () =
    Mutex.lock mu;
    let n = !received in
    Mutex.unlock mu;
    n >= !await_reports
  in
  while not (target_met ()) do
    if Unix.gettimeofday () > deadline then begin
      Printf.eprintf
        "wire_client: timed out with %d of %d report(s)\n"
        !received !await_reports;
      Client.close client;
      exit 3
    end;
    Thread.delay 0.02
  done;
  if !hold > 0. then begin
    say "holding the connection for %gs" !hold;
    Thread.delay !hold
  end;
  let stats = Client.stats client in
  if stats.Client.reconnects > 0 || stats.Client.duplicates > 0 then
    say "link: %d reconnect(s), %d duplicate(s) suppressed"
      stats.Client.reconnects stats.Client.duplicates;
  Printf.printf "done: %d report(s) acknowledged\n" !received;
  Client.close client
