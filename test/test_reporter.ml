(* Tests for xy_reporter: report conditions (count, count(tag),
   frequency, immediate, disjunction), atmost caps, archive GC, report
   queries and delivery. *)

module Reporter = Xy_reporter.Reporter
module Notification = Xy_reporter.Notification
module Sink = Xy_reporter.Sink
module S = Xy_sublang.S_ast
module Clock = Xy_util.Clock
module T = Xy_xml.Types

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let spec ?query ?atmost ?archive when_ =
  { S.r_query = query; r_when = when_; r_atmost = atmost; r_archive = archive }

let notification ?(tag = "UpdatedPage") ?(body = []) ?birth clock =
  {
    Notification.source = Notification.Monitoring;
    tag;
    body;
    at = Clock.now clock;
    birth;
    rendered = None;
  }

let setup report_spec =
  let clock = Clock.create () in
  let sink, deliveries = Sink.memory () in
  let reporter = Reporter.create ~clock ~sink () in
  Reporter.register reporter ~subscription:"S" ~recipient:"user@example.org"
    report_spec;
  (clock, reporter, deliveries)

let test_count_condition () =
  let clock, reporter, deliveries = setup (spec [ S.R_count 3 ]) in
  for _ = 1 to 3 do
    Reporter.notify reporter ~subscription:"S" (notification clock)
  done;
  checki "not yet (> is strict)" 0 (List.length !deliveries);
  checki "buffered" 3 (Reporter.buffered_count reporter ~subscription:"S");
  Reporter.notify reporter ~subscription:"S" (notification clock);
  checki "fired at 4" 1 (List.length !deliveries);
  checki "buffer emptied" 0 (Reporter.buffered_count reporter ~subscription:"S")

let test_count_query_condition () =
  let clock, reporter, deliveries =
    setup (spec [ S.R_count_query ("UpdatedPage", 1) ])
  in
  Reporter.notify reporter ~subscription:"S" (notification ~tag:"Member" clock);
  Reporter.notify reporter ~subscription:"S" (notification ~tag:"Member" clock);
  Reporter.notify reporter ~subscription:"S" (notification ~tag:"UpdatedPage" clock);
  checki "other tags don't count" 0 (List.length !deliveries);
  Reporter.notify reporter ~subscription:"S" (notification ~tag:"UpdatedPage" clock);
  checki "fires on second UpdatedPage" 1 (List.length !deliveries)

let test_immediate () =
  let clock, reporter, deliveries = setup (spec [ S.R_immediate ]) in
  Reporter.notify reporter ~subscription:"S" (notification clock);
  checki "immediate" 1 (List.length !deliveries);
  Reporter.notify reporter ~subscription:"S" (notification clock);
  checki "again" 2 (List.length !deliveries)

let test_periodic_condition () =
  let clock, reporter, deliveries = setup (spec [ S.R_frequency S.Daily ]) in
  Reporter.notify reporter ~subscription:"S" (notification clock);
  Reporter.tick reporter;
  checki "buffered, not due" 0 (List.length !deliveries);
  Clock.advance clock Clock.day;
  Reporter.tick reporter;
  checki "daily report" 1 (List.length !deliveries);
  (* Nothing new: the next period produces no report. *)
  Clock.advance clock Clock.day;
  Reporter.tick reporter;
  checki "no empty report" 1 (List.length !deliveries)

let test_disjunction () =
  let clock, reporter, deliveries =
    setup (spec [ S.R_count 100; S.R_frequency S.Weekly; S.R_immediate ])
  in
  (* immediate wins on the first arrival *)
  Reporter.notify reporter ~subscription:"S" (notification clock);
  checki "immediate disjunct" 1 (List.length !deliveries)

let test_report_shape () =
  let clock, reporter, deliveries = setup (spec [ S.R_immediate ]) in
  let body = [ T.el "UpdatedPage" ~attrs:[ ("url", "http://a/") ] [] ] in
  Reporter.notify reporter ~subscription:"S" (notification ~body clock);
  match !deliveries with
  | [ d ] ->
      checks "recipient" "user@example.org" d.Sink.recipient;
      checks "subscription" "S" d.Sink.subscription;
      checks "report root" "Report" d.Sink.report.T.tag;
      (match T.children_elements d.Sink.report with
      | [ e ] -> checks "notification body" "UpdatedPage" e.T.tag
      | _ -> Alcotest.fail "report content")
  | _ -> Alcotest.fail "expected one delivery"

let test_empty_body_renders_tag () =
  let clock, reporter, deliveries = setup (spec [ S.R_immediate ]) in
  Reporter.notify reporter ~subscription:"S"
    (notification ~tag:"ChangeInMyProducts" ~body:[] clock);
  match !deliveries with
  | [ d ] -> (
      match T.children_elements d.Sink.report with
      | [ e ] -> checks "tag element" "ChangeInMyProducts" e.T.tag
      | _ -> Alcotest.fail "content")
  | _ -> Alcotest.fail "delivery"

let test_report_query_applied () =
  (* Deduplicate UpdatedPage urls via a report query. *)
  let query = Xy_query.Parser.parse "select //title" in
  let clock, reporter, deliveries =
    setup (spec ~query [ S.R_count 1 ])
  in
  let body tag title =
    [ T.el tag [ T.el "title" [ T.text title ] ] ]
  in
  Reporter.notify reporter ~subscription:"S"
    (notification ~body:(body "Doc" "one") clock);
  Reporter.notify reporter ~subscription:"S"
    (notification ~body:(body "Doc" "two") clock);
  match !deliveries with
  | [ d ] ->
      let titles = T.children_elements d.Sink.report in
      checki "two titles" 2 (List.length titles);
      checkb "only titles" true (List.for_all (fun e -> e.T.tag = "title") titles)
  | _ -> Alcotest.fail "expected one delivery"

let test_atmost_count_caps_buffer () =
  let clock, reporter, deliveries =
    setup (spec ~atmost:(S.At_count 2) [ S.R_count 10 ])
  in
  for _ = 1 to 8 do
    Reporter.notify reporter ~subscription:"S" (notification clock)
  done;
  checki "buffer capped at 2" 2 (Reporter.buffered_count reporter ~subscription:"S");
  checki "no report (count never exceeds cap)" 0 (List.length !deliveries);
  let stats = Reporter.stats reporter in
  checki "dropped counted" 6 stats.Reporter.dropped_by_atmost

let test_atmost_frequency_rate_limits () =
  let clock, reporter, deliveries =
    setup (spec ~atmost:(S.At_frequency S.Daily) [ S.R_immediate ])
  in
  Reporter.notify reporter ~subscription:"S" (notification clock);
  checki "first immediate" 1 (List.length !deliveries);
  Clock.advance clock 3600.;
  Reporter.notify reporter ~subscription:"S" (notification clock);
  checki "held back within a day" 1 (List.length !deliveries);
  checki "still buffered" 1 (Reporter.buffered_count reporter ~subscription:"S");
  Clock.advance clock Clock.day;
  Reporter.tick reporter;
  checki "released after a day" 2 (List.length !deliveries)

let test_archive_retention_and_gc () =
  let clock, reporter, _ =
    setup (spec ~archive:S.Weekly [ S.R_immediate ])
  in
  Reporter.notify reporter ~subscription:"S" (notification clock);
  Clock.advance clock (3. *. Clock.day);
  Reporter.notify reporter ~subscription:"S" (notification clock);
  checki "two archived" 2 (List.length (Reporter.archived reporter ~subscription:"S"));
  Clock.advance clock (5. *. Clock.day);
  Reporter.tick reporter;
  (* first report is now 8 days old: expired; second is 5 days old *)
  checki "gc expired" 1 (List.length (Reporter.archived reporter ~subscription:"S"))

let test_no_archive_clause_keeps_nothing () =
  let clock, reporter, _ = setup (spec [ S.R_immediate ]) in
  Reporter.notify reporter ~subscription:"S" (notification clock);
  Reporter.tick reporter;
  checki "no archive" 0 (List.length (Reporter.archived reporter ~subscription:"S"))

let test_multiple_recipients () =
  let clock, reporter, deliveries = setup (spec [ S.R_immediate ]) in
  Reporter.add_recipient reporter ~subscription:"S" ~recipient:"second@example.org";
  Reporter.notify reporter ~subscription:"S" (notification clock);
  checki "both recipients" 2 (List.length !deliveries);
  Reporter.remove_recipient reporter ~subscription:"S"
    ~recipient:"second@example.org";
  Reporter.notify reporter ~subscription:"S" (notification clock);
  checki "one after removal" 3 (List.length !deliveries)

let test_unknown_subscription_ignored () =
  let clock, reporter, deliveries = setup (spec [ S.R_immediate ]) in
  Reporter.notify reporter ~subscription:"nope" (notification clock);
  checki "ignored" 0 (List.length !deliveries)

let test_unregister () =
  let clock, reporter, deliveries = setup (spec [ S.R_immediate ]) in
  Reporter.unregister reporter ~subscription:"S";
  Reporter.notify reporter ~subscription:"S" (notification clock);
  checki "gone" 0 (List.length !deliveries)

let test_sinks () =
  let clock = Clock.create () in
  let counting, count = Sink.counting () in
  let memory, deliveries = Sink.memory () in
  let sink = Sink.tee counting memory in
  let reporter = Reporter.create ~clock ~sink () in
  Reporter.register reporter ~subscription:"S" ~recipient:"r" (spec [ S.R_immediate ]);
  Reporter.notify reporter ~subscription:"S" (notification clock);
  checki "tee: counting" 1 !count;
  checki "tee: memory" 1 (List.length !deliveries);
  (* simulated smtp advances the virtual clock *)
  let clock2 = Clock.create () in
  let smtp, sent = Sink.simulated_smtp ~per_mail_seconds:0.5 ~clock:clock2 in
  let reporter2 = Reporter.create ~clock:clock2 ~sink:smtp () in
  Reporter.register reporter2 ~subscription:"S" ~recipient:"r" (spec [ S.R_immediate ]);
  for _ = 1 to 10 do
    Reporter.notify reporter2 ~subscription:"S" (notification clock2)
  done;
  checki "mails" 10 !sent;
  checkb "clock advanced" true (Clock.now clock2 = 5.0)

let test_count_semantics_model () =
  (* Model-based test of the count-driven conditions (no clock):
     random specs and notification streams against a tiny reference
     implementation of buffer / count / count(tag) / atmost-count. *)
  let prng = Xy_util.Prng.create ~seed:77 in
  for _round = 1 to 200 do
    let threshold = 1 + Xy_util.Prng.int prng 5 in
    let use_tag_count = Xy_util.Prng.bool prng in
    let cap =
      if Xy_util.Prng.bool prng then Some (1 + Xy_util.Prng.int prng 6) else None
    in
    let when_ =
      if use_tag_count then [ S.R_count_query ("A", threshold) ]
      else [ S.R_count threshold ]
    in
    let spec =
      {
        S.r_query = None;
        r_when = when_;
        r_atmost = Option.map (fun n -> S.At_count n) cap;
        r_archive = None;
      }
    in
    let clock = Clock.create () in
    let sink, count = Sink.counting () in
    let reporter = Reporter.create ~clock ~sink () in
    Reporter.register reporter ~subscription:"S" ~recipient:"r" spec;
    (* reference state *)
    let buffer = ref 0 and tag_a = ref 0 and reports = ref 0 in
    for _op = 1 to 40 do
      let tag = if Xy_util.Prng.bool prng then "A" else "B" in
      Reporter.notify reporter ~subscription:"S" (notification ~tag clock);
      (* model: atmost cap drops, else buffer *)
      let capped = match cap with Some n -> !buffer >= n | None -> false in
      if not capped then begin
        incr buffer;
        if tag = "A" then incr tag_a
      end;
      let fires =
        if use_tag_count then !tag_a > threshold else !buffer > threshold
      in
      if fires then begin
        incr reports;
        buffer := 0;
        tag_a := 0
      end;
      Alcotest.(check int)
        (Printf.sprintf "reports (threshold=%d cap=%s tag=%b)" threshold
           (match cap with Some n -> string_of_int n | None -> "-")
           use_tag_count)
        !reports !count;
      Alcotest.(check int) "buffer" !buffer
        (Reporter.buffered_count reporter ~subscription:"S")
    done
  done

let test_directory_sink () =
  let root = Filename.temp_file "xyleme_reports" "" in
  Sys.remove root;
  let clock = Clock.create () in
  let sink = Sink.directory ~root () in
  let reporter = Reporter.create ~clock ~sink () in
  Reporter.register reporter ~subscription:"S" ~recipient:"r" (spec [ S.R_immediate ]);
  Reporter.notify reporter ~subscription:"S"
    (notification ~body:[ T.el "UpdatedPage" ~attrs:[ ("url", "u") ] [] ] clock);
  Reporter.notify reporter ~subscription:"S" (notification clock);
  let dir = Filename.concat root "S" in
  checkb "report 1 published" true (Sys.file_exists (Filename.concat dir "1.xml"));
  checkb "report 2 published" true (Sys.file_exists (Filename.concat dir "2.xml"));
  (* Published reports are valid XML with the expected shape. *)
  let report1 =
    Xy_xml.Parser.parse_element
      (In_channel.with_open_bin (Filename.concat dir "1.xml") In_channel.input_all)
  in
  checks "root" "Report" report1.T.tag;
  let index =
    Xy_xml.Parser.parse_element
      (In_channel.with_open_bin (Filename.concat dir "index.xml") In_channel.input_all)
  in
  checks "index root" "reports" index.T.tag;
  checki "two entries" 2 (List.length (T.children_elements index));
  (* cleanup *)
  Sys.remove (Filename.concat dir "1.xml");
  Sys.remove (Filename.concat dir "2.xml");
  Sys.remove (Filename.concat dir "index.xml");
  Sys.rmdir dir;
  Sys.rmdir root

(* Regression: publishing N reports used to rewrite the whole
   index.xml each time — Θ(N²) bytes of index writes.  The in-place
   index append makes total writes linear, so doubling the deliveries
   must roughly double the bytes written (a quadratic index would
   quadruple them). *)
let test_directory_sink_linear_writes () =
  let publish n =
    let root = Filename.temp_file "xyleme_reports" "" in
    Sys.remove root;
    let clock = Clock.create () in
    let written = ref 0 in
    let sink = Sink.directory ~root ~written () in
    let reporter = Reporter.create ~clock ~sink () in
    Reporter.register reporter ~subscription:"S" ~recipient:"r"
      (spec [ S.R_immediate ]);
    for _ = 1 to n do
      Reporter.notify reporter ~subscription:"S" (notification clock)
    done;
    let dir = Filename.concat root "S" in
    let index =
      Xy_xml.Parser.parse_element
        (In_channel.with_open_bin (Filename.concat dir "index.xml")
           In_channel.input_all)
    in
    checks "index root" "reports" index.T.tag;
    checki
      (Printf.sprintf "index lists all %d reports" n)
      n
      (List.length (T.children_elements index));
    (* cleanup *)
    for i = 1 to n do
      Sys.remove (Filename.concat dir (Printf.sprintf "%d.xml" i))
    done;
    Sys.remove (Filename.concat dir "index.xml");
    Sys.rmdir dir;
    Sys.rmdir root;
    !written
  in
  let w100 = publish 100 and w200 = publish 200 in
  checkb
    (Printf.sprintf "index writes scale linearly (100→%dB, 200→%dB)" w100 w200)
    true
    (w200 < 3 * w100)

(* {2 The timed set}

   [tick] visits only the subscriptions with a periodic deadline, a
   report held back by atmost, or an archive.  These checks hold it to
   what a walk over every subscription does. *)

let idle_spec = spec [ S.R_count 100 ]
let daily_spec = spec [ S.R_count 100; S.R_frequency S.Daily ]
let held_spec = spec ~atmost:(S.At_frequency S.Daily) [ S.R_immediate ]
let archive_spec = spec ~archive:S.Weekly [ S.R_immediate ]
let hour = 3600.

(* (seq, recipient, subscription, at, printed report), oldest first *)
let delivered ?(after = 0) deliveries =
  List.rev !deliveries
  |> List.filteri (fun i _ -> i >= after)
  |> List.map (fun (d : Sink.delivery) ->
         ( d.Sink.seq,
           d.Sink.recipient,
           d.Sink.subscription,
           d.Sink.at,
           Xy_xml.Printer.element_to_string d.Sink.report ))

let subscriptions_of ds = List.map (fun (_, _, s, _, _) -> s) ds

let test_tick_visits_timed_state () =
  let clock = Clock.create () in
  let sink, deliveries = Sink.memory () in
  let live = Reporter.create ~clock ~sink () in
  let ops = ref [] in
  Reporter.set_persistence live
    ~journal:(Some (fun op -> ops := op :: !ops))
    ~commit:None;
  let register r (name, spec) =
    Reporter.register r ~subscription:name ~recipient:"user@example.org" spec
  in
  let notify r name =
    Reporter.notify r ~subscription:name
      (notification ~body:[ T.text name ] clock)
  in
  let fired_by_tick f =
    let before = List.length !deliveries in
    f ();
    subscriptions_of (delivered ~after:before deliveries)
  in
  (* Registered out of name order; every one gets a notification. *)
  let initial =
    [
      ("z-idle", idle_spec);
      ("x-daily", daily_spec);
      ("m-idle", idle_spec);
      ("h-held", held_spec);
      ("c-archive", archive_spec);
      ("b-daily", daily_spec);
      ("a-idle", idle_spec);
    ]
  in
  List.iter (register live) initial;
  List.iter (fun (name, _) -> notify live name) initial;
  checkb "h-held and c-archive fired at once" true
    (subscriptions_of (delivered deliveries) = [ "h-held"; "c-archive" ]);
  Clock.advance clock hour;
  notify live "h-held";
  notify live "c-archive";
  Clock.advance clock (23. *. hour);
  checkb "one tick fires in name order" true
    (fired_by_tick (fun () -> Reporter.tick live)
    = [ "b-daily"; "h-held"; "x-daily" ]);
  let seqs = List.map (fun (seq, _, _, _, _) -> seq) (delivered deliveries) in
  checkb "seqs follow firing order" true (seqs = List.sort compare seqs);
  checki "c-archive archived two" 2
    (List.length (Reporter.archived live ~subscription:"c-archive"));
  Clock.advance clock (7. *. Clock.day);
  checkb "nothing due a week later" true
    (fired_by_tick (fun () -> Reporter.tick live) = []);
  checki "the archive expired" 0
    (List.length (Reporter.archived live ~subscription:"c-archive"));
  (* Membership follows re-registration and unregistration. *)
  register live ("m-idle", daily_spec);
  register live ("x-daily", idle_spec);
  notify live "x-daily";
  notify live "b-daily";
  Reporter.unregister live ~subscription:"b-daily";
  notify live "h-held";
  notify live "h-held";
  notify live "c-archive";
  Clock.advance clock Clock.day;
  checkb "re-registered daily fires; count-only and unregistered do not" true
    (fired_by_tick (fun () -> Reporter.tick live) = [ "h-held"; "m-idle" ]);
  (* The state to rebuild from: a deadline off the registration clock,
     a held-back report and a non-empty archive. *)
  Clock.advance clock (5. *. hour);
  notify live "h-held";
  notify live "m-idle";
  (* The subscriptions as they stand now, registered in name order. *)
  let final =
    [
      ("a-idle", idle_spec);
      ("c-archive", archive_spec);
      ("h-held", held_spec);
      ("m-idle", daily_spec);
      ("x-daily", idle_spec);
      ("z-idle", idle_spec);
    ]
  in
  let rebuilt () =
    let sink, deliveries = Sink.memory () in
    let r = Reporter.create ~clock ~sink () in
    List.iter (register r) final;
    (r, deliveries)
  in
  let from_snapshot, snapshot_deliveries = rebuilt () in
  Reporter.decode_snapshot from_snapshot (Reporter.encode_snapshot live);
  let from_replay, replay_deliveries = rebuilt () in
  List.iter (Reporter.apply_op from_replay) (List.rev !ops);
  let rebuilt_at = List.length !deliveries in
  let all = [ live; from_snapshot; from_replay ] in
  let same_as_live label =
    let expected = delivered ~after:rebuilt_at deliveries in
    List.iter
      (fun (name, ds) ->
        checkb (Printf.sprintf "%s: %s deliveries" label name) true
          (delivered ds = expected))
      [ ("snapshot", snapshot_deliveries); ("replay", replay_deliveries) ];
    List.iter
      (fun (subscription, _) ->
        let archive r =
          List.map Xy_xml.Printer.element_to_string
            (Reporter.archived r ~subscription)
        in
        List.iter
          (fun r ->
            checkb
              (Printf.sprintf "%s: %s archive" label subscription)
              true
              (archive r = archive live))
          all)
      final;
    List.iter
      (fun r ->
        checkb (label ^ ": stats") true
          (Reporter.stats r = Reporter.stats live))
      all
  in
  Clock.advance clock (20. *. hour);
  List.iter Reporter.tick all;
  checkb "the rebuilt state fires on the live deadline" true
    (subscriptions_of (delivered ~after:rebuilt_at deliveries)
    = [ "h-held"; "m-idle" ]);
  same_as_live "held and periodic";
  List.iter (fun r -> notify r "c-archive") all;
  Clock.advance clock (7. *. Clock.day);
  List.iter Reporter.tick all;
  checki "one report left in the archive" 1
    (List.length (Reporter.archived live ~subscription:"c-archive"));
  same_as_live "archive trimmed";
  Clock.advance clock Clock.day;
  List.iter Reporter.tick all;
  checki "archive emptied" 0
    (List.length (Reporter.archived live ~subscription:"c-archive"));
  same_as_live "archive emptied";
  let fired = subscriptions_of (delivered deliveries) in
  let reports s = List.length (List.filter (String.equal s) fired) in
  checki "a-idle never fired" 0 (reports "a-idle");
  checki "z-idle never fired" 0 (reports "z-idle");
  checki "x-daily fired only while daily" 1 (reports "x-daily");
  checki "b-daily fired only while registered" 1 (reports "b-daily")

(* {2 Cached encodings}

   A checkpoint writes the reporter's section from cached frames and
   notification encodings.  Over random histories with a journal
   attached, that section must equal what a freshly decoded reporter,
   with no frame cached, encodes, and must hold the same buffers and
   archives; and the notification bytes of each [n] op must be the
   ones the subscription's frame holds. *)

type cache_op =
  | C_register of int * int  (** name, spec *)
  | C_notify of int * int  (** name, body *)
  | C_tick of int  (** hours *)
  | C_unregister of int
  | C_decode

let cache_names = [| "a"; "b"; "c" |]

let cache_specs =
  [|
    idle_spec;
    daily_spec;
    held_spec;
    archive_spec;
    spec [ S.R_count 1 ];
    spec ~atmost:(S.At_count 2) [ S.R_count 3 ];
  |]

let print_cache_op = function
  | C_register (n, s) -> Printf.sprintf "register %s/%d" cache_names.(n) s
  | C_notify (n, b) -> Printf.sprintf "notify %s/%d" cache_names.(n) b
  | C_tick h -> Printf.sprintf "tick +%dh" h
  | C_unregister n -> "unregister " ^ cache_names.(n)
  | C_decode -> "decode"

let cache_body b =
  match b mod 3 with
  | 0 -> []
  | 1 -> [ T.text (Printf.sprintf "v%d" b) ]
  | _ -> [ T.el "P" [ T.text (Printf.sprintf "<%d>" b) ] ]

let codec_string s =
  let buf = Buffer.create 16 in
  Xy_util.Codec.string buf s;
  Buffer.contents buf

let cached_snapshot_equals_fresh ops =
  let clock = Clock.create () in
  let sink, _ = Sink.memory () in
  let journal = ref [] in
  let attach r =
    Reporter.set_persistence r
      ~journal:(Some (fun op -> journal := op :: !journal))
      ~commit:None
  in
  let registered = Hashtbl.create 4 in
  let decoded r =
    let fresh = Reporter.create ~clock ~sink () in
    Hashtbl.iter
      (fun name spec ->
        Reporter.register fresh ~subscription:name ~recipient:"u" spec)
      registered;
    Reporter.decode_snapshot fresh (Reporter.encode_snapshot r);
    fresh
  in
  let agrees r =
    let fresh = decoded r in
    Reporter.encode_snapshot r = Reporter.encode_snapshot fresh
    && Hashtbl.fold
         (fun subscription _ ok ->
           let archive r =
             List.map Xy_xml.Printer.element_to_string
               (Reporter.archived r ~subscription)
           in
           ok
           && Reporter.buffered_count r ~subscription
              = Reporter.buffered_count fresh ~subscription
           && archive r = archive fresh)
         registered true
  in
  (* The notification bytes of a buffered [n] op are the last of the
     frame's notification pieces, which follow the frame's head: the
     name and the buffer length. *)
  let in_frame r name emitted =
    let op_prefix = codec_string "n" ^ codec_string name in
    let buffered = Reporter.buffered_count r ~subscription:name in
    let head = codec_string name ^ string_of_int buffered ^ "\n" in
    let rec newest = function
      | piece :: rest when piece = head -> List.nth_opt rest (buffered - 1)
      | _ :: rest -> newest rest
      | [] -> None
    in
    match
      List.filter (fun op -> String.starts_with ~prefix:op_prefix op) emitted
    with
    | [ op ] ->
        let skip = String.length op_prefix in
        newest (List.tl (Reporter.snapshot_pieces r))
        = Some (String.sub op skip (String.length op - skip))
    | _ -> false
  in
  let live = ref (Reporter.create ~clock ~sink ()) in
  attach !live;
  List.for_all
    (fun op ->
      (match op with
      | C_register (n, s) ->
          let name = cache_names.(n) in
          Reporter.register !live ~subscription:name ~recipient:"u"
            cache_specs.(s);
          Hashtbl.replace registered name cache_specs.(s)
      | C_notify (n, b) ->
          let name = cache_names.(n) in
          let before = List.length !journal in
          let buffered = Reporter.buffered_count !live ~subscription:name in
          Reporter.notify !live ~subscription:name
            {
              Notification.source =
                (if b mod 2 = 0 then Notification.Monitoring
                 else Notification.Continuous);
              tag = (if b mod 4 < 2 then "UpdatedPage" else "Member");
              body = cache_body b;
              at = Clock.now clock;
              birth =
                (if b mod 5 = 0 then None
                 else Some (Clock.now clock -. float_of_int b));
              rendered = None;
            };
          let fresh_ops = List.length !journal - before in
          let emitted = List.filteri (fun i _ -> i < fresh_ops) !journal in
          if
            Reporter.buffered_count !live ~subscription:name = buffered + 1
            && not (in_frame !live name emitted)
          then Alcotest.failf "%s: the n op's bytes are not in the frame" name
      | C_tick h ->
          Clock.advance clock (float_of_int h *. hour);
          Reporter.tick !live
      | C_unregister n ->
          let name = cache_names.(n) in
          Reporter.unregister !live ~subscription:name;
          Hashtbl.remove registered name
      | C_decode ->
          live := decoded !live;
          attach !live);
      agrees !live)
    ops

let qcheck_cached_snapshot =
  let gen =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map print_cache_op ops))
      QCheck.Gen.(
        let name = int_bound (Array.length cache_names - 1) in
        list_size (1 -- 40)
          (frequency
             [
               (2, map2 (fun n s -> C_register (n, s)) name
                     (int_bound (Array.length cache_specs - 1)));
               (6, map2 (fun n b -> C_notify (n, b)) name (int_bound 20));
               (2, map (fun h -> C_tick h) (1 -- 48));
               (1, map (fun n -> C_unregister n) name);
               (1, return C_decode);
             ]))
  in
  QCheck.Test.make ~name:"cached snapshot = freshly decoded snapshot"
    ~count:300 gen cached_snapshot_equals_fresh

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "reporter"
    [
      ( "conditions",
        [
          tc "count" test_count_condition;
          tc "count(tag)" test_count_query_condition;
          tc "immediate" test_immediate;
          tc "periodic" test_periodic_condition;
          tc "disjunction" test_disjunction;
          tc "count semantics (model-based)" test_count_semantics_model;
        ] );
      ( "reports",
        [
          tc "shape" test_report_shape;
          tc "empty body renders tag" test_empty_body_renders_tag;
          tc "report query applied" test_report_query_applied;
        ] );
      ( "atmost",
        [
          tc "count caps buffer" test_atmost_count_caps_buffer;
          tc "frequency rate limits" test_atmost_frequency_rate_limits;
        ] );
      ( "archive",
        [
          tc "retention and gc" test_archive_retention_and_gc;
          tc "no clause" test_no_archive_clause_keeps_nothing;
        ] );
      ( "tick",
        [ tc "visits only timed state" test_tick_visits_timed_state ] );
      ("snapshot", [ QCheck_alcotest.to_alcotest qcheck_cached_snapshot ]);
      ( "delivery",
        [
          tc "multiple recipients" test_multiple_recipients;
          tc "unknown subscription" test_unknown_subscription_ignored;
          tc "unregister" test_unregister;
          tc "sinks" test_sinks;
          tc "directory sink (web publication)" test_directory_sink;
          tc "directory sink index is O(N) writes" test_directory_sink_linear_writes;
        ] );
    ]
