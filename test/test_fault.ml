(* Tests for the fault-injection substrate and the pipeline's recovery
   behaviour: spec parsing, per-point deterministic schedules, crawler
   retry/backoff, persist crash recovery (exhaustive truncation +
   corruption), worker respawn in the multi-domain engine, and
   end-to-end determinism of faulted runs. *)

module Fault = Xy_fault.Fault
module Persist = Xy_submgr.Persist
module Record_log = Xy_durable.Record_log
module Xyleme = Xy_system.Xyleme
module Queue = Xy_crawler.Fetch_queue
module Crawler = Xy_crawler.Crawler
module Web = Xy_crawler.Synthetic_web
module Clock = Xy_util.Clock
module Obs = Xy_obs.Obs
module Sink = Xy_reporter.Sink
module Printer = Xy_xml.Printer
module Parser = Xy_xml.Parser
module Manager = Xy_submgr.Manager
module Parallel = Xy_system.Parallel
module Loader = Xy_warehouse.Loader
module Mqp = Xy_core.Mqp

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Spec parsing *)

let test_spec_parse_ok () =
  (match Fault.parse_spec "fetch=0.05,malformed=0.01" with
  | Ok spec ->
      checki "two points" 2 (List.length spec);
      checkb "fetch rate" true (List.assoc "fetch" spec = 0.05);
      checkb "malformed rate" true (List.assoc "malformed" spec = 0.01)
  | Error e -> Alcotest.failf "rejected valid spec: %s" e);
  (match Fault.parse_spec " worker = 1 " with
  | Ok [ ("worker", 1.) ] -> ()
  | Ok _ -> Alcotest.fail "unexpected parse"
  | Error e -> Alcotest.failf "rejected spaced spec: %s" e);
  (* every documented point parses at rate 0 *)
  List.iter
    (fun (point, _) ->
      match Fault.parse_spec (point ^ "=0") with
      | Ok [ (p, 0.) ] -> checks "point name" point p
      | _ -> Alcotest.failf "point %s does not parse" point)
    Fault.points

let test_spec_parse_errors () =
  let rejected s =
    match Fault.parse_spec s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted bad spec %S" s
  in
  rejected "";
  rejected "nosuchpoint=0.5";
  rejected "fetch=1.5";
  rejected "fetch=-0.1";
  rejected "fetch=abc";
  rejected "fetch";
  rejected "fetch=0.1,fetch=0.2"

let test_spec_roundtrip () =
  let spec = [ ("fetch", 0.05); ("malformed", 0.5) ] in
  match Fault.parse_spec (Fault.spec_to_string spec) with
  | Ok spec' -> checkb "roundtrip" true (spec = spec')
  | Error e -> Alcotest.failf "roundtrip failed: %s" e

(* ------------------------------------------------------------------ *)
(* Firing schedules *)

let schedule ?(n = 1000) ~seed ~rate point =
  let t = Fault.create ~obs:(Obs.create ()) ~seed [ (point, rate) ] in
  List.init n (fun _ -> Fault.fire t point)

let test_fire_deterministic () =
  checkb "same seed, same schedule" true
    (schedule ~seed:5 ~rate:0.3 "fetch" = schedule ~seed:5 ~rate:0.3 "fetch");
  checkb "different seed, different schedule" true
    (schedule ~seed:5 ~rate:0.3 "fetch" <> schedule ~seed:6 ~rate:0.3 "fetch")

let test_fire_rate_extremes () =
  checkb "rate 0 never fires" true
    (List.for_all not (schedule ~seed:1 ~rate:0. "fetch"));
  checkb "rate 1 always fires" true
    (List.for_all Fun.id (schedule ~seed:1 ~rate:1. "fetch"))

let test_fire_counts_injected () =
  let obs = Obs.create () in
  let t = Fault.create ~obs ~seed:3 [ ("fetch", 0.5) ] in
  let fired = List.length (List.filter Fun.id (List.init 500 (fun _ -> Fault.fire t "fetch"))) in
  checkb "some fired" true (fired > 100 && fired < 400);
  checki "injected matches" fired (Fault.injected t "fetch");
  let snapshot = Obs.snapshot obs in
  checki "obs counter matches" fired
    (Obs.Snapshot.counter_value snapshot ~stage:"fault" "fetch_injected")

let test_per_point_streams_independent () =
  (* Consulting point B must not move point A's stream. *)
  let alone = schedule ~n:200 ~seed:9 ~rate:0.4 "fetch" in
  let t =
    Fault.create ~obs:(Obs.create ()) ~seed:9
      [ ("fetch", 0.4); ("malformed", 0.7) ]
  in
  let interleaved =
    List.init 200 (fun _ ->
        ignore (Fault.fire t "malformed");
        let fired = Fault.fire t "fetch" in
        ignore (Fault.draw_float t "malformed");
        fired)
  in
  checkb "fetch schedule unmoved by malformed draws" true (alone = interleaved)

let test_set_rate_keeps_stream_position () =
  (* A point consulted at rate 0 still draws, so retuning mid-run
     lands on the same stream position as a run tuned from the
     start. *)
  let tuned_late =
    let t = Fault.create ~obs:(Obs.create ()) ~seed:4 [ ("fetch", 0.) ] in
    let head = List.init 100 (fun _ -> Fault.fire t "fetch") in
    checkb "silent at rate 0" true (List.for_all not head);
    Fault.set_rate t "fetch" 0.3;
    List.init 100 (fun _ -> Fault.fire t "fetch")
  in
  let tuned_early =
    let t = Fault.create ~obs:(Obs.create ()) ~seed:4 [ ("fetch", 0.3) ] in
    let _head = List.init 100 (fun _ -> Fault.fire t "fetch") in
    List.init 100 (fun _ -> Fault.fire t "fetch")
  in
  checkb "tail schedules align" true (tuned_late = tuned_early)

let test_set_rate_validation () =
  let t = Fault.create ~obs:(Obs.create ()) ~seed:1 [ ("fetch", 0.1) ] in
  (match Fault.set_rate t "fetch" 1.5 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "rate above 1 accepted");
  match Fault.set_rate t "malformed" 0.5 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "point outside the spec accepted"

let test_none_inert () =
  checkb "inactive" false (Fault.active Fault.none);
  checkb "never fires" true
    (not (List.exists Fun.id (List.init 100 (fun _ -> Fault.fire Fault.none "fetch"))));
  checki "draws zero" 0 (Fault.draw_int Fault.none "fetch" ~bound:10);
  checki "nothing injected" 0 (Fault.injected Fault.none "fetch")

(* ------------------------------------------------------------------ *)
(* Crawler retry / backoff *)

(* A crawler whose [fetch] point is toggled with set_rate: rate 1
   fails every due fetch, rate 0 lets them through. *)
let make_faulty_crawler ?(retry = Crawler.default_retry) ~seed () =
  let clock = Clock.create () in
  let obs = Obs.create () in
  let web = Web.generate ~seed ~sites:2 ~pages_per_site:2 () in
  let queue = Queue.create ~obs ~initial_period:1000. ~min_period:10. ~clock () in
  let faults = Fault.create ~obs ~seed [ ("fetch", 0.) ] in
  let crawler = Crawler.create ~obs ~faults ~retry ~web ~queue () in
  Crawler.discover crawler;
  (crawler, queue, clock, faults, obs)

let fault_counter obs name =
  Obs.Snapshot.counter_value (Obs.snapshot obs) ~stage:"fault" name

let test_crawler_failure_enters_retry_path () =
  let crawler, _queue, clock, faults, obs = make_faulty_crawler ~seed:2 () in
  Fault.set_rate faults "fetch" 1.;
  let fetches = Crawler.step crawler ~limit:10 in
  checki "no fetch records on failure" 0 (List.length fetches);
  checki "all four urls failed" 4 (fault_counter obs "fetch_failures");
  checki "all retried" 4 (fault_counter obs "fetch_retries");
  checki "pending retries" 4 (Crawler.pending_retries crawler);
  checki "nothing exhausted yet" 0 (fault_counter obs "retry_exhausted");
  (* Nothing due before the backoff delay (first retry: 300s base +
     up to 150s jitter). *)
  checki "not due immediately" 0 (List.length (Crawler.step crawler ~limit:10));
  Fault.set_rate faults "fetch" 0.;
  Clock.advance clock 451.;
  let recovered = Crawler.step crawler ~limit:10 in
  checki "all urls recovered after backoff" 4 (List.length recovered);
  checki "retry state cleared on success" 0 (Crawler.pending_retries crawler)

let test_crawler_retry_exhaustion_demotes () =
  let retry = { Crawler.default_retry with max_retries = 2; jitter = 0. } in
  let crawler, queue, clock, faults, obs = make_faulty_crawler ~retry ~seed:3 () in
  Fault.set_rate faults "fetch" 1.;
  (* failure 1 and 2 retry (300s, then 600s), failure 3 exhausts *)
  ignore (Crawler.step crawler ~limit:10);
  Clock.advance clock 301.;
  ignore (Crawler.step crawler ~limit:10);
  Clock.advance clock 601.;
  ignore (Crawler.step crawler ~limit:10);
  checki "exhausted once per url" 4 (fault_counter obs "retry_exhausted");
  checki "requeued demoted" 4 (fault_counter obs "requeued_demoted");
  checki "attempt state dropped" 0 (Crawler.pending_retries crawler);
  let url = List.hd (Web.urls (let w = Web.generate ~seed:3 ~sites:2 ~pages_per_site:2 () in w)) in
  checkb "period demoted" true (Queue.period queue ~url = Some 2000.);
  (* demoted, not dropped: the url comes back a full period later *)
  Fault.set_rate faults "fetch" 0.;
  Clock.advance clock 2001.;
  checki "demoted urls served again" 4 (List.length (Crawler.step crawler ~limit:10))

let test_crawler_site_accounting () =
  let crawler, _queue, clock, faults, obs = make_faulty_crawler ~seed:4 () in
  let url = "http://site0.example.org/page0.xml" in
  Fault.set_rate faults "fetch" 1.;
  ignore (Crawler.step crawler ~limit:10);
  (* 2 urls per site failed once each *)
  checki "site failures accumulate" 2 (Crawler.site_failures crawler ~url);
  ignore (fault_counter obs "fetch_failures");
  Fault.set_rate faults "fetch" 0.;
  Clock.advance clock 500.;
  ignore (Crawler.step crawler ~limit:10);
  checki "success decays site failures" 0 (Crawler.site_failures crawler ~url)

let test_crawler_repeat_offender_waits_longer () =
  (* With the site flagged, the retry delay doubles: after the plain
     backoff window the url is still quiet, after 2x it is due. *)
  let retry = { Crawler.default_retry with jitter = 0.; site_threshold = 1 } in
  let crawler, _queue, clock, faults, _obs = make_faulty_crawler ~retry ~seed:5 () in
  Fault.set_rate faults "fetch" 1.;
  ignore (Crawler.step crawler ~limit:10);
  Fault.set_rate faults "fetch" 0.;
  (* delay = 300 * offender_scale 2 = 600 *)
  Clock.advance clock 301.;
  checki "not due at plain backoff" 0 (List.length (Crawler.step crawler ~limit:10));
  Clock.advance clock 300.;
  checki "due at doubled backoff" 4 (List.length (Crawler.step crawler ~limit:10))

let test_crawler_malformed_mangles_content () =
  let clock = Clock.create () in
  let obs = Obs.create () in
  let web = Web.generate ~seed:6 ~sites:2 ~pages_per_site:2 () in
  let queue = Queue.create ~obs ~clock () in
  let faults = Fault.create ~obs ~seed:6 [ ("malformed", 1.) ] in
  let crawler = Crawler.create ~obs ~faults ~web ~queue () in
  Crawler.discover crawler;
  let fetches = Crawler.step crawler ~limit:10 in
  checki "all pages fetched" 4 (List.length fetches);
  List.iter
    (fun f ->
      match f.Crawler.content with
      | None -> Alcotest.fail "mangled fetch lost its content"
      | Some content -> (
          checkb "pristine copy untouched" true
            (Some content <> Web.fetch web ~url:f.Crawler.url);
          (* a mangled page must never reach the warehouse as XML *)
          match Parser.parse content with
          | _ -> Alcotest.failf "mangled %s still parses" f.Crawler.url
          | exception Parser.Error _ -> ()))
    fetches

(* ------------------------------------------------------------------ *)
(* Persist crash recovery *)

let with_temp f =
  let path = Filename.temp_file "xyfault" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let with_temp_dir f =
  let dir = Filename.temp_file "xy_durable" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> try rm dir with Sys_error _ -> ()) (fun () -> f dir)

let sample_records =
  [
    Persist.Insert
      {
        name = "s1";
        owner = "alice";
        text = "subscription s1\nmonitoring\nwhere modified self\n";
      };
    Persist.Insert { name = "s2"; owner = "bob"; text = "short" };
    Persist.Delete "s1";
    Persist.Insert { name = "s3"; owner = "carol"; text = "x = \"quoted, text\"" };
  ]

(* Append [records], returning the byte offset of each record's end
   (the valid truncation boundaries). *)
let build_log path records =
  (try Sys.remove path with Sys_error _ -> ());
  let log = Record_log.open_log path in
  let size () =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    close_in ic;
    n
  in
  let bounds =
    List.map
      (fun record ->
        (match record with
        | Persist.Insert { name; owner; text } ->
            Persist.append_insert log ~name ~owner ~text
        | Persist.Delete name -> Persist.append_delete log ~name);
        size ())
      records
  in
  Record_log.close log;
  bounds

let write_bytes path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let firstn n list = List.filteri (fun i _ -> i < n) list

(* The crash-recovery property, checked exhaustively: truncate a valid
   log at EVERY byte offset; scan must return exactly the records
   whose bytes survived in full, diagnose Clean exactly at record
   boundaries and Torn everywhere else — and never Corrupt, never
   raise.  Reopened and appended to, the log then reads back those
   records plus the new one, Clean: the torn fragment is cut, not
   buried. *)
let test_truncate_every_offset () =
  with_temp @@ fun path ->
  with_temp @@ fun truncated ->
  let bounds = build_log path sample_records in
  let full = In_channel.with_open_bin path In_channel.input_all in
  checki "log length accounted" (String.length full)
    (List.nth bounds (List.length bounds - 1));
  let extra = Persist.Insert { name = "s4"; owner = "dave"; text = "after the cut" } in
  for cut = 0 to String.length full do
    write_bytes truncated (String.sub full 0 cut);
    let records, tail = Persist.scan truncated in
    let complete = List.length (List.filter (fun b -> b <= cut) bounds) in
    if records <> firstn complete sample_records then
      Alcotest.failf "cut %d: wrong records (%d, expected %d)" cut
        (List.length records) complete;
    let expected_tail =
      if cut = 0 || List.mem cut bounds then Persist.Clean else Persist.Torn
    in
    if tail <> expected_tail then
      Alcotest.failf "cut %d: wrong tail diagnosis" cut;
    let log = Record_log.open_log truncated in
    Persist.append_insert log ~name:"s4" ~owner:"dave" ~text:"after the cut";
    Record_log.close log;
    let records, tail = Persist.scan truncated in
    if records <> firstn complete sample_records @ [ extra ] || tail <> Persist.Clean
    then Alcotest.failf "cut %d: the append after reopening does not read back" cut
  done

(* The delivery ledger reopens the same way.  A ledger sink opens its
   file with [Record_log.open_log] and appends one record per
   delivery, so each cut of three deliveries is reopened, the fourth
   appended, and the ledger must read back the whole deliveries before
   the cut plus the fourth, Clean. *)
let test_ledger_truncate_every_offset () =
  with_temp @@ fun path ->
  with_temp @@ fun truncated ->
  let sink = Sink.ledger ~path () in
  let report = Xy_xml.Types.(element "Report" [ el "Body" [] ]) in
  let printed = lazy (Xy_xml.Printer.element_to_string report) in
  List.iter
    (fun seq ->
      sink.Sink.deliver
        { Sink.seq; recipient = "r"; subscription = "S"; report; printed; at = 1.5 })
    [ 1; 2; 10; 11 ];
  let payloads, _ = Record_log.read path ~decode:Fun.id in
  let entries, _ = Sink.read_ledger path in
  let records = List.map Record_log.encode (firstn 3 payloads) in
  let full = String.concat "" records in
  let bounds =
    List.rev
      (snd
         (List.fold_left
            (fun (n, acc) r ->
              let n = n + String.length r in
              (n, n :: acc))
            (0, []) records))
  in
  for cut = 0 to String.length full do
    write_bytes truncated (String.sub full 0 cut);
    let complete = List.length (List.filter (fun b -> b <= cut) bounds) in
    let log = Record_log.open_log truncated in
    Record_log.append log (List.nth payloads 3);
    Record_log.close log;
    let read, tail = Sink.read_ledger truncated in
    if
      read <> firstn complete entries @ [ List.nth entries 3 ]
      || tail <> Record_log.Clean
    then Alcotest.failf "cut %d: the delivery after reopening does not read back" cut
  done

(* In-place damage is not a torn tail: flip every payload byte of
   every record in turn; scan must diagnose Corrupt and keep exactly
   the records before the damaged one. *)
let test_corrupt_every_payload_byte () =
  with_temp @@ fun path ->
  with_temp @@ fun damaged ->
  let bounds = build_log path sample_records in
  let full = In_channel.with_open_bin path In_channel.input_all in
  List.iteri
    (fun i bound ->
      let start = if i = 0 then 0 else List.nth bounds (i - 1) in
      let header_end = String.index_from full start '\n' in
      (* payload bytes: after the header newline, before the final
         record newline *)
      for pos = header_end + 1 to bound - 2 do
        let bytes = Bytes.of_string full in
        Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0x01));
        write_bytes damaged (Bytes.to_string bytes);
        let records, tail = Persist.scan damaged in
        if tail <> Persist.Corrupt then
          Alcotest.failf "record %d byte %d: damage not diagnosed Corrupt" i pos;
        if records <> firstn i sample_records then
          Alcotest.failf "record %d byte %d: wrong survivors" i pos
      done)
    bounds

let test_torn_write_fault_point () =
  with_temp @@ fun path ->
  (try Sys.remove path with Sys_error _ -> ());
  let faults = Fault.create ~obs:(Obs.create ()) ~seed:11 [ ("torn_write", 0.) ] in
  let log = Record_log.open_log ~faults path in
  Persist.append_insert log ~name:"a" ~owner:"o" ~text:"first";
  checkb "alive before the fault" false (Record_log.is_dead log);
  Fault.set_rate faults "torn_write" 1.;
  Persist.append_insert log ~name:"b" ~owner:"o" ~text:"second";
  checkb "torn write kills the log" true (Record_log.is_dead log);
  (* a dead log drops every later append, like a crashed process *)
  Persist.append_insert log ~name:"c" ~owner:"o" ~text:"third";
  Record_log.close log;
  let records, tail = Persist.scan path in
  checki "only the pre-crash record survives" 1 (List.length records);
  checkb "first record intact" true
    (List.hd records = Persist.Insert { name = "a"; owner = "o"; text = "first" });
  checkb "tail is torn or clean, never corrupt" true (tail <> Persist.Corrupt);
  checki "exactly one injection" 1 (Fault.injected faults "torn_write")

let test_short_write_fault_point () =
  with_temp @@ fun path ->
  (try Sys.remove path with Sys_error _ -> ());
  let faults = Fault.create ~obs:(Obs.create ()) ~seed:12 [ ("short_write", 0.) ] in
  let log = Record_log.open_log ~faults path in
  Persist.append_insert log ~name:"a" ~owner:"o" ~text:"first";
  Fault.set_rate faults "short_write" 1.;
  Persist.append_insert log ~name:"b" ~owner:"o" ~text:"second";
  Fault.set_rate faults "short_write" 0.;
  checkb "short write leaves the log alive" false (Record_log.is_dead log);
  Persist.append_insert log ~name:"c" ~owner:"o" ~text:"third";
  Record_log.close log;
  let records, tail = Persist.scan path in
  (* the damaged record sits mid-log: everything from it on is lost,
     and (unless the cut erased the record entirely) the tail is
     Corrupt, not Torn *)
  checkb "pre-damage record survives" true
    (records <> []
    && List.hd records = Persist.Insert { name = "a"; owner = "o"; text = "first" });
  (match Fault.injected faults "short_write" with
  | 1 -> ()
  | n -> Alcotest.failf "expected exactly one injection, got %d" n);
  checkb "mid-log damage diagnosed" true
    (tail = Persist.Corrupt || List.length records = 2)

(* qcheck: random logs — write, scan, replay against a reference
   model; then truncate at a random offset and require a prefix with a
   non-Corrupt diagnosis. *)
let gen_record : Persist.record QCheck.Gen.t =
  let open QCheck.Gen in
  let name_gen = oneofl [ "s1"; "s2"; "s3"; "weird name"; "nl\nname" ] in
  let text_gen =
    oneofl
      [ ""; "short"; "multi\nline\ntext"; "R I 1 1 1 fake\nheader"; String.make 200 'x' ]
  in
  frequency
    [
      ( 3,
        name_gen >>= fun name ->
        oneofl [ "alice"; "bob"; "" ] >>= fun owner ->
        text_gen >|= fun text -> Persist.Insert { name; owner; text } );
      (1, name_gen >|= fun name -> Persist.Delete name);
    ]

let model_replay records =
  let rec drop n = function
    | rest when n = 0 -> rest
    | [] -> []
    | _ :: rest -> drop (n - 1) rest
  in
  List.filteri
    (fun i record ->
      match record with
      | Persist.Delete _ -> false
      | Persist.Insert { name; _ } ->
          not
            (List.exists
               (function
                 | Persist.Insert { name = n; _ } | Persist.Delete n -> n = name)
               (drop (i + 1) records)))
    records

let qcheck_persist_roundtrip =
  QCheck.Test.make ~name:"random log: scan clean, replay = model" ~count:100
    QCheck.(make Gen.(list_size (0 -- 15) gen_record))
    (fun records ->
      with_temp @@ fun path ->
      ignore (build_log path records);
      let scanned, tail = Persist.scan path in
      tail = Persist.Clean && scanned = records
      && Persist.replay path = model_replay records)

let qcheck_persist_truncation =
  QCheck.Test.make ~name:"random log truncated anywhere: prefix, never Corrupt"
    ~count:100
    QCheck.(
      make
        Gen.(pair (list_size (1 -- 10) gen_record) (0 -- 1_000_000)))
    (fun (records, cut_raw) ->
      with_temp @@ fun path ->
      with_temp @@ fun truncated ->
      let bounds = build_log path records in
      let full = In_channel.with_open_bin path In_channel.input_all in
      let cut = cut_raw mod (String.length full + 1) in
      write_bytes truncated (String.sub full 0 cut);
      let scanned, tail = Persist.scan truncated in
      let complete = List.length (List.filter (fun b -> b <= cut) bounds) in
      tail <> Persist.Corrupt && scanned = firstn complete records)

(* ------------------------------------------------------------------ *)
(* Worker respawn in the multi-domain engine *)

(* Every page lies under a watched URL prefix, so every ingested page
   raises an alert and every [worker] draw kills a pool worker.
   Returns the notification multiset (sorted), the pages ingested, the
   stats, the injection count of the [worker] point and the metrics
   snapshot. *)
let respawn_run ?fault_plan () =
  let sites = 3 in
  let web = Web.generate ~seed:8 ~sites ~pages_per_site:5 () in
  let obs = Obs.create () in
  let xyleme =
    Xyleme.create ~seed:21 ?fault_plan ~web ~obs
      ~parallel:
        { Parallel.domains = 2; shards = 3; axis = Parallel.By_documents }
      ()
  in
  for i = 0 to 8 do
    let text =
      Printf.sprintf
        {|subscription R%d
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://site%d.example.org/" and modified self
report when immediate|}
        i (i mod sites)
    in
    match Xyleme.subscribe xyleme ~owner:(Printf.sprintf "u%d" i) ~text with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Manager.error_to_string e)
  done;
  let notifs = ref [] in
  Mqp.on_batch (Xyleme.mqp xyleme) (fun alert matched ->
      List.iter
        (fun id ->
          notifs :=
            Printf.sprintf "%d|%s|%s" id alert.Mqp.url alert.Mqp.payload
            :: !notifs)
        matched);
  let ingested = ref 0 in
  for _round = 1 to 4 do
    let docs =
      List.filter_map
        (fun url ->
          match Web.fetch web ~url with
          | Some content ->
              let kind =
                match Web.kind_of web ~url with
                | Some Web.Xml_page -> Loader.Xml
                | Some Web.Html_page -> Loader.Html
                | None -> Loader.Auto
              in
              Some
                { Xyleme.bd_url = url; bd_content = Some content;
                  bd_kind = kind; bd_trace = None; bd_birth = None }
          | None -> None)
        (Web.urls web)
    in
    ingested := !ingested + List.length docs;
    Xyleme.ingest_batch xyleme docs;
    Clock.advance (Xyleme.clock xyleme) 3600.;
    ignore (Web.evolve web ~elapsed:3600.)
  done;
  ( List.sort compare !notifs,
    !ingested,
    Xyleme.stats xyleme,
    Fault.injected (Xyleme.faults xyleme) "worker",
    Obs.snapshot obs )

let test_distributed_worker_respawn () =
  let base_notifs, _, base_stats, _, _ = respawn_run () in
  let notifs, ingested, stats, injected, snap =
    respawn_run ~fault_plan:[ ("worker", 0.15) ] ()
  in
  let fault_counter name =
    Obs.Snapshot.counter_value snap ~stage:"fault" name
  in
  let deaths = fault_counter "worker_deaths" in
  checki "every page raised an alert" ingested stats.Xyleme.alerts_sent;
  checkb "workers actually died" true (deaths > 0);
  checki "every death respawned" deaths (fault_counter "worker_respawns");
  checki "deaths match the injection count" injected deaths;
  checki "no alert lost or duplicated" base_stats.Xyleme.alerts_sent
    stats.Xyleme.alerts_sent;
  checkb "notifications produced at all" true (base_notifs <> []);
  Alcotest.(check (list string))
    "notification multiset matches the fault-free run" base_notifs notifs

(* ------------------------------------------------------------------ *)
(* End-to-end determinism (the tentpole acceptance property) *)

let subscription_text i ~sites =
  Printf.sprintf
    {|subscription S%d
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://site%d.example.org/" and modified self
report when count > 2 atmost daily|}
    i (i mod sites)

(* One faulted end-to-end run in a fresh durable directory; returns
   the rendered report stream, the fault-stage counters and the
   subscription survival facts. *)
let faulted_run ~seed () =
  with_temp_dir @@ fun dir ->
  let sites = 4 in
  let web = Web.generate ~seed ~sites ~pages_per_site:5 () in
  let sink, deliveries = Sink.memory () in
  let obs = Obs.create () in
  let xyleme =
    Xyleme.create ~seed
      ~fault_plan:[ ("fetch", 0.1); ("malformed", 0.2) ]
      ~durable_dir:dir ~sink ~web ~obs ()
  in
  let accepted = ref 0 in
  for i = 0 to 19 do
    match
      Xyleme.subscribe xyleme ~owner:(Printf.sprintf "u%d" i)
        ~text:(subscription_text i ~sites)
    with
    | Ok _ -> incr accepted
    | Error _ -> ()
  done;
  Xyleme.run xyleme ~days:7. ~step:(6. *. 3600.) ~fetch_limit:100;
  let rendered =
    List.map
      (fun d ->
        Printf.sprintf "%s|%s|%.3f|%s" d.Sink.recipient d.Sink.subscription
          d.Sink.at
          (Printer.element_to_string d.Sink.report))
      !deliveries
  in
  let snapshot = Obs.snapshot obs in
  let fault_counters =
    List.filter_map
      (fun entry ->
        match entry with
        | { Obs.Snapshot.stage = "fault"; name; value = Obs.Snapshot.Counter v } ->
            Some (name, v)
        | _ -> None)
      snapshot.Obs.Snapshot.entries
  in
  let manager = Xyleme.manager xyleme in
  ( rendered,
    fault_counters,
    !accepted,
    Manager.subscription_count manager,
    List.length (Persist.replay (Filename.concat dir "subscriptions.log")) )

let test_e2e_deterministic_and_lossless () =
  let reports_a, faults_a, accepted_a, live_a, persisted_a =
    faulted_run ~seed:5 ()
  in
  let reports_b, faults_b, accepted_b, live_b, persisted_b =
    faulted_run ~seed:5 ()
  in
  (* same seed + same spec: byte-identical reports, equal counters *)
  checki "same number of reports" (List.length reports_a) (List.length reports_b);
  List.iter2 (fun a b -> checks "report identical" a b) reports_a reports_b;
  checkb "fault counters identical" true (faults_a = faults_b);
  checkb "faults actually fired" true
    (List.assoc "fetch_injected" faults_a > 0
    && List.assoc "malformed_injected" faults_a > 0);
  checkb "malformed documents quarantined, not fatal" true
    (List.assoc "quarantined" faults_a > 0);
  (* no subscription lost to the faults *)
  checki "accepted = live" accepted_a live_a;
  checki "accepted = persisted" accepted_a persisted_a;
  checki "run B agrees" accepted_b live_b;
  checki "run B persisted" accepted_b persisted_b;
  checkb "reports were produced at all" true (reports_a <> [])

let test_e2e_seed_changes_schedule () =
  let reports_a, faults_a, _, _, _ = faulted_run ~seed:5 () in
  let reports_b, faults_b, _, _, _ = faulted_run ~seed:6 () in
  checkb "different seed, different run" true
    (reports_a <> reports_b || faults_a <> faults_b)

(* ------------------------------------------------------------------ *)
(* Whole-system durability: checkpoint + WAL warm restart, proven by
   kill-at-any-point crash testing.  The scheme: run the same
   configuration (a) uninterrupted and (b) killed at the K-th crash
   point then restored and resumed — final warehouse, subscription set
   and (deduped) report ledger must be identical. *)

module Durable = Xy_durable.Durable
module Codec = Xy_util.Codec
module Reporter = Xy_reporter.Reporter

let d_seed = 11
let d_sites = 4
let d_subs = 10
let d_days = 3.
let d_step = 6. *. 3600.
let d_web () = Web.generate ~seed:d_seed ~sites:d_sites ~pages_per_site:6 ()
let d_ledger_sink dir = Sink.ledger ~path:(Filename.concat dir "reports.log") ()

let d_subscribe x =
  for i = 0 to d_subs - 1 do
    let text =
      Printf.sprintf
        {|subscription D%d
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://site%d.example.org/" and modified self
report when count > 2 atmost daily|}
        i (i mod d_sites)
    in
    match Xyleme.subscribe x ~owner:(Printf.sprintf "u%d" i) ~text with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "subscribe D%d: %s" i (Manager.error_to_string e)
  done

let d_run ?checkpoint_every x =
  Xyleme.run ?checkpoint_every x ~days:d_days ~step:d_step ~fetch_limit:200

(* url + version + content signature of every stored document *)
let store_fingerprint x =
  let out = ref [] in
  Xy_warehouse.Store.iter
    (fun e ->
      let m = e.Xy_warehouse.Store.meta in
      out :=
        Printf.sprintf "%s v%d %s" m.Xy_warehouse.Meta.url
          m.Xy_warehouse.Meta.version m.Xy_warehouse.Meta.signature
        :: !out)
    (Xyleme.store x);
  List.sort compare !out

let store_urls x =
  let out = ref [] in
  Xy_warehouse.Store.iter
    (fun e -> out := e.Xy_warehouse.Store.meta.Xy_warehouse.Meta.url :: !out)
    (Xyleme.store x);
  List.sort compare !out

let subscription_set x =
  List.sort compare (Manager.subscription_names (Xyleme.manager x))

(* The delivery ledger, deduped by sequence number (last entry wins:
   re-deliveries append after the original).  The raw count minus the
   deduped count is exactly the number of at-least-once re-sends. *)
let dedup_ledger dir =
  let entries, tail = Sink.read_ledger (Filename.concat dir "reports.log") in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      Hashtbl.replace tbl e.Sink.l_seq
        (e.Sink.l_recipient, e.Sink.l_subscription, e.Sink.l_report))
    entries;
  let deduped =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  (deduped, List.length entries, tail)

let d_baseline dir =
  let x =
    Xyleme.create ~seed:d_seed ~web:(d_web ()) ~sink:(d_ledger_sink dir)
      ~durable_dir:dir ()
  in
  d_subscribe x;
  d_run x;
  x

(* The kill-at-every-point matrix, parameterised over the durable
   configuration.  [sync_every] tunes group commit for the killed
   runs — the baseline always uses the default, so convergence across
   configurations is itself part of the contract.  Kills are sampled
   densely over [dense_from, dense_to] and strided beyond it.  Returns
   the labels of the boundaries killed at. *)
let crash_matrix ?sync_every ?(checkpoint_every = 2)
    ?(dense_from = 1) ~dense_to ~stride () =
  with_temp_dir @@ fun base_dir ->
  let x0 = d_baseline base_dir in
  let fp0 = store_fingerprint x0 in
  let subs0 = subscription_set x0 in
  let led0, _, tail0 = dedup_ledger base_dir in
  checkb "baseline ledger clean" true (tail0 = Record_log.Clean);
  checkb "baseline produced reports" true (led0 <> []);
  let stats0 = Xyleme.stats x0 in
  let crash_labels = ref [] in
  let k = ref dense_from in
  let finished = ref false in
  while not !finished do
    with_temp_dir (fun dir ->
        let x =
          Xyleme.create ~seed:d_seed ~web:(d_web ()) ~sink:(d_ledger_sink dir)
            ~durable_dir:dir ?sync_every ()
        in
        d_subscribe x;
        Fault.arm_after (Xyleme.faults x) "crash" !k;
        match d_run ~checkpoint_every x with
        | () ->
            (* the fuse outlived the run: every crash point is covered *)
            finished := true
        | exception Fault.Crash label -> (
            crash_labels := label :: !crash_labels;
            match
              Xyleme.restore ~seed:d_seed ~web:(d_web ())
                ~sink:(d_ledger_sink dir) ~dir ?sync_every ()
            with
            | Error e -> Alcotest.failf "K=%d: restore failed: %s" !k e
            | Ok (x', _info) ->
                d_run x';
                checkb
                  (Printf.sprintf "K=%d (%s): warehouse equivalent" !k label)
                  true
                  (store_fingerprint x' = fp0);
                checkb
                  (Printf.sprintf "K=%d: subscriptions intact" !k)
                  true
                  (subscription_set x' = subs0);
                let led, _raw, tail = dedup_ledger dir in
                checkb
                  (Printf.sprintf "K=%d: ledger tail clean" !k)
                  true (tail = Record_log.Clean);
                checkb
                  (Printf.sprintf "K=%d: reports equivalent after dedup" !k)
                  true (led = led0);
                let s = Xyleme.stats x' in
                checki
                  (Printf.sprintf "K=%d: alerts equivalent" !k)
                  stats0.Xyleme.alerts_sent s.Xyleme.alerts_sent;
                checki
                  (Printf.sprintf "K=%d: notifications equivalent" !k)
                  stats0.Xyleme.notifications s.Xyleme.notifications));
    k := if !k < dense_to then !k + 1 else !k + stride
  done;
  checkb "matrix reached the end of the run" true (!k > dense_to);
  !crash_labels

let kinds_of labels =
  List.sort_uniq compare
    (List.map (fun l -> List.hd (String.split_on_char ':' l)) labels)

let test_crash_matrix () =
  (* dense over the first step's boundaries (every fetch and ingest of
     the initial crawl), then strided over the rest of the run *)
  let labels = crash_matrix ~dense_to:40 ~stride:7 () in
  let kinds = kinds_of labels in
  List.iter
    (fun kind ->
      checkb (Printf.sprintf "boundary kind %s exercised" kind) true
        (List.mem kind kinds))
    [ "advance"; "crawl-start"; "fetch"; "ingest"; "step-end" ]

(* The same matrix under an aggressive durable configuration: group
   commit spanning several transactions, a checkpoint every step.  The
   dense window is aimed past the initial crawl so kills land *inside*
   the checkpoint machinery itself (carry-forward construction, the
   snapshot/WAL/manifest commit windows) and inside un-synced
   batches. *)
let test_crash_matrix_group_commit () =
  let labels =
    crash_matrix ~sync_every:3 ~checkpoint_every:1 ~dense_from:45
      ~dense_to:130 ~stride:9 ()
  in
  checkb "durable boundaries exercised" true
    (List.mem "durable" (kinds_of labels));
  List.iter
    (fun label ->
      checkb (Printf.sprintf "killed at %s" label) true
        (List.mem label labels))
    [
      "durable:checkpoint-begin"; "durable:carry-forward";
      "durable:snapshot-written"; "durable:wal-created";
      "durable:manifest-committed";
    ]

(* A crash can also leave the WAL itself torn mid-record.  At the scan
   layer, exhaustively: every possible truncation yields a prefix of
   the committed transactions and is diagnosed Clean or Torn — never
   Corrupt, never garbage ops. *)
let test_wal_truncate_every_offset () =
  with_temp @@ fun path ->
  let txns =
    List.init 12 (fun i ->
        List.init
          ((i mod 3) + 1)
          (fun j ->
            {
              Durable.stage = Printf.sprintf "s%d" (j mod 4);
              payload =
                Printf.sprintf "op %d.%d\nwith a newline and \x00 byte" i j;
            }))
  in
  let oc = open_out_bin path in
  List.iter (Durable.Wal.append_txn oc) txns;
  close_out oc;
  let full = In_channel.with_open_bin path In_channel.input_all in
  let is_prefix got =
    List.length got <= List.length txns
    && List.for_all2
         (fun a b -> a = b)
         got
         (List.filteri (fun i _ -> i < List.length got) txns)
  in
  for len = 0 to String.length full do
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (String.sub full 0 len));
    let got, tail = Durable.Wal.scan path in
    checkb
      (Printf.sprintf "truncate@%d: prefix of committed txns" len)
      true (is_prefix got);
    checkb
      (Printf.sprintf "truncate@%d: never diagnosed corrupt" len)
      true (tail <> Durable.Corrupt);
    if len = String.length full then begin
      checki "full file: all txns" (List.length txns) (List.length got);
      checkb "full file: clean" true (tail = Durable.Clean)
    end
  done

(* And at the system layer: kill a run mid-flight, truncate its WAL at
   sampled offsets (dense near the tail, strided elsewhere), restore
   and resume.  Committed-but-truncated work is lost, but nothing is
   ever lost *permanently*: the resumed crawl re-fetches and the final
   document set matches the uninterrupted run. *)
let test_wal_truncation_restore_no_loss () =
  with_temp_dir @@ fun base_dir ->
  with_temp_dir @@ fun template ->
  let x0 = d_baseline base_dir in
  let urls0 = store_urls x0 in
  let subs0 = subscription_set x0 in
  let xt =
    Xyleme.create ~seed:d_seed ~web:(d_web ()) ~sink:(d_ledger_sink template)
      ~durable_dir:template ()
  in
  d_subscribe xt;
  Fault.arm_after (Xyleme.faults xt) "crash" 60;
  (try d_run xt with Fault.Crash _ -> ());
  let wal_path = Filename.concat template "gen-0.wal" in
  checkb "template has a WAL" true (Sys.file_exists wal_path);
  let wal = In_channel.with_open_bin wal_path In_channel.input_all in
  let size = String.length wal in
  checkb "WAL is non-trivial" true (size > 1000);
  let copy_file src dst =
    Out_channel.with_open_bin dst (fun oc ->
        Out_channel.output_string oc
          (In_channel.with_open_bin src In_channel.input_all))
  in
  let offsets = ref [] in
  let stride = max 1 (size / 48) in
  let o = ref 0 in
  while !o < size - 120 do
    offsets := !o :: !offsets;
    o := !o + stride
  done;
  for p = max 0 (size - 120) to size do
    offsets := p :: !offsets
  done;
  List.iter
    (fun len ->
      with_temp_dir (fun dir ->
          List.iter
            (fun f ->
              (* gen-0 has no snapshot file (the initial state is
                 empty) and the ledger only exists once a report was
                 delivered *)
              if Sys.file_exists (Filename.concat template f) then
                copy_file (Filename.concat template f) (Filename.concat dir f))
            [ "MANIFEST"; "gen-0.snap"; "subscriptions.log"; "reports.log" ];
          Out_channel.with_open_bin (Filename.concat dir "gen-0.wal")
            (fun oc -> Out_channel.output_string oc (String.sub wal 0 len));
          match
            Xyleme.restore ~seed:d_seed ~web:(d_web ())
              ~sink:(d_ledger_sink dir) ~dir ()
          with
          | Error e -> Alcotest.failf "truncate@%d: restore failed: %s" len e
          | Ok (x, _info) ->
              d_run x;
              checkb
                (Printf.sprintf "truncate@%d: subscriptions intact" len)
                true
                (subscription_set x = subs0);
              checkb
                (Printf.sprintf "truncate@%d: no document lost" len)
                true (store_urls x = urls0);
              let _, _, tail = dedup_ledger dir in
              checkb
                (Printf.sprintf "truncate@%d: ledger readable" len)
                true (tail <> Record_log.Corrupt)))
    !offsets

(* Restoring a *cleanly finished* durable run is a no-op resume. *)
let test_restore_completed_run () =
  with_temp_dir @@ fun dir ->
  let x0 = d_baseline dir in
  let fp0 = store_fingerprint x0 in
  match Xyleme.restore ~seed:d_seed ~web:(d_web ()) ~dir () with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok (x, info) ->
      checki "all steps already done" (Xyleme.steps_done x0)
        (Xyleme.steps_done x);
      d_run x;
      checkb "state unchanged by no-op resume" true (store_fingerprint x = fp0);
      checki "nothing pending" 0 info.Xyleme.redelivered_reports

let test_restore_refuses_garbage () =
  with_temp_dir @@ fun dir ->
  (match Xyleme.restore ~dir () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "restored from an empty directory");
  ignore (Durable.open_fresh dir);
  Out_channel.with_open_bin (Filename.concat dir "gen-0.snap") (fun oc ->
      Out_channel.output_string oc "S system 4 deadbeefdeadbeef\njunk\n");
  match Xyleme.restore ~dir () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "restored from a corrupt snapshot"

(* The at-least-once protocol in isolation: a journaled delivery
   intent (a recipient of an "f" op) with no ack is re-sent by
   deliver_pending with its original sequence number; acked intents
   are not. *)
let test_reporter_redelivers_unacked () =
  let clock = Clock.create () in
  let sink, deliveries = Sink.memory () in
  let reporter = Reporter.create ~clock ~sink () in
  let render (e : Xy_xml.Types.element) = Printer.element_to_string e in
  let report = Xy_xml.Types.(element "Report" [ el "Body" [] ]) in
  let intent seq =
    let buf = Buffer.create 64 in
    Codec.string buf "f";
    Codec.string buf "S";
    Codec.float buf 12.5;
    Codec.string buf (render report);
    Codec.list buf
      (fun buf seq ->
        Codec.int buf seq;
        Codec.string buf (Printf.sprintf "user%d" seq))
      [ seq ];
    Buffer.contents buf
  in
  Reporter.apply_op reporter (intent 3);
  Reporter.apply_op reporter (intent 7);
  (let buf = Buffer.create 8 in
   Codec.string buf "A";
   Codec.int buf 3;
   Reporter.apply_op reporter (Buffer.contents buf));
  checki "one unacked intent" 1 (Reporter.pending_count reporter);
  checki "one re-delivery" 1 (Reporter.deliver_pending reporter);
  (match !deliveries with
  | [ d ] ->
      checki "original seq preserved" 7 d.Sink.seq;
      checks "original recipient" "user7" d.Sink.recipient;
      checks "original report" (render report) (render d.Sink.report)
  | ds -> Alcotest.failf "expected 1 delivery, got %d" (List.length ds));
  checki "nothing pending afterwards" 0 (Reporter.pending_count reporter);
  checki "idempotent" 0 (Reporter.deliver_pending reporter)

(* Atomic directory publication: a re-delivery of the same sequence
   number overwrites the same file and never duplicates the index
   entry — the web-published report set is idempotent under
   at-least-once delivery. *)
let test_directory_sink_idempotent_redelivery () =
  with_temp_dir @@ fun root ->
  let sink = Sink.directory ~root () in
  let report = Xy_xml.Types.(element "Report" [ el "Body" [] ]) in
  let printed = lazy (Xy_xml.Printer.element_to_string report) in
  let d seq =
    { Sink.seq; recipient = "r"; subscription = "S"; report; printed; at = 1. }
  in
  sink.Sink.deliver (d 1);
  sink.Sink.deliver (d 2);
  sink.Sink.deliver (d 1);
  (* the re-delivery *)
  let dir = Filename.concat root "S" in
  let index =
    Parser.parse_element
      (In_channel.with_open_bin (Filename.concat dir "index.xml")
         In_channel.input_all)
  in
  checki "two index entries despite three deliveries" 2
    (List.length (Xy_xml.Types.children_elements index));
  checkb "no stray temp file" true
    (Array.for_all
       (fun f -> not (Filename.check_suffix f ".tmp"))
       (Sys.readdir dir))

(* Unsubscribe must not leave dangling cross-stage state: the boost
   ceiling its refresh statement imposed on the fetch queue is lifted,
   and what the *remaining* subscriptions demand is re-asserted. *)
let test_unsubscribe_resets_refresh_ceiling () =
  let web = Web.generate ~seed:3 ~sites:2 ~pages_per_site:4 () in
  let x = Xyleme.create ~seed:3 ~web () in
  let url =
    List.find
      (fun u -> Web.kind_of web ~url:u = Some Web.Xml_page)
      (Web.urls web)
  in
  let q = Xyleme.queue x in
  let ceiling () =
    match List.find_opt (fun v -> v.Queue.v_url = url) (Queue.view q) with
    | Some v -> v.Queue.v_ceiling
    | None -> Alcotest.fail "url not tracked by the queue"
  in
  let subscribe name freq =
    let text =
      Printf.sprintf
        {|subscription %s
monitoring
select <UpdatedPage url=URL/>
where URL extends "%s" and modified self
report when immediate
refresh "%s" %s|}
        name (String.sub url 0 24) url freq
    in
    match Xyleme.subscribe x ~owner:"o" ~text with
    | Ok n -> n
    | Error e -> Alcotest.failf "subscribe %s: %s" name (Manager.error_to_string e)
  in
  let fast = subscribe "Fast" "hourly" in
  let slow = subscribe "Slow" "daily" in
  Alcotest.(check (float 1.)) "both live: hourly ceiling" 3600. (ceiling ());
  (match Xyleme.unsubscribe x ~name:fast with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unsubscribe: %s" (Manager.error_to_string e));
  Alcotest.(check (float 1.)) "fast gone: the daily demand re-asserts" 86400.
    (ceiling ());
  (match Xyleme.unsubscribe x ~name:slow with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unsubscribe: %s" (Manager.error_to_string e));
  checkb "no subscription left: ceiling fully lifted" true
    (ceiling () > 7. *. 86400.)

(* An update withdraws the replaced text's refresh demand before the
   new text (and every other survivor) re-asserts its own: dropping the
   statement, or relaxing it, must lift the ceiling at once rather than
   leave the old one in force until an unsubscribe. *)
let test_update_resets_refresh_ceiling () =
  let web = Web.generate ~seed:3 ~sites:2 ~pages_per_site:4 () in
  let x = Xyleme.create ~seed:3 ~web () in
  let url =
    List.find
      (fun u -> Web.kind_of web ~url:u = Some Web.Xml_page)
      (Web.urls web)
  in
  let q = Xyleme.queue x in
  let ceiling () =
    match List.find_opt (fun v -> v.Queue.v_url = url) (Queue.view q) with
    | Some v -> v.Queue.v_ceiling
    | None -> Alcotest.fail "url not tracked by the queue"
  in
  let text name refresh =
    Printf.sprintf
      {|subscription %s
monitoring
select <UpdatedPage url=URL/>
where URL extends "%s" and modified self
report when immediate%s|}
      name (String.sub url 0 24) refresh
  in
  let refresh freq = Printf.sprintf "\nrefresh \"%s\" %s" url freq in
  let update name body =
    match Xyleme.update x ~name ~owner:"o" ~text:(text name body) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "update %s: %s" name (Manager.error_to_string e)
  in
  (match Xyleme.subscribe x ~owner:"o" ~text:(text "Watch" (refresh "hourly")) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "subscribe: %s" (Manager.error_to_string e));
  Alcotest.(check (float 1.)) "hourly ceiling" 3600. (ceiling ());
  update "Watch" (refresh "weekly");
  Alcotest.(check (float 1.)) "relaxed to weekly" 604800. (ceiling ());
  update "Watch" "";
  checkb "statement dropped: ceiling fully lifted" true
    (ceiling () > 7. *. 86400.);
  update "Watch" (refresh "hourly");
  Alcotest.(check (float 1.)) "tightened again" 3600. (ceiling ());
  (match Xyleme.subscribe x ~owner:"o" ~text:(text "Daily" (refresh "daily")) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "subscribe: %s" (Manager.error_to_string e));
  update "Watch" "";
  Alcotest.(check (float 1.)) "the other subscription's demand survives" 86400.
    (ceiling ())

let gen_wal_op =
  QCheck.Gen.(
    map2
      (fun stage payload -> { Durable.stage; payload })
      (oneofl [ "queue"; "crawler"; "reporter"; "system" ])
      (string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 40)))

let qcheck_wal_roundtrip =
  QCheck.Test.make ~name:"wal: random transactions round-trip" ~count:100
    QCheck.(make Gen.(list_size (0 -- 10) (list_size (1 -- 5) gen_wal_op)))
    (fun txns ->
      with_temp @@ fun path ->
      let oc = open_out_bin path in
      List.iter (Durable.Wal.append_txn oc) txns;
      close_out oc;
      let got, tail = Durable.Wal.scan path in
      tail = Durable.Clean && got = List.filter (fun t -> t <> []) txns)

let qcheck_wal_truncation =
  QCheck.Test.make
    ~name:"wal truncated anywhere: prefix of txns, never Corrupt" ~count:100
    QCheck.(
      make Gen.(pair (list_size (1 -- 8) (list_size (1 -- 4) gen_wal_op)) (0 -- 1_000_000)))
    (fun (txns, cut_raw) ->
      with_temp @@ fun path ->
      let oc = open_out_bin path in
      List.iter (Durable.Wal.append_txn oc) txns;
      close_out oc;
      let full = In_channel.with_open_bin path In_channel.input_all in
      let cut = cut_raw mod (String.length full + 1) in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub full 0 cut));
      let got, tail = Durable.Wal.scan path in
      tail <> Durable.Corrupt
      && got = List.filteri (fun i _ -> i < List.length got) txns)

(* Every stage's snapshot codec survives an encode → decode → encode
   cycle after a real, faulted run — the property the warm restart
   stands on. *)
let test_snapshot_sections_roundtrip () =
  with_temp_dir @@ fun dir ->
  let x =
    Xyleme.create ~seed:d_seed ~web:(d_web ()) ~sink:(d_ledger_sink dir)
      ~durable_dir:dir ()
  in
  d_subscribe x;
  d_run x;
  ignore (Xyleme.checkpoint x);
  let snap_path =
    Filename.concat dir
      (Printf.sprintf "gen-%d.snap"
         (match Xyleme.restore ~seed:d_seed ~web:(d_web ()) ~dir () with
         | Ok (x', _) ->
             (* the post-restore checkpoint bumped the generation *)
             ignore (Xyleme.checkpoint x');
             3
         | Error e -> Alcotest.failf "restore: %s" e))
  in
  checkb "snapshot written" true (Sys.file_exists snap_path);
  match Durable.Snapshot.load snap_path with
  | Error e -> Alcotest.failf "snapshot load: %s" e
  | Ok sections ->
      List.iter
        (fun stage ->
          checkb (Printf.sprintf "section %s present" stage) true
            (List.mem_assoc stage sections))
        [ "system"; "fault"; "web"; "warehouse"; "queue"; "crawler";
          "trigger"; "reporter" ]

(* ------------------------------------------------------------------ *)
(* Group commit and checkpoints (Durable level) *)

let d_config ?(sync_every = 1) () = { Durable.sync_every }

(* A kill simulated from inside a durable fuse. *)
exception Killed

let test_group_commit_batch_loss () =
  with_temp_dir @@ fun dir ->
  let t = Durable.open_fresh ~config:(d_config ~sync_every:100 ()) dir in
  let txn i =
    Durable.journal t ~stage:"s" (Printf.sprintf "op%d" i);
    Durable.commit t
  in
  for i = 1 to 5 do
    txn i
  done;
  checki "small batch: nothing synced yet" 0 (Durable.syncs t);
  Durable.barrier t;
  checki "barrier issued one sync" 1 (Durable.syncs t);
  for i = 6 to 9 do
    txn i
  done;
  (* the kill: the un-synced batch evaporates with process memory *)
  Durable.discard t;
  let txns, tail = Durable.Wal.scan (Filename.concat dir "gen-0.wal") in
  checkb "tail clean" true (tail = Durable.Clean);
  checki "exactly the synced batch survived" 5 (List.length txns);
  List.iteri
    (fun i ops ->
      match ops with
      | [ { Durable.stage = "s"; payload } ] ->
          checks "synced op content" (Printf.sprintf "op%d" (i + 1)) payload
      | _ -> Alcotest.fail "unexpected transaction shape")
    txns

(* Kill inside every window of the checkpoint commit sequence; each
   must leave a directory that restores to the pre-kill state (the
   manifest names whichever generation is complete). *)
let test_kill_in_checkpoint_windows () =
  List.iter
    (fun kill_label ->
      with_temp_dir @@ fun dir ->
      let config = d_config () in
      let t = Durable.open_fresh ~config dir in
      let model = Hashtbl.create 4 in
      Hashtbl.replace model "a" "a1";
      Hashtbl.replace model "b" "b1";
      let snapshot =
        [ ("a", fun () -> [ Hashtbl.find model "a" ]);
          ("b", fun () -> [ Hashtbl.find model "b" ]) ]
      in
      Durable.journal t ~stage:"a" "a1";
      Durable.journal t ~stage:"b" "b1";
      Durable.commit t;
      Durable.checkpoint t ~snapshot;
      (* mutate only "a", then die inside the next checkpoint *)
      Hashtbl.replace model "a" "a2";
      Durable.journal t ~stage:"a" "a2";
      Durable.commit t;
      Durable.set_fuse t (fun l -> if l = kill_label then raise Killed);
      (match Durable.checkpoint t ~snapshot with
      | () -> Alcotest.failf "%s: fuse did not fire" kill_label
      | exception Killed -> ());
      match Durable.open_existing ~config dir with
      | None -> Alcotest.failf "%s: no manifest after the kill" kill_label
      | Some t' -> (
          match Durable.load_latest t' with
          | Error e -> Alcotest.failf "%s: load failed: %s" kill_label e
          | Ok (sections, txns, tail) ->
              checkb
                (kill_label ^ ": tail not corrupt")
                true (tail <> Durable.Corrupt);
              (* sections, then WAL ops, last-writer-wins *)
              let state = Hashtbl.create 4 in
              List.iter (fun (s, p) -> Hashtbl.replace state s p) sections;
              List.iter
                (List.iter (fun { Durable.stage; payload } ->
                     Hashtbl.replace state stage payload))
                txns;
              checks (kill_label ^ ": a recovered") "a2"
                (Hashtbl.find state "a");
              checks (kill_label ^ ": b recovered") "b1"
                (Hashtbl.find state "b")))
    [
      "checkpoint-begin"; "snapshot-written"; "wal-created";
      "manifest-committed";
    ]

(* A stage can change without journaling an op (the web evolves
   under the system stage's advance op, the metrics move under every
   transaction): every checkpoint re-encodes it, so a restore never
   reads an older checkpoint's payload. *)
let test_unjournaled_change_reencoded () =
  with_temp_dir @@ fun dir ->
  let config = d_config () in
  let t = Durable.open_fresh ~config dir in
  let model = Hashtbl.create 2 in
  Hashtbl.replace model "a" "a1";
  Hashtbl.replace model "b" "b1";
  let snapshot =
    [ ("a", fun () -> [ Hashtbl.find model "a" ]);
      ("b", fun () -> [ Hashtbl.find model "b" ]) ]
  in
  Durable.journal t ~stage:"a" "a1";
  Durable.commit t;
  Durable.checkpoint t ~snapshot;
  Hashtbl.replace model "b" "b2";
  Durable.checkpoint t ~snapshot;
  match Durable.open_existing ~config dir with
  | None -> Alcotest.fail "no manifest"
  | Some t' -> (
      match Durable.load_latest t' with
      | Error e -> Alcotest.fail e
      | Ok (sections, _, _) ->
          checks "a unchanged" "a1" (List.assoc "a" sections);
          checks "b re-encoded" "b2" (List.assoc "b" sections))

let test_open_fresh_wipes_orphans () =
  with_temp_dir @@ fun dir ->
  let config = d_config () in
  ignore (Durable.open_fresh ~config dir);
  (* what killed checkpoints, rotations and compactions can leave *)
  let plant name =
    Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
        Out_channel.output_string oc "stale")
  in
  List.iter plant
    [
      "gen-3.wal"; "gen-3.wal.7"; "gen-5.snap"; "gen-6.snap.tmp";
      "MANIFEST.tmp"; "subscriptions.log"; "subscriptions.log.compact";
    ];
  let t = Durable.open_fresh ~config dir in
  checki "generation reset" 0 (Durable.generation t);
  let left = List.sort compare (Array.to_list (Sys.readdir dir)) in
  checkb "only the manifest and the fresh WAL remain" true
    (left = [ "MANIFEST"; "gen-0.wal" ])

(* Random dirty interleavings: each plan is a list of checkpoints, each
   preceded by a few (stage, new payload) mutations. *)
let cf_stages = [ "alpha"; "beta"; "gamma"; "delta" ]

let gen_dirty_plan =
  QCheck.Gen.(
    list_size (1 -- 6)
      (list_size (0 -- 4)
         (pair (oneofl cf_stages) (string_size ~gen:(char_range 'a' 'z') (1 -- 12)))))

(* ------------------------------------------------------------------ *)
(* WAL-carried delta sections *)

(* The full life of a delta chain: a WAL-carried stage checkpoints as
   [Delta base] while its op bytes stay under the base payload, the
   chain's WAL generations are retained on disk, restore replays base
   payload + ops exactly, and outgrowing the base ends the chain with
   a fresh inline payload (releasing the retired WALs). *)
let test_delta_section_lifecycle () =
  with_temp_dir @@ fun dir ->
  let config = d_config () in
  let t = Durable.open_fresh ~config dir in
  Durable.set_wal_carried t [ "big" ];
  let base = String.make 256 'B' in
  let model = ref base in
  let snapshot = [ ("big", fun () -> [ !model ]); ("small", fun () -> [ "sv" ]) ] in
  Durable.journal t ~stage:"big" "seed";
  Durable.journal t ~stage:"small" "seed";
  Durable.commit t;
  Durable.checkpoint t ~snapshot;
  (* gen 1: no base yet, both inline *)
  Durable.journal t ~stage:"big" "d1";
  Durable.commit t;
  model := !model ^ "d1";
  Durable.checkpoint t ~snapshot;
  (* gen 2: big is WAL-carried with a base → delta; small inline *)
  (match Durable.Snapshot.load (Filename.concat dir "gen-2.snap") with
  | Error e -> Alcotest.fail e
  | Ok sections ->
      checkb "big is a delta on its gen-1 base" true
        (List.assoc "big" sections = Durable.Delta 1);
      checkb "small written inline" true
        (List.assoc "small" sections = Durable.Inline "sv"));
  checkb "gen-1 WAL retained for the delta chain" true
    (Sys.file_exists (Filename.concat dir "gen-1.wal"));
  Durable.journal t ~stage:"big" "d2";
  Durable.commit t;
  model := !model ^ "d2";
  Durable.checkpoint t ~snapshot;
  (* gen 3: the chain keeps pointing at the payload generation *)
  (match Durable.Snapshot.load (Filename.concat dir "gen-3.snap") with
  | Error e -> Alcotest.fail e
  | Ok sections ->
      checkb "delta still points at gen 1, never at another delta" true
        (List.assoc "big" sections = Durable.Delta 1));
  checkb "gen-2 WAL also retained" true
    (Sys.file_exists (Filename.concat dir "gen-2.wal"));
  (* restore: base payload plus the chain's ops in commit order *)
  (match Durable.open_existing ~config dir with
  | None -> Alcotest.fail "no manifest"
  | Some t' -> (
      match Durable.load_latest t' with
      | Error e -> Alcotest.fail e
      | Ok (sections, txns, tail) ->
          checkb "tail clean" true (tail = Durable.Clean);
          checks "big resolves to its base payload" base
            (List.assoc "big" sections);
          checks "small resolves inline" "sv"
            (List.assoc "small" sections);
          let ops =
            List.concat txns
            |> List.map (fun o -> (o.Durable.stage, o.Durable.payload))
          in
          checkb "delta ops replay in commit order" true
            (ops = [ ("big", "d1"); ("big", "d2") ])));
  (* outgrow the base: the chain must end with a fresh inline *)
  Durable.journal t ~stage:"big" (String.make 300 'x');
  Durable.commit t;
  model := "rebuilt";
  Durable.checkpoint t ~snapshot;
  (match Durable.Snapshot.load (Filename.concat dir "gen-4.snap") with
  | Error e -> Alcotest.fail e
  | Ok sections ->
      checkb "op bytes outgrew the base: chain ended inline" true
        (List.assoc "big" sections = Durable.Inline "rebuilt"));
  checkb "retired chain WALs released" true
    (not (Sys.file_exists (Filename.concat dir "gen-1.wal"))
    && not (Sys.file_exists (Filename.concat dir "gen-2.wal")));
  checkb "gen-1 snapshot released with the chain" true
    (not (Sys.file_exists (Filename.concat dir "gen-1.snap")))

(* Kill inside every checkpoint window while a delta section is being
   written: whichever side of the manifest flip the kill lands on,
   base payload + replayed ops reconstruct the exact pre-kill state. *)
let test_delta_kill_windows () =
  List.iter
    (fun kill_label ->
      with_temp_dir @@ fun dir ->
      let config = d_config () in
      let t = Durable.open_fresh ~config dir in
      Durable.set_wal_carried t [ "big" ];
      let base = String.make 128 'B' in
      let snapshot =
        [ ("big", fun () -> [ base ]); ("small", fun () -> [ "sv" ]) ]
      in
      Durable.journal t ~stage:"big" "seed";
      Durable.journal t ~stage:"small" "seed";
      Durable.commit t;
      Durable.checkpoint t ~snapshot;
      Durable.journal t ~stage:"big" "d1";
      Durable.commit t;
      Durable.set_fuse t (fun l -> if l = kill_label then raise Killed);
      (match Durable.checkpoint t ~snapshot with
      | () -> Alcotest.failf "%s: fuse did not fire" kill_label
      | exception Killed -> ());
      match Durable.open_existing ~config dir with
      | None -> Alcotest.failf "%s: no manifest after the kill" kill_label
      | Some t' -> (
          match Durable.load_latest t' with
          | Error e -> Alcotest.failf "%s: load failed: %s" kill_label e
          | Ok (sections, txns, tail) ->
              checkb
                (kill_label ^ ": tail not corrupt")
                true (tail <> Durable.Corrupt);
              (* pre-flip: gen 1 inline + its WAL.  post-flip: gen 2
                 delta + retained gen-1 WAL.  Both must fold to the
                 same state. *)
              let folded =
                List.fold_left
                  (fun acc o ->
                    if o.Durable.stage = "big" then acc ^ "+" ^ o.Durable.payload
                    else acc)
                  (List.assoc "big" sections)
                  (List.concat txns)
              in
              checks (kill_label ^ ": delta chain exact") (base ^ "+d1")
                folded))
    [
      "checkpoint-begin"; "carry-forward"; "snapshot-written"; "wal-created";
      "manifest-committed";
    ]

(* Restore's closing checkpoint must keep delta sections — their WAL
   chains are exact by the set_wal_carried contract — and must not
   run the stage's encode thunk. *)
let test_delta_closing_checkpoint () =
  with_temp_dir @@ fun dir ->
  let config = d_config () in
  let t = Durable.open_fresh ~config dir in
  Durable.set_wal_carried t [ "big" ];
  let base = String.make 128 'B' in
  Durable.journal t ~stage:"big" "seed";
  Durable.commit t;
  Durable.checkpoint t ~snapshot:[ ("big", fun () -> [ base ]) ];
  Durable.journal t ~stage:"big" "d1";
  Durable.commit t;
  Durable.barrier t;
  (* the kill; a new process attaches for restore *)
  let t' = Option.get (Durable.open_existing ~config dir) in
  Durable.set_wal_carried t' [ "big" ];
  (match Durable.load_latest t' with
  | Error e -> Alcotest.fail e
  | Ok (sections, txns, _) ->
      checks "base restored" base (List.assoc "big" sections);
      checkb "pending op replayed" true
        (List.concat txns
        |> List.exists (fun o -> o.Durable.payload = "d1")));
  Durable.checkpoint t'
    ~snapshot:
      [ ("big", fun () -> Alcotest.fail "closing checkpoint ran the encode") ];
  (match Durable.Snapshot.load (Filename.concat dir "gen-2.snap") with
  | Error e -> Alcotest.fail e
  | Ok sections ->
      checkb "closing checkpoint kept the delta" true
        (List.assoc "big" sections = Durable.Delta 1));
  (* and a later restore still reconstructs exactly once *)
  let t2 = Option.get (Durable.open_existing ~config dir) in
  match Durable.load_latest t2 with
  | Error e -> Alcotest.fail e
  | Ok (sections, txns, tail) ->
      checkb "clean" true (tail <> Durable.Corrupt);
      checks "base payload" base (List.assoc "big" sections);
      let ops =
        List.concat txns
        |> List.filter (fun o -> o.Durable.stage = "big")
        |> List.map (fun o -> o.Durable.payload)
      in
      checkb "d1 replays exactly once" true (ops = [ "d1" ])

(* A chain keeps whole WAL files, so every stage's bytes in them
   count toward it: another stage's ops alone end the chain, live and
   after a restore, whose count starts at the kept files' sizes. *)
let test_delta_chain_counts_every_stage () =
  with_temp_dir @@ fun dir ->
  let config = d_config () in
  let base = String.make 256 'B' in
  let snapshot = [ ("big", fun () -> [ base ]); ("small", fun () -> [ "sv" ]) ] in
  let big gen =
    match
      Durable.Snapshot.load (Filename.concat dir (Printf.sprintf "gen-%d.snap" gen))
    with
    | Error e -> Alcotest.fail e
    | Ok sections -> List.assoc "big" sections
  in
  let journal_small t n =
    Durable.journal t ~stage:"small" (String.make n 's');
    Durable.commit t
  in
  let t = Durable.open_fresh ~config dir in
  Durable.set_wal_carried t [ "big" ];
  Durable.checkpoint t ~snapshot;
  journal_small t 100;
  Durable.checkpoint t ~snapshot;
  checkb "under the base: a delta" true (big 2 = Durable.Delta 1);
  journal_small t 200;
  Durable.checkpoint t ~snapshot;
  checkb "other stages' WAL bytes outgrew the base: inline" true
    (big 3 = Durable.Inline base);
  journal_small t 300;
  Durable.barrier t;
  let t' = Option.get (Durable.open_existing ~config dir) in
  Durable.set_wal_carried t' [ "big" ];
  (match Durable.load_latest t' with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  Durable.checkpoint t' ~snapshot;
  checkb "restored count is the kept WAL's size: inline" true
    (big 4 = Durable.Inline base)

(* Delta correctness property: over ANY dirty interleaving, restoring
   with every stage WAL-carried (deltas) yields the same applied state
   as restoring with none (inline/From only).  Payloads of 1-12 bytes
   against a 7-byte base exercise both sides of the outgrow-the-base
   threshold. *)
let qcheck_delta_equals_full =
  QCheck.Test.make
    ~name:"any dirty interleaving: delta restore state = inline restore state"
    ~count:60 (QCheck.make gen_dirty_plan)
    (fun plan ->
      let run ~carried dir =
        let config = d_config () in
        let t = Durable.open_fresh ~config dir in
        if carried then Durable.set_wal_carried t cf_stages;
        let model = Hashtbl.create 8 in
        List.iter (fun s -> Hashtbl.replace model s "initial") cf_stages;
        let snapshot =
          List.map (fun s -> (s, fun () -> [ Hashtbl.find model s ])) cf_stages
        in
        List.iter
          (fun muts ->
            List.iter
              (fun (s, v) ->
                Hashtbl.replace model s v;
                Durable.journal t ~stage:s v)
              muts;
            Durable.commit t;
            Durable.checkpoint t ~snapshot)
          plan;
        let t' = Option.get (Durable.open_existing ~config dir) in
        match Durable.load_latest t' with
        | Ok (sections, txns, Durable.Clean) ->
            let state = Hashtbl.create 8 in
            List.iter (fun (s, p) -> Hashtbl.replace state s p) sections;
            List.iter
              (List.iter (fun { Durable.stage; payload } ->
                   Hashtbl.replace state stage payload))
              txns;
            Hashtbl.fold (fun k v acc -> (k, v) :: acc) state []
            |> List.sort compare
        | Ok _ -> failwith "tail not clean after checkpoint"
        | Error e -> failwith e
      in
      with_temp_dir @@ fun d1 ->
      with_temp_dir @@ fun d2 ->
      let delta = run ~carried:true d1 in
      let inline = run ~carried:false d2 in
      delta = inline && List.length delta = List.length cf_stages)

(* The group-commit / at-least-once interlock at the system level: no
   matter where a run is killed, every report the sink ever
   acknowledged (= every ledger entry) has its delivery intent in the
   *synced* WAL — the barrier-before-ack discipline means an un-synced
   batch lost at a kill can never include an acked report. *)
let test_acked_reports_in_synced_wal () =
  let saw_reports = ref false in
  List.iter
    (fun k ->
      with_temp_dir (fun dir ->
          let x =
            Xyleme.create ~seed:d_seed ~web:(d_web ()) ~sink:(d_ledger_sink dir)
              ~durable_dir:dir ~sync_every:100_000 ()
          in
          d_subscribe x;
          Fault.arm_after (Xyleme.faults x) "crash" k;
          (match d_run x with () -> () | exception Fault.Crash _ -> ());
          let entries, _tail =
            Sink.read_ledger (Filename.concat dir "reports.log")
          in
          if entries <> [] then saw_reports := true;
          let txns, tail = Durable.Wal.scan_generation ~dir ~gen:0 in
          checkb (Printf.sprintf "K=%d: wal not corrupt" k) true
            (tail <> Durable.Corrupt);
          let intents = Hashtbl.create 16 in
          List.iter
            (List.iter (fun { Durable.stage; payload } ->
                 if stage = "reporter" then
                   let r = Codec.reader payload in
                   match Codec.read_string r with
                   | "f" ->
                       let _subscription = Codec.read_string r in
                       let _at = Codec.read_float r in
                       let _report = Codec.read_string r in
                       List.iter
                         (fun seq -> Hashtbl.replace intents seq ())
                         (Codec.read_list r (fun r ->
                              let seq = Codec.read_int r in
                              ignore (Codec.read_string r);
                              seq))
                   | _ -> ()))
            txns;
          List.iter
            (fun e ->
              checkb
                (Printf.sprintf "K=%d: acked seq %d has a synced intent" k
                   e.Sink.l_seq)
                true
                (Hashtbl.mem intents e.Sink.l_seq))
            entries))
    [ 30; 60; 90; 120; 150 ];
  checkb "some kill landed after deliveries" true !saw_reports

(* ------------------------------------------------------------------ *)
(* Subscription-log rewrites at a checkpoint *)

(* Subscription [C<i>] of the rewrite tests. *)
let compaction_text i =
  Printf.sprintf
    {|subscription C%d
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://site%d.example.org/" and modified self|}
    i (i mod d_sites)

let compaction_subscribe x i =
  match Xyleme.subscribe x ~owner:"u" ~text:(compaction_text i) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "subscribe C%d: %s" i (Manager.error_to_string e)

let compaction_update x i =
  match Xyleme.update x ~name:(Printf.sprintf "C%d" i) ~owner:"u"
          ~text:(compaction_text i)
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "update C%d: %s" i (Manager.error_to_string e)

let durable_system dir =
  Xyleme.create ~seed:d_seed ~web:(d_web ()) ~sink:(d_ledger_sink dir)
    ~durable_dir:dir ()

let restore_system dir =
  match
    Xyleme.restore ~seed:d_seed ~web:(d_web ()) ~sink:(d_ledger_sink dir) ~dir
      ()
  with
  | Ok (x, info) -> (x, info)
  | Error e -> Alcotest.failf "restore failed: %s" e

let read_file path = In_channel.with_open_bin path In_channel.input_all

let copy_dir src dst =
  Array.iter
    (fun name ->
      let path = Filename.concat src name in
      if not (Sys.is_directory path) then
        Out_channel.with_open_bin (Filename.concat dst name) (fun oc ->
            Out_channel.output_string oc (read_file path)))
    (Sys.readdir src)

let inserts_name name records =
  List.exists
    (function Persist.Insert { name = n; _ } -> n = name | Persist.Delete _ -> false)
    records

(* 20 subscriptions, re-inserted 9 times each by updates, then one
   unsubscribed: the checkpoint rewrites the log to the 19 live ones,
   and a subscribe after the swap lands in the new file. *)
let test_rewrite_at_checkpoint () =
  with_temp_dir @@ fun dir ->
  let x = durable_system dir in
  for i = 0 to 199 do
    if i < 20 then compaction_subscribe x i else compaction_update x (i mod 20)
  done;
  (match Xyleme.unsubscribe x ~name:"C0" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Manager.error_to_string e));
  let log = Filename.concat dir "subscriptions.log" in
  let before = Persist.read_all log in
  checki "dropped the superseded records" 362
    (Xyleme.checkpoint x).Xyleme.compacted_records;
  let records, tail = Persist.scan log in
  checkb "rewritten log scans clean" true (tail = Persist.Clean);
  checkb "rewritten log = what a replay installed" true
    (records = Persist.survivors before);
  checki "survivors: 19 live names" 19 (List.length records);
  checkb "deleted name stayed deleted" false (inserts_name "C0" records);
  checkb "no temp left behind" false (Sys.file_exists (log ^ ".compact"));
  (* the live handle was re-opened onto the rewritten file *)
  compaction_subscribe x 200;
  checkb "log still accepts appends after the swap" true
    (inserts_name "C200" (Persist.replay log))

(* A log that does not scan clean is never rewritten, however many of
   its records are superseded. *)
let test_rewrite_spares_damage () =
  with_temp_dir @@ fun dir ->
  let x = durable_system dir in
  for i = 0 to 49 do
    if i < 5 then compaction_subscribe x i else compaction_update x (i mod 5)
  done;
  let log = Filename.concat dir "subscriptions.log" in
  let b = Bytes.of_string (read_file log) in
  let pos = Bytes.length b / 2 in
  Bytes.set b pos (if Bytes.get b pos = 'x' then 'y' else 'x');
  Out_channel.with_open_bin log (fun oc -> Out_channel.output_bytes oc b);
  checki "nothing dropped" 0 (Xyleme.checkpoint x).Xyleme.compacted_records;
  checks "damaged log left exactly as it was" (Bytes.to_string b)
    (read_file log);
  checkb "no temp left behind" true (not (Sys.file_exists (log ^ ".compact")))

(* A restore that recovers the intact prefix of a torn log appends
   after that prefix, not behind the fragment: a subscription made
   after the restore survives the next one, and the log scans Clean. *)
let test_appends_after_a_torn_tail () =
  with_temp_dir @@ fun dir ->
  let x = durable_system dir in
  compaction_subscribe x 0;
  ignore (Xyleme.checkpoint x);
  let log = Filename.concat dir "subscriptions.log" in
  let torn = Record_log.encode (String.make 64 'w') in
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 log (fun oc ->
      Out_channel.output_string oc (String.sub torn 0 (String.length torn / 2)));
  let y, info = restore_system dir in
  checki "the first restore recovers C0" 1 info.Xyleme.subscriptions_recovered;
  compaction_subscribe y 1;
  ignore (Xyleme.checkpoint y);
  let z, info = restore_system dir in
  checki "the second restore recovers C0 and C1" 2
    info.Xyleme.subscriptions_recovered;
  checkb "C0 and C1" true (subscription_set z = [ "C0"; "C1" ]);
  checkb "the log scans Clean" true (snd (Persist.scan log) = Persist.Clean)

(* A rewrite that cannot write its temp (here a directory squats on
   it; a full disk takes the same path) leaves the log whole and
   appendable, and the checkpoint stands. *)
let test_rewrite_failure_spares_the_checkpoint () =
  with_temp_dir @@ fun dir ->
  let x = durable_system dir in
  Unix.mkdir (Filename.concat dir "subscriptions.log.compact") 0o755;
  for i = 0 to 599 do
    compaction_subscribe x i
  done;
  (* 600 superseded records, as many as the live subscriptions *)
  for i = 0 to 299 do
    compaction_update x i
  done;
  let log = Filename.concat dir "subscriptions.log" in
  let before = read_file log in
  for _ = 1 to 3 do
    ignore (Xyleme.crawl_step x ~limit:20)
  done;
  let info = Xyleme.checkpoint x in
  checki "the checkpoint committed" 1 info.Xyleme.generation;
  checki "nothing dropped" 0 info.Xyleme.compacted_records;
  checks "log left exactly as it was" before (read_file log);
  compaction_subscribe x 600;
  checki "log whole and appendable" 601 (List.length (Persist.replay log))

(* An insert-only log has nothing to drop: however large, it is never
   rewritten.  Nor is a log whose superseded records are fewer than
   its live subscriptions: one update of 600 leaves two.  300 updates
   supersede 600, and the next checkpoint drops exactly those. *)
let test_compaction_needs_superseded_records () =
  with_temp_dir @@ fun dir ->
  let x =
    Xyleme.create ~seed:d_seed ~web:(d_web ()) ~sink:(d_ledger_sink dir)
      ~durable_dir:dir ()
  in
  for i = 0 to 599 do
    compaction_subscribe x i
  done;
  let log = Filename.concat dir "subscriptions.log" in
  let inode () = (Unix.stat log).Unix.st_ino in
  checkb "log past the compaction threshold" true
    ((Unix.stat log).Unix.st_size > 64 * 1024);
  let before = inode () in
  for _ = 1 to 4 do
    ignore (Xyleme.crawl_step x ~limit:20);
    checkb "no compaction temp" false (Sys.file_exists (log ^ ".compact"))
  done;
  checkb "the log was not rewritten" true (inode () = before);
  checki "nothing compacted" 0 (Xyleme.checkpoint x).Xyleme.compacted_records;
  compaction_update x 0;
  for _ = 1 to 4 do
    ignore (Xyleme.crawl_step x ~limit:20)
  done;
  checki "one update is not worth a rewrite" 0
    (Xyleme.checkpoint x).Xyleme.compacted_records;
  checkb "the log was still not rewritten" true (inode () = before);
  for i = 1 to 299 do
    compaction_update x i
  done;
  checki "the 300 updates' 600 records dropped" 600
    (Xyleme.checkpoint x).Xyleme.compacted_records;
  checkb "the log was rewritten" true (inode () <> before);
  checki "one record per subscription left" 600
    (List.length (Persist.read_all log))

(* A rewrite killed before its rename leaves a partial temp behind:
   restore reads only the log, a fresh run's [open_fresh] removes the
   temp, and the next rewrite truncates it instead of appending. *)
let test_rewrite_killed_before_rename () =
  with_temp_dir @@ fun dir ->
  with_temp_dir @@ fun restored ->
  with_temp_dir @@ fun fresh ->
  let x = durable_system dir in
  for i = 0 to 9 do
    compaction_subscribe x i
  done;
  for i = 0 to 9 do
    compaction_update x i
  done;
  let log = Filename.concat dir "subscriptions.log" in
  let temp = log ^ ".compact" in
  let survivors = Persist.survivors (Persist.read_all log) in
  (* the first survivors written whole, the next one cut short *)
  let partial = Record_log.open_log temp in
  List.iteri
    (fun i -> function
      | Persist.Insert { name; owner; text } when i < 4 ->
          Persist.append_insert partial ~name ~owner ~text
      | _ -> ())
    survivors;
  Record_log.close partial;
  let torn = Record_log.encode (String.make 200 'w') in
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 temp (fun oc ->
      Out_channel.output_string oc (String.sub torn 0 100));
  copy_dir dir restored;
  copy_dir dir fresh;
  let y, info = restore_system restored in
  checki "restore recovered every subscription" 10
    info.Xyleme.subscriptions_recovered;
  checkb "the same subscriptions" true
    (subscription_set y = subscription_set x);
  ignore (Xy_durable.Durable.open_fresh fresh);
  checkb "open_fresh removed the temp" false
    (Sys.file_exists (Filename.concat fresh "subscriptions.log.compact"));
  checki "the next rewrite drops the 20 superseded records" 20
    (Xyleme.checkpoint x).Xyleme.compacted_records;
  checkb "no temp left behind" false (Sys.file_exists temp);
  checkb "the log holds the survivors alone" true
    (Persist.read_all log = survivors)

(* Random subscribe, unsubscribe and update sequences with
   checkpoints: after every checkpoint, the log replays to the
   survivors of what it held before (and, when rewritten, holds
   exactly those); at the end, a restore of a copy recovers the live
   system's subscriptions. *)
type sub_op = Sub of int | Unsub of int | Upd of int | Ckpt

let show_sub_op = function
  | Sub i -> Printf.sprintf "sub C%d" i
  | Unsub i -> Printf.sprintf "unsub C%d" i
  | Upd i -> Printf.sprintf "upd C%d" i
  | Ckpt -> "checkpoint"

let gen_sub_ops =
  QCheck.Gen.(
    list_size (5 -- 40)
      (frequency
         [
           (4, map (fun i -> Sub i) (0 -- 5));
           (2, map (fun i -> Unsub i) (0 -- 5));
           (3, map (fun i -> Upd i) (0 -- 5));
           (2, return Ckpt);
         ]))

let test_rewrites_keep_recovery () =
  let rewrites = ref 0 in
  let prop ops =
    with_temp_dir @@ fun dir ->
    with_temp_dir @@ fun copy ->
    let x = durable_system dir in
    let log = Filename.concat dir "subscriptions.log" in
    let checkpoint () =
      let before = Persist.read_all log in
      let dropped = (Xyleme.checkpoint x).Xyleme.compacted_records in
      if dropped > 0 then incr rewrites;
      Persist.replay log = Persist.survivors before
      && Persist.read_all log
         = if dropped > 0 then Persist.survivors before else before
    in
    let name i = Printf.sprintf "C%d" i in
    let step ok = function
      | Sub i ->
          ignore (Xyleme.subscribe x ~owner:"u" ~text:(compaction_text i));
          ok
      | Unsub i ->
          ignore (Xyleme.unsubscribe x ~name:(name i));
          ok
      | Upd i ->
          ignore
            (Xyleme.update x ~name:(name i) ~owner:"u" ~text:(compaction_text i));
          ok
      | Ckpt -> checkpoint () && ok
    in
    let ok = List.fold_left step true ops && checkpoint () in
    copy_dir dir copy;
    let y, _ = restore_system copy in
    ok && subscription_set y = subscription_set x
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 35 |])
    (QCheck.Test.make ~name:"rewrites never change what restore recovers"
       ~count:100
       (QCheck.make
          ~print:(fun ops -> String.concat "; " (List.map show_sub_op ops))
          gen_sub_ops)
       prop);
  checkb "some generated case rewrote" true (!rewrites > 0)

(* Flip the low bit of each byte of [path] in turn, calling [check]
   on every damaged copy; the file is restored afterwards. *)
let flip_every_byte path check =
  let full = In_channel.with_open_bin path In_channel.input_all in
  String.iteri
    (fun pos c ->
      let bytes = Bytes.of_string full in
      Bytes.set bytes pos (Char.chr (Char.code c lxor 0x01));
      write_bytes path (Bytes.to_string bytes);
      check pos)
    full;
  write_bytes path full

let is_prefix got written =
  List.length got <= List.length written
  && got = firstn (List.length got) written

(* One bit flipped anywhere in a durable file never yields an altered
   record: the logs read back a prefix of what was written, snapshots
   and the MANIFEST refuse to load. *)
let test_flip_subscription_log () =
  with_temp @@ fun path ->
  ignore (build_log path sample_records);
  flip_every_byte path (fun pos ->
      if not (is_prefix (fst (Persist.scan path)) sample_records) then
        Alcotest.failf "byte %d: altered subscription record read" pos)

let test_flip_ledger () =
  with_temp @@ fun path ->
  let sink = Sink.ledger ~path () in
  let report = Xy_xml.Types.(element "Report" [ el "Body" [] ]) in
  let printed = lazy (Xy_xml.Printer.element_to_string report) in
  List.iter
    (fun seq ->
      sink.Sink.deliver
        { Sink.seq; recipient = "r"; subscription = "S"; report; printed; at = 1.5 })
    [ 1; 2; 10 ];
  let written, _ = Sink.read_ledger path in
  checki "ledger written" 3 (List.length written);
  flip_every_byte path (fun pos ->
      if not (is_prefix (fst (Sink.read_ledger path)) written) then
        Alcotest.failf "byte %d: altered ledger entry read" pos)

let test_flip_wal () =
  with_temp @@ fun path ->
  let txns =
    [
      [ { Durable.stage = "queue"; payload = "op 1" } ];
      [
        { Durable.stage = "warehouse"; payload = "D\n3\nabc" };
        { Durable.stage = "system"; payload = "" };
      ];
    ]
  in
  Out_channel.with_open_bin path (fun oc ->
      List.iter (Durable.Wal.append_txn oc) txns);
  flip_every_byte path (fun pos ->
      if not (is_prefix (fst (Durable.Wal.scan path)) txns) then
        Alcotest.failf "byte %d: altered transaction read" pos)

let test_flip_snapshot () =
  with_temp @@ fun path ->
  let sections =
    [
      ("system", Durable.Inline "state\n");
      ("queue", Durable.Delta 2);
    ]
  in
  Durable.Snapshot.write path sections;
  checkb "snapshot roundtrip" true (Durable.Snapshot.load path = Ok sections);
  flip_every_byte path (fun pos ->
      match Durable.Snapshot.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "byte %d: damaged snapshot loaded" pos)

let test_flip_manifest () =
  with_temp_dir @@ fun dir ->
  let config = d_config () in
  let t = Durable.open_fresh ~config dir in
  for _ = 1 to 7 do
    Durable.checkpoint t ~snapshot:[ ("a", fun () -> [ "av" ]) ]
  done;
  flip_every_byte (Filename.concat dir "MANIFEST") (fun pos ->
      match Durable.open_existing ~config dir with
      | None -> ()
      | Some t' ->
          Alcotest.failf "byte %d: damaged MANIFEST read as generation %d" pos
            (Durable.generation t'))

(* A checkpointed run whose newest snapshot or MANIFEST is damaged:
   restore must refuse it, not start from an empty state. *)
let damaged_checkpointed_run damage =
  with_temp_dir @@ fun dir ->
  let x =
    Xyleme.create ~seed:d_seed ~web:(d_web ()) ~sink:(d_ledger_sink dir)
      ~durable_dir:dir ()
  in
  d_subscribe x;
  d_run x;
  let info = Xyleme.checkpoint x in
  damage dir
    (Filename.concat dir
       (Printf.sprintf "gen-%d.snap" info.Xyleme.generation));
  Xyleme.restore ~seed:d_seed ~web:(d_web ()) ~dir ()

let test_restore_refuses_damaged_stage_name () =
  match
    damaged_checkpointed_run (fun _ snap ->
        let bytes = In_channel.with_open_bin snap In_channel.input_all in
        let rec find i =
          if String.sub bytes i 6 = "system" then i else find (i + 1)
        in
        let b = Bytes.of_string bytes in
        let i = find 0 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
        write_bytes snap (Bytes.to_string b))
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "restored past a damaged stage name"

(* The metrics section names buckets by index: one past the layout
   is damaged state, not an exception. *)
let test_restore_refuses_bad_histogram_bucket () =
  match
    damaged_checkpointed_run (fun _ snap ->
        let sections =
          match Durable.Snapshot.load snap with
          | Ok sections -> sections
          | Error e -> Alcotest.fail e
        in
        let buf = Buffer.create 64 in
        Codec.list buf
          (fun buf bucket ->
            Codec.string buf "s";
            Codec.string buf "h";
            Codec.int buf 2;
            Codec.list buf
              (fun buf (i, c) ->
                Codec.int buf i;
                Codec.int buf c)
              [ (bucket, 1) ];
            List.iter (Codec.float buf) [ 1.; 1.; 1. ])
          [ Obs.Snapshot.buckets ];
        Durable.Snapshot.write snap
          (List.map
             (fun (stage, section) ->
               if stage = "obs" then (stage, Durable.Inline (Buffer.contents buf))
               else (stage, section))
             sections))
  with
  | Error e ->
      checkb "the error names damaged state" true
        (String.starts_with ~prefix:"damaged durable state" e)
  | Ok _ -> Alcotest.fail "restored a histogram bucket past the layout"

let test_restore_refuses_manifest_without_snapshot () =
  match damaged_checkpointed_run (fun _ snap -> Sys.remove snap) with
  | Error e ->
      checkb "the error names the MANIFEST" true
        (String.length e >= 16 && String.sub e 0 16 = "damaged MANIFEST")
  | Ok _ -> Alcotest.fail "restored a generation without its snapshot"

(* An older build rotated a generation's WAL into [gen-N.wal.1], ...
   Replaying [gen-N.wal] alone would drop the later segments' committed
   transactions and report a clean tail, so restore refuses the
   directory, whether the segment belongs to the current generation or
   to a delta section's retained base generation. *)
let test_restore_refuses_rotated_wal () =
  let rotated = ref "" in
  (match
     damaged_checkpointed_run (fun _ snap ->
         rotated := Filename.chop_suffix snap ".snap" ^ ".wal.1";
         write_bytes !rotated "")
   with
  | Error e ->
      checkb "the error names the segment" true
        (String.starts_with ~prefix:!rotated e)
  | Ok _ -> Alcotest.fail "restored a generation with a rotated WAL");
  with_temp_dir @@ fun dir ->
  let config = d_config () in
  let t = Durable.open_fresh ~config dir in
  Durable.set_wal_carried t [ "big" ];
  let snapshot = [ ("big", fun () -> [ String.make 256 'B' ]) ] in
  Durable.checkpoint t ~snapshot;
  Durable.journal t ~stage:"big" "d1";
  Durable.commit t;
  Durable.checkpoint t ~snapshot;
  checkb "gen 2 carries a delta on gen 1" true
    (Durable.Snapshot.load (Filename.concat dir "gen-2.snap")
    = Ok [ ("big", Durable.Delta 1) ]);
  let rotated = Filename.concat dir "gen-1.wal.1" in
  write_bytes rotated "";
  match Durable.open_existing ~config dir with
  | None -> Alcotest.fail "no manifest"
  | Some t' -> (
      match Durable.load_latest t' with
      | Error e ->
          checkb "the delta base's segment is named" true
            (String.starts_with ~prefix:rotated e)
      | Ok _ -> Alcotest.fail "replayed a delta base with a rotated WAL")

(* The record framing older builds wrote: an X header carrying the
   payload's byte-serial FNV-1a. *)
let older_record payload =
  Printf.sprintf "X %d %s\n%s\n" (String.length payload)
    (Xy_util.Hashing.signature payload)
    payload

let read_dir dir =
  List.map
    (fun name ->
      (name, In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all))
    (List.sort compare (Array.to_list (Sys.readdir dir)))

(* A directory written by an older build: every record file re-framed
   as it wrote them (the payloads' bytes are the same).  Restore
   refuses it by naming the format, and leaves every file as it was:
   it neither starts fresh nor restores part of it. *)
let test_restore_refuses_older_record_format () =
  with_temp_dir @@ fun dir ->
  let x = Xyleme.create ~seed:d_seed ~web:(d_web ()) ~durable_dir:dir () in
  d_subscribe x;
  d_run x;
  ignore (Xyleme.checkpoint x);
  List.iter
    (fun (name, _) ->
      let path = Filename.concat dir name in
      let records, tail = Record_log.read path ~decode:Fun.id in
      checkb (name ^ " reads clean") true (tail = Record_log.Clean);
      write_bytes path (String.concat "" (List.map older_record records)))
    (read_dir dir);
  let before = read_dir dir in
  checkb "the MANIFEST is in the older format" true
    (Record_log.older_format (Filename.concat dir "MANIFEST"));
  (match Xyleme.restore ~seed:d_seed ~web:(d_web ()) ~dir () with
  | Error e ->
      let mention = "older record format" in
      let rec names i =
        i + String.length mention <= String.length e
        && (String.sub e i (String.length mention) = mention || names (i + 1))
      in
      if not (names 0) then Alcotest.failf "error does not name the format: %s" e
  | Ok _ -> Alcotest.fail "restored a directory in the older record format");
  checkb "every file left as it was" true (read_dir dir = before)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "fault"
    [
      ( "spec",
        [
          tc "parse ok" test_spec_parse_ok;
          tc "parse errors" test_spec_parse_errors;
          tc "roundtrip" test_spec_roundtrip;
        ] );
      ( "fire",
        [
          tc "deterministic" test_fire_deterministic;
          tc "rate extremes" test_fire_rate_extremes;
          tc "counts injected" test_fire_counts_injected;
          tc "per-point streams independent" test_per_point_streams_independent;
          tc "set_rate keeps stream position" test_set_rate_keeps_stream_position;
          tc "set_rate validation" test_set_rate_validation;
          tc "none is inert" test_none_inert;
        ] );
      ( "crawler",
        [
          tc "failure enters retry path" test_crawler_failure_enters_retry_path;
          tc "exhaustion demotes, never drops" test_crawler_retry_exhaustion_demotes;
          tc "site failure accounting" test_crawler_site_accounting;
          tc "repeat offender waits longer" test_crawler_repeat_offender_waits_longer;
          tc "malformed mangles content" test_crawler_malformed_mangles_content;
        ] );
      ( "persist",
        [
          tc "truncate at every offset" test_truncate_every_offset;
          tc "ledger truncate at every offset" test_ledger_truncate_every_offset;
          tc "corrupt every payload byte" test_corrupt_every_payload_byte;
          tc "torn_write fault point" test_torn_write_fault_point;
          tc "short_write fault point" test_short_write_fault_point;
          QCheck_alcotest.to_alcotest qcheck_persist_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_persist_truncation;
        ] );
      ("distributed", [ tc "worker respawn" test_distributed_worker_respawn ]);
      ( "e2e",
        [
          tc "deterministic and lossless" test_e2e_deterministic_and_lossless;
          tc "seed changes the schedule" test_e2e_seed_changes_schedule;
        ] );
      ( "durable",
        [
          tc "wal truncate at every offset" test_wal_truncate_every_offset;
          QCheck_alcotest.to_alcotest qcheck_wal_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_wal_truncation;
          tc "group commit: a kill loses only the un-synced batch"
            test_group_commit_batch_loss;
          tc "kill inside every checkpoint window"
            test_kill_in_checkpoint_windows;
          tc "a stage changed without an op is re-encoded"
            test_unjournaled_change_reencoded;
          tc "open_fresh wipes orphaned generation files"
            test_open_fresh_wipes_orphans;
          tc "delta section lifecycle" test_delta_section_lifecycle;
          tc "delta: kill inside every checkpoint window"
            test_delta_kill_windows;
          tc "delta survives the closing checkpoint"
            test_delta_closing_checkpoint;
          tc "a delta chain counts every stage's WAL bytes"
            test_delta_chain_counts_every_stage;
          QCheck_alcotest.to_alcotest qcheck_delta_equals_full;
          tc "snapshot sections roundtrip" test_snapshot_sections_roundtrip;
          tc "restore completed run" test_restore_completed_run;
          tc "restore refuses garbage" test_restore_refuses_garbage;
          tc "restore refuses a damaged stage name"
            test_restore_refuses_damaged_stage_name;
          tc "restore refuses a histogram bucket past the layout"
            test_restore_refuses_bad_histogram_bucket;
          tc "restore refuses a MANIFEST naming a missing generation"
            test_restore_refuses_manifest_without_snapshot;
          tc "restore refuses an older build's rotated wal"
            test_restore_refuses_rotated_wal;
          tc "restore refuses an older build's record format by name"
            test_restore_refuses_older_record_format;
          tc "reporter re-delivers unacked intents"
            test_reporter_redelivers_unacked;
          tc "directory sink idempotent re-delivery"
            test_directory_sink_idempotent_redelivery;
          tc "unsubscribe resets refresh ceiling"
            test_unsubscribe_resets_refresh_ceiling;
          tc "update resets refresh ceiling"
            test_update_resets_refresh_ceiling;
        ] );
      ( "compaction",
        [
          tc "subscription log: rewritten at a checkpoint, append-safe"
            test_rewrite_at_checkpoint;
          tc "subscription log: abandons on damage" test_rewrite_spares_damage;
          tc "subscription log: appends after a torn tail survive restore"
            test_appends_after_a_torn_tail;
          tc "a failing rewrite spares the checkpoint"
            test_rewrite_failure_spares_the_checkpoint;
          tc "only superseded records start a compaction"
            test_compaction_needs_superseded_records;
          tc "a rewrite killed before its rename" test_rewrite_killed_before_rename;
          tc "rewrites never change what restore recovers"
            test_rewrites_keep_recovery;
        ] );
      ( "bit flips",
        [
          tc "subscription log" test_flip_subscription_log;
          tc "ledger" test_flip_ledger;
          tc "wal" test_flip_wal;
          tc "snapshot" test_flip_snapshot;
          tc "manifest" test_flip_manifest;
        ] );
      ( "crash",
        [
          Alcotest.test_case "kill at every point, restore, equivalence" `Slow
            test_crash_matrix;
          Alcotest.test_case "group-commit config: kill inside the checkpoint"
            `Slow test_crash_matrix_group_commit;
          Alcotest.test_case "acked reports always in the synced wal" `Slow
            test_acked_reports_in_synced_wal;
          Alcotest.test_case "wal truncation: restore, no loss" `Slow
            test_wal_truncation_restore_no_loss;
        ] );
    ]
