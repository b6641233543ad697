(* Tests for xy_submgr: WAL persistence/recovery and the subscription
   manager's lifecycle (register codes, complex events, triggers,
   reports, virtuals, teardown). *)

module Persist = Xy_submgr.Persist
module Record_log = Xy_durable.Record_log
module Manager = Xy_submgr.Manager
module Registry = Xy_events.Registry
module Mqp = Xy_core.Mqp
module Event_set = Xy_events.Event_set
module Atomic = Xy_events.Atomic
module Trigger = Xy_trigger.Trigger_engine
module Reporter = Xy_reporter.Reporter
module Sink = Xy_reporter.Sink
module Clock = Xy_util.Clock
module T = Xy_xml.Types

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let temp_path () = Filename.temp_file "xyleme" ".log"

(* ------------------------------------------------------------------ *)
(* Persist *)

let test_persist_roundtrip () =
  let path = temp_path () in
  let log = Record_log.open_log path in
  Persist.append_insert log ~name:"A" ~owner:"alice" ~text:"subscription A\n...";
  Persist.append_insert log ~name:"B" ~owner:"bob" ~text:"text with\nnewlines % and comments";
  Persist.append_delete log ~name:"A";
  Record_log.close log;
  (match Persist.replay path with
  | [ Persist.Insert { name = "B"; owner = "bob"; text } ] ->
      checks "text preserved" "text with\nnewlines % and comments" text
  | _ -> Alcotest.fail "replay");
  checki "read_all keeps everything" 3 (List.length (Persist.read_all path));
  Sys.remove path

let test_persist_reinsert_supersedes () =
  let path = temp_path () in
  let log = Record_log.open_log path in
  Persist.append_insert log ~name:"A" ~owner:"alice" ~text:"v1";
  Persist.append_delete log ~name:"A";
  Persist.append_insert log ~name:"A" ~owner:"alice" ~text:"v2";
  Record_log.close log;
  (match Persist.replay path with
  | [ Persist.Insert { name = "A"; text = "v2"; _ } ] -> ()
  | _ -> Alcotest.fail "latest insert must survive");
  Sys.remove path

let test_persist_missing_file () =
  checkb "missing file" true (Persist.replay "/nonexistent/xyleme.log" = [])

let test_persist_torn_tail_ignored () =
  let path = temp_path () in
  let log = Record_log.open_log path in
  Persist.append_insert log ~name:"A" ~owner:"alice" ~text:"good";
  Record_log.close log;
  (* Simulate a torn write: append garbage. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "R I 5 3 10 deadbeef\ntrunc";
  close_out oc;
  (match Persist.replay path with
  | [ Persist.Insert { name = "A"; _ } ] -> ()
  | _ -> Alcotest.fail "torn tail must be ignored");
  Sys.remove path

(* Rewrite a subscription log to its survivors, as a checkpoint does. *)
let compact_path path =
  let log = Record_log.open_log path in
  Fun.protect ~finally:(fun () -> Record_log.close log) @@ fun () ->
  match Persist.rewrite log with
  | Some dropped -> dropped
  | None -> Alcotest.fail "the rewrite left a clean log as it was"

let test_persist_compact () =
  let path = temp_path () in
  let log = Record_log.open_log path in
  Persist.append_insert log ~name:"A" ~owner:"a" ~text:"v1";
  Persist.append_insert log ~name:"B" ~owner:"b" ~text:"keep";
  Persist.append_delete log ~name:"A";
  Persist.append_insert log ~name:"A" ~owner:"a" ~text:"v2";
  Record_log.close log;
  let size_before = (Unix.stat path).Unix.st_size in
  let dropped = compact_path path in
  checki "dropped superseded records" 2 dropped;
  checkb "smaller" true ((Unix.stat path).Unix.st_size < size_before);
  (* Survivors unchanged, order preserved. *)
  (match Persist.replay path with
  | [ Persist.Insert { name = "B"; text = "keep"; _ };
      Persist.Insert { name = "A"; text = "v2"; _ } ] ->
      ()
  | _ -> Alcotest.fail "compacted replay");
  (* Compacting twice is a no-op. *)
  checki "idempotent" 0 (compact_path path);
  (* The compacted log remains appendable. *)
  let log = Record_log.open_log path in
  Persist.append_insert log ~name:"C" ~owner:"c" ~text:"new";
  Record_log.close log;
  checki "three after append" 3 (List.length (Persist.replay path));
  Sys.remove path

let test_persist_truncation_fuzz () =
  (* Crash injection: whatever byte the log is cut at, replay must
     never raise and must recover a prefix of the intact records. *)
  let path = temp_path () in
  let log = Record_log.open_log path in
  let full =
    List.init 10 (fun i ->
        let name = Printf.sprintf "S%d" i in
        let text = Printf.sprintf "subscription S%d\n%% body %s" i (String.make i 'x') in
        Persist.append_insert log ~name ~owner:"o" ~text;
        Persist.Insert { name; owner = "o"; text })
  in
  Record_log.close log;
  let content = In_channel.with_open_bin path In_channel.input_all in
  let total = String.length content in
  let is_prefix shorter longer =
    let rec go = function
      | [], _ -> true
      | x :: xs, y :: ys -> x = y && go (xs, ys)
      | _ :: _, [] -> false
    in
    go (shorter, longer)
  in
  let prng = Xy_util.Prng.create ~seed:55 in
  for _ = 1 to 100 do
    let cut = Xy_util.Prng.int prng (total + 1) in
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (String.sub content 0 cut));
    let recovered = Persist.read_all path in
    checkb "prefix of intact records" true (is_prefix recovered full)
  done;
  Sys.remove path

let test_persist_corrupted_record_stops_replay () =
  let path = temp_path () in
  let log = Record_log.open_log path in
  Persist.append_insert log ~name:"A" ~owner:"o" ~text:"first";
  Persist.append_insert log ~name:"B" ~owner:"o" ~text:"second";
  Record_log.close log;
  (* Flip a byte inside the second record's payload. *)
  let content = In_channel.with_open_bin path In_channel.input_all in
  let index = String.rindex content 's' in
  let corrupted = Bytes.of_string content in
  Bytes.set corrupted index 'X';
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc corrupted);
  (match Persist.replay path with
  | [ Persist.Insert { name = "A"; _ } ] -> ()
  | records ->
      Alcotest.failf "expected only the intact record, got %d" (List.length records));
  Sys.remove path

let test_persist_scan_tail_diagnosis () =
  let path = temp_path () in
  let log = Record_log.open_log path in
  Persist.append_insert log ~name:"A" ~owner:"o" ~text:"first";
  Persist.append_insert log ~name:"B" ~owner:"o" ~text:"second";
  Record_log.close log;
  let content = In_channel.with_open_bin path In_channel.input_all in
  (match Persist.scan path with
  | [ _; _ ], Persist.Clean -> ()
  | _ -> Alcotest.fail "intact log must scan Clean");
  (* Cut mid-record: the expected shape of a crash during append. *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub content 0 (String.length content - 5)));
  (match Persist.scan path with
  | [ Persist.Insert { name = "A"; _ } ], Persist.Torn -> ()
  | _ -> Alcotest.fail "short final record must scan Torn");
  (* Damage a byte in place: the record is full length but fails its
     checksum — not a torn write, and must be diagnosed as such. *)
  let corrupted = Bytes.of_string content in
  Bytes.set corrupted (String.index content 'f') 'X';
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc corrupted);
  (match Persist.scan path with
  | [], Persist.Corrupt -> ()
  | _ -> Alcotest.fail "in-place damage must scan Corrupt");
  Sys.remove path

let test_persist_compact_truncates_stale_temp () =
  let path = temp_path () in
  let log = Record_log.open_log path in
  Persist.append_insert log ~name:"A" ~owner:"o" ~text:"keep";
  Record_log.close log;
  (* A rewrite that crashed before its rename leaves a valid temp
     behind; appending to it would duplicate its records into the
     rewritten log. *)
  let stale = Record_log.open_log (path ^ ".compact") in
  Persist.append_insert stale ~name:"GHOST" ~owner:"crashed" ~text:"stale";
  Record_log.close stale;
  checki "nothing to drop" 0 (compact_path path);
  (match Persist.replay path with
  | [ Persist.Insert { name = "A"; _ } ] -> ()
  | records ->
      Alcotest.failf "stale temp leaked into the log (%d records)"
        (List.length records));
  checkb "temp renamed away" true (not (Sys.file_exists (path ^ ".compact")));
  Sys.remove path

let test_persist_compact_failure_leaves_log_intact () =
  let path = temp_path () in
  let log = Record_log.open_log path in
  Persist.append_insert log ~name:"A" ~owner:"o" ~text:"keep";
  let temp = path ^ ".compact" in
  (* A directory at the temp path makes the rewrite fail before it
     can write anything. *)
  Unix.mkdir temp 0o755;
  let before = In_channel.with_open_bin path In_channel.input_all in
  (match Persist.rewrite log with
  | None -> ()
  | Some _ -> Alcotest.fail "a rewrite that cannot write its temp must not report one");
  checks "log left exactly as it was" before
    (In_channel.with_open_bin path In_channel.input_all);
  (* the live log is intact and still takes appends *)
  Persist.append_insert log ~name:"B" ~owner:"o" ~text:"after";
  Record_log.close log;
  (match Persist.replay path with
  | [ Persist.Insert { name = "A"; _ }; Persist.Insert { name = "B"; _ } ] -> ()
  | _ -> Alcotest.fail "failed compaction must leave the log intact");
  Unix.rmdir temp;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Manager *)

type env = {
  clock : Clock.t;
  registry : Registry.t;
  mqp : Mqp.t;
  trigger : Trigger.t;
  reporter : Reporter.t;
  deliveries : Sink.delivery list ref;
  manager : Manager.t;
  mutable queries_run : int;
}

let make_env ?persist () =
  let clock = Clock.create () in
  let registry = Registry.create () in
  let mqp = Mqp.create () in
  let trigger = Trigger.create ~clock () in
  let sink, deliveries = Sink.memory () in
  let reporter = Reporter.create ~clock ~sink () in
  let env_ref = ref None in
  let runner _q () =
    (match !env_ref with Some e -> e.queries_run <- e.queries_run + 1 | None -> ());
    [ T.el "site" ~attrs:[ ("url", "http://www.yahoo.com") ] [] ]
  in
  let manager =
    Manager.create ?persist ~clock ~registry ~mqp ~trigger ~reporter ~runner ()
  in
  let env =
    { clock; registry; mqp; trigger; reporter; deliveries; manager; queries_run = 0 }
  in
  env_ref := Some env;
  env

let simple_subscription =
  {|subscription Simple
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://inria.fr/Xy/" and modified self
report when immediate|}

let test_subscribe_registers_events () =
  let env = make_env () in
  (match Manager.subscribe env.manager ~owner:"alice" ~text:simple_subscription with
  | Ok name -> checks "name" "Simple" name
  | Error e -> Alcotest.fail (Manager.error_to_string e));
  checki "two atomic events" 2 (Registry.cardinal env.registry);
  checki "one complex event" 1 (Mqp.complex_count env.mqp);
  checki "one subscription" 1 (Manager.subscription_count env.manager)

let test_subscribe_duplicate () =
  let env = make_env () in
  ignore (Manager.subscribe env.manager ~owner:"a" ~text:simple_subscription);
  match Manager.subscribe env.manager ~owner:"b" ~text:simple_subscription with
  | Error (Manager.Duplicate "Simple") -> ()
  | _ -> Alcotest.fail "expected Duplicate"

let test_subscribe_parse_error () =
  let env = make_env () in
  match Manager.subscribe env.manager ~owner:"a" ~text:"not a subscription" with
  | Error (Manager.Parse_error _) -> ()
  | _ -> Alcotest.fail "expected Parse_error"

let test_subscribe_policy_rejection () =
  let env = make_env () in
  match
    Manager.subscribe env.manager ~owner:"a"
      ~text:
        {|subscription W
monitoring
where new self
report when immediate|}
  with
  | Error (Manager.Rejected _) -> ()
  | _ -> Alcotest.fail "expected Rejected (weak-only)"

(* Drive an alert through the processor and check the report. *)
let fire_alert env ~url ~events ~payload =
  ignore (Mqp.process env.mqp { Mqp.url; events; payload; trace = None; birth = None })

let test_notification_to_report () =
  let env = make_env () in
  ignore (Manager.subscribe env.manager ~owner:"alice" ~text:simple_subscription);
  (* Find the codes the manager registered. *)
  let codes = ref [] in
  Registry.iter (fun code _ -> codes := code :: !codes) env.registry;
  let events = Event_set.of_list !codes in
  fire_alert env ~url:"http://inria.fr/Xy/index.html" ~events
    ~payload:{|<doc url="http://inria.fr/Xy/index.html" status="updated"/>|};
  match !(env.deliveries) with
  | [ d ] -> (
      checks "recipient is owner" "alice" d.Sink.recipient;
      checks "subscription" "Simple" d.Sink.subscription;
      match T.children_elements d.Sink.report with
      | [ page ] ->
          checks "select materialized" "UpdatedPage" page.T.tag;
          Alcotest.(check (option string)) "url attribute"
            (Some "http://inria.fr/Xy/index.html")
            (T.attr page "url")
      | _ -> Alcotest.fail "report body")
  | _ -> Alcotest.fail "expected one delivery"

let test_select_variable_materialization () =
  let env = make_env () in
  let text =
    {|subscription Members
monitoring
select X
from self//Member X
where URL = "http://inria.fr/Xy/members.xml" and new X
report when immediate|}
  in
  (match Manager.subscribe env.manager ~owner:"a" ~text with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Manager.error_to_string e));
  let codes = ref [] in
  Registry.iter (fun code _ -> codes := code :: !codes) env.registry;
  (* Identify the element-condition code to attach payload data. *)
  let member_code =
    List.find
      (fun code ->
        match Registry.condition env.registry code with
        | Some (Atomic.Element _) -> true
        | _ -> false)
      !codes
  in
  let payload =
    Printf.sprintf
      {|<doc url="u" status="updated"><matched code="%d"><Member><name>nguyen</name></Member></matched></doc>|}
      member_code
  in
  fire_alert env ~url:"http://inria.fr/Xy/members.xml"
    ~events:(Event_set.of_list !codes) ~payload;
  match !(env.deliveries) with
  | [ d ] -> (
      match T.children_elements d.Sink.report with
      | [ member ] ->
          checks "member element" "Member" member.T.tag;
          checkb "content" true
            (Xy_query.Eval.word_contains ~word:"nguyen" (T.text_content member))
      | _ -> Alcotest.fail "expected the matched Member")
  | _ -> Alcotest.fail "expected one delivery"

let test_continuous_periodic () =
  let env = make_env () in
  let text =
    {|subscription Ref
continuous ReferenceXyleme
select //site
try biweekly
report when immediate|}
  in
  (match Manager.subscribe env.manager ~owner:"a" ~text with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Manager.error_to_string e));
  Clock.advance env.clock (7. *. 86400.);
  Trigger.tick env.trigger;
  checki "ran twice in a week (biweekly)" 2 env.queries_run;
  checki "two reports" 2 (List.length !(env.deliveries));
  match !(env.deliveries) with
  | d :: _ -> (
      match T.children_elements d.Sink.report with
      | [ wrapper ] ->
          checks "wrapped in query name" "ReferenceXyleme" wrapper.T.tag
      | _ -> Alcotest.fail "wrapper")
  | [] -> Alcotest.fail "no delivery"

let test_continuous_on_notification () =
  let env = make_env () in
  let text =
    {|subscription XylemeCompetitors
monitoring
select <ChangeInMyProducts/>
where URL = "http://www.xyleme.com/products.xml" and modified self
continuous MyCompetitors
select //site
when XylemeCompetitors.ChangeInMyProducts
report when immediate|}
  in
  (match Manager.subscribe env.manager ~owner:"a" ~text with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Manager.error_to_string e));
  checki "not run yet" 0 env.queries_run;
  let codes = ref [] in
  Registry.iter (fun code _ -> codes := code :: !codes) env.registry;
  fire_alert env ~url:"http://www.xyleme.com/products.xml"
    ~events:(Event_set.of_list !codes)
    ~payload:{|<doc url="http://www.xyleme.com/products.xml" status="updated"/>|};
  checki "query triggered by notification" 1 env.queries_run

let test_unsubscribe_teardown () =
  let env = make_env () in
  ignore (Manager.subscribe env.manager ~owner:"a" ~text:simple_subscription);
  (match Manager.unsubscribe env.manager ~name:"Simple" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Manager.error_to_string e));
  checki "codes released" 0 (Registry.cardinal env.registry);
  checki "complex events removed" 0 (Mqp.complex_count env.mqp);
  checki "subscription gone" 0 (Manager.subscription_count env.manager);
  match Manager.unsubscribe env.manager ~name:"Simple" with
  | Error (Manager.Unknown _) -> ()
  | _ -> Alcotest.fail "expected Unknown"

let test_shared_conditions_survive_other_unsubscribe () =
  let env = make_env () in
  let sub name =
    Printf.sprintf
      {|subscription %s
monitoring
where URL extends "http://inria.fr/Xy/" and modified self
report when immediate|}
      name
  in
  ignore (Manager.subscribe env.manager ~owner:"a" ~text:(sub "S1"));
  ignore (Manager.subscribe env.manager ~owner:"b" ~text:(sub "S2"));
  checki "conditions shared" 2 (Registry.cardinal env.registry);
  ignore (Manager.unsubscribe env.manager ~name:"S1");
  checki "still referenced by S2" 2 (Registry.cardinal env.registry);
  ignore (Manager.unsubscribe env.manager ~name:"S2");
  checki "released" 0 (Registry.cardinal env.registry)

let test_virtual_subscription () =
  let env = make_env () in
  ignore (Manager.subscribe env.manager ~owner:"alice" ~text:simple_subscription);
  (match
     Manager.subscribe env.manager ~owner:"bob"
       ~text:{|subscription MyVirtual
virtual Simple.UpdatedPage|}
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Manager.error_to_string e));
  let codes = ref [] in
  Registry.iter (fun code _ -> codes := code :: !codes) env.registry;
  fire_alert env ~url:"http://inria.fr/Xy/x" ~events:(Event_set.of_list !codes)
    ~payload:{|<doc url="u" status="updated"/>|};
  let recipients = List.map (fun d -> d.Sink.recipient) !(env.deliveries) in
  checkb "both got the report" true
    (List.mem "alice" recipients && List.mem "bob" recipients)

(* [update] tears the target down and installs it afresh; the virtual
   subscription's owner must still be among its recipients. *)
let test_update_keeps_virtual_recipient () =
  let env = make_env () in
  ignore (Manager.subscribe env.manager ~owner:"alice" ~text:simple_subscription);
  ignore
    (Manager.subscribe env.manager ~owner:"bob"
       ~text:{|subscription MyVirtual
virtual Simple.UpdatedPage|});
  (match
     Manager.update env.manager ~name:"Simple" ~owner:"alice"
       ~text:simple_subscription
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Manager.error_to_string e));
  let codes = ref [] in
  Registry.iter (fun code _ -> codes := code :: !codes) env.registry;
  fire_alert env ~url:"http://inria.fr/Xy/x" ~events:(Event_set.of_list !codes)
    ~payload:{|<doc url="u" status="updated"/>|};
  Alcotest.(check (list string))
    "both got the report" [ "alice"; "bob" ]
    (List.sort compare (List.map (fun d -> d.Sink.recipient) !(env.deliveries)))

let test_virtual_requires_target () =
  let env = make_env () in
  match
    Manager.subscribe env.manager ~owner:"bob"
      ~text:{|subscription V
virtual Nothing.X|}
  with
  | Error (Manager.Unknown "Nothing") -> ()
  | _ -> Alcotest.fail "expected Unknown target"

let test_refresh_statements () =
  let env = make_env () in
  ignore
    (Manager.subscribe env.manager ~owner:"a"
       ~text:
         {|subscription R
monitoring
where URL extends "http://inria.fr/Xy/"
refresh "http://inria.fr/Xy/members.xml" weekly
report when immediate|});
  match Manager.refresh_statements env.manager with
  | [ (url, period) ] ->
      checks "url" "http://inria.fr/Xy/members.xml" url;
      checkb "weekly" true (period = 7. *. 86400.)
  | _ -> Alcotest.fail "refresh statements"

let test_update_subscription () =
  let env = make_env () in
  ignore (Manager.subscribe env.manager ~owner:"alice" ~text:simple_subscription);
  checki "two conditions" 2 (Registry.cardinal env.registry);
  (* Replace with a different where clause. *)
  let new_text =
    {|subscription Simple
monitoring
where URL extends "http://other.example.org/" and new self
report when immediate|}
  in
  (match Manager.update env.manager ~name:"Simple" ~owner:"alice" ~text:new_text with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Manager.error_to_string e));
  checki "still one subscription" 1 (Manager.subscription_count env.manager);
  checki "old conditions released, new registered" 2 (Registry.cardinal env.registry);
  checkb "new condition present" true
    (Registry.find env.registry (Atomic.Url_extends "http://other.example.org/")
    <> None);
  checkb "old condition gone" true
    (Registry.find env.registry (Atomic.Url_extends "http://inria.fr/Xy/") = None)

let test_update_rejects_bad_replacement () =
  let env = make_env () in
  ignore (Manager.subscribe env.manager ~owner:"alice" ~text:simple_subscription);
  (* Invalid replacement: the old subscription must survive. *)
  (match
     Manager.update env.manager ~name:"Simple" ~owner:"alice"
       ~text:"subscription Simple\nmonitoring\nwhere new self\nreport when immediate"
   with
  | Error (Manager.Rejected _) -> ()
  | _ -> Alcotest.fail "weak-only replacement must be rejected");
  checki "old still installed" 1 (Manager.subscription_count env.manager);
  checkb "old condition intact" true
    (Registry.find env.registry (Atomic.Url_extends "http://inria.fr/Xy/") <> None);
  (* Wrong name in the replacement text. *)
  (match
     Manager.update env.manager ~name:"Simple" ~owner:"alice"
       ~text:
         "subscription Other\nmonitoring\nwhere deleted self\nreport when immediate"
   with
  | Error (Manager.Parse_error _) -> ()
  | _ -> Alcotest.fail "name mismatch must be rejected");
  (* Unknown subscription. *)
  match
    Manager.update env.manager ~name:"Nope" ~owner:"a" ~text:simple_subscription
  with
  | Error (Manager.Unknown _) -> ()
  | _ -> Alcotest.fail "unknown must be rejected"

let test_recovery () =
  let path = temp_path () in
  let log = Record_log.open_log path in
  let env = make_env ~persist:log () in
  ignore (Manager.subscribe env.manager ~owner:"alice" ~text:simple_subscription);
  ignore
    (Manager.subscribe env.manager ~owner:"bob"
       ~text:
         {|subscription Second
monitoring
where URL extends "http://other.example.org/"
report when immediate|});
  ignore (Manager.unsubscribe env.manager ~name:"Second");
  Record_log.close log;
  (* Fresh system, replay. *)
  let env2 = make_env () in
  let restored = Manager.recover env2.manager path in
  checki "one restored" 1 restored;
  checkb "Simple back" true
    (Manager.subscription_names env2.manager = [ "Simple" ]);
  checki "complex events restored" 1 (Mqp.complex_count env2.mqp);
  (* The restored subscription is functional. *)
  let codes = ref [] in
  Registry.iter (fun code _ -> codes := code :: !codes) env2.registry;
  fire_alert env2 ~url:"http://inria.fr/Xy/i" ~events:(Event_set.of_list !codes)
    ~payload:{|<doc url="u" status="updated"/>|};
  checki "report delivered after recovery" 1 (List.length !(env2.deliveries));
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Teardown leaves nothing behind *)

(* A subscription drawn from a small vocabulary: its select, its
   disjuncts (a strong condition and up to two more, strong or weak),
   its report clause and whether it carries a continuous query.  The
   last select and the last report are the subscription's own; the
   others are shared by every subscription that draws them. *)
type spec = {
  select : int;
  disjuncts : (int * int list) list;
  report : int;
  continuous : bool;
}

type op = Subscribe of int * spec | Unsubscribe of int | Update of int * spec

let strong_conditions =
  [|
    {|URL extends "http://a.example.org/"|};
    {|URL extends "http://b.example.org/"|};
    {|self contains "camera"|};
    {|domain = "commerce"|};
    {|self\\price|};
  |]

let any_conditions = Array.append strong_conditions [| "modified self"; "new self" |]

let spec_text slot spec =
  let select =
    match spec.select with
    | 0 -> ""
    | 1 -> "select <UpdatedPage url=URL/>\n"
    | 2 -> "select <Hit/>\n"
    | _ -> Printf.sprintf "select <Own%d url=URL/>\n" slot
  in
  let disjunct (first, more) =
    String.concat " and "
      (strong_conditions.(first) :: List.map (fun i -> any_conditions.(i)) more)
  in
  let report =
    match spec.report with
    | 0 -> "report when count > 3 atmost weekly"
    | 1 -> "report when immediate"
    | _ -> Printf.sprintf "report when count > %d" (slot + 10)
  in
  Printf.sprintf "subscription S%d\nmonitoring\n%swhere %s\n%s%s" slot select
    (String.concat " or " (List.map disjunct spec.disjuncts))
    (if spec.continuous then "continuous Q\nselect //site\ntry daily\n" else "")
    report

(* What the manager registers for a text: one condition per disjunct
   that names it. *)
let spec_conditions slot spec =
  let ast = Xy_sublang.S_parser.parse (spec_text slot spec) in
  List.concat_map
    (fun (m : Xy_sublang.S_compile.monitoring) ->
      List.concat m.Xy_sublang.S_compile.cm_disjuncts)
    (Xy_sublang.S_compile.validate ast)

let slots = 6

let gen_ops =
  let open QCheck.Gen in
  let spec =
    let* select = 0 -- 3 in
    let* disjuncts =
      list_size (1 -- 3)
        (pair
           (0 -- (Array.length strong_conditions - 1))
           (list_size (0 -- 2) (0 -- (Array.length any_conditions - 1))))
    in
    let* report = 0 -- 2 in
    let+ continuous = frequency [ (1, return true); (4, return false) ] in
    { select; disjuncts; report; continuous }
  in
  let op =
    frequency
      [
        (5, map2 (fun i s -> Subscribe (i, s)) (0 -- (slots - 1)) spec);
        (2, map (fun i -> Unsubscribe i) (0 -- (slots - 1)));
        (2, map2 (fun i s -> Update (i, s)) (0 -- (slots - 1)) spec);
      ]
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat "\n"
        (List.map
           (function
             | Subscribe (i, s) -> "subscribe:\n" ^ spec_text i s
             | Unsubscribe i -> Printf.sprintf "unsubscribe S%d" i
             | Update (i, s) -> "update:\n" ^ spec_text i s)
           ops))
    (list_size (1 -- 30) op)

let teardown_leaves_nothing ops =
  let env = make_env () in
  (* the model: the conditions of every live subscription *)
  let live = Array.make slots None in
  let seen = ref [] in
  let unexpected what = function
    | Ok _ -> QCheck.Test.fail_reportf "%s: unexpected success" what
    | Error e -> QCheck.Test.fail_reportf "%s: %s" what (Manager.error_to_string e)
  in
  let install slot spec =
    let conditions = spec_conditions slot spec in
    seen := List.rev_append conditions !seen;
    live.(slot) <- Some conditions
  in
  let model_count condition =
    Array.fold_left
      (fun n -> function
        | None -> n
        | Some conditions ->
            n + List.length (List.filter (Atomic.equal condition) conditions))
      0 live
  in
  let check_counts () =
    List.iter
      (fun condition ->
        let expected = model_count condition
        and actual = Registry.refcount env.registry condition in
        if expected <> actual then
          QCheck.Test.fail_reportf "refcount of %s: %d, model %d"
            (Atomic.to_string condition) actual expected)
      !seen;
    let distinct = List.sort_uniq Atomic.compare !seen in
    let referenced = List.filter (fun c -> model_count c > 0) distinct in
    if Registry.cardinal env.registry <> List.length referenced then
      QCheck.Test.fail_reportf "%d live codes, model %d"
        (Registry.cardinal env.registry) (List.length referenced)
  in
  List.iter
    (fun op ->
      (match op with
      | Subscribe (slot, spec) -> (
          match
            Manager.subscribe env.manager ~owner:(Printf.sprintf "o%d" (slot mod 2))
              ~text:(spec_text slot spec)
          with
          | Ok _ when live.(slot) = None -> install slot spec
          | Error (Manager.Duplicate _) when live.(slot) <> None -> ()
          | r -> unexpected "subscribe" r)
      | Unsubscribe slot -> (
          match Manager.unsubscribe env.manager ~name:(Printf.sprintf "S%d" slot) with
          | Ok () when live.(slot) <> None -> live.(slot) <- None
          | Error (Manager.Unknown _) when live.(slot) = None -> ()
          | r -> unexpected "unsubscribe" r)
      | Update (slot, spec) -> (
          match
            Manager.update env.manager ~name:(Printf.sprintf "S%d" slot)
              ~owner:(Printf.sprintf "o%d" (slot mod 2))
              ~text:(spec_text slot spec)
          with
          | Ok () when live.(slot) <> None -> install slot spec
          | Error (Manager.Unknown _) when live.(slot) = None -> ()
          | r -> unexpected "update" r));
      check_counts ())
    ops;
  Array.iteri
    (fun slot conditions ->
      if conditions <> None then begin
        (match Manager.unsubscribe env.manager ~name:(Printf.sprintf "S%d" slot) with
        | Ok () -> ()
        | r -> unexpected "final unsubscribe" r);
        live.(slot) <- None
      end)
    live;
  check_counts ();
  Registry.cardinal env.registry = 0
  && Mqp.complex_count env.mqp = 0
  && Trigger.deadlines env.trigger = []
  && List.length (Reporter.snapshot_pieces env.reporter) = 1
  && Manager.subscription_count env.manager = 0

let qcheck_teardown_leaves_nothing =
  QCheck.Test.make ~name:"teardown leaves nothing behind" ~count:200
    ~long_factor:50 gen_ops teardown_leaves_nothing

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "submgr"
    [
      ( "persist",
        [
          tc "roundtrip" test_persist_roundtrip;
          tc "reinsert supersedes" test_persist_reinsert_supersedes;
          tc "missing file" test_persist_missing_file;
          tc "torn tail" test_persist_torn_tail_ignored;
          tc "compact" test_persist_compact;
          tc "truncation fuzz" test_persist_truncation_fuzz;
          tc "corrupted record" test_persist_corrupted_record_stops_replay;
          tc "scan tail diagnosis" test_persist_scan_tail_diagnosis;
          tc "compact truncates stale temp" test_persist_compact_truncates_stale_temp;
          tc "compact failure leaves log intact" test_persist_compact_failure_leaves_log_intact;
        ] );
      ( "lifecycle",
        [
          tc "subscribe registers events" test_subscribe_registers_events;
          tc "duplicate rejected" test_subscribe_duplicate;
          tc "parse error" test_subscribe_parse_error;
          tc "policy rejection" test_subscribe_policy_rejection;
          tc "unsubscribe teardown" test_unsubscribe_teardown;
          tc "shared conditions refcounted" test_shared_conditions_survive_other_unsubscribe;
          tc "update" test_update_subscription;
          tc "update rejects bad replacement" test_update_rejects_bad_replacement;
        ] );
      ( "dispatch",
        [
          tc "notification to report" test_notification_to_report;
          tc "select variable materialization" test_select_variable_materialization;
          tc "continuous periodic" test_continuous_periodic;
          tc "continuous on notification" test_continuous_on_notification;
        ] );
      ( "virtual",
        [
          tc "shared reports" test_virtual_subscription;
          tc "target must exist" test_virtual_requires_target;
          tc "update keeps the virtual recipient"
            test_update_keeps_virtual_recipient;
        ] );
      ("refresh", [ tc "statements" test_refresh_statements ]);
      ("recovery", [ tc "replay" test_recovery ]);
      ("teardown", [ QCheck_alcotest.to_alcotest qcheck_teardown_leaves_nothing ]);
    ]
