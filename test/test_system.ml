(* End-to-end tests for xy_system: the paper's example subscriptions
   running against a controlled synthetic web, producing the report
   shapes §2.2 shows. *)

module Xyleme = Xy_system.Xyleme
module Web = Xy_crawler.Synthetic_web
module Sink = Xy_reporter.Sink
module Loader = Xy_warehouse.Loader
module Clock = Xy_util.Clock
module T = Xy_xml.Types

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let make ?web () =
  let sink, deliveries = Sink.memory () in
  let t = Xyleme.create ~seed:42 ~sink ?web () in
  (t, deliveries)

let subscribe_exn t ~owner ~text =
  match Xyleme.subscribe t ~owner ~text with
  | Ok name -> name
  | Error e -> Alcotest.fail (Xy_submgr.Manager.error_to_string e)

let rm_rf path =
  let rec go p =
    if Sys.is_directory p then (
      Array.iter (fun e -> go (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p)
    else Sys.remove p
  in
  if Sys.file_exists path then go path

let with_temp_dir f =
  let dir = Filename.temp_file "xy_system_obs" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)

let test_ingest_updated_page_report () =
  let t, deliveries = make () in
  ignore
    (subscribe_exn t ~owner:"alice"
       ~text:
         {|subscription MyXyleme
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://inria.fr/Xy/" and modified self
report when immediate|});
  (* First fetch: status new — the monitoring query wants modified. *)
  let o1 =
    Xyleme.ingest t ~url:"http://inria.fr/Xy/index.html" ~content:"<page>v1</page>"
      ~kind:Loader.Xml
  in
  checkb "first fetch raises url event but no match" true (o1.Xyleme.matched = []);
  checki "no report yet" 0 (List.length !deliveries);
  (* Second fetch with a change: modified self fires. *)
  let o2 =
    Xyleme.ingest t ~url:"http://inria.fr/Xy/index.html" ~content:"<page>v2</page>"
      ~kind:Loader.Xml
  in
  checkb "matched" true (o2.Xyleme.matched <> []);
  match !deliveries with
  | [ d ] -> (
      checks "report" "Report" d.Sink.report.T.tag;
      match T.children_elements d.Sink.report with
      | [ page ] ->
          checks "UpdatedPage" "UpdatedPage" page.T.tag;
          Alcotest.(check (option string)) "url"
            (Some "http://inria.fr/Xy/index.html")
            (T.attr page "url")
      | _ -> Alcotest.fail "body")
  | _ -> Alcotest.fail "expected one delivery"

let test_new_member_element_report () =
  let t, deliveries = make () in
  ignore
    (subscribe_exn t ~owner:"alice"
       ~text:
         {|subscription Members
monitoring
select X
from self//Member X
where URL = "http://inria.fr/Xy/members.xml" and new X
report when immediate|});
  let url = "http://inria.fr/Xy/members.xml" in
  ignore
    (Xyleme.ingest t ~url
       ~content:"<team><Member><name>jouglet</name></Member></team>"
       ~kind:Loader.Xml);
  checki "initial load: no new-element event" 0 (List.length !deliveries);
  ignore
    (Xyleme.ingest t ~url
       ~content:
         "<team><Member><name>jouglet</name></Member><Member><name>nguyen</name></Member></team>"
       ~kind:Loader.Xml);
  match !deliveries with
  | [ d ] -> (
      match T.children_elements d.Sink.report with
      | [ member ] ->
          checks "member" "Member" member.T.tag;
          checkb "the new one" true
            (Xy_query.Eval.word_contains ~word:"nguyen" (T.text_content member))
      | _ -> Alcotest.fail "expected exactly the new member")
  | _ -> Alcotest.fail "expected one delivery"

let test_catalog_watch_with_word () =
  let t, deliveries = make () in
  ignore
    (subscribe_exn t ~owner:"shopper"
       ~text:
         {|subscription Cameras
monitoring
where new self\\product contains "camera"
  and URL extends "http://shop.example.org/catalog/"
report when immediate|});
  let url = "http://shop.example.org/catalog/cat.xml" in
  ignore
    (Xyleme.ingest t ~url
       ~content:"<catalog><product><desc>a tv</desc></product></catalog>"
       ~kind:Loader.Xml);
  ignore
    (Xyleme.ingest t ~url
       ~content:
         "<catalog><product><desc>a tv</desc></product><product><desc>a camera</desc></product></catalog>"
       ~kind:Loader.Xml);
  checki "camera product reported" 1 (List.length !deliveries);
  ignore
    (Xyleme.ingest t ~url
       ~content:
         "<catalog><product><desc>a tv</desc></product><product><desc>a camera</desc></product><product><desc>a radio</desc></product></catalog>"
       ~kind:Loader.Xml);
  checki "radio product not reported" 1 (List.length !deliveries)

let test_continuous_query_over_warehouse () =
  let t, deliveries = make () in
  (* Warehouse the museum page first. *)
  ignore
    (Xyleme.ingest t ~url:"http://museums.example.org/ams.xml"
       ~content:
         {|<culture><museum><address>Amsterdam</address><painting><title>Nightwatch</title></painting></museum></culture>|}
       ~kind:Loader.Xml);
  ignore
    (subscribe_exn t ~owner:"curator"
       ~text:
         {|subscription Museums
continuous AmsterdamPaintings
select p/title
from culture/museum m, m/painting p
where m/address contains "Amsterdam"
try weekly
report when immediate|});
  Xyleme.advance t ~seconds:(7. *. 86400. +. 1.);
  match !deliveries with
  | d :: _ -> (
      match T.children_elements d.Sink.report with
      | [ wrapper ] ->
          checks "wrapper" "AmsterdamPaintings" wrapper.T.tag;
          (match T.children_elements wrapper with
          | [ title ] -> checks "title" "Nightwatch" (T.text_content title)
          | _ -> Alcotest.fail "titles")
      | _ -> Alcotest.fail "report body")
  | [] -> Alcotest.fail "expected a delivery"

let test_continuous_delta () =
  let t, deliveries = make () in
  let url = "http://museums.example.org/ams.xml" in
  let content titles =
    Printf.sprintf
      "<culture><museum><address>Amsterdam</address>%s</museum></culture>"
      (String.concat ""
         (List.map
            (fun t -> Printf.sprintf "<painting><title>%s</title></painting>" t)
            titles))
  in
  ignore (Xyleme.ingest t ~url ~content:(content [ "A" ]) ~kind:Loader.Xml);
  ignore
    (subscribe_exn t ~owner:"curator"
       ~text:
         {|subscription Museums
continuous delta AmsterdamPaintings
select p/title
from culture/museum m, m/painting p
where m/address contains "Amsterdam"
try weekly
report when immediate|});
  (* First evaluation: full answer. *)
  Xyleme.advance t ~seconds:(7. *. 86400. +. 1.);
  checki "first report" 1 (List.length !deliveries);
  (* No change: no notification at all. *)
  Xyleme.advance t ~seconds:(7. *. 86400.);
  checki "unchanged: no report" 1 (List.length !deliveries);
  (* Add a painting: delta document. *)
  ignore (Xyleme.ingest t ~url ~content:(content [ "A"; "B" ]) ~kind:Loader.Xml);
  Xyleme.advance t ~seconds:(7. *. 86400.);
  (match !deliveries with
  | d :: _ -> (
      match T.children_elements d.Sink.report with
      | [ delta ] ->
          checks "delta doc" "AmsterdamPaintings-delta" delta.T.tag;
          checkb "has inserted op" true
            (List.exists
               (fun e -> e.T.tag = "inserted")
               (T.children_elements delta))
      | _ -> Alcotest.fail "delta body")
  | [] -> Alcotest.fail "expected a delta report");
  (* first full answer + one delta; the unchanged week produced nothing *)
  checki "two deliveries total" 2 (List.length !deliveries)

let test_notification_triggered_continuous () =
  let t, deliveries = make () in
  ignore
    (Xyleme.ingest t ~url:"http://www.xyleme.com/competitors.xml"
       ~content:"<competitors><site url=\"http://niagara.example\"/></competitors>"
       ~kind:Loader.Xml);
  ignore
    (subscribe_exn t ~owner:"ceo"
       ~text:
         {|subscription XylemeCompetitors
monitoring
select <ChangeInMyProducts/>
where URL = "http://www.xyleme.com/products.xml" and modified self
continuous MyCompetitors
select //site
when XylemeCompetitors.ChangeInMyProducts
report when immediate|});
  ignore
    (Xyleme.ingest t ~url:"http://www.xyleme.com/products.xml"
       ~content:"<products><p>one</p></products>" ~kind:Loader.Xml);
  checki "initial load: nothing" 0 (List.length !deliveries);
  ignore
    (Xyleme.ingest t ~url:"http://www.xyleme.com/products.xml"
       ~content:"<products><p>two</p></products>" ~kind:Loader.Xml);
  (* modified self fires -> ChangeInMyProducts notification (report 1)
     -> triggers MyCompetitors evaluation (report 2, immediate) *)
  checki "monitoring + continuous reports" 2 (List.length !deliveries);
  let tags =
    List.concat_map
      (fun d -> List.map (fun e -> e.T.tag) (T.children_elements d.Sink.report))
      !deliveries
  in
  checkb "has ChangeInMyProducts" true (List.mem "ChangeInMyProducts" tags);
  checkb "has MyCompetitors" true (List.mem "MyCompetitors" tags)

let test_disjunctive_monitoring () =
  (* A monitoring query with two disjuncts: matching either fires one
     notification; matching both in the same document still fires only
     one (batch deduplication). *)
  let t, deliveries = make () in
  ignore
    (subscribe_exn t ~owner:"alice"
       ~text:
         {|subscription Either
monitoring
select <CatalogChange url=URL/>
where new self\\product and URL extends "http://shop.example.org/"
   or deleted self\\product and URL extends "http://shop.example.org/"
report when immediate|});
  let url = "http://shop.example.org/cat.xml" in
  ignore
    (Xyleme.ingest t ~url ~content:"<c><product>a</product></c>" ~kind:Loader.Xml);
  checki "initial load: nothing" 0 (List.length !deliveries);
  (* Insertion only -> first disjunct. *)
  ignore
    (Xyleme.ingest t ~url
       ~content:"<c><product>a</product><product>b</product></c>" ~kind:Loader.Xml);
  checki "insert fires" 1 (List.length !deliveries);
  (* Deletion only -> second disjunct. *)
  ignore
    (Xyleme.ingest t ~url ~content:"<c><product>b</product></c>" ~kind:Loader.Xml);
  checki "delete fires" 2 (List.length !deliveries);
  (* Insert AND delete in one fetch (under different parents so the
     diff cannot pair them): both disjuncts match, but the monitoring
     query notifies once. *)
  ignore
    (Xyleme.ingest t ~url
       ~content:"<c><old><product>b</product></old><new/></c>" ~kind:Loader.Xml);
  ignore !deliveries;
  let before = List.length !deliveries in
  ignore
    (Xyleme.ingest t ~url
       ~content:"<c><old/><new><product>n</product></new></c>" ~kind:Loader.Xml);
  checki "both disjuncts, single notification" (before + 1)
    (List.length !deliveries);
  match !deliveries with
  | d :: _ ->
      checki "one notification in the report" 1
        (List.length (T.children_elements d.Sink.report))
  | [] -> Alcotest.fail "delivery"

let test_deleted_page_event () =
  let t, deliveries = make () in
  ignore
    (subscribe_exn t ~owner:"alice"
       ~text:
         {|subscription Deletions
monitoring
where deleted self and URL extends "http://inria.fr/Xy/"
report when immediate|});
  ignore
    (Xyleme.ingest t ~url:"http://inria.fr/Xy/tmp.xml" ~content:"<d/>"
       ~kind:Loader.Xml);
  checki "nothing yet" 0 (List.length !deliveries);
  Xyleme.ingest_missing t ~url:"http://inria.fr/Xy/tmp.xml";
  checki "deletion reported" 1 (List.length !deliveries)

let test_batch_report_count () =
  let t, deliveries = make () in
  ignore
    (subscribe_exn t ~owner:"alice"
       ~text:
         {|subscription Batched
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://inria.fr/Xy/" and modified self
report when count > 2|});
  let url i = Printf.sprintf "http://inria.fr/Xy/p%d.xml" i in
  for i = 1 to 3 do
    ignore (Xyleme.ingest t ~url:(url i) ~content:"<p>v1</p>" ~kind:Loader.Xml)
  done;
  for i = 1 to 2 do
    ignore (Xyleme.ingest t ~url:(url i) ~content:"<p>v2</p>" ~kind:Loader.Xml)
  done;
  checki "no report at 2 (strict >)" 0 (List.length !deliveries);
  ignore (Xyleme.ingest t ~url:(url 3) ~content:"<p>v2</p>" ~kind:Loader.Xml);
  checki "report at 3" 1 (List.length !deliveries);
  match !deliveries with
  | [ d ] ->
      checki "all three notifications" 3
        (List.length (T.children_elements d.Sink.report))
  | _ -> Alcotest.fail "delivery"

let test_crawl_loop_end_to_end () =
  (* Run the full pipeline on the synthetic web for a simulated week:
     things must flow without errors and changes must be reported. *)
  let web = Web.generate ~seed:3 ~sites:4 ~pages_per_site:5 () in
  let t, deliveries = make ~web () in
  (* Pick a catalog page and watch its products. *)
  let catalog_url =
    List.find
      (fun url -> Web.kind_of web ~url = Some Web.Xml_page)
      (Web.urls web)
  in
  ignore
    (subscribe_exn t ~owner:"watcher"
       ~text:
         (Printf.sprintf
            {|subscription Watch
monitoring
select <UpdatedPage url=URL/>
where URL extends "%s" and modified self
report when immediate
refresh "%s" daily|}
            (String.sub catalog_url 0 24)
            catalog_url));
  Xyleme.run t ~days:7. ~step:(6. *. 3600.) ~fetch_limit:100;
  let stats = Xyleme.stats t in
  checkb "documents fetched" true (stats.Xyleme.documents_fetched > 0);
  checkb "documents stored" true (stats.Xyleme.documents_stored > 0);
  (* The watched page is mutated by evolve sooner or later; with seed 3
     over a week it changes. *)
  checkb "reports delivered" true (List.length !deliveries > 0)

let test_unsubscribe_stops_reports () =
  let t, deliveries = make () in
  let name =
    subscribe_exn t ~owner:"alice"
      ~text:
        {|subscription Stop
monitoring
where modified self and URL extends "http://inria.fr/Xy/"
report when immediate|}
  in
  let url = "http://inria.fr/Xy/x.xml" in
  ignore (Xyleme.ingest t ~url ~content:"<a>1</a>" ~kind:Loader.Xml);
  ignore (Xyleme.ingest t ~url ~content:"<a>2</a>" ~kind:Loader.Xml);
  checki "one report" 1 (List.length !deliveries);
  (match Xyleme.unsubscribe t ~name with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Xy_submgr.Manager.error_to_string e));
  ignore (Xyleme.ingest t ~url ~content:"<a>3</a>" ~kind:Loader.Xml);
  checki "no more reports" 1 (List.length !deliveries);
  checki "registry emptied" 0 (Xy_events.Registry.cardinal (Xyleme.registry t))

let test_update_subscription_system () =
  let t, deliveries = make () in
  ignore
    (subscribe_exn t ~owner:"alice"
       ~text:
         {|subscription Watch
monitoring
where modified self and URL extends "http://one.example.org/"
report when immediate|});
  (match
     Xyleme.update t ~name:"Watch" ~owner:"alice"
       ~text:
         {|subscription Watch
monitoring
where modified self and URL extends "http://two.example.org/"
report when immediate|}
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Xy_submgr.Manager.error_to_string e));
  (* Old pattern no longer fires; new one does. *)
  let fetch url v =
    ignore
      (Xyleme.ingest t ~url
         ~content:(Printf.sprintf "<p>%d</p>" v)
         ~kind:Loader.Xml)
  in
  fetch "http://one.example.org/a.xml" 1;
  fetch "http://one.example.org/a.xml" 2;
  checki "old pattern silent" 0 (List.length !deliveries);
  fetch "http://two.example.org/b.xml" 1;
  fetch "http://two.example.org/b.xml" 2;
  checki "new pattern fires" 1 (List.length !deliveries)

let test_warehouse_view_shape () =
  let t, _ = make () in
  ignore
    (Xyleme.ingest t ~url:"http://m/ams.xml"
       ~content:"<culture><museum><address>Amsterdam</address></museum></culture>"
       ~kind:Loader.Xml);
  ignore
    (Xyleme.ingest t ~url:"http://s/cat.xml"
       ~content:"<catalog><product/></catalog>" ~kind:Loader.Xml);
  let view = Xyleme.warehouse_view t in
  checks "root" "warehouse" view.T.tag;
  let domains = List.map (fun e -> e.T.tag) (T.children_elements view) in
  checkb "culture domain" true (List.mem "culture" domains);
  checkb "commerce domain" true (List.mem "commerce" domains);
  (* culture/museum resolves (root tag spliced) *)
  let path = Xy_xml.Path.parse "culture/museum" in
  checki "culture/museum" 1 (List.length (Xy_xml.Path.select path view))

let persisted =
  {|subscription Persisted
monitoring
where modified self and URL extends "http://inria.fr/Xy/"
report when immediate|}

(* Two versions of one page: the second raises [modified self]. *)
let fetch_twice t =
  let url = "http://inria.fr/Xy/p.xml" in
  ignore (Xyleme.ingest t ~url ~content:"<a>1</a>" ~kind:Loader.Xml);
  ignore (Xyleme.ingest t ~url ~content:"<a>2</a>" ~kind:Loader.Xml)

let restore_exn ~sink dir =
  match Xyleme.restore ~seed:1 ~sink ~dir () with
  | Ok (t, info) -> (t, info)
  | Error e -> Alcotest.failf "restore failed: %s" e

let test_persistence_roundtrip () =
  with_temp_dir @@ fun dir ->
  let sink, _ = Sink.memory () in
  let t = Xyleme.create ~seed:1 ~sink ~durable_dir:dir () in
  ignore (subscribe_exn t ~owner:"alice" ~text:persisted);
  (* New system recovers from the directory's subscription log. *)
  let sink2, deliveries2 = Sink.memory () in
  let t2, info = restore_exn ~sink:sink2 dir in
  checki "recovered" 1 info.Xyleme.subscriptions_recovered;
  fetch_twice t2;
  checki "functional after recovery" 1 (List.length !deliveries2)

(* [ingest] ends its transaction, so on a durable system too an
   immediate report leaves before the call returns. *)
let test_durable_ingest_delivers () =
  with_temp_dir @@ fun dir ->
  let sink, deliveries = Sink.memory () in
  let t = Xyleme.create ~seed:1 ~sink ~durable_dir:dir () in
  ignore (subscribe_exn t ~owner:"alice" ~text:persisted);
  fetch_twice t;
  checki "delivered when ingest returns" 1 (List.length !deliveries)

(* The update re-inserts [Persisted] after its virtual dependent in
   the subscription log; restore must still install both, and the
   dependent's owner must still receive the target's reports. *)
let test_restore_keeps_virtual_dependent () =
  with_temp_dir @@ fun dir ->
  let sink, _ = Sink.memory () in
  let t = Xyleme.create ~seed:1 ~sink ~durable_dir:dir () in
  ignore (subscribe_exn t ~owner:"alice" ~text:persisted);
  ignore
    (subscribe_exn t ~owner:"bob"
       ~text:"subscription MyVirtual\nvirtual Persisted.UpdatedPage");
  (match Xyleme.update t ~name:"Persisted" ~owner:"alice" ~text:persisted with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Xy_submgr.Manager.error_to_string e));
  let sink2, deliveries2 = Sink.memory () in
  let t2, info = restore_exn ~sink:sink2 dir in
  checki "both subscriptions recovered" 2 info.Xyleme.subscriptions_recovered;
  fetch_twice t2;
  Alcotest.(check (list string))
    "the report reaches both owners" [ "alice"; "bob" ]
    (List.sort compare (List.map (fun d -> d.Sink.recipient) !deliveries2))

let test_stats_consistency () =
  let t, _ = make () in
  ignore
    (subscribe_exn t ~owner:"a"
       ~text:
         {|subscription S
monitoring
where modified self and URL extends "http://inria.fr/Xy/"
report when immediate|});
  let url = "http://inria.fr/Xy/x.xml" in
  ignore (Xyleme.ingest t ~url ~content:"<a>1</a>" ~kind:Loader.Xml);
  ignore (Xyleme.ingest t ~url ~content:"<a>2</a>" ~kind:Loader.Xml);
  let stats = Xyleme.stats t in
  checki "stored" 1 stats.Xyleme.documents_stored;
  checki "complex events" 1 stats.Xyleme.complex_events;
  checki "atomic events" 2 stats.Xyleme.atomic_events;
  checkb "alerts sent" true (stats.Xyleme.alerts_sent >= 1);
  checki "notifications" 1 stats.Xyleme.notifications;
  checki "reports" 1 stats.Xyleme.reports

(* A traced document's journey through the facade yields one trace
   whose spans cover load → detect → match → report. *)
let test_trace_covers_pipeline () =
  let module Trace = Xy_trace.Trace in
  let t, deliveries = make () in
  let tracer = Xyleme.tracer t in
  ignore
    (subscribe_exn t ~owner:"alice"
       ~text:
         {|subscription Watch
monitoring
where URL extends "http://x/" and modified self
report when immediate|});
  let url = "http://x/a.xml" in
  let ingest content =
    let ctx = Trace.start_always tracer ~root:url in
    ignore (Xyleme.ingest ~trace:ctx t ~url ~content ~kind:Loader.Xml);
    Trace.finish ctx
  in
  ingest "<p>v1</p>";
  ingest "<p>v2</p>";
  checki "report delivered" 1 (List.length !deliveries);
  match Trace.traces tracer with
  | second :: _first :: _ ->
      let stages =
        List.sort_uniq compare
          (List.map (fun sp -> sp.Trace.sp_stage) second.Trace.tr_spans)
      in
      List.iter
        (fun stage ->
          checkb (Printf.sprintf "stage %s traced" stage) true
            (List.mem stage stages))
        [ "warehouse"; "alerters"; "mqp"; "reporter" ];
      checkb "duration covers the spans" true (second.Trace.tr_dur_wall >= 0.)
  | _ -> Alcotest.fail "expected two completed traces"

(* ------------------------------------------------------------------ *)
(* Self-monitoring: system health as ordinary monitored documents *)

(* The acceptance scenario: an operator subscribes to the system's own
   health pages with the unmodified subscription language, and the
   subscription fires through the normal loader → alerters → MQP →
   reporter path — no side channel. *)
let test_self_monitor_subscription_fires () =
  let sink, deliveries = Sink.memory () in
  let t = Xyleme.create ~seed:42 ~sink () in
  ignore
    (subscribe_exn t ~owner:"operator"
       ~text:
         {|subscription SelfHealth
monitoring
select <HealthAlert url=URL/>
where URL extends "xyleme://self/" and modified self
report when immediate|});
  (* Decade-marker words turn the numeric text into thresholds the
     word predicate can test: "over_1" appears once the warehouse has
     loaded at least one document. *)
  ignore
    (subscribe_exn t ~owner:"operator"
       ~text:
         {|subscription WarehouseGrowth
monitoring
where modified self\\warehouse_loaded_new contains "over_1"
  and URL extends "xyleme://self/metrics"
report when immediate|});
  (* First injection: the health pages are new, nothing is modified
     yet. *)
  let h1, _ = Xyleme.inject_self_monitor t in
  checkb "health page alerted the processor" true h1.Xyleme.alerted;
  checki "new pages do not fire modified-self" 0 (List.length !deliveries);
  (* The injection itself moved the metrics (two documents loaded), so
     the second health page differs from the first: modified-self and
     the over_1 threshold both fire. *)
  let h2, _ = Xyleme.inject_self_monitor t in
  checkb "second health page matched" true (h2.Xyleme.matched <> []);
  let fired =
    List.sort_uniq compare
      (List.map (fun d -> d.Sink.subscription) !deliveries)
  in
  Alcotest.(check (list string))
    "both health subscriptions reported"
    [ "SelfHealth"; "WarehouseGrowth" ]
    fired;
  (* The report body names the self URL, like any monitored page. *)
  List.iter
    (fun d ->
      if d.Sink.subscription = "SelfHealth" then
        match T.children_elements d.Sink.report with
        | [ alert ] ->
            checks "tag" "HealthAlert" alert.T.tag;
            checkb "self url" true
              (match T.attr alert "url" with
              | Some url ->
                  String.length url >= 14
                  && String.sub url 0 14 = "xyleme://self/"
              | None -> false)
        | _ -> Alcotest.fail "expected one HealthAlert")
    !deliveries

(* ------------------------------------------------------------------ *)
(* Freshness: staleness accounting, SLO alerting, metric carry *)

module Obs = Xy_obs.Obs
module Slo = Xy_slo.Slo

let test_monotonic_wall () =
  (* The timer installed into xy_obs/xy_trace at [create]: wall-clock
     scale, and ratcheted so it can never retreat even if the
     underlying clock steps backwards. *)
  let prev = ref 0. in
  for _ = 1 to 1_000 do
    let t = Xyleme.monotonic_wall () in
    checkb "never retreats" true (t >= !prev);
    prev := t
  done;
  (* seconds-since-epoch, not CPU seconds *)
  checkb "wall-clock scale" true (!prev > 1e9)

let day_step = 6. *. 3600.

let test_staleness_accounting () =
  let web = Web.generate ~seed:3 ~sites:4 ~pages_per_site:5 () in
  let sink, _ = Sink.memory () in
  let obs = Obs.create () in
  let t = Xyleme.create ~seed:3 ~sink ~web ~obs () in
  ignore
    (subscribe_exn t ~owner:"alice"
       ~text:
         {|subscription Fresh
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://site" and modified self
report when immediate|});
  Xyleme.run t ~days:6. ~step:day_step ~fetch_limit:50;
  let snap = Obs.snapshot obs in
  (* Every web mutation carries its virtual birth stamp; the crawler
     observes birth->fetch on each changed page it brings in. *)
  (match Obs.Snapshot.find snap ~stage:"crawler" "detection_lag" with
  | Some (Obs.Snapshot.Histogram h) ->
      checkb "changes detected" true (h.Obs.Snapshot.count > 0);
      checkb "lags are non-negative" true (h.Obs.Snapshot.sum >= 0.);
      (* A change cannot sit undetected longer than the whole run. *)
      checkb "lag bounded by run length" true
        (h.Obs.Snapshot.max_value <= 6. *. 86_400.)
  | _ -> Alcotest.fail "crawler/detection_lag histogram missing");
  (* Immediate reports propagate the birth stamp to the reporter:
     birth->report is the end-to-end notification lag. *)
  (match Obs.Snapshot.find snap ~stage:"reporter" "notification_lag" with
  | Some (Obs.Snapshot.Histogram h) ->
      checkb "notifications observed" true (h.Obs.Snapshot.count > 0)
  | _ -> Alcotest.fail "reporter/notification_lag histogram missing");
  (* The watermark gauge tracks the oldest still-undetected change. *)
  match Obs.Snapshot.find snap ~stage:"crawler" "staleness_watermark_age" with
  | Some (Obs.Snapshot.Gauge age) -> checkb "watermark age" true (age >= 0.)
  | _ -> Alcotest.fail "staleness watermark gauge missing"

let test_slo_breach_fires_report () =
  (* The alerting loop closes through the system's own pipeline: a
     breached objective is injected as an [xyleme://self/slo/...]
     document, and an ordinary subscription on that URL space turns
     it into a report — no special-cased alert path. *)
  let web = Web.generate ~seed:5 ~sites:3 ~pages_per_site:4 () in
  let sink, deliveries = Sink.memory () in
  let obs = Obs.create () in
  (* Impossible objective: detection within 1 virtual second.  Every
     detection at a 6h crawl step is bad, so both windows burn at
     1/(1-0.9) = 10x from the first evaluation with samples. *)
  let objective =
    {
      Slo.o_name = "fresh";
      o_stage = "crawler";
      o_metric = "detection_lag";
      o_threshold = 1.;
      o_target = 0.9;
      o_fast_window = 86_400.;
      o_slow_window = 2. *. 86_400.;
      o_burn_limit = 1.;
    }
  in
  let t = Xyleme.create ~seed:5 ~sink ~web ~obs ~slos:[ objective ] () in
  (* Two watchers cover both shapes a breach can take: the objective's
     document appearing already-breached, or flipping ok -> breached
     on a later evaluation (status documents are re-injected only on
     flips).  A healthy objective fires neither. *)
  ignore
    (subscribe_exn t ~owner:"oncall"
       ~text:
         {|subscription SloWatchNew
monitoring
select <SloAlert url=URL/>
where URL extends "xyleme://self/slo/" and new self and self contains "breached"
report when immediate|});
  ignore
    (subscribe_exn t ~owner:"oncall"
       ~text:
         {|subscription SloWatchFlip
monitoring
select <SloAlert url=URL/>
where URL extends "xyleme://self/slo/" and modified self\\status contains "breached"
report when immediate|});
  Xyleme.run t ~days:6. ~step:day_step ~fetch_limit:50;
  (* The engine judged the objective breached... *)
  (match Xyleme.slo_reports t with
  | [ r ] ->
      checkb "objective breached" true r.Slo.r_breached;
      checkb "burning hard" true (r.Slo.r_fast_burn >= 1.)
  | _ -> Alcotest.fail "expected one slo report");
  (* ...and the ordinary subscription saw the injected document. *)
  let fired =
    List.filter
      (fun d ->
        d.Sink.subscription = "SloWatchNew"
        || d.Sink.subscription = "SloWatchFlip")
      !deliveries
  in
  checkb "a breach watcher reported" true (fired <> []);
  List.iter
    (fun d ->
      match T.children_elements d.Sink.report with
      | alert :: _ ->
          checks "tag" "SloAlert" alert.T.tag;
          (match T.attr alert "url" with
          | Some url -> checks "url" "xyleme://self/slo/fresh.xml" url
          | None -> Alcotest.fail "alert lacks url")
      | [] -> Alcotest.fail "empty SloWatch report")
    fired

let test_restore_carries_metrics () =
  (* Warm restart must not zero the observability story: cumulative
     metrics ride the checkpoint ("obs" section) and keep counting,
     and the [system/restarts] counter records directory lifetime. *)
  with_temp_dir @@ fun dir ->
  let fresh_web () = Web.generate ~seed:7 ~sites:3 ~pages_per_site:4 () in
  let sink, _ = Sink.memory () in
  let obs1 = Obs.create () in
  let x =
    Xyleme.create ~seed:7 ~sink ~web:(fresh_web ()) ~obs:obs1 ~durable_dir:dir
      ()
  in
  ignore
    (subscribe_exn x ~owner:"alice"
       ~text:
         {|subscription D
monitoring
where modified self and URL extends "http://site"
report when count > 2 atmost daily|});
  Xyleme.run_resumable x ~days:2. ~step:day_step ~fetch_limit:50;
  ignore (Xyleme.checkpoint x);
  let fetched_before =
    Obs.Snapshot.counter_value (Obs.snapshot obs1) ~stage:"crawler" "fetches"
  in
  checkb "counted some fetches" true (fetched_before > 0);
  checki "fresh directory: no restarts" 0 (Xyleme.restarts x);
  let sink2, _ = Sink.memory () in
  let obs2 = Obs.create () in
  match
    Xyleme.restore ~seed:7 ~web:(fresh_web ()) ~sink:sink2 ~obs:obs2 ~dir ()
  with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok (x', _info) ->
      checki "restart counted" 1 (Xyleme.restarts x');
      let carried =
        Obs.Snapshot.counter_value (Obs.snapshot obs2) ~stage:"crawler" "fetches"
      in
      checkb "cumulative counter carried" true (carried >= fetched_before);
      (* The carried metrics keep counting as the run resumes. *)
      Xyleme.run_resumable x' ~days:3. ~step:day_step ~fetch_limit:50;
      let after =
        Obs.Snapshot.counter_value (Obs.snapshot obs2) ~stage:"crawler" "fetches"
      in
      checkb "still counting" true (after > carried)

(* The reproduction of a restore that handed a replaced subscription
   its predecessor's periodic deadline: the update since the last
   checkpoint is in the subscription log, its reporter op is not
   synced, and the first due [tick] used to raise from the count
   spec's missing period. *)
let test_restore_drops_replaced_deadline () =
  with_temp_dir @@ fun dir ->
  let fresh_web () = Web.generate ~seed:7 ~sites:3 ~pages_per_site:4 () in
  let text report =
    Printf.sprintf
      {|subscription D
monitoring
where modified self and URL extends "http://site"
report when %s|}
      report
  in
  let sink, _ = Sink.memory () in
  let x =
    Xyleme.create ~seed:7 ~sink ~web:(fresh_web ()) ~durable_dir:dir ()
  in
  ignore (subscribe_exn x ~owner:"alice" ~text:(text "daily"));
  Xyleme.run_resumable x ~days:2. ~step:Clock.day ~fetch_limit:50;
  ignore (Xyleme.checkpoint x);
  (match Xyleme.update x ~name:"D" ~owner:"alice" ~text:(text "count > 2") with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Xy_submgr.Manager.error_to_string e));
  Xyleme.advance x ~seconds:3600.;
  let sink2, _ = Sink.memory () in
  match Xyleme.restore ~seed:7 ~web:(fresh_web ()) ~sink:sink2 ~dir () with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok (x', _) ->
      Xyleme.run_resumable x' ~days:5. ~step:Clock.day ~fetch_limit:50;
      checki "the restored run finished" 5 (Xyleme.steps_done x')

(* A subscription replaced since the last checkpoint starts afresh in
   the reporter, restored or not: neither its predecessor's buffer nor
   its archive survive.  The group-commit batch is large enough that
   only an explicit sync puts the teardown's reporter op on disk
   before the restore reads the directory. *)
let test_restore_resets_replaced_reporter_state () =
  let module Reporter = Xy_reporter.Reporter in
  let fresh_web () = Web.generate ~seed:7 ~sites:3 ~pages_per_site:4 () in
  let text =
    {|subscription R
monitoring
where modified self and URL extends "http://site"
report when count > 500|}
  in
  let resubscribe x = ignore (subscribe_exn x ~owner:"alice" ~text) in
  let reporter_state x =
    let r = Xyleme.reporter x in
    ( Reporter.buffered_count r ~subscription:"R",
      List.map Xy_xml.Printer.element_to_string
        (Reporter.archived r ~subscription:"R") )
  in
  List.iter
    (fun (label, replace) ->
      with_temp_dir @@ fun dir ->
      let sink, _ = Sink.memory () in
      let x =
        Xyleme.create ~seed:7 ~sink ~web:(fresh_web ()) ~durable_dir:dir
          ~sync_every:1000 ()
      in
      resubscribe x;
      Xyleme.run_resumable x ~days:3. ~step:Clock.day ~fetch_limit:50;
      ignore (Xyleme.checkpoint x);
      checkb (label ^ ": notifications buffered before") true
        (fst (reporter_state x) > 0);
      (match replace x with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Xy_submgr.Manager.error_to_string e));
      let sink2, _ = Sink.memory () in
      match
        Xyleme.restore ~seed:7 ~web:(fresh_web ()) ~sink:sink2
          ~sync_every:1000 ~dir ()
      with
      | Error e -> Alcotest.failf "%s: restore failed: %s" label e
      | Ok (x', _) ->
          let live_buffered, live_archive = reporter_state x in
          let buffered, archive = reporter_state x' in
          checki (label ^ ": buffered") live_buffered buffered;
          Alcotest.(check (list string)) (label ^ ": archive") live_archive
            archive)
    [
      ("update", fun x -> Xyleme.update x ~name:"R" ~owner:"alice" ~text);
      ( "unsubscribe, subscribe",
        fun x ->
          Result.map
            (fun () -> resubscribe x)
            (Xyleme.unsubscribe x ~name:"R") );
    ]

(* The other direction of the same replacement: a count-only
   subscription updated to a daily one.  The update's teardown op is
   synced, but the new registration's deadline op is still in the
   unsynced group-commit batch when the restore reads the directory;
   the restored registration must still be timed, and report. *)
let test_restore_arms_replaced_deadline () =
  with_temp_dir @@ fun dir ->
  let fresh_web () = Web.generate ~seed:7 ~sites:3 ~pages_per_site:4 () in
  let text report =
    Printf.sprintf
      {|subscription R
monitoring
where modified self and URL extends "http://site"
report when %s|}
      report
  in
  let sink, _ = Sink.memory () in
  let x =
    Xyleme.create ~seed:7 ~sink ~web:(fresh_web ()) ~durable_dir:dir
      ~sync_every:1000 ()
  in
  ignore (subscribe_exn x ~owner:"alice" ~text:(text "count > 500"));
  Xyleme.run_resumable x ~days:3. ~step:Clock.day ~fetch_limit:50;
  ignore (Xyleme.checkpoint x);
  (match Xyleme.update x ~name:"R" ~owner:"alice" ~text:(text "daily") with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Xy_submgr.Manager.error_to_string e));
  let sink2, deliveries2 = Sink.memory () in
  match
    Xyleme.restore ~seed:7 ~web:(fresh_web ()) ~sink:sink2 ~sync_every:1000
      ~dir ()
  with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok (x', _) ->
      Xyleme.run_resumable x' ~days:5. ~step:Clock.day ~fetch_limit:50;
      checkb "the restored daily subscription reports within two days" true
        (List.exists (fun d -> d.Sink.subscription = "R") !deliveries2)

(* A crawl batch syncs the WAL once, after its last document, however
   many of its documents fire reports: with group commit out of the
   way, each crawl step adds one [fsync_batch] observation when it
   delivered reports and none otherwise. *)
let test_crawl_batch_syncs_once () =
  with_temp_dir @@ fun dir ->
  let obs = Obs.create () in
  let sink, deliveries = Sink.memory () in
  let x =
    Xyleme.create ~seed:7 ~sink ~obs
      ~web:(Web.generate ~seed:7 ~sites:3 ~pages_per_site:4 ())
      ~durable_dir:dir ~sync_every:1000 ()
  in
  ignore
    (subscribe_exn x ~owner:"alice"
       ~text:
         {|subscription Each
monitoring
where modified self and URL extends "http://site"
report when immediate|});
  let fsyncs () =
    Obs.Histogram.count (Obs.histogram obs ~stage:"durable" "fsync_batch")
  in
  Xyleme.discover x;
  let most = ref 0 in
  for _ = 1 to 6 do
    Xyleme.advance x ~seconds:Clock.day;
    let syncs = fsyncs () and delivered = List.length !deliveries in
    ignore (Xyleme.crawl_step x ~limit:50);
    let reports = List.length !deliveries - delivered in
    most := max !most reports;
    checki "one barrier per reporting batch"
      (if reports > 0 then 1 else 0)
      (fsyncs () - syncs)
  done;
  checkb "some batch fired reports on several documents" true (!most >= 2)

(* The metrics journal no ops, so only a checkpoint that re-encodes
   them keeps them current: ingests without an [advance] in between
   must still reach the restored counters. *)
let test_restore_keeps_unadvanced_metrics () =
  with_temp_dir @@ fun dir ->
  let sink, _ = Sink.memory () in
  let x = Xyleme.create ~seed:1 ~sink ~durable_dir:dir () in
  let ingest first last =
    for i = first to last do
      ignore
        (Xyleme.ingest x
           ~url:(Printf.sprintf "http://inria.fr/Xy/%d.xml" i)
           ~content:(Printf.sprintf "<a>%d</a>" i)
           ~kind:Loader.Xml)
    done
  in
  let ingested obs =
    Obs.Snapshot.counter_value (Obs.snapshot obs) ~stage:"system" "ingested"
  in
  ingest 1 3;
  ignore (Xyleme.checkpoint x);
  ingest 4 9;
  ignore (Xyleme.checkpoint x);
  checki "live system/ingested" 9 (ingested (Xyleme.obs x));
  let sink2, _ = Sink.memory () in
  match Xyleme.restore ~seed:1 ~sink:sink2 ~obs:(Obs.create ()) ~dir () with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok (x', _) -> checki "restored system/ingested" 9 (ingested (Xyleme.obs x'))

(* An [update] since the last checkpoint re-installs the continuous
   query's trigger under the same id.  Restore installs it from the
   subscription log, and replaying the WAL must not cancel it: the
   restored run keeps evaluating the query as an uninterrupted one
   does. *)
let test_restore_after_update_keeps_trigger () =
  let text =
    {|subscription Museums
continuous AmsterdamPaintings
select p/title
from culture/museum m, m/painting p
where m/address contains "Amsterdam"
try daily
report when immediate|}
  in
  let module Trigger = Xy_trigger.Trigger_engine in
  let runs x = (Trigger.stats (Xyleme.trigger x)).Trigger.periodic_runs in
  let fresh_web () = Web.generate ~seed:7 ~sites:3 ~pages_per_site:4 () in
  (* up to the update and one hour past it; returns the live system *)
  let prefix dir =
    let sink, _ = Sink.memory () in
    let x =
      Xyleme.create ~seed:7 ~sink ~web:(fresh_web ()) ~durable_dir:dir
        ~sync_every:1 ()
    in
    ignore (subscribe_exn x ~owner:"curator" ~text);
    Xyleme.run_resumable x ~days:1. ~step:Clock.day ~fetch_limit:50;
    ignore (Xyleme.checkpoint x);
    (match Xyleme.update x ~name:"Museums" ~owner:"curator" ~text with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Xy_submgr.Manager.error_to_string e));
    Xyleme.advance x ~seconds:3600.;
    x
  in
  let uninterrupted =
    with_temp_dir @@ fun dir ->
    let x = prefix dir in
    let before = runs x in
    Xyleme.run_resumable x ~days:6. ~step:Clock.day ~fetch_limit:50;
    runs x - before
  in
  checkb "the uninterrupted run evaluates the query" true (uninterrupted > 0);
  with_temp_dir @@ fun dir ->
  ignore (prefix dir);
  let sink2, _ = Sink.memory () in
  match
    Xyleme.restore ~seed:7 ~web:(fresh_web ()) ~sink:sink2 ~sync_every:1 ~dir ()
  with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok (x', _) ->
      checki "the trigger survives the restore" 1
        (List.length (Trigger.deadlines (Xyleme.trigger x')));
      let before = runs x' in
      Xyleme.run_resumable x' ~days:6. ~step:Clock.day ~fetch_limit:50;
      checki "periodic runs after the restore" uninterrupted (runs x' - before)

(* ------------------------------------------------------------------ *)
(* The alerter chain's memo of unchanged pages *)

module Chain = Xy_alerters.Chain
module Alert = Xy_alerters.Alert
module Store = Xy_warehouse.Store

let memo_subscription ~name where =
  Printf.sprintf
    "subscription %s\nmonitoring\nwhere %s and URL extends \"http://memo.example/\"\nreport when immediate"
    name where

(* Random interleavings of page edits, refetches, deletions,
   subscriptions and unsubscriptions: on every load the system's chain,
   with its memo, raises the alert that a chain created on the spot
   (empty memo) raises on the same registry and load result. *)
type memo_op =
  | Edit of int * int  (** page, content variant *)
  | Fetch of int
  | Delete of int
  | Subscribe of int  (** index into [memo_wheres] *)
  | Unsubscribe of int  (** index into the live subscriptions *)

let memo_pages =
  [|
    ("http://memo.example/a.xml", Loader.Xml);
    ("http://memo.example/b.xml", Loader.Auto);
    ("http://memo.example/n.html", Loader.Html);
    ("http://memo.example/m.html", Loader.Auto);
  |]

let memo_words = [| "camera"; "radio"; "tv" |]

(* Page 1's last variant is malformed XML, which [Auto] stores as
   HTML. *)
let memo_content page variant =
  let w1 = memo_words.(variant mod 3) and w2 = memo_words.(variant / 2 mod 3) in
  match page with
  | 1 when variant = 3 -> Printf.sprintf "<c><p>%s</c>" w1
  | 0 | 1 -> Printf.sprintf "<c><p>%s</p><q>%s</q></c>" w1 w2
  | _ -> Printf.sprintf "<html><body><h1>%s</h1><p>%s</body></html>" w1 w2

let memo_wheres =
  [|
    {|self contains "camera"|};
    {|self\\p contains "radio"|};
    {|self\\h1 contains "tv"|};
    {|self\\q|};
    {|new self\\p contains "tv"|};
    {|updated self\\q|};
    {|modified self|};
  |]

let memo_op_print = function
  | Edit (p, v) -> Printf.sprintf "edit %d/%d" p v
  | Fetch p -> Printf.sprintf "fetch %d" p
  | Delete p -> Printf.sprintf "delete %d" p
  | Subscribe w -> Printf.sprintf "subscribe %d" w
  | Unsubscribe i -> Printf.sprintf "unsubscribe %d" i

let memo_ops =
  let page = QCheck.Gen.int_bound (Array.length memo_pages - 1) in
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun p v -> Edit (p, v)) page (int_bound 3));
          (6, map (fun p -> Fetch p) page);
          (1, map (fun p -> Delete p) page);
          (2, map (fun w -> Subscribe w) (int_bound (Array.length memo_wheres - 1)));
          (2, map (fun i -> Unsubscribe i) (int_bound 7));
        ])
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map memo_op_print ops))
    QCheck.Gen.(list_size (1 -- 60) op)

let memo_equals_fresh_chain ops =
  let t, _ = make () in
  let registry = Xyleme.registry t
  and loader = Xyleme.loader t
  and chain = Xyleme.chain t in
  let variants = Array.make (Array.length memo_pages) 0 in
  let live = ref [] and next = ref 0 in
  let fresh () = Chain.create ~obs:(Obs.create ()) registry in
  let view =
    Option.map (fun a ->
        ( a.Alert.url,
          Xy_events.Event_set.to_list a.Alert.events,
          Alert.payload_string a ))
  in
  List.for_all
    (fun op ->
      match op with
      | Edit (p, v) ->
          variants.(p) <- v;
          true
      | Fetch p -> (
          let url, kind = memo_pages.(p) in
          let content = memo_content p variants.(p) in
          match Loader.load loader ~url ~content ~kind with
          | exception Loader.Rejected _ -> true
          | result ->
              view (Chain.process chain ~result ~content)
              = view (Chain.process (fresh ()) ~result ~content))
      | Delete p -> (
          let url, _ = memo_pages.(p) in
          let tree =
            Option.bind (Store.find (Xyleme.store t) url) (fun e -> e.Store.tree)
          in
          match Loader.delete loader ~url with
          | None -> true
          | Some meta ->
              view (Chain.process_deleted chain ~meta ~tree)
              = view (Chain.process_deleted (fresh ()) ~meta ~tree))
      | Subscribe w ->
          let name = Printf.sprintf "M%d" !next in
          incr next;
          ignore
            (subscribe_exn t ~owner:"o"
               ~text:(memo_subscription ~name memo_wheres.(w)));
          live := name :: !live;
          true
      | Unsubscribe i -> (
          match !live with
          | [] -> true
          | names ->
              let name = List.nth names (i mod List.length names) in
              live := List.filter (fun n -> n <> name) names;
              Result.is_ok (Xyleme.unsubscribe t ~name)))
    ops

let qcheck_memo_equals_fresh_chain =
  QCheck.Test.make ~name:"memoized chain = fresh chain" ~count:150 memo_ops
    memo_equals_fresh_chain

(* ------------------------------------------------------------------ *)
(* The warehouse view, shared by the continuous queries run between
   two store mutations *)

(* A restored store iterates its documents in another order than the
   live one did; the view must not. *)
let test_restored_view_order () =
  with_temp_dir @@ fun dir ->
  let web () = Web.generate ~seed:11 ~sites:40 ~pages_per_site:6 () in
  let sink, _ = Sink.memory () in
  let x = Xyleme.create ~seed:11 ~sink ~web:(web ()) ~durable_dir:dir () in
  for _ = 1 to 6 do
    Xyleme.advance x ~seconds:3600.;
    ignore (Xyleme.crawl_step x ~limit:64)
  done;
  ignore (Xyleme.checkpoint x);
  let printed t = Xy_xml.Printer.element_to_string (Xyleme.warehouse_view t) in
  let live = printed x in
  let sink', _ = Sink.memory () in
  match Xyleme.restore ~seed:11 ~web:(web ()) ~sink:sink' ~dir () with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok (x', _) -> checks "restored view = live view" live (printed x')

let museums =
  {|subscription Museums
continuous AmsterdamPaintings
select p/title
from culture/museum m, m/painting p
where m/address contains "Amsterdam"
try daily
report when immediate|}

let museum title =
  Printf.sprintf
    "<culture><museum><address>Amsterdam</address><painting><title>%s</title></painting></museum></culture>"
    title

(* The titles in the newest report. *)
let reported_titles deliveries =
  match !deliveries with
  | d :: _ ->
      List.concat_map
        (fun answer -> List.map T.text_content (T.children_elements answer))
        (T.children_elements d.Sink.report)
  | [] -> Alcotest.fail "expected a report"

let test_view_drops_removed_page () =
  let t, deliveries = make () in
  let ams = "http://museums.example.org/ams.xml"
  and rijks = "http://museums.example.org/rijks.xml" in
  ignore (Xyleme.ingest t ~url:ams ~content:(museum "Nightwatch") ~kind:Loader.Xml);
  ignore (Xyleme.ingest t ~url:rijks ~content:(museum "Milkmaid") ~kind:Loader.Xml);
  ignore (subscribe_exn t ~owner:"curator" ~text:museums);
  Xyleme.advance t ~seconds:(Clock.day +. 1.);
  checkb "both pages answer, in URL order" true
    (reported_titles deliveries = [ "Nightwatch"; "Milkmaid" ]);
  Xyleme.ingest_missing t ~url:rijks;
  Xyleme.advance t ~seconds:Clock.day;
  checkb "the removed page no longer answers" true
    (reported_titles deliveries = [ "Nightwatch" ])

let test_view_follows_store_snapshot () =
  let source, _ = make () in
  ignore
    (Xyleme.ingest source ~url:"http://museums.example.org/ams.xml"
       ~content:(museum "Nightwatch") ~kind:Loader.Xml);
  let snapshot = Store.encode_snapshot (Xyleme.store source) in
  let t, deliveries = make () in
  ignore (subscribe_exn t ~owner:"curator" ~text:museums);
  Xyleme.advance t ~seconds:(Clock.day +. 1.);
  checkb "an empty warehouse answers nothing" true
    (reported_titles deliveries = []);
  Store.decode_snapshot (Xyleme.store t) snapshot;
  Xyleme.advance t ~seconds:Clock.day;
  checkb "the next run sees the restored documents" true
    (reported_titles deliveries = [ "Nightwatch" ])

(* ------------------------------------------------------------------ *)
(* Reporter ops: one [N] op per alert, one [f] op per fire *)

module Reporter = Xy_reporter.Reporter
module Codec = Xy_util.Codec

let codec_string s =
  let buf = Buffer.create 16 in
  Codec.string buf s;
  Buffer.contents buf

(* A system whose reporter journals into [ops] (newest first).  Its
   commit hook does nothing, so fired reports stay pending intents. *)
let journaled () =
  let t, _ = make () in
  let ops = ref [] in
  Reporter.set_persistence (Xyleme.reporter t)
    ~journal:(Some (fun op -> ops := op :: !ops))
    ~commit:(Some ignore);
  (t, ops)

(* Each document adds a product: the page is modified and has a new
   product element, so one alert notifies [Two] under both tags.  Its
   third notification fires the report, and that is the first of the
   third alert's two: the [N] op holding it must close before the [f]
   op, or replay fires the report before buffering it. *)
let test_replay_across_closed_alert_op () =
  let t, ops = journaled () in
  let url = "http://shop.example.org/cat.xml" in
  let version n =
    "<c>"
    ^ String.concat ""
        (List.init n (Printf.sprintf "<product>p%d</product>"))
    ^ "</c>"
  in
  ignore (Xyleme.ingest t ~url ~content:(version 1) ~kind:Loader.Xml);
  let text =
    {|subscription Two
monitoring
select <Changed url=URL/>
where URL extends "http://shop.example.org/" and modified self
monitoring
select <Grown url=URL/>
where URL extends "http://shop.example.org/" and new self\\product
report when count > 2 archive weekly|}
  in
  ignore (subscribe_exn t ~owner:"alice" ~text);
  for n = 2 to 5 do
    ignore (Xyleme.ingest t ~url ~content:(version n) ~kind:Loader.Xml)
  done;
  let live = Xyleme.reporter t in
  checki "two reports fired" 2
    (List.length (Reporter.archived live ~subscription:"Two"));
  let replayed =
    Reporter.create ~clock:(Xyleme.clock t) ~sink:(Sink.null ()) ()
  in
  (match (Xy_sublang.S_parser.parse text).Xy_sublang.S_ast.report with
  | Some spec ->
      Reporter.register replayed ~subscription:"Two" ~recipient:"alice" spec
  | None -> Alcotest.fail "no report clause");
  List.iter (Reporter.apply_op replayed) (List.rev !ops);
  let archive r =
    List.map Xy_xml.Printer.element_to_string
      (Reporter.archived r ~subscription:"Two")
  in
  checki "buffer" (Reporter.buffered_count live ~subscription:"Two")
    (Reporter.buffered_count replayed ~subscription:"Two");
  checkb "archive" true (archive live = archive replayed);
  checki "pending intents" (Reporter.pending_count live)
    (Reporter.pending_count replayed);
  checkb "stats" true (Reporter.stats live = Reporter.stats replayed);
  (* seqs, intents, tag counts and buffered bytes *)
  checks "snapshot" (Reporter.encode_snapshot live)
    (Reporter.encode_snapshot replayed)

(* [name]'s buffered notifications in a snapshot: the pieces after its
   frame's head, the name and the buffer length. *)
let buffered_pieces r name =
  let n = Reporter.buffered_count r ~subscription:name in
  let head = codec_string name ^ string_of_int n ^ "\n" in
  let rec find = function
    | piece :: rest when piece = head -> List.filteri (fun i _ -> i < n) rest
    | _ :: rest -> find rest
    | [] -> []
  in
  find (List.tl (Reporter.snapshot_pieces r))

(* One alert notifies three subscriptions with the same select: they
   buffer one value, so their snapshot frames hold its one cached
   encoding (physically one string), and the alert's one [N] op holds
   those bytes once. *)
let test_alert_shares_one_value () =
  let t, ops = journaled () in
  let names = [ "A"; "B"; "C" ] in
  List.iter
    (fun name ->
      ignore
        (subscribe_exn t ~owner:name
           ~text:
             (Printf.sprintf
                {|subscription %s
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://inria.fr/Xy/" and modified self
report when count > 10|}
                name)))
    names;
  let url = "http://inria.fr/Xy/index.html" in
  ignore (Xyleme.ingest t ~url ~content:"<page>v1</page>" ~kind:Loader.Xml);
  ops := [];
  ignore (Xyleme.ingest t ~url ~content:"<page>v2</page>" ~kind:Loader.Xml);
  let reporter = Xyleme.reporter t in
  match List.map (buffered_pieces reporter) names with
  | [ [ a ]; [ b ]; [ c ] ] ->
      checkb "one physical value" true (a == b && b == c);
      let entries =
        let buf = Buffer.create 32 in
        Codec.list buf
          (fun buf name ->
            Codec.string buf name;
            Codec.int buf 0)
          names;
        Buffer.contents buf
      in
      checkb "one N op, the value's bytes once" true
        (List.filter
           (fun op -> String.starts_with ~prefix:(codec_string "N") op)
           !ops
        = [ codec_string "N" ^ "1\n" ^ a ^ entries ])
  | _ -> Alcotest.fail "expected one buffered notification each"

(* Reporter ops read back from the disk are checked where they are
   decoded: a damaged [N] or [f] op (a bad count or index, a field that
   does not decode, XML that does not parse) fails the restore with an
   error, and no exception escapes it.  The well-formed op restores. *)
let test_restore_refuses_damaged_reporter_ops () =
  let op fields =
    let buf = Buffer.create 64 in
    fields buf;
    Buffer.contents buf
  in
  let n_op ~values ~index buf =
    Codec.string buf "N";
    Codec.int buf values;
    for _ = 1 to values do
      Codec.bool buf true;
      Codec.string buf "UpdatedPage";
      Codec.float buf 0.;
      Codec.bool buf false;
      Codec.string buf "<N/>"
    done;
    Codec.int buf 1;
    Codec.string buf "S";
    Codec.int buf index
  in
  let f_head buf =
    Codec.string buf "f";
    Codec.string buf "S";
    Codec.float buf 1.;
    Codec.string buf "<Report/>"
  in
  let restored payload =
    with_temp_dir @@ fun dir ->
    let sink, _ = Sink.memory () in
    let t = Xyleme.create ~seed:1 ~sink ~durable_dir:dir () in
    ignore
      (subscribe_exn t ~owner:"alice"
         ~text:
           {|subscription S
monitoring
where URL extends "http://inria.fr/Xy/" and modified self
report when count > 5|});
    let info = Xyleme.checkpoint t in
    let wal =
      Filename.concat dir (Printf.sprintf "gen-%d.wal" info.Xyleme.generation)
    in
    Out_channel.with_open_gen [ Open_wronly; Open_append; Open_binary ] 0o644
      wal (fun oc ->
        Xy_durable.Durable.Wal.append_txn oc
          [ { Xy_durable.Durable.stage = "reporter"; payload } ]);
    match Xyleme.restore ~seed:1 ~sink ~dir () with
    | Ok (t', _) ->
        Ok (Reporter.buffered_count (Xyleme.reporter t') ~subscription:"S")
    | Error e -> Error e
  in
  (match restored (op (n_op ~values:1 ~index:0)) with
  | Ok buffered -> checki "a well-formed N op is replayed" 1 buffered
  | Error e -> Alcotest.failf "a well-formed N op: %s" e);
  List.iter
    (fun (name, payload) ->
      match restored payload with
      | Error e ->
          checkb (name ^ ": " ^ e) true
            (String.starts_with ~prefix:"damaged durable state: " e)
      | Ok _ -> Alcotest.failf "%s: restored" name
      | exception e ->
          Alcotest.failf "%s: raised %s" name (Printexc.to_string e))
    [
      ("N op, negative value count", op (n_op ~values:(-1) ~index:0));
      ("N op, index past its values", op (n_op ~values:1 ~index:1));
      ("N op, negative index", op (n_op ~values:1 ~index:(-1)));
      ("N op, index into no values", op (n_op ~values:0 ~index:0));
      ( "f op, negative recipient count",
        op (fun buf ->
            f_head buf;
            Codec.int buf (-2)) );
      ( "f op, recipient list cut short",
        op (fun buf ->
            f_head buf;
            Codec.int buf 2;
            Codec.int buf 7;
            Codec.string buf "alice") );
      ( "f op, a seq that is no number",
        op (fun buf ->
            f_head buf;
            Codec.int buf 1;
            Codec.string buf "seven";
            Codec.string buf "alice") );
      ( "f op, a report that does not parse",
        op (fun buf ->
            Codec.string buf "f";
            Codec.string buf "S";
            Codec.float buf 1.;
            Codec.string buf "<Report><x></Report>";
            Codec.int buf 0) );
      ( "N op, a body that does not parse",
        op (fun buf ->
            Codec.string buf "N";
            Codec.int buf 1;
            Codec.bool buf true;
            Codec.string buf "UpdatedPage";
            Codec.float buf 0.;
            Codec.bool buf false;
            Codec.string buf "<N";
            Codec.int buf 0) );
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "system"
    [
      ( "paper scenarios",
        [
          tc "updated page report" test_ingest_updated_page_report;
          tc "new member element" test_new_member_element_report;
          tc "catalog watch with word" test_catalog_watch_with_word;
          tc "continuous over warehouse" test_continuous_query_over_warehouse;
          tc "continuous delta" test_continuous_delta;
          tc "notification-triggered continuous" test_notification_triggered_continuous;
          tc "disjunctive monitoring" test_disjunctive_monitoring;
          tc "deleted page" test_deleted_page_event;
          tc "batched report" test_batch_report_count;
        ] );
      ( "pipeline",
        [
          tc "crawl loop end to end" test_crawl_loop_end_to_end;
          tc "unsubscribe stops reports" test_unsubscribe_stops_reports;
          tc "update replaces subscription" test_update_subscription_system;
          tc "warehouse view" test_warehouse_view_shape;
          tc "persistence roundtrip" test_persistence_roundtrip;
          tc "durable ingest delivers" test_durable_ingest_delivers;
          tc "restore keeps a virtual dependent"
            test_restore_keeps_virtual_dependent;
          tc "stats" test_stats_consistency;
          tc "trace covers pipeline" test_trace_covers_pipeline;
          tc "self-monitor subscription" test_self_monitor_subscription_fires;
        ] );
      ("memo", [ QCheck_alcotest.to_alcotest qcheck_memo_equals_fresh_chain ]);
      ( "warehouse view",
        [
          tc "restore keeps document order" test_restored_view_order;
          tc "removed page leaves the view" test_view_drops_removed_page;
          tc "store snapshot refreshes the view" test_view_follows_store_snapshot;
        ] );
      ( "freshness",
        [
          tc "monotonic wall" test_monotonic_wall;
          tc "staleness accounting" test_staleness_accounting;
          tc "slo breach fires report" test_slo_breach_fires_report;
          tc "restore carries metrics" test_restore_carries_metrics;
        ] );
      ( "durability",
        [
          tc "restore drops a replaced subscription's deadline"
            test_restore_drops_replaced_deadline;
          tc "restore resets a replaced subscription's reporter state"
            test_restore_resets_replaced_reporter_state;
          tc "restore arms a replaced subscription's deadline"
            test_restore_arms_replaced_deadline;
          tc "a crawl batch syncs once" test_crawl_batch_syncs_once;
          tc "restore keeps metrics checkpointed without an advance"
            test_restore_keeps_unadvanced_metrics;
          tc "restore after update keeps a continuous query"
            test_restore_after_update_keeps_trigger;
        ] );
      ( "reporter ops",
        [
          tc "replay across a closed N op" test_replay_across_closed_alert_op;
          tc "an alert shares one value" test_alert_shares_one_value;
          tc "restore refuses damaged N and f ops"
            test_restore_refuses_damaged_reporter_ops;
        ] );
    ]
