(* The parallel engine must be observationally identical to the
   serial loop: same notification multiset, same stats, same
   per-stage counter totals — on both distribution axes, with every
   matcher, with and without worker-death faults — and a sampled
   document's trace must stay connected across its domains.  Plus the
   worker pool's own contract (a raising worker, domains spawned once)
   and the one wall clock every domain reads. *)

module Xyleme = Xy_system.Xyleme
module Parallel = Xy_system.Parallel
module Web = Xy_crawler.Synthetic_web
module Sink = Xy_reporter.Sink
module Loader = Xy_warehouse.Loader
module Mqp = Xy_core.Mqp
module Obs = Xy_obs.Obs
module Trace = Xy_trace.Trace

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Serial ≡ parallel equivalence *)

let subscription_text i ~sites =
  let site = i mod sites in
  match i mod 3 with
  | 0 ->
      Printf.sprintf
        {|subscription P%d
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://site%d.example.org/" and modified self
report when immediate|}
        i site
  | 1 ->
      Printf.sprintf
        {|subscription N%d
monitoring
where new self\\product contains "%s" and URL extends "http://site%d.example.org/"
report when count > 3 atmost weekly|}
        i
        [| "camera"; "television"; "laptop"; "speaker" |].(i mod 4)
        site
  | _ ->
      Printf.sprintf
        {|subscription W%d
monitoring
where self contains "%s" and URL extends "http://site%d.example.org/"
report when count > 5 atmost weekly|}
        i
        [| "wireless"; "portable"; "digital"; "stereo" |].(i mod 4)
        site

(* One deterministic workload: a small synthetic web evolved over
   [rounds] batches through [ingest_batch], each batch with one
   unparseable page the loader quarantines.  Returns the notification
   multiset (sorted), the delivery count, the headline stats and the
   metrics snapshot. *)
let run_workload ?algorithm ?fault_plan ?parallel ~rounds () =
  let sites = 6 in
  let web = Web.generate ~seed:5 ~sites ~pages_per_site:4 () in
  let sink, deliveries = Sink.memory () in
  let obs = Obs.create () in
  let t =
    Xyleme.create ~seed:11 ?algorithm ~sink ~web ~obs ?fault_plan ?parallel ()
  in
  for i = 0 to 17 do
    match Xyleme.subscribe t ~owner:(Printf.sprintf "u%d" i)
            ~text:(subscription_text i ~sites)
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Xy_submgr.Manager.error_to_string e)
  done;
  let notifs = ref [] in
  Mqp.on_batch (Xyleme.mqp t) (fun alert matched ->
      List.iter
        (fun id ->
          notifs :=
            Printf.sprintf "%d|%s|%s" id alert.Mqp.url alert.Mqp.payload
            :: !notifs)
        matched);
  for _round = 1 to rounds do
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
    let broken =
      { Xyleme.bd_url = "http://site0.example.org/broken.xml";
        bd_content = Some "<a><b>"; bd_kind = Loader.Xml; bd_trace = None;
        bd_birth = None }
    in
    Xyleme.ingest_batch t (broken :: docs);
    Xy_util.Clock.advance (Xyleme.clock t) 3600.;
    ignore (Web.evolve web ~elapsed:3600.)
  done;
  ( List.sort compare !notifs,
    List.length !deliveries,
    Xyleme.stats t,
    Obs.snapshot obs )

(* Counter totals per stage, excluding the stages that legitimately
   differ between modes: [bus] (the parallel engine's hand-off stage)
   and [fault] (deaths/respawns exist only in parallel runs). *)
let pipeline_counters (snap : Obs.Snapshot.t) =
  List.filter_map
    (fun e ->
      match e.Obs.Snapshot.value with
      | Obs.Snapshot.Counter n
        when e.Obs.Snapshot.stage <> "bus" && e.Obs.Snapshot.stage <> "fault" ->
          Some (e.Obs.Snapshot.stage, e.Obs.Snapshot.name, n)
      | _ -> None)
    snap.Obs.Snapshot.entries

let check_equiv ~label (serial : _ * _ * Xyleme.stats * _) parallel_run =
  let s_notifs, s_deliv, s_stats, s_snap = serial in
  let p_notifs, p_deliv, p_stats, p_snap = parallel_run in
  Alcotest.(check (list string))
    (label ^ ": notification multiset") s_notifs p_notifs;
  checki (label ^ ": deliveries") s_deliv p_deliv;
  checki (label ^ ": notifications") s_stats.Xyleme.notifications
    p_stats.Xyleme.notifications;
  checki (label ^ ": alerts") s_stats.Xyleme.alerts_sent
    p_stats.Xyleme.alerts_sent;
  checki (label ^ ": stored") s_stats.Xyleme.documents_stored
    p_stats.Xyleme.documents_stored;
  checki (label ^ ": reports") s_stats.Xyleme.reports p_stats.Xyleme.reports;
  let quarantined snap =
    Obs.Snapshot.counter_value snap ~stage:"fault" "quarantined"
  in
  checkb (label ^ ": pages quarantined") true (quarantined s_snap > 0);
  checki (label ^ ": quarantined") (quarantined s_snap) (quarantined p_snap);
  List.iter2
    (fun (st, n, sv) (pt, pn, pv) ->
      Alcotest.(check string) (label ^ ": counter name") (st ^ "/" ^ n)
        (pt ^ "/" ^ pn);
      checki (label ^ ": counter " ^ st ^ "/" ^ n) sv pv)
    (pipeline_counters s_snap)
    (pipeline_counters p_snap)

let parallel ~domains ~shards axis = { Parallel.domains; shards; axis }

let serial_baseline = lazy (run_workload ~rounds:3 ())

(* Each axis runs the default matcher at two shapes and the counting
   matcher at one; every matcher returns the same matches, so all of
   them reproduce the default matcher's serial run. *)
let check_axis axis ~name shapes =
  let serial = Lazy.force serial_baseline in
  List.iter
    (fun (algorithm, domains, shards) ->
      check_equiv
        ~label:
          (Printf.sprintf "%s/%dx%d/%s" name domains shards
             (Mqp.algorithm_name_of algorithm))
        serial
        (run_workload ~algorithm ~rounds:3
           ~parallel:(parallel ~domains ~shards axis)
           ()))
    shapes

let test_equiv_docs_axis () =
  check_axis Parallel.By_documents ~name:"docs"
    [ (Mqp.Use_aes, 3, 2); (Mqp.Use_aes, 2, 3); (Mqp.Use_counting, 2, 2) ]

let test_equiv_subs_axis () =
  check_axis Parallel.By_subscriptions ~name:"subs"
    [ (Mqp.Use_aes, 2, 3); (Mqp.Use_aes, 3, 2); (Mqp.Use_counting, 4, 3) ]

(* Worker-death faults: shards die holding work, the supervisor
   respawns each of them with that work carried over — the output must
   not change.  The serial baseline runs without the fault plan (the
   [worker] point only exists in the parallel engine). *)
let test_equiv_worker_deaths () =
  let serial = Lazy.force serial_baseline in
  let fault_counter (_, _, _, snap) name =
    Obs.Snapshot.counter_value snap ~stage:"fault" name
  in
  List.iter
    (fun (label, config) ->
      let run =
        run_workload ~rounds:3 ~fault_plan:[ ("worker", 0.5) ] ~parallel:config
          ()
      in
      let deaths = fault_counter run "worker_deaths" in
      checkb (label ^ ": deaths occurred") true (deaths > 0);
      checki (label ^ ": every death respawned") deaths
        (fault_counter run "worker_respawns");
      check_equiv ~label serial run)
    [
      ("docs/deaths", parallel ~domains:3 ~shards:2 Parallel.By_documents);
      ("subs/deaths", parallel ~domains:2 ~shards:3 Parallel.By_subscriptions);
    ]

(* Randomized sweep over the configuration space: any (matcher,
   domains, shards, axis, faults) must reproduce the serial multiset
   of the default matcher, since every matcher returns the same
   matches. *)
let qcheck_equiv =
  let gen =
    QCheck.make
      ~print:(fun (algorithm, d, s, ax, fault) ->
        Printf.sprintf "algorithm=%s domains=%d shards=%d axis=%s fault=%b"
          (Mqp.algorithm_name_of algorithm) d s
          (match ax with
          | Parallel.By_documents -> "docs"
          | Parallel.By_subscriptions -> "subs")
          fault)
      QCheck.Gen.(
        let* algorithm = oneofl Mqp.algorithms in
        let* d = int_range 2 4 in
        let* s = int_range 1 4 in
        let* ax = oneofl [ Parallel.By_documents; Parallel.By_subscriptions ] in
        let* fault = bool in
        return (algorithm, d, s, ax, fault))
  in
  QCheck.Test.make ~name:"parallel = serial for any configuration" ~count:8 gen
    (fun (algorithm, domains, shards, axis, fault) ->
      let s_notifs, s_deliv, _, _ = Lazy.force serial_baseline in
      let p_notifs, p_deliv, _, _ =
        run_workload ~algorithm ~rounds:3
          ?fault_plan:(if fault then Some [ ("worker", 0.3) ] else None)
          ~parallel:(parallel ~domains ~shards axis)
          ()
      in
      s_notifs = p_notifs && s_deliv = p_deliv)

(* ------------------------------------------------------------------ *)
(* The worker pool *)

(* A worker that raises hands its exception back to the caller, which
   re-raises it once the batch's workers are idle; no later document
   is drained, and the next batch runs on the same pool. *)
let test_worker_exception () =
  let docs = Array.init 8 (Printf.sprintf "http://pool.example.org/%d.xml") in
  let run ?fail_on () =
    let drained = ref [] in
    let outcome =
      match
        Parallel.run
          (parallel ~domains:2 ~shards:1 Parallel.By_documents)
          ~obs:(Obs.create ()) ~docs ~kill:(Array.make 8 false) ~url_of:Fun.id
          ~trace_of:(fun _ -> None)
          ~worker:(fun ~slot:_ url ->
            if Some url = Option.map (Array.get docs) fail_on then
              failwith "worker failed"
            else String.length url)
          ~drain:(fun idx _ -> drained := idx :: !drained)
          ()
      with
      | () -> Ok ()
      | exception e -> Error e
    in
    (outcome, List.rev !drained)
  in
  let outcome, drained = run ~fail_on:3 () in
  checkb "the worker's exception comes back" true
    (outcome = Error (Failure "worker failed"));
  checkb "nothing drained past the failed document" true
    (List.for_all (fun idx -> idx < 3) drained);
  let outcome, drained = run () in
  checkb "the pool runs the next batch" true (outcome = Ok ());
  Alcotest.(check (list int)) "every document drained, in order"
    (List.init 8 Fun.id) drained

(* The pool's domains are spawned once per process, not per batch: a
   probe domain's id (ids are never reused) moves by at most the pool
   size plus the probe itself across 20 batches. *)
let test_domains_spawned_once () =
  let probe () = Domain.join (Domain.spawn (fun () -> (Domain.self () :> int))) in
  let sink, _ = Sink.memory () in
  let t =
    Xyleme.create ~seed:3 ~sink ~obs:(Obs.create ())
      ~parallel:(parallel ~domains:2 ~shards:2 Parallel.By_documents)
      ()
  in
  let batch round =
    List.init 8 (fun i ->
        { Xyleme.bd_url = Printf.sprintf "http://pool.example.org/%d.xml" i;
          bd_content = Some (Printf.sprintf "<page><p>v%d</p></page>" round);
          bd_kind = Loader.Xml; bd_trace = None; bd_birth = None })
  in
  let before = probe () in
  for round = 1 to 20 do
    Xyleme.ingest_batch t (batch round)
  done;
  let spawned = probe () - before in
  checkb
    (Printf.sprintf "%d domain(s) spawned for 20 batches (pool size %d)"
       spawned Parallel.pool_size)
    true
    (spawned <= Parallel.pool_size + 1)

(* ------------------------------------------------------------------ *)
(* Trace propagation *)

(* A sampled document's trace context rides the document to its pool
   worker; the spans recorded there (hand-off wait, MQP match) must
   land in that document's own trace — one connected trace per sampled
   document, no orphaned spans and no stray traces. *)
let test_trace_propagation () =
  let sink, _ = Sink.memory () in
  let t =
    Xyleme.create ~seed:5 ~sink ~obs:(Obs.create ())
      ~parallel:(parallel ~domains:2 ~shards:3 Parallel.By_documents)
      ()
  in
  (match
     Xyleme.subscribe t ~owner:"trace"
       ~text:
         {|subscription Traced
monitoring
where self contains "payload" and URL extends "http://trace.example.org/"
report when immediate|}
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Xy_submgr.Manager.error_to_string e));
  let tracer = Xyleme.tracer t in
  let sampled = ref [] in
  let docs =
    List.init 30 (fun i ->
        let url = Printf.sprintf "http://trace.example.org/page-%d.xml" i in
        let trace =
          if i mod 3 = 0 then begin
            let ctx = Trace.start_always tracer ~root:url in
            sampled := (url, ctx) :: !sampled;
            Some ctx
          end
          else None
        in
        { Xyleme.bd_url = url;
          bd_content = Some (Printf.sprintf "<page><p>payload %d</p></page>" i);
          bd_kind = Loader.Xml; bd_trace = trace; bd_birth = None })
  in
  Xyleme.ingest_batch t docs;
  checki "every sampled document started a trace" (List.length !sampled)
    (Trace.started tracer);
  checki "every started trace completed, no orphans" (List.length !sampled)
    (Trace.completed tracer);
  let traces = Trace.traces tracer in
  Alcotest.(check (list int)) "trace ids are exactly the sampled ones"
    (List.sort compare (List.map (fun (_, ctx) -> Trace.trace_id ctx) !sampled))
    (List.sort compare (List.map (fun tr -> tr.Trace.tr_id) traces));
  List.iter
    (fun tr ->
      let has stage name =
        List.exists
          (fun sp -> sp.Trace.sp_stage = stage && sp.Trace.sp_name = name)
          tr.Trace.tr_spans
      in
      checkb
        (Printf.sprintf "%s: queue wait attributed across domains"
           tr.Trace.tr_root)
        true (has "bus" "wait");
      checkb
        (Printf.sprintf "%s: match span recorded on a shard domain"
           tr.Trace.tr_root)
        true (has "mqp" "match");
      checkb
        (Printf.sprintf "%s: root is the sampled document" tr.Trace.tr_root)
        true
        (List.mem_assoc tr.Trace.tr_root !sampled))
    traces

(* ------------------------------------------------------------------ *)
(* Wall clock *)

(* No entry point installs a timer: [Obs] and [Trace] read the one
   process clock, [Obs.now], on every domain, and creating a system or
   running its parallel batches leaves that clock as it was.  Across
   two systems' batches, the caller's readings never retreat and every
   span the pool workers record lies within the readings around its
   own batch. *)
let test_wall_idempotent () =
  let batch seed =
    let sink, _ = Sink.memory () in
    let t =
      Xyleme.create ~seed ~sink ~obs:(Obs.create ())
        ~parallel:(parallel ~domains:2 ~shards:2 Parallel.By_documents)
        ()
    in
    let tracer = Xyleme.tracer t in
    Xyleme.ingest_batch t
      (List.init 6 (fun i ->
           let url = Printf.sprintf "http://wall.example.org/%d-%d.xml" seed i in
           { Xyleme.bd_url = url;
             bd_content = Some (Printf.sprintf "<page><p>v%d</p></page>" i);
             bd_kind = Loader.Xml;
             bd_trace = Some (Trace.start_always tracer ~root:url);
             bd_birth = None }));
    Trace.traces tracer
  in
  let within lo hi traces =
    traces <> []
    && List.for_all
         (fun tr ->
           List.exists (fun sp -> sp.Trace.sp_stage = "bus") tr.Trace.tr_spans
           && List.for_all
                (fun sp ->
                  lo <= sp.Trace.sp_start_wall
                  && sp.Trace.sp_dur_wall >= 0.
                  && sp.Trace.sp_start_wall +. sp.Trace.sp_dur_wall <= hi)
                tr.Trace.tr_spans)
         traces
  in
  let t0 = Obs.now () in
  let first = batch 1 in
  let t1 = Obs.now () in
  let second = batch 2 in
  let t2 = Obs.now () in
  checkb "never retreats" true (t0 <= t1 && t1 <= t2);
  checkb "first system's worker spans within its batch" true (within t0 t1 first);
  checkb "second system's worker spans within its batch" true
    (within t1 t2 second)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "parallel"
    [
      ( "primitives",
        [
          Alcotest.test_case "wall timers idempotent" `Quick test_wall_idempotent;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "document axis" `Quick test_equiv_docs_axis;
          Alcotest.test_case "subscription axis" `Quick test_equiv_subs_axis;
          Alcotest.test_case "worker deaths" `Quick test_equiv_worker_deaths;
          QCheck_alcotest.to_alcotest qcheck_equiv;
        ] );
      ( "pool",
        [
          Alcotest.test_case "worker exception" `Quick test_worker_exception;
          Alcotest.test_case "domains spawned once" `Quick
            test_domains_spawned_once;
        ] );
      ( "tracing",
        [ Alcotest.test_case "trace propagation" `Quick test_trace_propagation ] );
    ]
