(* xybench: the repository benchmark.  It drives the system only
   through public calls and times each call from outside; README.md
   describes the workloads and metrics.

     xybench.exe --seed S [--workload W] [--runs N] [--trace FILE]
                 [--seconds T] [--scale F]

   One workload runs in this process.  Without [--workload], or with
   [--runs] above 1, every run is a fresh child process (heap state left
   by one workload biases the next), in alternating workload order. *)

module Xyleme = Xy_system.Xyleme
module Parallel = Xy_system.Parallel
module Loader = Xy_warehouse.Loader
module Store = Xy_warehouse.Store
module Chain = Xy_alerters.Chain
module Alert = Xy_alerters.Alert
module Mqp = Xy_core.Mqp
module Naive = Xy_core.Naive
module Sink = Xy_reporter.Sink
module Trigger = Xy_trigger.Trigger_engine
module Obs = Xy_obs.Obs
module Snapshot = Xy_obs.Obs.Snapshot
module Client = Xy_serve.Client
module Serve = Xy_serve.Serve
module Printer = Xy_xml.Printer

let workloads = [ "ingest"; "ingest-par2"; "churn"; "monitor" ]

(* The system's own seed stays constant: [--seed] varies the inputs. *)
let system_seed = 9

(* Set-ups per run; [setup_s] is their median. *)
let setups = 3
let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

type config = {
  workload : string;
  seed : int;
  seconds : float;
  sizes : Gen.sizes;
  trace : string option;
}

(* ------------------------------------------------------------------ *)
(* Results *)

type result = {
  mutable metrics : (string * float * string * int) list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable checks : (string * bool * string) list;
}

let metric r name value unit_ n = r.metrics <- (name, value, unit_, n) :: r.metrics
let check r name ok detail = r.checks <- (name, ok, detail) :: r.checks
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let scale_of = function "ms" -> 1e3 | "us" -> 1e6 | _ -> 1.

(* Exact percentiles of latency samples (seconds), each printed only
   when at least ten samples lie beyond it. *)
let percentiles r prefix ~unit_ samples ps =
  let sorted = Stats.sorted samples in
  let n = Array.length sorted in
  List.iter
    (fun p ->
      let p = float_of_int p in
      if Stats.supported ~n p then
        metric r
          (Printf.sprintf "%s_p%.0f_%s" prefix p unit_)
          (scale_of unit_ *. Stats.percentile sorted p)
          unit_ n)
    ps

let mean_metric r name ~unit_ samples =
  metric r name (scale_of unit_ *. Stats.mean samples) unit_ (List.length samples)

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

(* The largest the major heap has been, and the live heap after a full
   major collection: what the system retains once its outputs are
   drained.  The peak depends on when collections happen to run; the
   live heap repeats. *)
let heap_metrics r =
  metric r "peak_heap_mb" (mb (Gc.quick_stat ()).Gc.top_heap_words) "MB" 1;
  Gc.full_major ();
  metric r "live_heap_mb" (mb (Gc.stat ()).Gc.live_words) "MB" 1

(* ------------------------------------------------------------------ *)
(* Span names: one per layer call the benchmark wraps. *)

let s_batch = Spans.name "batch"
let s_docid = Spans.name "warehouse.docid"
let s_load = Spans.name "warehouse.load"
let s_process = Spans.name "alerters.process"
let s_match = Spans.name "mqp.match"
let s_dispatch = Spans.name "reporter.dispatch"
let s_sink = Spans.name "reporter.sink"
let s_subscribe = Spans.name "submgr.subscribe"
let s_unsubscribe = Spans.name "submgr.unsubscribe"
let s_update = Spans.name "submgr.update"
let s_advance = Spans.name "system.advance"
let s_crawl = Spans.name "system.crawl_step"
let s_checkpoint = Spans.name "durable.checkpoint"

(* ------------------------------------------------------------------ *)
(* Output capture *)

(* The bench's report sink.  Inside the timed calls it only stamps and
   keeps each delivery; rendering and digesting happen between calls. *)
type recorder = {
  mutable fresh : (Sink.delivery * float) list;  (** newest first *)
  mutable digest : string;
  mutable deliveries : int;
}

let sink sp rc =
  {
    Sink.deliver =
      (fun d ->
        Spans.with_span sp s_sink (fun () ->
            rc.fresh <- (d, now ()) :: rc.fresh));
  }

(* Fold the deliveries made since the last call into the digest of the
   ordered delivery stream (seq, recipient, subscription, printed
   report); [f] sees each one with its rendering and stamp. *)
let absorb rc f =
  List.iter
    (fun ((d : Sink.delivery), stamp) ->
      let body = Printer.element_to_string d.report in
      rc.digest <-
        Digest.string
          (Printf.sprintf "%s%d\000%s\000%s\000%s" rc.digest d.seq d.recipient
             d.subscription body);
      rc.deliveries <- rc.deliveries + 1;
      f d body stamp)
    (List.rev rc.fresh);
  rc.fresh <- []

(* The alerts of every 64th batch (or crawl step), captured through
   [Mqp.on_batch] with their match lists and checked between timed calls
   against the naive matcher over the subscription set [Mqp.iter_complex]
   exports.  Whole batches keep the 1-in-64 ratio while rebuilding the
   naive matcher only once per sampled batch under churn. *)
type oracle = {
  mutable capture : bool;
  mutable samples : (Xy_events.Event_set.t * int list) list;
  mutable naive : (int * Naive.t) option;  (** built at this mutation epoch *)
  mutable checked : int;
  mutable mismatches : int;
}

let oracle mqp =
  let o =
    { capture = false; samples = []; naive = None; checked = 0; mismatches = 0 }
  in
  Mqp.on_batch mqp (fun alert matched ->
      if o.capture then o.samples <- (alert.Mqp.events, matched) :: o.samples);
  o

let sample_next o ~step = o.capture <- step mod 64 = 0

let verify o mqp =
  o.capture <- false;
  if o.samples <> [] then begin
    let epoch = Mqp.mutations mqp in
    let naive =
      match o.naive with
      | Some (e, n) when e = epoch -> n
      | _ ->
          let n = Naive.create () in
          Mqp.iter_complex mqp (fun ~id events -> Naive.add n ~id events);
          o.naive <- Some (epoch, n);
          n
    in
    List.iter
      (fun (events, matched) ->
        o.checked <- o.checked + 1;
        if Naive.match_set naive events <> matched then
          o.mismatches <- o.mismatches + 1)
      o.samples;
    o.samples <- []
  end

let check_oracle r ?(phase = "") o =
  check r (phase ^ "matches-equal-naive") (o.mismatches = 0 && o.checked > 0)
    (Printf.sprintf "%d sampled alerts, %d mismatches" o.checked o.mismatches)

(* ------------------------------------------------------------------ *)
(* A system under test with its subscription load *)

type sys = {
  x : Xyleme.t;
  gen : Gen.subscriptions;
  churn_rng : Random.State.t;
  mutable oldest : int;  (** lowest live subscription index *)
  stream : Gen.stream;
  rc : recorder;
  oracle : oracle;
  sp : Spans.t;
  sub_lat : float list ref;  (** every [Xyleme.subscribe], set-up included *)
  unsub_lat : float list ref;
  update_lat : float list ref;
}

(* One subscription-manager call, timed and counted. *)
let op r sys name lat f =
  r.attempted <- r.attempted + 1;
  let res, dt = timed (fun () -> Spans.with_span sys.sp name f) in
  lat := dt :: !lat;
  (match res with Ok _ -> () | Error _ -> r.failed <- r.failed + 1);
  dt

let subscribe r sys =
  let owner, text = Gen.fresh sys.gen in
  op r sys s_subscribe sys.sub_lat (fun () ->
      Xyleme.subscribe sys.x ~owner ~text)

let unsubscribe_oldest r sys =
  let name = Gen.name sys.oldest in
  sys.oldest <- sys.oldest + 1;
  op r sys s_unsubscribe sys.unsub_lat (fun () -> Xyleme.unsubscribe sys.x ~name)

let update_random r sys =
  let live = Gen.count sys.gen - sys.oldest in
  let i = sys.oldest + Random.State.int sys.churn_rng live in
  let text = Gen.text sys.gen i in
  op r sys s_update sys.update_lat (fun () ->
      Xyleme.update sys.x ~name:(Gen.name i) ~owner:(Gen.owner i) ~text)

(* [create] builds the system around the bench sink and the seeded web;
   the whole subscription population then goes in through
   [Xyleme.subscribe]. *)
let setup r cfg ~monitor ~create =
  let rc = { fresh = []; digest = ""; deliveries = 0 } in
  let sp = Spans.create () in
  let web = Gen.web ~seed:cfg.seed cfg.sizes in
  let x = create ~sink:(sink sp rc) ~web in
  let sys =
    {
      x;
      gen = Gen.subscriptions ~seed:cfg.seed ~monitor cfg.sizes;
      churn_rng = Random.State.make [| cfg.seed; 2 |];
      oldest = 0;
      stream = Gen.stream ~web ~clock:(Xyleme.clock x);
      rc;
      oracle = oracle (Xyleme.mqp x);
      sp;
      sub_lat = ref [];
      unsub_lat = ref [];
      update_lat = ref [];
    }
  in
  for _ = 1 to cfg.sizes.Gen.subscriptions do
    ignore (subscribe r sys)
  done;
  sys

(* Each set-up starts from a compacted heap. *)
let set_up times f =
  Gc.compact ();
  let sys, dt = timed f in
  times := dt :: !times;
  sys

let report_setup r times =
  metric r "setup_s" (Stats.median times) "s" (List.length times)

(* ------------------------------------------------------------------ *)
(* ingest, ingest-par2, churn *)

(* [Xyleme.ingest_batch]'s serial work as a chain of public calls: the
   DOCID pre-pass, then per document [Loader.load], [Chain.process],
   [Mqp.match_readonly] and [Mqp.dispatch_matched], each in its own
   span.  The sink's span nests inside dispatch. *)
let ingest_chain sys docs =
  let sp = sys.sp in
  let store = Xyleme.store sys.x
  and loader = Xyleme.loader sys.x
  and chain = Xyleme.chain sys.x
  and mqp = Xyleme.mqp sys.x in
  Spans.with_span sp s_batch @@ fun () ->
  Spans.with_span sp s_docid (fun () ->
      List.iter
        (fun (d : Xyleme.batch_doc) ->
          if not (Store.has_docid store ~url:d.bd_url) then
            ignore (Store.allocate_docid store ~url:d.bd_url))
        docs);
  List.iter
    (fun (d : Xyleme.batch_doc) ->
      let content = Option.get d.bd_content in
      let result =
        Spans.with_span sp s_load (fun () ->
            Loader.load loader ~url:d.bd_url ~content ~kind:d.bd_kind)
      in
      let alert =
        Spans.with_span sp s_process (fun () ->
            Option.map
              (fun (a : Alert.t) ->
                {
                  Mqp.url = a.url;
                  events = a.events;
                  payload = Alert.payload_string a;
                  trace = None;
                  birth = None;
                })
              (Chain.process chain ~result ~content))
      in
      Option.iter
        (fun (alert : Mqp.alert) ->
          let matched, latency =
            timed (fun () ->
                Spans.with_span sp s_match (fun () ->
                    Mqp.match_readonly mqp alert.events))
          in
          ignore
            (Spans.with_span sp s_dispatch (fun () ->
                 Mqp.dispatch_matched mqp alert ~matched ~latency)))
        alert)
    docs

(* A measured phase.  Its work is split into chunks (a sweep of the web,
   or a virtual day of crawl steps) whose throughputs are kept apart:
   [docs_per_s] is their median, so a few seconds of interference from
   other tenants of the machine do not move it. *)
type phase = {
  mutable docs : int;
  mutable busy : float;  (** summed wall time of the timed calls *)
  mutable steps : float list;
  mutable batches : int;
  mutable chunk : int;  (** the chunk in progress, from 1 *)
  mutable chunk_docs : int;
  mutable chunk_busy : float;
  mutable rates : float list;  (** docs/s of each finished chunk *)
}

let phase () =
  {
    docs = 0;
    busy = 0.;
    steps = [];
    batches = 0;
    chunk = 1;
    chunk_docs = 0;
    chunk_busy = 0.;
    rates = [];
  }

let add_work ph ~docs ~busy =
  ph.docs <- ph.docs + docs;
  ph.busy <- ph.busy +. busy;
  ph.chunk_docs <- ph.chunk_docs + docs;
  ph.chunk_busy <- ph.chunk_busy +. busy

let close_chunk ph =
  if ph.chunk_busy > 0. then
    ph.rates <- (float_of_int ph.chunk_docs /. ph.chunk_busy) :: ph.rates;
  ph.chunk <- ph.chunk + 1;
  ph.chunk_docs <- 0;
  ph.chunk_busy <- 0.

(* The unfinished last chunk counts only when no chunk finished. *)
let report_throughput r ph =
  let rates =
    if ph.rates = [] then [ float_of_int ph.docs /. ph.busy ] else ph.rates
  in
  metric r "docs_per_s" (Stats.median rates) "docs/s" (List.length rates)

(* The closed loop: the next batch goes in as soon as the previous call
   returns.  With [churn], each batch is followed by two subscribes, two
   unsubscribes of the oldest subscriptions and one update, which keeps
   the population constant. *)
let run_batches r sys ph ~ingest ~churn ~target =
  while ph.docs < target do
    Spans.set_trace sys.sp ph.batches;
    sample_next sys.oracle ~step:ph.batches;
    let docs = Gen.next_batch sys.stream in
    if sys.stream.Gen.sweeps > ph.chunk then close_chunk ph;
    let (), dt = timed (fun () -> ingest sys docs) in
    add_work ph ~docs:(List.length docs) ~busy:dt;
    ph.steps <- dt :: ph.steps;
    r.attempted <- r.attempted + List.length docs;
    absorb sys.rc (fun _ _ _ -> ());
    verify sys.oracle (Xyleme.mqp sys.x);
    if churn then
      List.iter
        (fun f -> add_work ph ~docs:0 ~busy:(f r sys))
        [ subscribe; subscribe; unsubscribe_oldest; unsubscribe_oldest; update_random ];
    ph.batches <- ph.batches + 1
  done

let counter snap stage name = Snapshot.counter_value snap ~stage name

let histogram_mean snap stage name =
  match Snapshot.find snap ~stage name with
  | Some (Snapshot.Histogram h) when h.Snapshot.count > 0 ->
      (h.Snapshot.sum /. float_of_int h.Snapshot.count, h.Snapshot.count)
  | _ -> (0., 0)

(* Per-layer counts the system's own registry holds: counts and sums
   only (its quantiles are factor-2 buckets). *)
let layer_counts r sys ~docs ~batches =
  let snap = Obs.snapshot (Xyleme.obs sys.x) in
  let c = counter snap in
  let per name num den n = metric r name (ratio num den) "ratio" n in
  let unchanged = c "warehouse" "loaded_unchanged" in
  let loaded = c "warehouse" "loaded_new" + c "warehouse" "loaded_updated" + unchanged in
  per "warehouse.unchanged_ratio" unchanged loaded loaded;
  let docs_seen = c "alerters" "docs" and alerts = c "mqp" "alerts" in
  per "alerters.alert_ratio" (c "alerters" "alerts") docs_seen docs_seen;
  let events, n = histogram_mean snap "mqp" "events_per_alert" in
  metric r "alerters.events_per_alert" events "events" n;
  metric r "mqp.matches_per_alert"
    (ratio (c "mqp" "notifications") alerts)
    "matches" alerts;
  metric r "reporter.deliveries_per_kdoc"
    (1000. *. ratio sys.rc.deliveries docs)
    "deliveries" sys.rc.deliveries;
  let tried = c "submgr" "subscribed" + c "submgr" "rejected" in
  per "submgr.reject_ratio" (c "submgr" "rejected") tried tried;
  mean_metric r "submgr.subscribe_us" ~unit_:"us" !(sys.sub_lat);
  percentiles r "submgr.subscribe" ~unit_:"us" !(sys.sub_lat) [ 99 ];
  if !(sys.unsub_lat) <> [] then begin
    mean_metric r "submgr.unsubscribe_us" ~unit_:"us" !(sys.unsub_lat);
    mean_metric r "submgr.update_us" ~unit_:"us" !(sys.update_lat)
  end;
  if batches > 0 then
    metric r "system.bus_steals_per_batch"
      (ratio (c "bus" "steals") batches)
      "steals" batches;
  let ts = Trigger.stats (Xyleme.trigger sys.x) in
  metric r "trigger.periodic_runs" (float_of_int ts.Trigger.periodic_runs) "count" 1;
  metric r "trigger.notification_runs"
    (float_of_int ts.Trigger.notification_runs)
    "count" 1;
  r.failed <- r.failed + c "fault" "quarantined"

(* Self time per layer of a traced phase, and the share of the timed
   wall time the layer spans account for.  Returns the layers' time per
   document. *)
let layer_times r sp ~docs =
  let self = Spans.self_times sp in
  let samples name = Option.value ~default:[] (Hashtbl.find_opt self name) in
  let sum name = List.fold_left ( +. ) 0. (samples name) in
  Hashtbl.iter
    (fun name s -> metric r ("self_s." ^ name) (sum name) "s" (List.length s))
    self;
  List.iter
    (fun (name, p99) ->
      match samples name with
      | [] -> ()
      | s ->
          mean_metric r (name ^ "_us") ~unit_:"us" s;
          if p99 then percentiles r name ~unit_:"us" s [ 99 ])
    [
      ("warehouse.load", true);
      ("alerters.process", false);
      ("mqp.match", true);
      ("reporter.dispatch", false);
      ("reporter.sink", false);
    ];
  let root = Spans.root_time sp in
  let covered = root -. sum "batch" in
  metric r "trace.coverage" (covered /. root) "ratio" sp.Spans.len;
  covered /. float_of_int docs

let batch_workload r cfg ~spans_out ~docs_per_second ~parallel ~churn =
  let target = int_of_float (cfg.seconds *. float_of_int docs_per_second) in
  let times = ref [] in
  let fresh parallel =
    set_up times (fun () ->
        setup r cfg ~monitor:false ~create:(fun ~sink ~web ->
            Xyleme.create ~seed:system_seed ~sink ~web ~parallel ()))
  in
  (* The reference runs first, on the first set-up: a serial system
     takes the same batches (and churn) through the chain of public
     calls, traced when asked.  Equal digests prove that the chain does
     [ingest_batch]'s work, and that the parallel engine's output equals
     the serial path's. *)
  let traced = cfg.trace <> None in
  let serial = parallel = Parallel.default_config in
  let reference =
    if serial && not traced then begin
      ignore (fresh parallel);
      None
    end
    else begin
      let sys = fresh Parallel.default_config in
      sys.sp.Spans.enabled <- traced;
      let ph = phase () in
      run_batches r sys ph ~ingest:ingest_chain ~churn ~target;
      check_oracle r ~phase:"reference-" sys.oracle;
      let layer_per_doc =
        if traced then layer_times r sys.sp ~docs:ph.docs else 0.
      in
      spans_out ~phase:"reference" sys.sp;
      Some (sys.rc, ph.busy /. float_of_int ph.docs, layer_per_doc)
    end
  in
  for _ = 3 to setups do
    ignore (fresh parallel)
  done;
  let sys = fresh parallel in
  report_setup r !times;
  Gc.compact ();
  let ph = phase () in
  run_batches r sys ph
    ~ingest:(fun sys docs -> Xyleme.ingest_batch sys.x docs)
    ~churn ~target;
  heap_metrics r;
  report_throughput r ph;
  percentiles r "step" ~unit_:"ms" ph.steps [ 50; 90; 99 ];
  if churn then begin
    (* newest first: the churn calls come before the set-up's *)
    let churned = List.filteri (fun i _ -> i < 2 * ph.batches) !(sys.sub_lat) in
    percentiles r "sub" ~unit_:"us" churned [ 50; 99 ];
    percentiles r "unsub" ~unit_:"us" !(sys.unsub_lat) [ 50 ]
  end;
  layer_counts r sys ~docs:ph.docs ~batches:ph.batches;
  check_oracle r sys.oracle;
  Printf.printf "%s digest %s deliveries=%d\n" cfg.workload
    (Digest.to_hex sys.rc.digest) sys.rc.deliveries;
  let per_doc = ph.busy /. float_of_int ph.docs in
  Option.iter
    (fun (rc, ref_per_doc, layer_per_doc) ->
      check r "digest-equals-serial-chain"
        (rc.digest = sys.rc.digest && rc.deliveries = sys.rc.deliveries)
        (Printf.sprintf "%d docs, %d deliveries" ph.docs rc.deliveries);
      if traced && serial then
        metric r "trace.overhead" (1. -. (per_doc /. ref_per_doc)) "ratio" ph.docs
      else if traced then
        metric r "system.parallel_overhead_us"
          (1e6 *. (per_doc -. layer_per_doc))
          "us" ph.docs)
    reference

(* ------------------------------------------------------------------ *)
(* monitor *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec copy_tree src dst =
  match (Unix.lstat src).Unix.st_kind with
  | Unix.S_DIR ->
      Unix.mkdir dst 0o755;
      Array.iter
        (fun e -> copy_tree (Filename.concat src e) (Filename.concat dst e))
        (Sys.readdir src)
  | _ ->
      In_channel.with_open_bin src (fun ic ->
          Out_channel.with_open_bin dst (fun oc ->
              Out_channel.output_string oc (In_channel.input_all ic)))

let rec tree_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc e -> acc + tree_bytes (Filename.concat path e))
        0 (Sys.readdir path)
  | st -> st.Unix.st_size

(* Durable directories live under the temp dir and go at exit. *)
let temp_dirs = ref []

let temp_dir label =
  let d = Filename.temp_dir "xybench-" label in
  temp_dirs := d :: !temp_dirs;
  d

let () = at_exit (fun () -> List.iter rm_rf !temp_dirs)

(* What one client received: seq -> (subscription, digest of the body,
   arrival). *)
type inbox = {
  lock : Mutex.t;
  reports : (int, string * string * float) Hashtbl.t;
}

type monitor_sys = {
  m : sys;
  dir : string;
  conns : (string * Client.t * inbox) list;
}

let connect ~port id =
  let inbox = { lock = Mutex.create (); reports = Hashtbl.create 4096 } in
  let on_report (rep : Client.report) =
    let arrival = now () in
    let body = Digest.string rep.Client.body in
    Mutex.protect inbox.lock (fun () ->
        Hashtbl.replace inbox.reports rep.Client.seq
          (rep.Client.subscription, body, arrival))
  in
  let c = Client.connect ~on_report (Client.config ~port ~id ()) in
  if not (Client.wait_connected ~timeout:10. c) then
    failwith ("client " ^ id ^ " could not connect");
  (id, c, inbox)

let monitor_setup r cfg =
  let dir = temp_dir "live" in
  let m =
    setup r cfg ~monitor:true ~create:(fun ~sink ~web ->
        Xyleme.create ~seed:system_seed ~sink ~web ~durable_dir:dir ~serve_port:0 ())
  in
  Xyleme.discover m.x;
  let port = Serve.port (Option.get (Xyleme.serve m.x)) in
  { m; dir; conns = List.map (connect ~port) [ "c0"; "c1" ] }

let monitor_teardown ms =
  List.iter (fun (_, c, _) -> Client.close c) ms.conns;
  Xyleme.stop_serve ~drain:0. ms.m.x

let received ms =
  List.fold_left
    (fun acc (_, _, inbox) ->
      acc + Mutex.protect inbox.lock (fun () -> Hashtbl.length inbox.reports))
    0 ms.conns

(* Drain the wire, then compare each client's reports with the sink's
   deliveries to it; returns the push latencies. *)
let check_wire r ms sent =
  (* keep applying the clients' acks until every report the sink saw
     has arrived, or the deadline passes *)
  let expected = Hashtbl.length sent in
  let deadline = now () +. 30. in
  while received ms < expected && now () < deadline do
    ignore (Xyleme.serve_pump ms.m.x);
    Thread.delay 0.002
  done;
  let pushes = ref [] and missing = ref 0 and mismatched = ref 0 in
  Hashtbl.iter
    (fun seq (recipient, subscription, body, stamp) ->
      let _, _, inbox = List.find (fun (id, _, _) -> id = recipient) ms.conns in
      match Hashtbl.find_opt inbox.reports seq with
      | None -> incr missing
      | Some (subscription', body', arrival) ->
          if subscription' <> subscription || body' <> body then incr mismatched;
          pushes := (arrival -. stamp) :: !pushes)
    sent;
  let unexpected = received ms - (expected - !missing) in
  r.attempted <- r.attempted + expected;
  r.failed <- r.failed + !missing;
  check r "client-reports-equal-sink"
    (!missing = 0 && !mismatched = 0 && unexpected = 0 && expected > 0)
    (Printf.sprintf "%d deliveries, %d missing, %d mismatched, %d unexpected"
       expected !missing !mismatched unexpected);
  !pushes

(* Three warm restarts, each from its own copy of the stopped system's
   directory; each must come back with the live system's stats. *)
let restarts r cfg ~dir ~live =
  List.init 3 (fun k ->
      let copy = Filename.concat (temp_dir "restore") "durable" in
      copy_tree dir copy;
      Gc.compact ();
      r.attempted <- r.attempted + 1;
      let res, dt =
        timed (fun () ->
            Xyleme.restore ~seed:system_seed ~sink:(Sink.null ())
              ~web:(Gen.web ~seed:cfg.seed cfg.sizes)
              ~serve_port:0 ~dir:copy ())
      in
      let name = Printf.sprintf "restore-%d-stats-equal-live" k in
      (match res with
      | Ok (restored, _) ->
          let same = Xyleme.stats restored = live in
          Xyleme.stop_serve ~drain:0. restored;
          if not same then r.failed <- r.failed + 1;
          check r name same ""
      | Error e ->
          r.failed <- r.failed + 1;
          check r name false e);
      rm_rf copy;
      dt)

let monitor_workload r cfg ~spans_out ~steps_per_second =
  let target = int_of_float (cfg.seconds *. float_of_int steps_per_second) in
  (* the discarded set-ups' servers and clients go down before the
     measured one comes up *)
  let times = ref [] in
  for _ = 2 to setups do
    monitor_teardown (set_up times (fun () -> monitor_setup r cfg))
  done;
  let ms = set_up times (fun () -> monitor_setup r cfg) in
  report_setup r !times;
  let sys = ms.m and x = ms.m.x in
  let serve = Option.get (Xyleme.serve x) in
  let sp = sys.sp in
  sp.Spans.enabled <- cfg.trace <> None;
  Gc.compact ();
  let ph = phase () in
  let advance = ref [] and crawl = ref [] and ckpt = ref [] in
  let fetched = ref [] and pending_max = ref 0 in
  (* seq -> (recipient, subscription, digest of the body, stamp) *)
  let sent = Hashtbl.create 4096 in
  let record (d : Sink.delivery) body stamp =
    Hashtbl.replace sent d.seq
      (d.recipient, d.subscription, Digest.string body, stamp)
  in
  let call name f = timed (fun () -> Spans.with_span sp name f) in
  while ph.batches < target do
    Spans.set_trace sp ph.batches;
    sample_next sys.oracle ~step:ph.batches;
    let (), t_adv = call s_advance (fun () -> Xyleme.advance x ~seconds:3600.) in
    let n, t_crawl = call s_crawl (fun () -> Xyleme.crawl_step x ~limit:64) in
    ph.batches <- ph.batches + 1;
    add_work ph ~docs:n ~busy:(t_adv +. t_crawl);
    if ph.batches mod 8 = 0 then begin
      let _, dt = call s_checkpoint (fun () -> Xyleme.checkpoint x) in
      ckpt := dt :: !ckpt;
      add_work ph ~docs:0 ~busy:dt
    end;
    ph.steps <- (t_adv +. t_crawl) :: ph.steps;
    advance := t_adv :: !advance;
    crawl := t_crawl :: !crawl;
    fetched := float_of_int n :: !fetched;
    pending_max := max !pending_max (Serve.pending_total serve);
    if ph.batches mod 24 = 0 then close_chunk ph;
    absorb sys.rc record;
    verify sys.oracle (Xyleme.mqp x)
  done;
  r.attempted <- r.attempted + ph.docs;
  report_throughput r ph;
  percentiles r "step" ~unit_:"ms" ph.steps [ 50; 90; 99 ];
  percentiles r "ckpt" ~unit_:"ms" !ckpt [ 50; 90 ];
  layer_counts r sys ~docs:ph.docs ~batches:0;
  check_oracle r sys.oracle;
  let snap = Obs.snapshot (Xyleme.obs x) in
  mean_metric r "system.advance_ms" ~unit_:"ms" !advance;
  mean_metric r "system.crawl_step_us" ~unit_:"us" !crawl;
  metric r "crawler.fetched_per_step" (Stats.mean !fetched) "docs" ph.batches;
  mean_metric r "durable.checkpoint_ms" ~unit_:"ms" !ckpt;
  let fsync_mean, fsyncs = histogram_mean snap "durable" "fsync_batch" in
  metric r "durable.fsyncs_per_step" (ratio fsyncs ph.batches) "fsyncs" fsyncs;
  metric r "durable.fsync_ms" (1e3 *. fsync_mean) "ms" fsyncs;
  let lag, lags = histogram_mean snap "serve" "send_lag_seconds" in
  metric r "serve.send_lag_ms" (1e3 *. lag) "ms" lags;
  metric r "serve.pending_max" (float_of_int !pending_max) "reports" ph.batches;
  metric r "serve.outbox_overflow"
    (float_of_int (counter snap "serve" "outbox_overflow"))
    "count" 1;
  percentiles r "push" ~unit_:"ms" (check_wire r ms sent) [ 50; 99 ];
  let cstats = List.map (fun (_, c, _) -> Client.stats c) ms.conns in
  let sum f = float_of_int (List.fold_left (fun a s -> a + f s) 0 cstats) in
  metric r "serve.client_reconnects" (sum (fun s -> s.Client.reconnects)) "count" 2;
  metric r "serve.client_duplicates" (sum (fun s -> s.Client.duplicates)) "count" 2;
  heap_metrics r;
  monitor_teardown ms;
  (* the final checkpoint makes the directory whole before it is copied *)
  ignore (Xyleme.checkpoint x);
  metric r "durable.dir_mb" (float_of_int (tree_bytes ms.dir) /. 1e6) "MB" 1;
  let restart = restarts r cfg ~dir:ms.dir ~live:(Xyleme.stats x) in
  metric r "restart_s" (Stats.median restart) "s" 3;
  spans_out ~phase:"measured" sp

(* ------------------------------------------------------------------ *)
(* One workload in this process *)

(* Work per measured phase: about [--seconds] of timed calls on the
   2-core machine the bounds were set on.  Fixed work, not a fixed
   time, so a seed's outputs never depend on the speed of the code. *)
let run_workload cfg =
  let r = { metrics = []; attempted = 0; failed = 0; checks = [] } in
  Printf.printf
    "# xybench workload=%s seed=%d seconds=%g sites=%d pages_per_site=%d \
     subscriptions=%d nproc=%d ocaml=%s\n\
     %!"
    cfg.workload cfg.seed cfg.seconds cfg.sizes.Gen.sites
    cfg.sizes.Gen.pages_per_site cfg.sizes.Gen.subscriptions
    (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  let trace_oc = Option.map open_out cfg.trace in
  let spans_out ~phase sp =
    Option.iter
      (fun oc -> Spans.write_jsonl oc ~workload:cfg.workload ~phase ~sample:16 sp)
      trace_oc
  in
  let serial = Parallel.default_config in
  let par2 = { serial with Parallel.domains = 2; shards = 2 } in
  let batch = batch_workload r cfg ~spans_out in
  (match cfg.workload with
  | "ingest" -> batch ~docs_per_second:20_000 ~parallel:serial ~churn:false
  | "ingest-par2" -> batch ~docs_per_second:10_000 ~parallel:par2 ~churn:false
  | "churn" -> batch ~docs_per_second:10_000 ~parallel:serial ~churn:true
  | _ -> monitor_workload r cfg ~spans_out ~steps_per_second:24);
  Option.iter close_out trace_oc;
  metric r "fail_ratio" (ratio r.failed r.attempted) "ratio" r.attempted;
  if cfg.trace <> None && List.mem cfg.workload [ "ingest"; "churn" ] then begin
    let coverage =
      List.find_map
        (fun (n, c, _, _) -> if n = "trace.coverage" then Some c else None)
        r.metrics
    in
    let c = Option.value ~default:0. coverage in
    check r "trace-coverage-at-least-0.90" (c >= 0.90) (Printf.sprintf "%.3f" c)
  end;
  List.iter
    (fun (name, value, unit_, n) ->
      Printf.printf "%s %s %.12g %s n=%d\n" cfg.workload name value unit_ n)
    (List.rev r.metrics);
  List.iter
    (fun (name, ok, detail) ->
      Printf.printf "%s check %s %s %s\n" cfg.workload name
        (if ok then "ok" else "FAIL")
        detail)
    (List.rev r.checks);
  let correct = List.for_all (fun (_, ok, _) -> ok) r.checks in
  Printf.printf "%s result correct=%b attempted=%d failed=%d\n%!" cfg.workload
    correct r.attempted r.failed;
  correct

(* ------------------------------------------------------------------ *)
(* Several runs: each a fresh child process *)

let part_file path workload = Printf.sprintf "%s.%s.part" path workload

let child_args cfg ~scale ~workload =
  [
    Sys.executable_name; "--workload"; workload; "--seed"; string_of_int cfg.seed;
    "--seconds"; Printf.sprintf "%g" cfg.seconds; "--scale"; Printf.sprintf "%g" scale;
  ]
  @
  match cfg.trace with
  | None -> []
  | Some path -> [ "--trace"; part_file path workload ]

(* Runs every (workload, round) as a child, echoing its output, and
   with several rounds prints each metric's median and quartiles.  The
   children's span files are gathered into the one [--trace] file. *)
let run_children cfg ~scale ~workloads ~runs =
  let values = Hashtbl.create 64 and order = ref [] in
  let ok = ref true in
  let collect line =
    match String.split_on_char ' ' line with
    | [ w; name; value; unit_; n ] when String.starts_with ~prefix:"n=" n -> (
        match float_of_string_opt value with
        | Some v ->
            let key = (w, name, unit_) in
            let vs = Option.value ~default:[] (Hashtbl.find_opt values key) in
            if vs = [] then order := key :: !order;
            Hashtbl.replace values key (v :: vs)
        | None -> ())
    | _ -> ()
  in
  let spans = Option.map open_out cfg.trace in
  for round = 0 to runs - 1 do
    let ws = if round mod 2 = 0 then workloads else List.rev workloads in
    List.iter
      (fun workload ->
        let args = Array.of_list (child_args cfg ~scale ~workload) in
        let ic = Unix.open_process_args_in Sys.executable_name args in
        List.iter
          (fun line ->
            print_endline line;
            collect line)
          (In_channel.input_lines ic);
        (match Unix.close_process_in ic with
        | Unix.WEXITED 0 -> ()
        | _ ->
            ok := false;
            Printf.printf "%s run %d FAILED\n%!" workload round);
        Option.iter
          (fun oc ->
            let part = part_file (Option.get cfg.trace) workload in
            if Sys.file_exists part then begin
              output_string oc (In_channel.with_open_bin part In_channel.input_all);
              Sys.remove part
            end)
          spans)
      ws
  done;
  Option.iter close_out spans;
  if runs > 1 then
    List.iter
      (fun ((w, name, unit_) as key) ->
        let vs = Hashtbl.find values key in
        let q1, q2, q3 = Stats.quartiles vs in
        Printf.printf "summary %s %s median=%.6g q1=%.6g q3=%.6g %s runs=%d\n" w
          name q2 q1 q3 unit_ (List.length vs))
      (List.rev !order);
  !ok

let () =
  let seed = ref None and workload = ref None and runs = ref 1 in
  let trace = ref None and seconds = ref 10. and scale = ref 1. in
  let usage =
    "xybench.exe --seed S [--workload W] [--runs N] [--trace FILE] [--seconds T] \
     [--scale F]"
  in
  Arg.parse
    [
      ("--seed", Arg.Int (fun s -> seed := Some s), "S input seed (required)");
      ( "--workload",
        Arg.Symbol (workloads, fun w -> workload := Some w),
        " one workload (default: all)" );
      ("--runs", Arg.Set_int runs, "N runs of each workload, alternating order");
      ( "--trace",
        Arg.String (fun f -> trace := Some f),
        "FILE traced run; spans go to FILE" );
      ( "--seconds",
        Arg.Set_float seconds,
        "T measured work, in seconds at the reference speed (default 10)" );
      ( "--scale",
        Arg.Set_float scale,
        "F input size factor (default 1: 300 sites, 2x10^4 subscriptions)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let seed =
    match !seed with
    | Some s -> s
    | None ->
        prerr_endline ("xybench: --seed is required\n" ^ usage);
        exit 2
  in
  let cfg =
    {
      workload = Option.value ~default:"" !workload;
      seed;
      seconds = !seconds;
      sizes = Gen.sizes ~scale:!scale;
      trace = !trace;
    }
  in
  let ok =
    match !workload with
    | Some _ when !runs <= 1 -> run_workload cfg
    | Some w -> run_children cfg ~scale:!scale ~workloads:[ w ] ~runs:!runs
    | None -> run_children cfg ~scale:!scale ~workloads ~runs:(max 1 !runs)
  in
  exit (if ok then 0 else 1)
