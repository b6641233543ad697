(* xyleme — command-line driver for the monitoring system.

     xyleme check <subscription-file>     validate a subscription
     xyleme query -q <query> <doc.xml>    run a query against a document
     xyleme diff <old.xml> <new.xml>      XID delta between two versions
     xyleme validate <doc.xml>            check against its internal DTD
     xyleme simulate [...]                run the synthetic-web monitor *)

open Cmdliner

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* check *)

let check_cmd =
  let run path =
    let text = read_file path in
    match Xy_sublang.S_parser.parse text with
    | exception Xy_sublang.S_parser.Error { line; message } ->
        Printf.eprintf "%s:%d: %s\n" path line message;
        exit 1
    | ast -> (
        match Xy_sublang.S_compile.validate ast with
        | exception Xy_sublang.S_compile.Rejected reason ->
            Printf.eprintf "%s: rejected: %s\n" path reason;
            exit 1
        | compiled ->
            Printf.printf "subscription %s: OK\n" ast.Xy_sublang.S_ast.name;
            List.iteri
              (fun i cm ->
                Printf.printf
                  "  monitoring query %d (%s): %d complex event(s)\n" (i + 1)
                  cm.Xy_sublang.S_compile.cm_name
                  (List.length cm.Xy_sublang.S_compile.cm_disjuncts);
                List.iter
                  (fun disjunct ->
                    Printf.printf "    complex event:\n";
                    List.iter
                      (fun c ->
                        Printf.printf "      - %s%s\n"
                          (Xy_events.Atomic.to_string c)
                          (if Xy_events.Atomic.is_weak c then "  (weak)" else ""))
                      disjunct)
                  cm.Xy_sublang.S_compile.cm_disjuncts)
              compiled;
            List.iter
              (fun c ->
                Printf.printf "  continuous query %s (%s)\n" c.Xy_sublang.S_ast.c_name
                  (match c.Xy_sublang.S_ast.c_when with
                  | Xy_sublang.S_ast.T_frequency f ->
                      Xy_sublang.S_ast.frequency_to_string f
                  | Xy_sublang.S_ast.T_notification { tag; _ } -> "on " ^ tag))
              ast.Xy_sublang.S_ast.continuous)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v (Cmd.info "check" ~doc:"Parse and validate a subscription file")
    Term.(const run $ path)

(* ------------------------------------------------------------------ *)
(* query *)

let query_cmd =
  let run query_text doc_path =
    let doc = Xy_xml.Parser.parse (read_file doc_path) in
    match Xy_query.Parser.parse query_text with
    | exception Xy_query.Parser.Error { line; message } ->
        Printf.eprintf "query:%d: %s\n" line message;
        exit 1
    | query ->
        let nodes =
          Xy_query.Eval.eval query (Xy_query.Eval.env doc.Xy_xml.Types.root)
        in
        List.iter
          (fun node ->
            match node with
            | Xy_xml.Types.Element e ->
                print_endline (Xy_xml.Printer.element_to_string ~indent:2 e)
            | Xy_xml.Types.Text s -> print_endline s
            | Xy_xml.Types.Cdata s -> print_endline s
            | Xy_xml.Types.Comment _ | Xy_xml.Types.Pi _ -> ())
          nodes
  in
  let query =
    Arg.(
      required
      & opt (some string) None
      & info [ "q"; "query" ] ~docv:"QUERY" ~doc:"select/from/where query text")
  in
  let doc = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC.xml") in
  Cmd.v (Cmd.info "query" ~doc:"Evaluate a query against an XML document")
    Term.(const run $ query $ doc)

(* ------------------------------------------------------------------ *)
(* diff *)

let diff_cmd =
  let run old_path new_path =
    let old_doc = Xy_xml.Parser.parse (read_file old_path) in
    let new_doc = Xy_xml.Parser.parse (read_file new_path) in
    let gen = Xy_xml.Xid.gen () in
    let old_tree = Xy_xml.Xid.label gen old_doc.Xy_xml.Types.root in
    let delta, _ = Xy_diff.Diff.diff ~gen old_tree new_doc.Xy_xml.Types.root in
    let name = Filename.remove_extension (Filename.basename old_path) in
    print_endline
      (Xy_xml.Printer.element_to_string ~indent:2
         (Xy_diff.Delta.to_xml ~name delta))
  in
  let old_path = Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD.xml") in
  let new_path = Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW.xml") in
  Cmd.v
    (Cmd.info "diff" ~doc:"Print the XID delta document between two versions")
    Term.(const run $ old_path $ new_path)

(* ------------------------------------------------------------------ *)
(* validate *)

let validate_cmd =
  let run doc_path =
    let doc = Xy_xml.Parser.parse (read_file doc_path) in
    let declarations = Xy_xml.Dtd.declarations_of_doc doc in
    if
      declarations.Xy_xml.Dtd.elements = []
      && declarations.Xy_xml.Dtd.attributes = []
    then Printf.printf "%s: no DTD declarations (trivially valid)\n" doc_path
    else begin
      match Xy_xml.Dtd.validate declarations doc.Xy_xml.Types.root with
      | [] ->
          Printf.printf "%s: valid against its internal DTD subset (%d element declarations)\n"
            doc_path
            (List.length declarations.Xy_xml.Dtd.elements)
      | violations ->
          List.iter
            (fun v ->
              Printf.printf "%s: %s\n" doc_path (Xy_xml.Dtd.violation_to_string v))
            violations;
          exit 1
    end
  in
  let doc = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC.xml") in
  Cmd.v
    (Cmd.info "validate" ~doc:"Check a document against its internal DTD subset")
    Term.(const run $ doc)

(* ------------------------------------------------------------------ *)
(* simulate — the one command that runs the monitor *)

(* The live telemetry endpoint serves scrapes from a background thread
   while the pipeline runs on this one; every route reads through
   thread-safe snapshots. *)
let start_telemetry xyleme port =
  let server =
    Xy_telemetry.Telemetry.start ~port
      ~routes:
        [
          ( "/metrics",
            fun () ->
              Xy_telemetry.Telemetry.text
                (Xy_telemetry.Telemetry.prometheus_of_snapshot
                   (Xy_obs.Obs.snapshot (Xy_system.Xyleme.obs xyleme))) );
          ( "/health",
            fun () ->
              let stats = Xy_system.Xyleme.stats xyleme in
              Xy_telemetry.Telemetry.json
                (Printf.sprintf
                   {|{"status":"ok","steps_done":%d,"restarts":%d,"virtual_now":%s,"documents_fetched":%d,"documents_stored":%d,"notifications":%d,"reports":%d}|}
                   (Xy_system.Xyleme.steps_done xyleme)
                   (Xy_system.Xyleme.restarts xyleme)
                   (Xy_obs.Obs.Export.json_number
                      (Xy_util.Clock.now (Xy_system.Xyleme.clock xyleme)))
                   stats.Xy_system.Xyleme.documents_fetched
                   stats.Xy_system.Xyleme.documents_stored
                   stats.Xy_system.Xyleme.notifications
                   stats.Xy_system.Xyleme.reports) );
          ( "/slo",
            fun () ->
              Xy_telemetry.Telemetry.json
                (Xy_slo.Slo.reports_to_json
                   (Xy_system.Xyleme.slo_reports xyleme)) );
          ( "/traces",
            fun () ->
              Xy_telemetry.Telemetry.jsonl
                (Xy_trace.Trace.to_jsonl_string
                   (Xy_system.Xyleme.tracer xyleme)) );
        ]
      ()
  in
  Printf.eprintf "telemetry: http://127.0.0.1:%d (/metrics /health /slo /traces)\n%!"
    (Xy_telemetry.Telemetry.port server);
  server

(* The freeze/delta lifecycle of the compact matcher, shown whenever
   the processor runs `--algorithm aes-compact`. *)
let print_compact_stats out xyleme =
  match Xy_core.Mqp.compact_stats (Xy_system.Xyleme.mqp xyleme) with
  | None -> ()
  | Some cs ->
      Printf.fprintf out
        "aes-compact: frozen %d complex event(s) in %d cell(s) / %d mark(s) \
         (%d words); delta %d, tombstones %d; %d freeze(s), refreeze \
         threshold %d\n"
        cs.Xy_core.Aes_compact.frozen_complex
        cs.Xy_core.Aes_compact.frozen_cells cs.Xy_core.Aes_compact.frozen_marks
        cs.Xy_core.Aes_compact.frozen_words
        cs.Xy_core.Aes_compact.delta_complex
        cs.Xy_core.Aes_compact.tombstones cs.Xy_core.Aes_compact.refreezes
        cs.Xy_core.Aes_compact.refreeze_threshold

let print_trace_summary out tracer =
  Printf.fprintf out "traces: %d sampled, %d completed (ring keeps the last %d)\n"
    (Xy_trace.Trace.started tracer)
    (Xy_trace.Trace.completed tracer)
    (List.length (Xy_trace.Trace.traces tracer));
  match Xy_trace.Trace.summary tracer with
  | [] -> ()
  | stats ->
      Printf.fprintf out "per-stage totals over retained traces:\n";
      List.iter
        (fun s ->
          Printf.fprintf out "  %-12s %6d span(s)  total %9.3f ms  max %8.3f ms\n"
            s.Xy_trace.Trace.st_stage s.Xy_trace.Trace.st_spans
            (s.Xy_trace.Trace.st_total_wall *. 1e3)
            (s.Xy_trace.Trace.st_max_wall *. 1e3))
        stats

(* The five slowest retained traces.  Complete fetch→alert→match→report
   journeys — the critical path the paper's throughput claim is about —
   lead; whatever else was slowest pads the list. *)
let print_slowest ppf tracer =
  let stages trace =
    List.sort_uniq compare
      (List.map (fun s -> s.Xy_trace.Trace.sp_stage) trace.Xy_trace.Trace.tr_spans)
  in
  let end_to_end trace =
    List.for_all
      (fun stage -> List.mem stage (stages trace))
      [ "crawler"; "alerters"; "mqp"; "reporter" ]
  in
  let full, partial =
    List.partition end_to_end (Xy_trace.Trace.slowest tracer ~k:max_int)
  in
  Format.fprintf ppf "@.slowest traces (end-to-end journeys first):@.";
  List.iteri
    (fun i trace -> if i < 5 then Format.fprintf ppf "%a@." Xy_trace.Trace.pp_trace trace)
    (full @ partial)

let print_fault_report out xyleme =
  let faults = Xy_system.Xyleme.faults xyleme in
  let wire = Xy_system.Xyleme.wire_faults xyleme in
  if Xy_fault.Fault.active faults || Xy_fault.Fault.active wire then begin
    Printf.fprintf out "faults injected:";
    List.iter
      (fun (point, _) ->
        (* pipeline points draw from one injector, wire points from
           the serving surface's; a point fires in exactly one *)
        let count =
          Xy_fault.Fault.injected faults point
          + Xy_fault.Fault.injected wire point
        in
        if count > 0 then Printf.fprintf out " %s=%d" point count)
      Xy_fault.Fault.points;
    Printf.fprintf out "\n";
    let snapshot = Xy_obs.Obs.snapshot (Xy_system.Xyleme.obs xyleme) in
    let fault_counters =
      List.filter_map
        (fun entry ->
          match entry with
          | { Xy_obs.Obs.Snapshot.stage = "fault"; name;
              value = Xy_obs.Obs.Snapshot.Counter v } -> Some (name, v)
          | _ -> None)
        snapshot.Xy_obs.Obs.Snapshot.entries
    in
    if fault_counters <> [] then begin
      Printf.fprintf out "recovery:";
      List.iter
        (fun (name, v) -> Printf.fprintf out " %s=%d" name v)
        fault_counters;
      Printf.fprintf out "\n"
    end
  end

let print_slo_reports out xyleme =
  List.iter
    (fun (r : Xy_slo.Slo.report) ->
      Printf.fprintf out
        "slo %s: %s (fast burn %.2f, slow burn %.2f, %d/%d good in slow \
         window)\n"
        r.Xy_slo.Slo.r_objective.Xy_slo.Slo.o_name
        (if r.Xy_slo.Slo.r_breached then "BREACHED" else "ok")
        r.Xy_slo.Slo.r_fast_burn r.Xy_slo.Slo.r_slow_burn
        r.Xy_slo.Slo.r_good r.Xy_slo.Slo.r_total)
    (Xy_system.Xyleme.slo_reports xyleme)

let faults_arg =
  let parse s =
    match Xy_fault.Fault.parse_spec s with
    | Ok spec -> `Ok spec
    | Error msg -> `Error msg
  in
  let print ppf spec =
    Format.pp_print_string ppf (Xy_fault.Fault.spec_to_string spec)
  in
  let spec_conv = (parse, print) in
  Arg.(
    value
    & opt (some spec_conv) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Inject failures during the run: $(docv) is \
           point=RATE(,point=RATE)*, e.g. $(b,fetch=0.05,malformed=0.01). \
           The schedule is drawn from $(b,--seed), so the same seed and \
           spec reproduce the same failures.  Points: fetch, malformed, \
           torn_write, short_write, worker; wire \
           (require $(b,--serve)): conn_drop, partial_write, net_delay, \
           net_mangle")

let algorithm_arg =
  let algorithms =
    List.map
      (fun a -> (Xy_core.Mqp.algorithm_name_of a, a))
      Xy_core.Mqp.algorithms
  in
  Arg.(
    value
    & opt (enum algorithms) Xy_core.Mqp.Use_aes
    & info [ "algorithm" ] ~docv:"ALG"
        ~doc:
          "Matching algorithm for the query processor: $(b,aes) (the paper's \
           hash-tree), $(b,aes-compact) (frozen flat arrays + delta \
           overlay), $(b,naive) or $(b,counting)")

let slo_arg =
  let parse s =
    match Xy_slo.Slo.parse s with
    | Ok objective -> `Ok objective
    | Error msg -> `Error msg
  in
  let print ppf (o : Xy_slo.Slo.objective) =
    Format.fprintf ppf "%s" o.Xy_slo.Slo.o_name
  in
  let slo_conv = (parse, print) in
  Arg.(
    value
    & opt_all slo_conv []
    & info [ "slo" ] ~docv:"SPEC"
        ~doc:
          "Arm a freshness objective (repeatable): $(docv) is \
           NAME:STAGE/METRIC<=THRESHOLD:TARGET:FAST/SLOW[:BURN], e.g. \
           $(b,notify:reporter/notification_lag<=86400:0.95:1d/4d:1).  \
           Evaluated every virtual step; a breach ingests an SLO document \
           at xyleme://self/slo/NAME.xml through the normal pipeline")

let shards_arg =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> `Ok n
    | Some _ | None ->
        `Error (Printf.sprintf "expected a positive integer, got %S" s)
  in
  let positive_int = (parse, Format.pp_print_int) in
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "shards" ] ~docv:"M"
        ~doc:
          "Number of subscription subsets each alert is matched against \
           under $(b,--axis subs) (defaults to $(b,--domains)); unused \
           under $(b,--axis docs)")

let axis_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("docs", Xy_system.Parallel.By_documents);
             ("subs", Xy_system.Parallel.By_subscriptions);
           ])
        Xy_system.Parallel.By_documents
    & info [ "axis" ] ~docv:"AXIS"
        ~doc:
          "Distribution axis of the parallel pipeline (paper §4.2): \
           $(b,docs) splits the document flow over the workers, each \
           matching against all subscriptions; $(b,subs) also splits the \
           subscriptions into $(b,--shards) subsets and merges their \
           matches")

let parallel_of ~domains ~shards ~axis =
  if domains <= 1 then None
  else
    Some
      {
        Xy_system.Parallel.domains;
        shards = Option.value ~default:domains shards;
        axis;
      }

(* One virtual step is six hours: a virtual day is 4 steps. *)
let step = 6. *. 3600.

(* One run over the synthetic web: create the system (or restore it),
   seed the demo subscriptions on a fresh run, step it with
   [Xyleme.run] until [--days] or SIGINT/SIGTERM, then report.  Every
   announcement goes to stderr, so a served run's stdout equals the
   plain run's; a machine document (--xml, --jsonl) owns stdout alone,
   and the run's report then goes to stderr too. *)
let simulate_cmd =
  let run sites days subscriptions seed algorithm fault_plan verbose
      stats_flag trace_every output durable_dir checkpoint_every kill_after
      restore sync_every slos telemetry_port serve_port linger pace
      idle_deadline read_deadline max_connections drain domains shards axis =
    if verbose then begin
      Logs.set_reporter (Logs.format_reporter ());
      Logs.set_level (Some Logs.Info)
    end;
    let refuse message =
      prerr_endline message;
      exit 2
    in
    let need_durable flag =
      match durable_dir with
      | Some dir -> dir
      | None -> refuse (flag ^ " needs --durable DIR")
    in
    if days < 0. then
      refuse "--days takes a positive number of days, or 0 to run until stopped";
    (* an injected kill is only meaningful with a directory to restore *)
    if kill_after <> None then ignore (need_durable "--kill-after");
    (match output with
    | `Xml when not stats_flag -> refuse "--xml needs --stats"
    | `Jsonl when trace_every = None -> refuse "--jsonl needs --trace"
    | `Text | `Xml | `Jsonl -> ());
    let out = if output = `Text then stdout else stderr in
    let ppf = Format.formatter_of_out_channel out in
    (* A signal stops the run at the next step boundary, so a durable
       directory is left synced and restorable. *)
    let stop_requested = ref false in
    List.iter
      (fun s ->
        Sys.set_signal s (Sys.Signal_handle (fun _ -> stop_requested := true)))
      [ Sys.sigint; Sys.sigterm ];
    let web = Xy_crawler.Synthetic_web.generate ~seed ~sites ~pages_per_site:8 () in
    let counting_sink, delivered = Xy_reporter.Sink.counting () in
    (* A durable run also writes every delivery into the report ledger
       it keeps in its directory — the artifact two runs are diffed by. *)
    let ledger = Option.map (fun dir -> Filename.concat dir "reports.log") durable_dir in
    let sink =
      Option.fold ledger ~none:counting_sink ~some:(fun path ->
          Xy_reporter.Sink.tee counting_sink (Xy_reporter.Sink.ledger ~path ()))
    in
    let serve_config =
      Option.map
        (fun port ->
          Xy_serve.Serve.config ~port ~max_connections ~idle_deadline
            ~read_deadline ~drain ())
        serve_port
    in
    let parallel = parallel_of ~domains ~shards ~axis in
    let xyleme =
      if restore then begin
        let dir = need_durable "--restore" in
        match
          Xy_system.Xyleme.restore ~seed ~algorithm ?fault_plan ~sink ~web ~slos
            ?parallel ?serve_config ~sync_every ~dir ()
        with
        | Error e ->
            Printf.eprintf "restore failed: %s\n" e;
            exit 1
        | Ok (xyleme, info) ->
            Printf.fprintf out
              "restored %s: generation %d, %d subscription(s), %d txn(s) \
               replayed (WAL tail %s), %d fetch(es) re-queued, %d report(s) \
               re-delivered; resuming at step %d\n"
              dir info.Xy_system.Xyleme.generation
              info.Xy_system.Xyleme.subscriptions_recovered
              info.Xy_system.Xyleme.txns_replayed
              (match info.Xy_system.Xyleme.wal_tail with
              | Xy_durable.Durable.Clean -> "clean"
              | Xy_durable.Durable.Torn -> "torn"
              | Xy_durable.Durable.Corrupt -> "corrupt")
              info.Xy_system.Xyleme.requeued_fetches
              info.Xy_system.Xyleme.redelivered_reports
              (Xy_system.Xyleme.steps_done xyleme);
            xyleme
      end
      else begin
        let xyleme =
          Xy_system.Xyleme.create ~seed ~algorithm ?fault_plan ~sink ~web ~slos
            ?parallel ?serve_config ?durable_dir ~sync_every ()
        in
        (* the ledger is this command's file: a fresh run clears it *)
        Option.iter (fun p -> if Sys.file_exists p then Sys.remove p) ledger;
        xyleme
      end
    in
    Option.iter
      (fun s ->
        Printf.eprintf "serve: wire protocol on port %d\n%!"
          (Xy_serve.Serve.port s))
      (Xy_system.Xyleme.serve xyleme);
    let telemetry = Option.map (start_telemetry xyleme) telemetry_port in
    Option.iter
      (fun every ->
        Xy_trace.Trace.set_sampling (Xy_system.Xyleme.tracer xyleme) ~every)
      trace_every;
    let accepted = ref 0 in
    if not restore then
      for i = 0 to subscriptions - 1 do
        let text =
          Printf.sprintf
            {|subscription S%d
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://site%d.example.org/" and modified self
report when count > 5 atmost daily|}
            i (i mod sites)
        in
        match Xy_system.Xyleme.subscribe xyleme ~owner:(Printf.sprintf "u%d" i) ~text with
        | Ok _ -> incr accepted
        | Error _ -> ()
      done
    else accepted := Xy_submgr.Manager.subscription_count (Xy_system.Xyleme.manager xyleme);
    Option.iter
      (fun k -> Xy_fault.Fault.arm_after (Xy_system.Xyleme.faults xyleme) "crash" k)
      kill_after;
    let between () =
      if pace > 0. then Thread.delay pace;
      not !stop_requested
    in
    (try
       Xy_system.Xyleme.run ~checkpoint_every ~between xyleme
         ~days:(if days = 0. then infinity else days)
         ~step ~fetch_limit:500
     with Xy_fault.Fault.Crash label ->
       (* The injected kill: leave the durable directory exactly as a
          real [kill -9] would — the next invocation restores from it. *)
       Printf.fprintf out
         "killed by injected crash at %s (step %d); restart with --restore\n"
         label
         (Xy_system.Xyleme.steps_done xyleme));
    if
      linger > 0.
      && (telemetry <> None || Option.is_some (Xy_system.Xyleme.serve xyleme))
    then begin
      Printf.eprintf "endpoints stay up for another %ss\n%!"
        (Xy_obs.Obs.Export.number linger);
      (* keep draining wire mutations so late subscribers and acks are
         honoured while the endpoints linger *)
      let deadline = Xy_obs.Obs.now () +. linger in
      while Xy_obs.Obs.now () < deadline && not !stop_requested do
        ignore (Xy_system.Xyleme.serve_pump xyleme);
        Thread.delay 0.05
      done
    end;
    Option.iter Xy_telemetry.Telemetry.stop telemetry;
    Xy_system.Xyleme.stop_serve xyleme;
    let stats = Xy_system.Xyleme.stats xyleme in
    Printf.fprintf out
      "simulated %s days over %d sites, %d subscriptions: fetched %d, stored \
       %d, alerts %d, notifications %d, reports %d (%d deliveries)\n"
      (Xy_obs.Obs.Export.number
         (float_of_int (Xy_system.Xyleme.steps_done xyleme) *. step /. 86400.))
      sites !accepted stats.Xy_system.Xyleme.documents_fetched
      stats.Xy_system.Xyleme.documents_stored stats.Xy_system.Xyleme.alerts_sent
      stats.Xy_system.Xyleme.notifications stats.Xy_system.Xyleme.reports
      !delivered;
    print_compact_stats out xyleme;
    print_fault_report out xyleme;
    print_slo_reports out xyleme;
    if stats_flag then begin
      let snapshot = Xy_obs.Obs.snapshot (Xy_system.Xyleme.obs xyleme) in
      if output = `Xml then print_string (Xy_obs.Obs.Snapshot.to_xml_string snapshot)
      else Format.fprintf ppf "%a@." Xy_obs.Obs.Snapshot.pp snapshot
    end;
    if trace_every <> None then begin
      let tracer = Xy_system.Xyleme.tracer xyleme in
      if output = `Jsonl then print_string (Xy_trace.Trace.to_jsonl_string tracer)
      else begin
        print_trace_summary out tracer;
        print_slowest ppf tracer
      end
    end
  in
  let sites = Arg.(value & opt int 8 & info [ "sites" ] ~docv:"N") in
  let days =
    Arg.(
      value & opt float 14.
      & info [ "days" ] ~docv:"D"
          ~doc:
            "Stop once the run has covered $(docv) virtual days since its \
             first start ($(b,--restore) continues the count); 0 runs until \
             SIGINT/SIGTERM.  Either signal stops any run at the next step \
             boundary")
  in
  let subscriptions =
    Arg.(
      value & opt int 100
      & info [ "subscriptions" ] ~docv:"N"
          ~doc:
            "Seed $(docv) in-process demo subscriptions on a fresh run (wire \
             clients register their own)")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED") in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log pipeline events") in
  let stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print the per-stage metrics snapshot after the run")
  in
  let trace_every =
    Arg.(
      value
      & opt ~vopt:(Some 100) (some int) None
      & info [ "trace" ] ~docv:"N"
          ~doc:
            "Trace 1-in-$(docv) fetched documents (default 100) and print \
             the per-stage span summary and the five slowest journeys after \
             the run")
  in
  let output =
    Arg.(
      value
      & vflag `Text
          [
            ( `Xml,
              info [ "xml" ]
                ~doc:
                  "Print the $(b,--stats) snapshot as one XML document, the \
                   only output on stdout" );
            ( `Jsonl,
              info [ "jsonl" ]
                ~doc:
                  "Print the $(b,--trace) traces as JSON Lines, the only \
                   output on stdout" );
          ])
  in
  let durable =
    Arg.(
      value
      & opt (some string) None
      & info [ "durable" ] ~docv:"DIR"
          ~doc:
            "Run durably: checkpoint + write-ahead log under $(docv), report \
             deliveries ledgered to $(docv)/reports.log.  A killed run is \
             resumed with $(b,--restore)")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 4
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Checkpoint the durable run every $(docv) steps (4 steps are one \
             virtual day, which bounds the WAL; 0 = never)")
  in
  let kill_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-after" ] ~docv:"K"
          ~doc:
            "Die (simulated kill -9, discarding the open transaction) at the \
             $(docv)-th crash point of the run — crash testing for \
             $(b,--durable), which it requires")
  in
  let restore =
    Arg.(
      value & flag
      & info [ "restore" ]
          ~doc:
            "Warm-restart from the $(b,--durable) directory instead of \
             starting fresh, and finish the remaining steps")
  in
  let sync_every =
    Arg.(
      value & opt int 32
      & info [ "sync-every" ] ~docv:"N"
          ~doc:
            "WAL group-commit batch size: fsync once per $(docv) committed \
             transactions (1 = sync every commit).  Report deliveries always \
             force a sync first — at-least-once delivery holds at any setting")
  in
  let telemetry =
    Arg.(
      value
      & opt (some int) None
      & info [ "telemetry" ] ~docv:"PORT"
          ~doc:
            "Serve live telemetry on http://127.0.0.1:$(docv) while the run \
             executes: $(b,/metrics) (Prometheus text), $(b,/health) and \
             $(b,/slo) (JSON), $(b,/traces) (JSONL).  Port 0 picks an \
             ephemeral port (printed on stderr at startup)")
  in
  let serve_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "serve" ] ~docv:"PORT"
          ~doc:
            "Serve the wire protocol on TCP port $(docv) while the run \
             executes: remote clients HELLO/SUBSCRIBE/UNSUBSCRIBE/STATUS over \
             CRC-framed messages and receive streamed report frames they ACK \
             by delivery seq.  Port 0 picks an ephemeral port (printed on \
             stderr at startup)")
  in
  let linger =
    Arg.(
      value & opt float 0.
      & info [ "linger" ] ~docv:"SECONDS"
          ~doc:
            "Keep the $(b,--telemetry) and $(b,--serve) endpoints up for \
             $(docv) wall-clock seconds after the run finishes, so the final \
             state can be scraped and late clients served")
  in
  let pace =
    Arg.(
      value & opt float 0.
      & info [ "pace" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock sleep between virtual steps, so wire clients get \
             scheduled; 0 (the default) free-runs")
  in
  let idle_deadline =
    Arg.(
      value & opt float 300.
      & info [ "idle-deadline" ] ~docv:"SECONDS"
          ~doc:
            "With $(b,--serve): evict a client that has sent no bytes (not \
             even a PING) for $(docv); 0 disables eviction")
  in
  let read_deadline =
    Arg.(
      value & opt float 30.
      & info [ "read-deadline" ] ~docv:"SECONDS"
          ~doc:
            "With $(b,--serve): close a client that leaves a frame \
             incomplete for $(docv) (slow-loris guard); 0 disables")
  in
  let max_connections =
    Arg.(
      value & opt int 0
      & info [ "max-connections" ] ~docv:"N"
          ~doc:
            "With $(b,--serve): admission ceiling, shedding connections \
             beyond $(docv) with an $(b,ERR busy) retry hint; 0 (the \
             default) is unlimited")
  in
  let drain =
    Arg.(
      value & opt float 0.5
      & info [ "drain" ] ~docv:"SECONDS"
          ~doc:
            "With $(b,--serve): graceful-drain budget on shutdown, giving \
             writers up to $(docv) to flush queued report frames before \
             closing sessions")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Run each crawl step's fetches through up to $(docv) pool \
             workers (load, detect and match; capped at one fewer than the \
             host's cores) while this domain reports in batch order; 1 \
             keeps the serial loop.  Notifications and reports are \
             identical either way")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Run the monitor over a synthetic web: for $(b,--days), or until \
          SIGINT/SIGTERM, optionally durable, served over the wire protocol, \
          traced and scraped live")
    Term.(
      const run $ sites $ days $ subscriptions $ seed $ algorithm_arg
      $ faults_arg $ verbose $ stats_flag $ trace_every $ output $ durable
      $ checkpoint_every $ kill_after $ restore $ sync_every $ slo_arg
      $ telemetry $ serve_port $ linger $ pace $ idle_deadline $ read_deadline
      $ max_connections $ drain $ domains $ shards_arg $ axis_arg)

let () =
  let doc = "Xyleme change monitoring (SIGMOD 2001 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "xyleme" ~doc)
          [ check_cmd; query_cmd; diff_cmd; validate_cmd; simulate_cmd ]))
