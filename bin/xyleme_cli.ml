(* xyleme — command-line driver for the monitoring system.

     xyleme check <subscription-file>     validate a subscription
     xyleme query -q <query> <doc.xml>    run a query against a document
     xyleme diff <old.xml> <new.xml>      XID delta between two versions
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
(* simulate / serve / stats / trace *)

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
  Printf.printf "telemetry: http://127.0.0.1:%d (/metrics /health /slo /traces)\n%!"
    (Xy_telemetry.Telemetry.port server);
  server

(* One end-to-end run over the synthetic web; shared by [simulate]
   (headline numbers, optional snapshot), [serve] (a paced run that
   [between] stops on a signal), [stats] (snapshot only) and [trace]
   (sampled per-document traces; immediate reports so the sampled
   documents' journeys reach the reporter synchronously).  A restored
   run keeps its subscriptions and resumes the journaled schedule. *)
let run_simulation ?(trace_every = 0) ?algorithm ?fault_plan
    ?(report_clause = "report when count > 5 atmost daily") ?durable_dir
    ?(checkpoint_every = 0) ?kill_after ?(restore = false) ?sync_every ?slos
    ?telemetry_port ?serve_port ?serve_config ?(announce = stderr)
    ?(linger = 0.) ?parallel ?between ~sites ~days ~subscriptions ~seed () =
  let need_durable flag =
    match durable_dir with
    | Some dir -> dir
    | None -> prerr_endline (flag ^ " needs --durable DIR"); exit 2
  in
  (* an injected kill is only meaningful with a directory to restore *)
  if kill_after <> None then ignore (need_durable "--kill-after");
  let web = Xy_crawler.Synthetic_web.generate ~seed ~sites ~pages_per_site:8 () in
  let counting_sink, delivered = Xy_reporter.Sink.counting () in
  (* A durable run also writes every delivery into the report ledger
     it keeps in its directory — the artifact two runs are diffed by. *)
  let ledger = Option.map (fun dir -> Filename.concat dir "reports.log") durable_dir in
  let sink =
    Option.fold ledger ~none:counting_sink ~some:(fun path ->
        Xy_reporter.Sink.tee counting_sink (Xy_reporter.Sink.ledger ~path ()))
  in
  let xyleme =
    if restore then begin
      let dir = need_durable "--restore" in
      match
        Xy_system.Xyleme.restore ~seed ?algorithm ?fault_plan ~sink ~web
          ?slos ?parallel ?serve_port ?serve_config ?sync_every ~dir ()
      with
      | Error e ->
          Printf.eprintf "restore failed: %s\n" e;
          exit 1
      | Ok (xyleme, info) ->
          Printf.printf
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
        Xy_system.Xyleme.create ~seed ?algorithm ?fault_plan ~sink ~web ?slos
          ?parallel ?serve_port ?serve_config ?durable_dir ?sync_every ()
      in
      (* the ledger is this command's file: a fresh run clears it *)
      Option.iter (fun p -> if Sys.file_exists p then Sys.remove p) ledger;
      xyleme
    end
  in
  (* [simulate] announces on stderr: convergence checks diff the stats
     lines of a served run against a plain one. *)
  Option.iter
    (fun s ->
      Printf.fprintf announce "serve: wire protocol on port %d\n%!"
        (Xy_serve.Serve.port s))
    (Xy_system.Xyleme.serve xyleme);
  let telemetry = Option.map (start_telemetry xyleme) telemetry_port in
  if trace_every > 0 then
    Xy_trace.Trace.set_sampling (Xy_system.Xyleme.tracer xyleme)
      ~every:trace_every;
  let accepted = ref 0 in
  if not restore then
    for i = 0 to subscriptions - 1 do
      let text =
        Printf.sprintf
          {|subscription S%d
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://site%d.example.org/" and modified self
%s|}
          i (i mod sites) report_clause
      in
      match Xy_system.Xyleme.subscribe xyleme ~owner:(Printf.sprintf "u%d" i) ~text with
      | Ok _ -> incr accepted
      | Error _ -> ()
    done
  else accepted := Xy_submgr.Manager.subscription_count (Xy_system.Xyleme.manager xyleme);
  Option.iter
    (fun k -> Xy_fault.Fault.arm_after (Xy_system.Xyleme.faults xyleme) "crash" k)
    kill_after;
  (try
     Xy_system.Xyleme.run ~checkpoint_every ?between xyleme ~days
       ~step:(6. *. 3600.) ~fetch_limit:500
   with Xy_fault.Fault.Crash label ->
     (* The injected kill: leave the durable directory exactly as a
        real [kill -9] would — the next invocation restores from it. *)
     Printf.printf
       "killed by injected crash at %s (step %d); restart with --restore\n"
       label
       (Xy_system.Xyleme.steps_done xyleme));
  if
    linger > 0.
    && (telemetry <> None || Option.is_some (Xy_system.Xyleme.serve xyleme))
  then begin
    if telemetry <> None then
      Printf.printf "telemetry: serving for another %.0fs (scrape now)\n%!"
        linger;
    if Option.is_some (Xy_system.Xyleme.serve xyleme) then begin
      (* keep draining wire mutations so late subscribers and acks are
         honoured while the endpoints linger *)
      let deadline = Xy_obs.Obs.now () +. linger in
      while Xy_obs.Obs.now () < deadline do
        ignore (Xy_system.Xyleme.serve_pump xyleme);
        Thread.delay 0.05
      done
    end
    else Thread.delay linger
  end;
  Option.iter Xy_telemetry.Telemetry.stop telemetry;
  Xy_system.Xyleme.stop_serve xyleme;
  (xyleme, !accepted, !delivered)

let print_snapshot ~xml xyleme =
  let snapshot = Xy_obs.Obs.snapshot (Xy_system.Xyleme.obs xyleme) in
  if xml then print_string (Xy_obs.Obs.Snapshot.to_xml_string snapshot)
  else Format.printf "%a@." Xy_obs.Obs.Snapshot.pp snapshot

(* The freeze/delta lifecycle of the compact matcher, shown whenever
   the processor runs `--algorithm aes-compact`. *)
let print_compact_stats xyleme =
  match Xy_core.Mqp.compact_stats (Xy_system.Xyleme.mqp xyleme) with
  | None -> ()
  | Some cs ->
      Printf.printf
        "aes-compact: frozen %d complex event(s) in %d cell(s) / %d mark(s) \
         (%d words); delta %d, tombstones %d; %d freeze(s), refreeze \
         threshold %d\n"
        cs.Xy_core.Aes_compact.frozen_complex
        cs.Xy_core.Aes_compact.frozen_cells cs.Xy_core.Aes_compact.frozen_marks
        cs.Xy_core.Aes_compact.frozen_words
        cs.Xy_core.Aes_compact.delta_complex
        cs.Xy_core.Aes_compact.tombstones cs.Xy_core.Aes_compact.refreezes
        cs.Xy_core.Aes_compact.refreeze_threshold

let print_trace_summary tracer =
  Printf.printf "traces: %d sampled, %d completed (ring keeps the last %d)\n"
    (Xy_trace.Trace.started tracer)
    (Xy_trace.Trace.completed tracer)
    (List.length (Xy_trace.Trace.traces tracer));
  match Xy_trace.Trace.summary tracer with
  | [] -> ()
  | stats ->
      Printf.printf "per-stage totals over retained traces:\n";
      List.iter
        (fun s ->
          Printf.printf "  %-12s %6d span(s)  total %9.3f ms  max %8.3f ms\n"
            s.Xy_trace.Trace.st_stage s.Xy_trace.Trace.st_spans
            (s.Xy_trace.Trace.st_total_wall *. 1e3)
            (s.Xy_trace.Trace.st_max_wall *. 1e3))
        stats

let print_slowest ~k tracer =
  let stages trace =
    List.sort_uniq compare
      (List.map (fun s -> s.Xy_trace.Trace.sp_stage) trace.Xy_trace.Trace.tr_spans)
  in
  let end_to_end trace =
    List.for_all
      (fun stage -> List.mem stage (stages trace))
      [ "crawler"; "alerters"; "mqp"; "reporter" ]
  in
  (* Lead with complete fetch→alert→match→report journeys — the
     critical path the paper's throughput claim is about — then pad
     with whatever else was slowest. *)
  let full, partial =
    List.partition end_to_end (Xy_trace.Trace.slowest tracer ~k:max_int)
  in
  let shown = List.filteri (fun i _ -> i < k) (full @ partial) in
  List.iter (fun trace -> Format.printf "%a@." Xy_trace.Trace.pp_trace trace) shown

let sites_arg = Arg.(value & opt int 8 & info [ "sites" ] ~docv:"N")
let days_arg = Arg.(value & opt float 14. & info [ "days" ] ~docv:"D")

let subscriptions_arg =
  Arg.(value & opt int 100 & info [ "subscriptions" ] ~docv:"N")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED")

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

let print_fault_report xyleme =
  let faults = Xy_system.Xyleme.faults xyleme in
  let wire = Xy_system.Xyleme.wire_faults xyleme in
  if Xy_fault.Fault.active faults || Xy_fault.Fault.active wire then begin
    Printf.printf "faults injected:";
    List.iter
      (fun (point, _) ->
        (* pipeline points draw from one injector, wire points from
           the serving surface's; a point fires in exactly one *)
        let count =
          Xy_fault.Fault.injected faults point
          + Xy_fault.Fault.injected wire point
        in
        if count > 0 then Printf.printf " %s=%d" point count)
      Xy_fault.Fault.points;
    print_newline ();
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
      Printf.printf "recovery:";
      List.iter
        (fun (name, v) -> Printf.printf " %s=%d" name v)
        fault_counters;
      print_newline ()
    end
  end

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

let durable_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "durable" ] ~docv:"DIR"
        ~doc:
          "Run durably: checkpoint + write-ahead log under $(docv), report \
           deliveries ledgered to $(docv)/reports.log.  A killed run is \
           resumed with $(b,--restore)")

let checkpoint_every_arg =
  Arg.(
    value & opt int 0
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:"Checkpoint the durable run every $(docv) steps (0 = never)")

let kill_after_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "kill-after" ] ~docv:"K"
        ~doc:
          "Die (simulated kill -9, discarding the open transaction) at the \
           $(docv)-th crash point of the run — crash testing for \
           $(b,--durable), which it requires")

let restore_flag =
  Arg.(
    value & flag
    & info [ "restore" ]
        ~doc:
          "Warm-restart from the $(b,--durable) directory instead of \
           starting fresh, and finish the remaining steps")

let sync_every_arg =
  Arg.(
    value & opt int 32
    & info [ "sync-every" ] ~docv:"N"
        ~doc:
          "WAL group-commit batch size: fsync once per $(docv) committed \
           transactions (1 = sync every commit).  Report deliveries always \
           force a sync first — at-least-once delivery holds at any setting")

let telemetry_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "telemetry" ] ~docv:"PORT"
        ~doc:
          "Serve live telemetry on http://127.0.0.1:$(docv) while the run \
           executes: $(b,/metrics) (Prometheus text), $(b,/health) and \
           $(b,/slo) (JSON), $(b,/traces) (JSONL).  Port 0 picks an \
           ephemeral port (printed at startup)")

let serve_port_arg =
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

let linger_arg =
  Arg.(
    value & opt float 0.
    & info [ "linger" ] ~docv:"SECONDS"
        ~doc:
          "Keep the $(b,--telemetry) and $(b,--serve) endpoints up for \
           $(docv) wall-clock seconds after the run finishes, so the final \
           state can be scraped and late clients served")

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

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Run each crawl step's fetches through up to $(docv) pool \
           workers (load, detect and match; capped at one fewer than the \
           host's cores) while this domain reports in batch order; 1 \
           keeps the serial loop.  Notifications and reports are \
           identical either way")

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

let simulate_cmd =
  let run sites days subscriptions seed algorithm fault_plan verbose
      stats_flag trace_every durable_dir checkpoint_every kill_after restore
      sync_every slos telemetry_port serve_port linger domains shards axis =
    if verbose then begin
      Logs.set_reporter (Logs.format_reporter ());
      Logs.set_level (Some Logs.Info)
    end;
    let trace_every = Option.value ~default:0 trace_every in
    let parallel = parallel_of ~domains ~shards ~axis in
    let xyleme, accepted, delivered =
      run_simulation ~trace_every ~algorithm ?fault_plan ?durable_dir
        ~checkpoint_every ?kill_after ~restore ~sync_every ~slos
        ?telemetry_port ?serve_port ~linger ?parallel ~sites ~days
        ~subscriptions ~seed ()
    in
    let stats = Xy_system.Xyleme.stats xyleme in
    Printf.printf "simulated %s days over %d sites, %d subscriptions:\n"
      (Xy_obs.Obs.Export.number days) sites accepted;
    Printf.printf "  fetched %d, stored %d, alerts %d, notifications %d, reports %d (%d deliveries)\n"
      stats.Xy_system.Xyleme.documents_fetched
      stats.Xy_system.Xyleme.documents_stored stats.Xy_system.Xyleme.alerts_sent
      stats.Xy_system.Xyleme.notifications stats.Xy_system.Xyleme.reports
      delivered;
    print_compact_stats xyleme;
    print_fault_report xyleme;
    List.iter
      (fun (r : Xy_slo.Slo.report) ->
        Printf.printf
          "slo %s: %s (fast burn %.2f, slow burn %.2f, %d/%d good in slow \
           window)\n"
          r.Xy_slo.Slo.r_objective.Xy_slo.Slo.o_name
          (if r.Xy_slo.Slo.r_breached then "BREACHED" else "ok")
          r.Xy_slo.Slo.r_fast_burn r.Xy_slo.Slo.r_slow_burn
          r.Xy_slo.Slo.r_good r.Xy_slo.Slo.r_total)
      (Xy_system.Xyleme.slo_reports xyleme);
    if stats_flag then print_snapshot ~xml:false xyleme;
    if trace_every > 0 then print_trace_summary (Xy_system.Xyleme.tracer xyleme)
  in
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
             the per-stage span summary after the run")
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Run the monitor over a synthetic web")
    Term.(
      const run $ sites_arg $ days_arg $ subscriptions_arg $ seed_arg
      $ algorithm_arg $ faults_arg $ verbose $ stats_flag $ trace_every
      $ durable_arg $ checkpoint_every_arg $ kill_after_arg $ restore_flag
      $ sync_every_arg $ slo_arg $ telemetry_arg
      $ serve_port_arg $ linger_arg $ domains_arg $ shards_arg $ axis_arg)

(* ------------------------------------------------------------------ *)
(* serve — run the monitor as a long-lived wire-protocol server *)

let serve_cmd =
  let run port sites seed subscriptions algorithm fault_plan verbose
      telemetry_port durable_dir kill_after restore days pace idle_deadline
      read_deadline max_connections drain =
    if verbose then begin
      Logs.set_reporter (Logs.format_reporter ());
      Logs.set_level (Some Logs.Info)
    end;
    let serve_config =
      Xy_serve.Serve.config ~port ~max_connections ~idle_deadline
        ~read_deadline ~drain ()
    in
    let stop_requested = ref false in
    List.iter
      (fun s ->
        Sys.set_signal s (Sys.Signal_handle (fun _ -> stop_requested := true)))
      [ Sys.sigint; Sys.sigterm ];
    let between () =
      if pace > 0. then Thread.delay pace;
      not !stop_requested
    in
    (* A durable server checkpoints once a virtual day (4 steps of 6
       hours), which bounds its WAL. *)
    let xyleme, _, _ =
      run_simulation ~algorithm ?fault_plan
        ~report_clause:"report when immediate" ?durable_dir ~checkpoint_every:4
        ?kill_after ~restore ?telemetry_port ~serve_config ~announce:stdout
        ~between ~sites
        ~days:(if days <= 0. then infinity else days)
        ~subscriptions ~seed ()
    in
    print_fault_report xyleme;
    let stats = Xy_system.Xyleme.stats xyleme in
    Printf.printf
      "served %d step(s): fetched %d, stored %d, notifications %d, reports %d\n"
      (Xy_system.Xyleme.steps_done xyleme)
      stats.Xy_system.Xyleme.documents_fetched
      stats.Xy_system.Xyleme.documents_stored
      stats.Xy_system.Xyleme.notifications stats.Xy_system.Xyleme.reports
  in
  let port =
    Arg.(
      value & opt int 9110
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port for the wire protocol (0 picks an ephemeral port)")
  in
  let days =
    Arg.(
      value & opt float 0.
      & info [ "days" ] ~docv:"DAYS"
          ~doc:
            "Stop once the run has covered this many virtual days since \
             its first start ($(b,--restore) continues the count); 0 (the \
             default) runs until SIGINT/SIGTERM")
  in
  let pace =
    Arg.(
      value & opt float 0.05
      & info [ "pace" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock sleep between virtual steps, so wire clients get \
             scheduled; 0 free-runs")
  in
  let subscriptions =
    Arg.(
      value & opt int 0
      & info [ "subscriptions" ] ~docv:"N"
          ~doc:
            "Seed $(docv) in-process demo subscriptions (wire clients \
             normally register their own)")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log pipeline events")
  in
  let idle_deadline =
    Arg.(
      value & opt float 300.
      & info [ "idle-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Evict a client that has sent no bytes (not even a PING) for \
             $(docv); 0 disables eviction")
  in
  let read_deadline =
    Arg.(
      value & opt float 30.
      & info [ "read-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Close a client that leaves a frame incomplete for $(docv) \
             (slow-loris guard); 0 disables")
  in
  let max_connections =
    Arg.(
      value & opt int 0
      & info [ "max-connections" ] ~docv:"N"
          ~doc:
            "Admission ceiling: shed connections beyond $(docv) with an \
             $(b,ERR busy) retry hint; 0 (the default) is unlimited")
  in
  let drain =
    Arg.(
      value & opt float 0.5
      & info [ "drain" ] ~docv:"SECONDS"
          ~doc:
            "Graceful-drain budget on shutdown: give writers up to $(docv) \
             to flush queued report frames before closing sessions")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the monitor as a long-lived server: the synthetic web evolves \
          one step per $(b,--pace), and remote clients subscribe and \
          receive report frames over the wire protocol")
    Term.(
      const run $ port $ sites_arg $ seed_arg $ subscriptions $ algorithm_arg
      $ faults_arg $ verbose $ telemetry_arg $ durable_arg $ kill_after_arg
      $ restore_flag $ days $ pace $ idle_deadline $ read_deadline
      $ max_connections $ drain)

let stats_cmd =
  let run sites days subscriptions seed algorithm xml =
    let xyleme, _, _ =
      run_simulation ~algorithm ~sites ~days ~subscriptions ~seed ()
    in
    print_snapshot ~xml xyleme;
    if not xml then print_compact_stats xyleme
  in
  let xml =
    Arg.(value & flag & info [ "xml" ] ~doc:"Emit the snapshot as XML")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run the monitor over a synthetic web and print the per-stage \
          metrics snapshot (counters, gauges, latency histograms); with \
          --algorithm aes-compact also the matcher's freeze/delta statistics")
    Term.(
      const run $ sites_arg $ days_arg $ subscriptions_arg $ seed_arg
      $ algorithm_arg $ xml)

(* ------------------------------------------------------------------ *)
(* trace *)

let trace_cmd =
  let run sites days subscriptions seed algorithm every k jsonl =
    let xyleme, _, _ =
      run_simulation ~trace_every:every ~algorithm
        ~report_clause:"report when immediate" ~sites ~days ~subscriptions
        ~seed ()
    in
    let tracer = Xy_system.Xyleme.tracer xyleme in
    if jsonl then print_string (Xy_trace.Trace.to_jsonl_string tracer)
    else begin
      print_trace_summary tracer;
      Printf.printf "\nslowest traces (end-to-end journeys first):\n";
      print_slowest ~k tracer
    end
  in
  let days_arg = Arg.(value & opt float 3. & info [ "days" ] ~docv:"D") in
  let every =
    Arg.(
      value & opt int 1
      & info [ "every" ] ~docv:"N"
          ~doc:"Sample 1-in-$(docv) fetched documents (default: every one)")
  in
  let k =
    Arg.(
      value & opt int 5
      & info [ "k" ] ~docv:"K" ~doc:"Print the $(docv) slowest traces")
  in
  let jsonl =
    Arg.(
      value & flag
      & info [ "jsonl" ] ~doc:"Dump retained traces as JSON Lines instead")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the monitor over a synthetic web with per-document tracing and \
          print the slowest sampled fetch→alert→match→report journeys with \
          their per-stage latency breakdown")
    Term.(
      const run $ sites_arg $ days_arg $ subscriptions_arg $ seed_arg
      $ algorithm_arg $ every $ k $ jsonl)

let () =
  let doc = "Xyleme change monitoring (SIGMOD 2001 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "xyleme" ~doc)
          [
            check_cmd; query_cmd; diff_cmd; validate_cmd; simulate_cmd;
            serve_cmd; stats_cmd; trace_cmd;
          ]))
