(* Parallel-pipeline scaling: the same end-to-end workload as tbl-e2e,
   batched through [Xyleme.ingest_batch] at 1/2/4/8 domains.  The
   interesting column is docs/sec versus the domains=1 (serial path)
   row; the worker pool caps every row above it at one fewer worker
   than the host has cores.  On a single-core host the rows still
   record — the CI speedup assertion is the consumer that checks core
   count first. *)

open Harness
module Xyleme = Xy_system.Xyleme
module Parallel = Xy_system.Parallel
module Web = Xy_crawler.Synthetic_web
module Sink = Xy_reporter.Sink
module Loader = Xy_warehouse.Loader
module Obs = Xy_obs.Obs

let subscribe_all xyleme ~sites ~subscriptions =
  let accepted = ref 0 in
  for i = 0 to subscriptions - 1 do
    let site = i mod sites in
    let text =
      match i mod 3 with
      | 0 ->
          Printf.sprintf
            {|subscription P%d
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://site%d.example.org/" and modified self
report when count > 20 atmost weekly|}
            i site
      | 1 ->
          Printf.sprintf
            {|subscription N%d
monitoring
where new self\\product contains "%s" and URL extends "http://site%d.example.org/"
report when count > 20 atmost weekly|}
            i
            [| "camera"; "television"; "laptop"; "speaker" |].(i mod 4)
            site
      | _ ->
          Printf.sprintf
            {|subscription W%d
monitoring
where self contains "%s" and URL extends "http://site%d.example.org/"
report when count > 50 atmost weekly|}
            i
            [| "wireless"; "portable"; "digital"; "stereo" |].(i mod 4)
            site
    in
    match Xyleme.subscribe xyleme ~owner:(Printf.sprintf "u%d" i) ~text with
    | Ok _ -> incr accepted
    | Error _ -> ()
  done;
  !accepted

(* One configuration: a fresh system (so warehouse state is identical
   across rows), the subscription set, then the document stream pushed
   through [ingest_batch] in crawl-step-sized batches. *)
let run_config ~scale ~domains ~axis ~label =
  let sites = match scale with Quick -> 30 | Default -> 80 | Paper -> 200 in
  let subscriptions =
    match scale with Quick -> 400 | Default -> 2_000 | Paper -> 8_000
  in
  let docs_to_process =
    match scale with Quick -> 1_200 | Default -> 6_000 | Paper -> 24_000
  in
  let batch_size = 64 in
  let web = Web.generate ~seed:5 ~sites ~pages_per_site:6 () in
  let sink, _ = Sink.counting () in
  let obs = Obs.create () in
  let parallel = { Parallel.domains; shards = max 1 domains; axis } in
  let xyleme = Xyleme.create ~seed:9 ~sink ~web ~obs ~parallel () in
  let accepted = subscribe_all xyleme ~sites ~subscriptions in
  let urls = Array.of_list (Web.urls web) in
  Gc.compact ();
  let heap_before = (Gc.stat ()).Gc.live_words in
  let processed = ref 0 in
  let _, wall =
    time_once (fun () ->
        let i = ref 0 in
        let batch = ref [] and in_batch = ref 0 in
        let flush () =
          if !in_batch > 0 then begin
            Xyleme.ingest_batch xyleme (List.rev !batch);
            batch := [];
            in_batch := 0
          end
        in
        while !processed < docs_to_process do
          let url = urls.(!i mod Array.length urls) in
          (match Web.fetch web ~url with
          | Some content ->
              let kind =
                match Web.kind_of web ~url with
                | Some Web.Xml_page -> Loader.Xml
                | Some Web.Html_page -> Loader.Html
                | None -> Loader.Auto
              in
              batch :=
                { Xyleme.bd_url = url; bd_content = Some content;
                  bd_kind = kind; bd_trace = None; bd_birth = None }
                :: !batch;
              incr in_batch;
              incr processed;
              if !in_batch >= batch_size then flush ()
          | None -> ());
          incr i;
          if !i mod Array.length urls = 0 then begin
            flush ();
            Xy_util.Clock.advance (Xyleme.clock xyleme) 3600.;
            ignore (Web.evolve web ~elapsed:3600.)
          end
        done;
        flush ())
  in
  Gc.compact ();
  let heap_after = (Gc.stat ()).Gc.live_words in
  let stats = Xyleme.stats xyleme in
  let per_doc = wall /. float_of_int !processed in
  let docs_per_sec = 1. /. per_doc in
  record_mqp ~name:(Printf.sprintf "tbl-par-e2e/%s" label) ~docs_per_sec
    ~memory_words:(max 0 (heap_after - heap_before))
    ();
  [
    label;
    string_of_int accepted;
    string_of_int !processed;
    Printf.sprintf "%.0f" (microseconds per_doc);
    Printf.sprintf "%.0f" docs_per_sec;
    string_of_int stats.Xyleme.alerts_sent;
    string_of_int stats.Xyleme.notifications;
  ]

let tbl_par_e2e scale =
  section "tbl-par-e2e — parallel pipeline scaling";
  note
    "end-to-end batches through the Parallel engine's worker pool: up to N \
     workers (this host: %d cores, so at most %d), N subscription subsets \
     on the subs axis; the domains=1 row is the serial path.  Wall-clock \
     speedup needs real cores; notification counts must be identical down \
     the column."
    (Domain.recommended_domain_count ())
    Parallel.pool_size;
  let rows =
    List.map
      (fun (domains, axis, label) -> run_config ~scale ~domains ~axis ~label)
      [
        (1, Parallel.By_documents, "domains=1");
        (2, Parallel.By_documents, "domains=2");
        (4, Parallel.By_documents, "domains=4");
        (8, Parallel.By_documents, "domains=8");
        (4, Parallel.By_subscriptions, "subs/domains=4");
      ]
  in
  print_table ~title:"batched pipeline rate vs domains (shards = domains)"
    ~header:
      [
        "config";
        "subscriptions";
        "docs";
        "us/doc";
        "docs/sec";
        "alerts";
        "notifications";
      ]
    rows

let all = [ ("tbl-par-e2e", tbl_par_e2e) ]
