(* Tracing overhead on the distributed MQP hot path.

   The tracing substrate must be free when sampling is disabled and
   cheap at production sampling rates: this experiment reruns the
   tbl-dist-par workload (document-axis partitioning on real domains,
   Card(A)=100k, s=30) with the per-document tracing calls threaded
   exactly as the pipeline threads them — sampling decision at the
   "fetch", context riding the alert into [Mqp.process], finish after
   the batch — and compares throughput across sampling rates against
   the no-tracer baseline. *)

open Harness
module Mqp = Xy_core.Mqp
module Workload = Xy_core.Workload
module Trace = Xy_trace.Trace

let tbl_trace_overhead scale =
  section "tbl-trace-overhead — per-document tracing cost (tbl-dist-par workload)";
  note
    "sampling off must be a no-op (acceptance: < 3%% throughput cost); 1-in-N \
     costs one PRNG draw per document plus span bookkeeping for the sampled \
     ones";
  let card_a = 100_000 and b = 3 and s = 30 in
  let card_c = match scale with Quick -> 50_000 | Default | Paper -> 200_000 in
  let docs_total = match scale with Quick -> 8_000 | Default | Paper -> 20_000 in
  let workload = { Workload.card_a; card_c; b; s } in
  let docs = Workload.document_sets workload ~seed:61 ~count:docs_total in
  let partitions = min 4 (max 1 (Domain.recommended_domain_count () - 1)) in
  let shards =
    Array.init partitions (fun shard ->
        Array.of_seq
          (Seq.filter_map
             (fun i -> if i mod partitions = shard then Some docs.(i) else None)
             (Seq.init docs_total Fun.id)))
  in
  (* Matching is read-only on the subscription structure, so one MQP
     per partition serves every run — reloading 100k subscriptions per
     run would grow the heap monotonically and hand later runs worse
     locality than earlier ones. *)
  let mqps =
    Array.init partitions (fun _ -> Workload.load_mqp workload ~seed:67)
  in
  let run_once ~tracer =
    Gc.major ();
    let start = Unix.gettimeofday () in
    let domains =
      Array.init partitions (fun shard ->
          Domain.spawn (fun () ->
              let mqp = mqps.(shard) in
              (* The pipeline hands [start] an already-fetched URL; a
                 per-document sprintf here would bill string building
                 to the tracer. *)
              let root = Printf.sprintf "shard%d" shard in
              Array.iter
                (fun events ->
                  let trace =
                    match tracer with
                    | None -> None
                    | Some tracer -> Trace.start tracer ~root
                  in
                  ignore
                    (Mqp.process mqp
                       { Mqp.url = ""; events; payload = ""; trace; birth = None });
                  Option.iter Trace.finish trace)
                shards.(shard)))
    in
    Array.iter Domain.join domains;
    Unix.gettimeofday () -. start
  in
  let configurations =
    [
      ("no tracer", None);
      ("sampling off", Some 0);
      ("1-in-1000", Some 1000);
      ("1-in-1", Some 1);
    ]
  in
  let tracers =
    List.map
      (fun (label, sample_every) ->
        ( label,
          Option.map
            (fun every -> Trace.create ~capacity:256 ~sample_every:every ~seed:71 ())
            sample_every ))
      configurations
  in
  (* Interleaved rounds, per-configuration minimum: run-to-run noise
     (domain spawn/join, scheduler) at this wall time is larger than
     the effect being measured, and sequential best-of-N would fold
     machine-state drift between configurations into the comparison.
     Each round also starts at a different configuration, so no
     configuration always runs first (warm caches) or last. *)
  let rounds = match scale with Quick -> 3 | Default | Paper -> 9 in
  let walls = Hashtbl.create 8 in
  let order = Array.of_list tracers in
  let n = Array.length order in
  for round = 0 to rounds - 1 do
    for i = 0 to n - 1 do
      let label, tracer = order.((round + i) mod n) in
      let wall = run_once ~tracer in
      let best =
        match Hashtbl.find_opt walls label with
        | Some prior -> Float.min prior wall
        | None -> wall
      in
      Hashtbl.replace walls label best
    done
  done;
  let baseline = Hashtbl.find walls "no tracer" in
  let rows =
    List.map
      (fun (label, tracer) ->
        let wall = Hashtbl.find walls label in
        let overhead = (wall -. baseline) /. baseline *. 100. in
        [
          label;
          Printf.sprintf "%.3f" wall;
          Printf.sprintf "%.0f" (float_of_int docs_total /. wall);
          (if label = "no tracer" then "--"
           else Printf.sprintf "%+.1f%%" overhead);
          (match tracer with
          | None -> "--"
          | Some tracer -> string_of_int (Trace.completed tracer / rounds));
        ])
      tracers
  in
  print_table
    ~title:
      (Printf.sprintf "%d documents, Card(C)=%d, %d domains" docs_total card_c
         partitions)
    ~header:[ "tracing"; "wall s"; "docs/s"; "overhead"; "traces" ]
    rows

let all = [ ("tbl-trace-overhead", tbl_trace_overhead) ]
