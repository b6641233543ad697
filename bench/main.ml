(* Benchmark harness entry point.

   Reproduces every figure and table of the paper's evaluation (see
   DESIGN.md SS5 and EXPERIMENTS.md):

     fig5          Figure 5 (time per doc vs Card(S))
     fig6          Figure 6 (time per doc vs log k)
     tbl-b         arity independence
     tbl-thr       MQP throughput
     tbl-compact   boxed AES vs frozen compact AES
     tbl-mem       MQP memory
     tbl-algo      AES vs baselines
     tbl-dist      distributed MQP
     tbl-aes-stats structure shape
     tbl-url       URL alerter, hash vs trie
     tbl-xml       XML alerter Size x Depth
     tbl-rep       reporter throughput
     tbl-e2e       end-to-end pipeline rate
     tbl-e2e-mqp   MQP share of the pipeline
     tbl-fault     crawl throughput under fetch failures
     tbl-durable   checkpoint cost & warm-restart time
     tbl-staleness staleness quantiles vs fetch budget
     tbl-par-e2e   sharded pipeline scaling vs domains
     tbl-serve     serving surface register/fanout throughput
     tbl-chaos     fanout under seeded network fault plans

   Usage:
     dune exec bench/main.exe                  (default scale, all)
     dune exec bench/main.exe -- --quick       (CI scale)
     dune exec bench/main.exe -- --paper       (paper scale: 10^6 events)
     dune exec bench/main.exe -- --only fig5 --only tbl-url
     dune exec bench/main.exe -- --bechamel    (OLS kernel micro-benches)
     dune exec bench/main.exe -- --obs         (per-stage metrics snapshots)
     dune exec bench/main.exe -- --trace       (sampled per-document traces)
     dune exec bench/main.exe -- --json PATH   (MQP rows JSON; default BENCH_mqp.json) *)

let experiments : (string * (Harness.scale -> unit)) list =
  Bench_mqp.all @ Bench_alerters.all @ Bench_reporter.all @ Bench_e2e.all
  @ Bench_ablation.all @ Bench_trace.all @ Bench_fault.all @ Bench_durable.all
  @ Bench_staleness.all @ Bench_parallel.all @ Bench_serve.all
  @ Bench_chaos.all

let () =
  let scale = ref Harness.Default in
  let only = ref [] in
  let bechamel = ref false in
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse = function
    | "--quick" :: rest ->
        scale := Harness.Quick;
        parse rest
    | "--paper" :: rest ->
        scale := Harness.Paper;
        parse rest
    | "--bechamel" :: rest ->
        bechamel := true;
        parse rest
    | "--obs" :: rest ->
        Harness.obs_enabled := true;
        parse rest
    | "--trace" :: rest ->
        Harness.enable_tracing ();
        parse rest
    | "--only" :: id :: rest ->
        only := id :: !only;
        parse rest
    | "--csv" :: dir :: rest ->
        Harness.csv_dir := Some dir;
        parse rest
    | "--json" :: path :: rest ->
        Harness.bench_json_path := path;
        parse rest
    | "--list" :: _ ->
        List.iter (fun (id, _) -> print_endline id) experiments;
        exit 0
    | arg :: _ ->
        Printf.eprintf "unknown argument %s\n" arg;
        exit 2
    | [] -> ()
  in
  parse args;
  Printf.printf "Xyleme monitoring benchmarks (scale: %s)\n"
    (Harness.scale_name !scale);
  Printf.printf
    "reproducing: Nguyen, Abiteboul, Cobena, Preda — Monitoring XML Data on \
     the Web (SIGMOD 2001)\n%!";
  let selected =
    match !only with
    | [] -> experiments
    | ids ->
        List.iter
          (fun id ->
            if not (List.mem_assoc id experiments) then begin
              Printf.eprintf "unknown experiment %s (use --list)\n" id;
              exit 2
            end)
          ids;
        List.filter (fun (id, _) -> List.mem id ids) experiments
  in
  Xy_obs.Obs.reset Xy_obs.Obs.default;
  List.iter
    (fun (id, run) ->
      run !scale;
      Harness.emit_snapshot ~label:id;
      Harness.emit_traces ~label:id)
    selected;
  Harness.write_mqp_json ~scale:(Harness.scale_name !scale);
  if !bechamel then Bench_bechamel.run ();
  print_newline ()
