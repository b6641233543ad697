(* Shared benchmark plumbing: wall-clock timing, adaptive repetition,
   table rendering, and the scale (quick / default / paper) knob. *)

type scale = Quick | Default | Paper

let scale_name = function Quick -> "quick" | Default -> "default" | Paper -> "paper"

(* [time_per_unit ~min_time f units] runs [f] (which processes [units]
   work items) repeatedly until [min_time] seconds elapsed, and
   returns the average seconds per unit. *)
let time_per_unit ?(min_time = 0.1) ~units f =
  (* Warm up and settle the GC, then take the best of three timed
     passes — the minimum is the standard estimator for
     micro-benchmarks, immune to one-off GC or scheduler hiccups. *)
  f ();
  Gc.major ();
  let one_pass () =
    let start = Unix.gettimeofday () in
    let rec go repetitions =
      f ();
      let elapsed = Unix.gettimeofday () -. start in
      if elapsed < min_time then go (repetitions + 1) else (repetitions, elapsed)
    in
    let repetitions, elapsed = go 1 in
    elapsed /. float_of_int (repetitions * units)
  in
  let a = one_pass () in
  let b = one_pass () in
  let c = one_pass () in
  Float.min a (Float.min b c)

(* [time_once f] runs [f] once and returns (result, seconds). *)
let time_once f =
  let start = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. start)

let microseconds seconds = seconds *. 1e6

(* Optional CSV dump: when [csv_dir] is set (--csv), every table is
   also written to <dir>/<slug>.csv so the series can be re-plotted
   with any tool. *)
let csv_dir : string option ref = ref None

let slug_of title =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Char.lowercase_ascii c
      | _ -> '-')
    title

let write_csv ~title ~header rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (slug_of title ^ ".csv") in
      let oc = open_out path in
      let quote cell =
        if String.exists (fun c -> c = ',' || c = '"') cell then
          "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
        else cell
      in
      List.iter
        (fun row -> output_string oc (String.concat "," (List.map quote row) ^ "\n"))
        (header :: rows);
      close_out oc

(* Table rendering: fixed-width columns, header + rows. *)
let print_table ~title ~header rows =
  write_csv ~title ~header rows;
  Printf.printf "\n## %s\n\n" title;
  let all = header :: rows in
  let columns = List.length header in
  let widths =
    List.init columns (fun i ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          0 all)
  in
  let print_row row =
    List.iteri
      (fun i cell -> Printf.printf "%-*s  " (List.nth widths i) cell)
      row;
    print_newline ()
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows;
  flush stdout

let section title =
  Printf.printf "\n==========================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==========================================================\n%!"

let note fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n%!" s) fmt

(* Per-stage metrics emission: with --obs every experiment is followed
   by the snapshot accumulated in the default xy_obs registry (then
   reset), so a timing regression is attributable to a pipeline
   stage. *)
let obs_enabled = ref false

let emit_snapshot ~label =
  if !obs_enabled then begin
    let snapshot = Xy_obs.Obs.snapshot Xy_obs.Obs.default in
    if snapshot.Xy_obs.Obs.Snapshot.entries <> [] then begin
      Printf.printf "\n### %s: stage metrics\n\n%!" label;
      Format.printf "%a@." Xy_obs.Obs.Snapshot.pp snapshot
    end;
    Xy_obs.Obs.reset Xy_obs.Obs.default
  end

(* Per-document tracing across experiments: with --trace the tracer is
   switched to 1-in-100 sampling and end-to-end experiments that build
   a full system thread it through; each experiment is then followed
   by the retained traces' stage summary. *)
let trace_enabled = ref false
let tracer = Xy_trace.Trace.create ~capacity:64 ~sample_every:0 ~seed:97 ()

let enable_tracing () =
  trace_enabled := true;
  Xy_trace.Trace.set_sampling tracer ~every:100

let emit_traces ~label =
  if !trace_enabled then begin
    (match Xy_trace.Trace.summary tracer with
    | [] -> ()
    | stats ->
        Printf.printf "\n### %s: trace stage summary (%d trace(s) retained)\n\n%!"
          label
          (List.length (Xy_trace.Trace.traces tracer));
        List.iter
          (fun s ->
            Printf.printf "  %-12s %6d span(s)  total %9.3f ms  max %8.3f ms\n"
              s.Xy_trace.Trace.st_stage s.Xy_trace.Trace.st_spans
              (s.Xy_trace.Trace.st_total_wall *. 1e3)
              (s.Xy_trace.Trace.st_max_wall *. 1e3))
          stats;
        (match Xy_trace.Trace.slowest tracer ~k:1 with
        | [ slowest ] -> Format.printf "%a@." Xy_trace.Trace.pp_trace slowest
        | _ -> ()));
    Xy_trace.Trace.clear tracer
  end

(* Machine-readable MQP results: experiments record their headline
   rows with [record_mqp]; at the end of the run the accumulated rows
   are written as one JSON document (default BENCH_mqp.json, --json to
   override) so CI and EXPERIMENTS.md can consume the numbers without
   scraping the printed tables. *)
type mqp_row = {
  row_name : string;
  docs_per_sec : float;
  memory_words : int;
  probes_per_doc : float option;
  p99_lag_ms : float option;
}

let mqp_rows : mqp_row list ref = ref []

let record_mqp ?probes_per_doc ?p99_lag_ms ~name ~docs_per_sec
    ~memory_words () =
  mqp_rows :=
    { row_name = name; docs_per_sec; memory_words; probes_per_doc; p99_lag_ms }
    :: !mqp_rows

let bench_json_path = ref "BENCH_mqp.json"

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_mqp_json ~scale =
  match List.rev !mqp_rows with
  | [] -> ()
  | rows ->
      let oc = open_out !bench_json_path in
      Printf.fprintf oc
        "{\n  \"schema\": \"xyleme-bench-mqp/1\",\n  \"scale\": \"%s\",\n\
        \  \"rows\": [\n"
        (json_escape scale);
      let last = List.length rows - 1 in
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    {\"name\": \"%s\", \"docs_per_sec\": %.1f, \
             \"memory_words\": %d%s}%s\n"
            (json_escape r.row_name) r.docs_per_sec r.memory_words
            ((match r.probes_per_doc with
             | None -> ""
             | Some p -> Printf.sprintf ", \"probes_per_doc\": %.1f" p)
            ^
            match r.p99_lag_ms with
            | None -> ""
            | Some l -> Printf.sprintf ", \"p99_lag_ms\": %.3f" l)
            (if i = last then "" else ","))
        rows;
      Printf.fprintf oc "  ]\n}\n";
      close_out oc;
      note "wrote %d MQP row(s) to %s" (List.length rows) !bench_json_path

(* Approximate live heap words attributable to building a structure. *)
let live_words_of build =
  Gc.compact ();
  let before = (Gc.stat ()).Gc.live_words in
  let structure = build () in
  Gc.compact ();
  let after = (Gc.stat ()).Gc.live_words in
  (structure, max 0 (after - before))

let megabytes words = float_of_int (words * Sys.word_size / 8) /. 1e6
