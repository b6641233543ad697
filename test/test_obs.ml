(* Tests for xy_obs: instrument laws, registry interning, snapshot
   algebra (merge is associative/commutative with [empty] as identity),
   the export encoder (numbers read back exactly, JSON strings escape
   what they must, and the trace JSONL keeps microsecond starts), and
   exactness of the striped accumulation under parallel domains. *)

module Obs = Xy_obs.Obs

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Instruments *)

let test_counter () =
  let obs = Obs.create () in
  let c = Obs.counter obs ~stage:"s" "hits" in
  checki "fresh" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  checki "incr + add" 42 (Obs.Counter.value c);
  (* The registry interns by (stage, name): a second lookup yields the
     same accumulator. *)
  let c' = Obs.counter obs ~stage:"s" "hits" in
  Obs.Counter.incr c';
  checki "same instrument via registry" 43 (Obs.Counter.value c)

let test_gauge () =
  let obs = Obs.create () in
  let g = Obs.gauge obs ~stage:"s" "depth" in
  Obs.Gauge.set g 2.5;
  checkf "set" 2.5 (Obs.Gauge.value g);
  Obs.Gauge.set_int g 7;
  checkf "set_int overwrites" 7. (Obs.Gauge.value g)

let test_kind_mismatch_rejected () =
  let obs = Obs.create () in
  ignore (Obs.counter obs ~stage:"s" "x");
  (match Obs.gauge obs ~stage:"s" "x" with
  | _ -> Alcotest.fail "kind mismatch must be rejected"
  | exception Invalid_argument _ -> ());
  (* The same name under another stage is a distinct key. *)
  ignore (Obs.gauge obs ~stage:"other" "x")

let test_histogram_time () =
  let obs = Obs.create () in
  let h = Obs.histogram obs ~stage:"s" "span" in
  checki "timed result" 7 (Obs.Histogram.time h (fun () -> 3 + 4));
  checki "one sample" 1 (Obs.Histogram.count h);
  (* A raising thunk is still timed, and the exception propagates. *)
  (match Obs.Histogram.time h (fun () -> failwith "boom") with
  | () -> Alcotest.fail "exception must propagate"
  | exception Failure _ -> ());
  checki "sample recorded on exception" 2 (Obs.Histogram.count h)

(* ------------------------------------------------------------------ *)
(* Snapshots *)

let test_snapshot_sorted_and_lookup () =
  let obs = Obs.create () in
  Obs.Counter.add (Obs.counter obs ~stage:"b" "beta") 2;
  Obs.Counter.add (Obs.counter obs ~stage:"a" "zulu") 1;
  Obs.Counter.add (Obs.counter obs ~stage:"a" "alpha") 3;
  let snapshot = Obs.snapshot obs in
  Alcotest.(check (list (pair string string)))
    "sorted by (stage, name)"
    [ ("a", "alpha"); ("a", "zulu"); ("b", "beta") ]
    (List.map
       (fun e -> (e.Obs.Snapshot.stage, e.Obs.Snapshot.name))
       snapshot.Obs.Snapshot.entries);
  checki "counter_value" 3 (Obs.Snapshot.counter_value snapshot ~stage:"a" "alpha");
  checki "absent is zero" 0 (Obs.Snapshot.counter_value snapshot ~stage:"a" "nope");
  checkb "find absent" true (Obs.Snapshot.find snapshot ~stage:"c" "x" = None)

let histogram_of samples =
  let obs = Obs.create () in
  List.iter (Obs.Histogram.observe (Obs.histogram obs ~stage:"s" "q")) samples;
  match Obs.Snapshot.find (Obs.snapshot obs) ~stage:"s" "q" with
  | Some (Obs.Snapshot.Histogram hist) -> hist
  | _ -> Alcotest.fail "histogram missing"

let test_quantile () =
  (* powers of two are bucket bounds, so they come back exact *)
  let hist = histogram_of [ 1.; 2.; 4.; 8. ] in
  checkf "p25 covers first bucket" 1. (Obs.Snapshot.quantile hist 0.25);
  checkf "p50" 2. (Obs.Snapshot.quantile hist 0.5);
  checkf "p100 is the max" 8. (Obs.Snapshot.quantile hist 1.0);
  (* 0.3 lies in (0.296875, 0.3125]: its bound, within 1/16 *)
  let hist = histogram_of [ 0.3; 0.3; 10. ] in
  checkf "p50 is the covering bound" 0.3125 (Obs.Snapshot.quantile hist 0.5);
  checkf "clamped to the max" 10. (Obs.Snapshot.quantile hist 0.99);
  let zeros = histogram_of [ 0.; 0.; 0. ] in
  List.iter
    (fun q ->
      checkf "a histogram of zeros reports 0" 0. (Obs.Snapshot.quantile zeros q))
    [ 0.5; 0.99; 1. ];
  checkb "empty is nan" true
    (Float.is_nan (Obs.Snapshot.quantile { zeros with count = 0 } 0.5))

(* Property: over samples from zero and sub-ns up to 10^9, every
   quantile lies in [min, max] and between the exact ceil(q n)-th
   sample and that sample x (1 + 1/16), or the layout's 2^-30 floor. *)
let qcheck_quantile_precision =
  let sample =
    QCheck.Gen.(
      frequency
        [
          (1, return 0.);
          (1, map (fun f -> f *. 1e-9) (float_bound_exclusive 1.));
          (6, map (fun e -> 10. ** e) (float_range (-12.) 9.));
        ])
  in
  let gen =
    QCheck.make
      ~print:QCheck.Print.(list float)
      QCheck.Gen.(list_size (int_range 1 200) sample)
  in
  let floor = ldexp 1. (-30) in
  QCheck.Test.make ~name:"quantile within 1/16 of the exact sample" ~count:300
    gen (fun samples ->
      let hist = histogram_of samples in
      let sorted = Array.of_list (List.sort compare samples) in
      let n = Array.length sorted in
      hist.Obs.Snapshot.count = n
      && hist.Obs.Snapshot.min_value = sorted.(0)
      && hist.Obs.Snapshot.max_value = sorted.(n - 1)
      && List.for_all
           (fun q ->
             let v = Obs.Snapshot.quantile hist q in
             let rank =
               max 1 (int_of_float (Float.ceil (float_of_int n *. q)))
             in
             let exact = sorted.(rank - 1) in
             v >= hist.Obs.Snapshot.min_value
             && v <= hist.Obs.Snapshot.max_value
             && v >= exact
             && v <= Float.max (exact *. (1. +. (1. /. 16.))) floor)
           [ 0.; 0.01; 0.25; 0.5; 0.9; 0.95; 0.99; 1. ])

let snapshot_of pairs =
  let obs = Obs.create () in
  List.iter
    (fun (stage, name, n) -> Obs.Counter.add (Obs.counter obs ~stage name) n)
    pairs;
  Obs.snapshot obs

let test_merge_algebra () =
  let a = snapshot_of [ ("s", "x", 1); ("s", "y", 2) ] in
  let b = snapshot_of [ ("s", "x", 10); ("t", "z", 3) ] in
  let c = snapshot_of [ ("t", "z", 30); ("u", "w", 4) ] in
  let entries s = s.Obs.Snapshot.entries in
  let merge = Obs.Snapshot.merge in
  checkb "associative" true
    (entries (merge (merge a b) c) = entries (merge a (merge b c)));
  checkb "commutative" true (entries (merge a b) = entries (merge b a));
  checkb "left identity" true (entries (merge Obs.Snapshot.empty a) = entries a);
  checkb "right identity" true (entries (merge a Obs.Snapshot.empty) = entries a);
  let total = merge (merge a b) c in
  checki "counters add" 11 (Obs.Snapshot.counter_value total ~stage:"s" "x");
  checki "disjoint keys kept" 4 (Obs.Snapshot.counter_value total ~stage:"u" "w")

let test_merge_gauge_and_histogram () =
  let build v =
    let obs = Obs.create () in
    Obs.Gauge.set (Obs.gauge obs ~stage:"s" "g") v;
    Obs.Histogram.observe (Obs.histogram obs ~stage:"s" "h") v;
    Obs.snapshot obs
  in
  let merged = Obs.Snapshot.merge (build 0.5) (build 1.5) in
  (match Obs.Snapshot.find merged ~stage:"s" "g" with
  | Some (Obs.Snapshot.Gauge v) -> checkf "gauges keep the max" 1.5 v
  | _ -> Alcotest.fail "gauge missing");
  match Obs.Snapshot.find merged ~stage:"s" "h" with
  | Some (Obs.Snapshot.Histogram h) ->
      checki "histogram counts add" 2 h.Obs.Snapshot.count;
      checkf "sums add" 2. h.Obs.Snapshot.sum;
      checkf "min of mins" 0.5 h.Obs.Snapshot.min_value;
      checkf "max of maxes" 1.5 h.Obs.Snapshot.max_value;
      checkf "pointwise buckets: p50" 0.5 (Obs.Snapshot.quantile h 0.5);
      checkf "pointwise buckets: p100" 1.5 (Obs.Snapshot.quantile h 1.)
  | _ -> Alcotest.fail "histogram missing"

let test_reset () =
  let obs = Obs.create () in
  let c = Obs.counter obs ~stage:"s" "c" in
  let g = Obs.gauge obs ~stage:"s" "g" in
  let h = Obs.histogram obs ~stage:"s" "h" in
  Obs.Counter.add c 5;
  Obs.Gauge.set g 9.;
  Obs.Histogram.observe h 1.;
  Obs.reset obs;
  checki "counter zeroed" 0 (Obs.Counter.value c);
  checkf "gauge zeroed" 0. (Obs.Gauge.value g);
  checki "histogram zeroed" 0 (Obs.Histogram.count h);
  checkf "sum zeroed" 0. (Obs.Histogram.sum h)

let test_renderers_smoke () =
  let obs = Obs.create () in
  Obs.Counter.add (Obs.counter obs ~stage:"mqp" "alerts") 7;
  Obs.Histogram.observe (Obs.histogram obs ~stage:"mqp" "lat") 1e-4;
  let snapshot = Obs.snapshot obs in
  let text = Format.asprintf "%a" Obs.Snapshot.pp snapshot in
  checkb "pp groups by stage" true
    (Xy_query.Eval.word_contains ~word:"mqp" text && String.length text > 0);
  let xml = Obs.Snapshot.to_xml_string snapshot in
  checkb "xml counter" true
    (Xy_query.Eval.word_contains ~word:"alerts" xml);
  (* the XML renderer must emit a well-formed document whose [at]
     reads back to the snapshot's own *)
  match Xy_xml.Parser.parse xml with
  | doc ->
      checkb "at reads back exactly" true
        (Option.map float_of_string (Xy_xml.Types.attr doc.Xy_xml.Types.root "at")
        = Some snapshot.Obs.Snapshot.at)
  | exception Xy_xml.Parser.Error _ -> Alcotest.fail "snapshot XML unparseable"

let test_clock () =
  (* [Obs.now] is CLOCK_MONOTONIC: it never decreases, on any domain,
     and it advances across a sleep, so it reads wall time rather than
     CPU time. *)
  let never_decreases () =
    let ok = ref true and prev = ref (Obs.now ()) in
    for _ = 1 to 100_000 do
      let t = Obs.now () in
      if t < !prev then ok := false;
      prev := t
    done;
    !ok
  in
  let other = Domain.spawn never_decreases in
  let here = never_decreases () in
  checkb "never decreases on either of two domains" true
    (Domain.join other && here);
  let before = Obs.now () in
  Unix.sleepf 0.02;
  checkb "advances across a 20 ms sleep" true (Obs.now () -. before >= 0.02)

let test_absorb_restores_counts () =
  (* The warm-restart carry: a snapshot of one registry absorbed into
     a fresh one reproduces counters, gauges and histogram contents
     (and absorbing is additive on top of live traffic). *)
  let a = Obs.create () in
  Obs.Counter.add (Obs.counter a ~stage:"s" "n") 7;
  Obs.Gauge.set (Obs.gauge a ~stage:"s" "depth") 3.5;
  let h = Obs.histogram a ~stage:"s" "lat" in
  List.iter (Obs.Histogram.observe h) [ 0.5; 5.; 50. ];
  let b = Obs.create () in
  Obs.Counter.incr (Obs.counter b ~stage:"s" "n");
  Obs.absorb b (Obs.snapshot a);
  checki "counter adds" 8 (Obs.Snapshot.counter_value (Obs.snapshot b) ~stage:"s" "n");
  let hist snapshot =
    match Obs.Snapshot.find snapshot ~stage:"s" "lat" with
    | Some (Obs.Snapshot.Histogram hist) -> hist
    | _ -> Alcotest.fail "histogram missing after absorb"
  in
  let source = hist (Obs.snapshot a) and carried = hist (Obs.snapshot b) in
  checkb "bucket counts carried" true
    (carried.Obs.Snapshot.counts = source.Obs.Snapshot.counts);
  checkf "sum carried" 55.5 carried.Obs.Snapshot.sum;
  checkf "min carried" 0.5 carried.Obs.Snapshot.min_value;
  checkf "max carried" 50. carried.Obs.Snapshot.max_value

(* ------------------------------------------------------------------ *)
(* Domains *)

let test_parallel_domains_exact () =
  (* Up to [stripes] live domains own distinct stripes, so concurrent
     accumulation loses nothing. *)
  let obs = Obs.create () in
  let c = Obs.counter obs ~stage:"par" "n" in
  let h = Obs.histogram obs ~stage:"par" "v" in
  let per_domain = 10_000 and domains = 4 in
  let spawned =
    Array.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Obs.Counter.incr c;
              Obs.Histogram.observe h 1.
            done))
  in
  Array.iter Domain.join spawned;
  checki "no lost increments" (domains * per_domain) (Obs.Counter.value c);
  checki "no lost observations" (domains * per_domain) (Obs.Histogram.count h);
  checkf "sum exact" (float_of_int (domains * per_domain)) (Obs.Histogram.sum h)

(* Domain ids are never reused, so a process that has spawned 64
   domains has one whose id equals the main domain's modulo 64.  Both
   adding to one counter at once must still lose nothing: live domains
   own distinct stripes whatever their ids. *)
let test_colliding_domain_ids_exact () =
  let c = Obs.counter (Obs.create ()) ~stage:"par" "n" in
  let n = 1_000_000 in
  let main_id = (Domain.self () :> int) in
  let add () =
    for _ = 1 to n do
      Obs.Counter.incr c
    done
  in
  (* 0: undecided, 1: the ids collide (both add now), 2: they do not *)
  let rec attempt () =
    let state = Atomic.make 0 in
    let d =
      Domain.spawn (fun () ->
          if ((Domain.self () :> int) - main_id) land 63 <> 0 then
            Atomic.set state 2
          else begin
            Atomic.set state 1;
            add ()
          end)
    in
    while Atomic.get state = 0 do
      Domain.cpu_relax ()
    done;
    if Atomic.get state = 1 then add ();
    Domain.join d;
    if Atomic.get state = 2 then attempt ()
  in
  attempt ();
  checki "no lost increments" (2 * n) (Obs.Counter.value c)

let test_partitioned_snapshots_merge () =
  (* The distributed runner's pattern: each partition accumulates into
     its own registry; the coordinator merges the snapshots.  The fold
     order must not matter. *)
  let spawned =
    Array.init 3 (fun i ->
        Domain.spawn (fun () ->
            let obs = Obs.create () in
            Obs.Counter.add (Obs.counter obs ~stage:"worker" "routed") (100 * (i + 1));
            Obs.Counter.incr (Obs.counter obs ~stage:"worker" (Printf.sprintf "own%d" i));
            Obs.snapshot obs))
  in
  let snapshots = Array.to_list (Array.map Domain.join spawned) in
  let left =
    List.fold_left Obs.Snapshot.merge Obs.Snapshot.empty snapshots
  in
  let right =
    List.fold_left Obs.Snapshot.merge Obs.Snapshot.empty (List.rev snapshots)
  in
  checkb "fold order irrelevant" true
    (left.Obs.Snapshot.entries = right.Obs.Snapshot.entries);
  checki "partition counters add" 600
    (Obs.Snapshot.counter_value left ~stage:"worker" "routed");
  checki "per-partition keys survive" 1
    (Obs.Snapshot.counter_value left ~stage:"worker" "own1")

let qcheck_partitioned_merge_exact =
  (* Property: partitioning a random op stream over per-domain
     registries and merging the snapshots neither loses nor
     double-counts — the merge equals the snapshot of one registry
     fed every op, whatever the partitioning and whichever way the
     merge fold runs.  Magnitudes are small integers, so float sums
     are exact and structural equality is legitimate. *)
  let apply obs (is_counter, key, magnitude) =
    if is_counter then
      Obs.Counter.add (Obs.counter obs ~stage:"q" (Printf.sprintf "c%d" key)) magnitude
    else
      Obs.Histogram.observe
        (Obs.histogram obs ~stage:"q" (Printf.sprintf "h%d" key))
        (float_of_int magnitude)
  in
  let gen =
    QCheck.make
      ~print:(fun (d, ops) ->
        Printf.sprintf "%d domain(s), %d op(s)" d (List.length ops))
      QCheck.Gen.(
        pair (int_range 1 4)
          (list_size (int_range 1 100)
             (triple bool (int_range 0 2) (int_range 1 9))))
  in
  QCheck.Test.make ~name:"partitioned merge = sequential reference" ~count:100
    gen (fun (domains, ops) ->
      let parts = Array.make domains [] in
      List.iteri (fun i op -> parts.(i mod domains) <- op :: parts.(i mod domains)) ops;
      let spawned =
        Array.map
          (fun part ->
            Domain.spawn (fun () ->
                let obs = Obs.create () in
                List.iter (apply obs) (List.rev part);
                Obs.snapshot obs))
          parts
      in
      let snapshots = Array.to_list (Array.map Domain.join spawned) in
      let reference = Obs.create () in
      List.iter (apply reference) ops;
      let expected = (Obs.snapshot reference).Obs.Snapshot.entries in
      let forward =
        List.fold_left Obs.Snapshot.merge Obs.Snapshot.empty snapshots
      in
      let backward =
        List.fold_left Obs.Snapshot.merge Obs.Snapshot.empty (List.rev snapshots)
      in
      forward.Obs.Snapshot.entries = expected
      && backward.Obs.Snapshot.entries = expected)

(* ------------------------------------------------------------------ *)
(* Export encoding *)

(* Finite doubles from their bit patterns, plus the values a printer
   gets wrong: signed zeros, subnormals, integers and the 1e15 edge. *)
let qcheck_number_reads_back =
  let finite =
    QCheck.Gen.(
      frequency
        [
          (4, map Int64.float_of_bits ui64);
          (2, map float_of_int (int_range (-2_000_000) 2_000_000));
          (1, map (fun f -> f *. ldexp 1. (-1022)) (float_bound_exclusive 1.));
          ( 1,
            oneofl
              [ 0.; -0.; 5e-324; -5e-324; 1e15 -. 1.; 1e15; 1e15 +. 1.;
                0.1; 1. /. 3.; 54179.557712345; ldexp 1. (-30); max_float ] );
        ])
  in
  QCheck.Test.make ~name:"number reads back to the same float" ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%h") finite)
    (fun v ->
      QCheck.assume (Float.is_finite v);
      let s = Obs.Export.number v in
      Int64.equal
        (Int64.bits_of_float (float_of_string s))
        (Int64.bits_of_float v)
      && Obs.Export.json_number v = s
      (* an integer below 1e15 prints as plain digits *)
      && ((not (Float.is_integer v && Float.abs v < 1e15))
         || String.for_all (fun c -> c = '-' || (c >= '0' && c <= '9')) s))

let test_number_forms () =
  let checks = Alcotest.(check string) in
  checks "shortest exact form" "54179.557712345"
    (Obs.Export.number 54179.557712345);
  checks "integer without exponent" "1209601" (Obs.Export.number 1209601.);
  checks "1e15 + 1 keeps its last digit" "1000000000000001"
    (Obs.Export.number (1e15 +. 1.));
  checks "0.1" "0.1" (Obs.Export.number 0.1);
  checks "+Inf" "+Inf" (Obs.Export.number infinity);
  checks "-Inf" "-Inf" (Obs.Export.number neg_infinity);
  checks "NaN" "NaN" (Obs.Export.number nan);
  checks "json infinity" "null" (Obs.Export.json_number infinity);
  checks "json nan" "null" (Obs.Export.json_number nan)

(* A strict JSON string reader: quotes around, no raw control
   character or quote inside, only the escapes JSON defines. *)
let read_json_string s =
  let n = String.length s in
  if n < 2 || s.[0] <> '"' || s.[n - 1] <> '"' then None
  else
    let out = Buffer.create n in
    let rec go i =
      if i = n - 1 then Some (Buffer.contents out)
      else
        match s.[i] with
        | '"' -> None
        | c when Char.code c < 0x20 -> None
        | '\\' when i + 1 < n - 1 -> (
            match s.[i + 1] with
            | ('"' | '\\' | '/') as c ->
                Buffer.add_char out c;
                go (i + 2)
            | 'n' -> Buffer.add_char out '\n'; go (i + 2)
            | 'r' -> Buffer.add_char out '\r'; go (i + 2)
            | 't' -> Buffer.add_char out '\t'; go (i + 2)
            | 'b' -> Buffer.add_char out '\b'; go (i + 2)
            | 'f' -> Buffer.add_char out '\012'; go (i + 2)
            | 'u' when i + 5 < n - 1 -> (
                match int_of_string_opt ("0x" ^ String.sub s (i + 2) 4) with
                | Some code when code < 0x100 ->
                    Buffer.add_char out (Char.chr code);
                    go (i + 6)
                | _ -> None)
            | _ -> None)
        | '\\' -> None
        | c ->
            Buffer.add_char out c;
            go (i + 1)
    in
    go 1

let qcheck_json_string_reads_back =
  let byte = QCheck.Gen.(map Char.chr (int_range 0 255)) in
  QCheck.Test.make ~name:"json_string escapes quotes, backslashes, controls"
    ~count:2_000
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(
         oneof
           [
             string_size ~gen:byte (int_range 0 40);
             string_size
               ~gen:(oneofl ('"' :: '\\' :: List.init 32 Char.chr))
               (int_range 0 40);
           ]))
    (fun s -> read_json_string (Obs.Export.json_string s) = Some s)

(* Spans a microsecond apart, 38,000 s from the monotonic origin (a
   host up for ten hours): the JSONL export must keep them apart. *)
let test_trace_jsonl_start_walls_exact () =
  let module Trace = Xy_trace.Trace in
  let tracer = Trace.create ~sample_every:1 () in
  let ctx = Trace.start_always tracer ~root:"http://a.example/\"q\"" in
  let starts = List.init 5 (fun i -> 38_000. +. (float_of_int i *. 1e-6)) in
  List.iter
    (fun start_wall ->
      Trace.record ctx ~stage:"s" ~name:"n" ~start_wall ~dur_wall:1e-7 ())
    starts;
  Trace.finish ctx;
  let line = Trace.to_jsonl_string tracer in
  (* every number after a "start_wall": key, the trace's own first *)
  let key = "\"start_wall\":" in
  let k = String.length key in
  let rec values i acc =
    if i + k > String.length line then List.rev acc
    else if String.sub line i k <> key then values (i + 1) acc
    else
      let stop = String.index_from line (i + k) ',' in
      values stop
        (float_of_string (String.sub line (i + k) (stop - i - k)) :: acc)
  in
  match values 0 [] with
  | _trace :: spans ->
      Alcotest.(check (list (float 0.))) "every start_wall reads back" starts
        spans
  | [] -> Alcotest.fail "no start_wall exported"

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "obs"
    [
      ( "instruments",
        [
          tc "counter" test_counter;
          tc "gauge" test_gauge;
          tc "kind mismatch" test_kind_mismatch_rejected;
          tc "histogram time" test_histogram_time;
          tc "clock" test_clock;
          tc "absorb" test_absorb_restores_counts;
        ] );
      ( "snapshot",
        [
          tc "sorted + lookup" test_snapshot_sorted_and_lookup;
          tc "quantile" test_quantile;
          QCheck_alcotest.to_alcotest qcheck_quantile_precision;
          tc "merge algebra" test_merge_algebra;
          tc "merge gauge/histogram" test_merge_gauge_and_histogram;
          tc "reset" test_reset;
          tc "renderers" test_renderers_smoke;
        ] );
      ( "export",
        [
          QCheck_alcotest.to_alcotest qcheck_number_reads_back;
          tc "number forms" test_number_forms;
          QCheck_alcotest.to_alcotest qcheck_json_string_reads_back;
          tc "trace jsonl start_wall exact" test_trace_jsonl_start_walls_exact;
        ] );
      ( "domains",
        [
          tc "exact under parallelism" test_parallel_domains_exact;
          tc "exact when domain ids collide" test_colliding_domain_ids_exact;
          tc "partitioned snapshots merge" test_partitioned_snapshots_merge;
          QCheck_alcotest.to_alcotest qcheck_partitioned_merge_exact;
        ] );
    ]
