(* Monitoring Query Processor experiments: Figures 5 and 6 and the
   quantified claims of paper §4.2 (b-independence, throughput,
   memory, algorithm comparison, distribution). *)

open Harness
module Workload = Xy_core.Workload
module Mqp = Xy_core.Mqp
module Aes = Xy_core.Aes
module Aes_compact = Xy_core.Aes_compact
module Event_set = Xy_events.Event_set

let docs_for_timing = 200

(* Average time to match one document event set, in seconds. *)
let time_match_set mqp docs =
  let n = Array.length docs in
  time_per_unit ~units:n (fun () ->
      Array.iter
        (fun events ->
          ignore (Mqp.process mqp { Mqp.url = ""; events; payload = ""; trace = None; birth = None }))
        docs)

(* ------------------------------------------------------------------ *)
(* Figure 5: time per document vs Card(S), one line per Card(C). *)

let fig5 scale =
  section
    "fig5 — Figure 5: time to process a document (us) as a function of \
     Card(S)";
  note
    "paper: linear in Card(S); about 1 ms at Card(S)=100 with Card(C)=10^6 \
     (Card(A)=10^5, b=3)";
  let card_cs =
    match scale with
    | Quick -> [ 1_000; 10_000; 100_000 ]
    | Default | Paper -> [ 10_000; 100_000; 1_000_000 ]
  in
  let s_values =
    match scale with
    | Quick -> [ 10; 30; 50; 100 ]
    | Default | Paper -> [ 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ]
  in
  let card_a = 100_000 in
  let header =
    "Card(S)" :: List.map (fun c -> Printf.sprintf "Card(C)=%d" c) card_cs
  in
  (* Load one processor per Card(C); reuse across the s sweep. *)
  let mqps =
    List.map
      (fun card_c ->
        let workload = { Workload.card_a; card_c; b = 3; s = 0 } in
        (card_c, Workload.load_mqp workload ~seed:11))
      card_cs
  in
  let rows =
    List.map
      (fun s ->
        let cells =
          List.map
            (fun (card_c, mqp) ->
              let workload = { Workload.card_a; card_c; b = 3; s } in
              let docs =
                Workload.document_sets workload ~seed:(100 + s)
                  ~count:docs_for_timing
              in
              Printf.sprintf "%.1f" (microseconds (time_match_set mqp docs)))
            mqps
        in
        string_of_int s :: cells)
      s_values
  in
  print_table ~title:"time per document (microseconds)" ~header rows

(* ------------------------------------------------------------------ *)
(* Figure 6: time per document vs log10 k. *)

let fig6 scale =
  section "fig6 — Figure 6: time per document (us) as a function of log(k)";
  note
    "paper: s=30, Card(A)=100000, b=4; k = b*Card(C)/Card(A) varies from b \
     to 100*b by varying Card(C) from 10^4 to 10^6; dependency is linear in \
     log k";
  let card_a = 100_000 and b = 4 and s = 30 in
  let card_cs =
    match scale with
    | Quick -> [ 10_000; 40_000; 160_000; 640_000 ]
    | Default | Paper ->
        [ 10_000; 20_000; 40_000; 80_000; 160_000; 320_000; 640_000; 1_000_000 ]
  in
  let rows =
    List.map
      (fun card_c ->
        let workload = { Workload.card_a; card_c; b; s } in
        let mqp = Workload.load_mqp workload ~seed:23 in
        let docs = Workload.document_sets workload ~seed:37 ~count:docs_for_timing in
        let per_doc = time_match_set mqp docs in
        [
          string_of_int card_c;
          Printf.sprintf "%.2f" (Workload.k workload);
          Printf.sprintf "%.2f" (log10 (Workload.k workload));
          Printf.sprintf "%.1f" (microseconds per_doc);
        ])
      card_cs
  in
  print_table ~title:"time per document vs k"
    ~header:[ "Card(C)"; "k"; "log10(k)"; "us/doc" ]
    rows

(* ------------------------------------------------------------------ *)
(* b-independence: "the complexity is independent of b for b in 2..10
   (s >> b)". *)

let tbl_b scale =
  section "tbl-b — independence of the complex-event arity b";
  note "paper: time per document independent of b for b in 2..10 (s >> b)";
  let card_a = 100_000 and s = 50 in
  let card_c = match scale with Quick -> 10_000 | Default | Paper -> 100_000 in
  let rows =
    List.map
      (fun b ->
        let workload = { Workload.card_a; card_c; b; s } in
        let mqp = Workload.load_mqp workload ~seed:5 in
        let docs = Workload.document_sets workload ~seed:17 ~count:docs_for_timing in
        [ string_of_int b; Printf.sprintf "%.1f" (microseconds (time_match_set mqp docs)) ])
      [ 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
  in
  print_table ~title:(Printf.sprintf "time per document (us), Card(C)=%d, s=%d" card_c s)
    ~header:[ "b"; "us/doc" ] rows

(* ------------------------------------------------------------------ *)
(* Throughput: "several thousand sets of atomic events per second",
   i.e. the MQP sustains ~100 crawlers at 50 docs/s each. *)

let tbl_thr scale =
  section "tbl-thr — MQP throughput (documents per second)";
  note
    "paper: several thousand event sets per second on a standard PC; one \
     crawler fetches ~50 docs/s, so the MQP sustains ~100 crawlers";
  let card_a = 100_000 and b = 3 and s = 30 in
  let card_c = match scale with Quick -> 100_000 | Default | Paper -> 1_000_000 in
  let workload = { Workload.card_a; card_c; b; s } in
  let mqp = Workload.load_mqp workload ~seed:3 in
  let docs = Workload.document_sets workload ~seed:7 ~count:1000 in
  let per_doc = time_match_set mqp docs in
  let per_second = 1. /. per_doc in
  record_mqp
    ~name:(Printf.sprintf "tbl-thr/aes/c=%d" card_c)
    ~docs_per_sec:per_second
    ~memory_words:(Mqp.approx_memory_words mqp) ();
  print_table
    ~title:"sustained matching rate"
    ~header:[ "Card(C)"; "us/doc"; "docs/s"; "docs/day"; "crawlers sustained (50 docs/s)" ]
    [
      [
        string_of_int card_c;
        Printf.sprintf "%.1f" (microseconds per_doc);
        Printf.sprintf "%.0f" per_second;
        Printf.sprintf "%.2e" (per_second *. 86400.);
        Printf.sprintf "%.0f" (per_second /. 50.);
      ];
    ]

(* ------------------------------------------------------------------ *)
(* Boxed hash-tree AES vs the frozen flat-array variant: throughput,
   memory and probe counts on the same workload.  Three configurations
   per Card(C): the boxed Aes, the compact structure fully frozen, and
   the compact structure with ~10% of the subscriptions living in the
   delta overlay (auto-refreeze disabled) — the worst steady state
   between two freezes. *)

let tbl_compact scale =
  section "tbl-compact — boxed AES vs frozen compact AES";
  note
    "aes-compact freezes the subscription set into flat sorted int arrays \
     (merge-join / binary-search matching, direct-address root); adds and \
     removes go to a delta overlay until the next re-freeze";
  let card_a = 100_000 and b = 4 and s = 30 in
  let card_cs =
    match scale with
    | Quick -> [ 10_000; 50_000 ]
    | Default | Paper -> [ 100_000; 1_000_000 ]
  in
  let time_matcher match_fn docs =
    let n = Array.length docs in
    time_per_unit ~units:n (fun () ->
        Array.iter (fun events -> ignore (match_fn events)) docs)
  in
  let rows =
    List.concat_map
      (fun card_c ->
        let workload = { Workload.card_a; card_c; b; s } in
        let events = Workload.complex_events workload ~seed:29 in
        let docs =
          Workload.document_sets workload ~seed:13 ~count:docs_for_timing
        in
        let n_docs = float_of_int (Array.length docs) in
        (* boxed hash-tree *)
        let aes = Aes.create () in
        Array.iteri (fun id set -> Aes.add aes ~id set) events;
        (* compact, fully frozen *)
        let frozen = Aes_compact.create () in
        Array.iteri (fun id set -> Aes_compact.add frozen ~id set) events;
        Aes_compact.freeze frozen;
        (* compact with ~10% of the set still in the delta overlay *)
        let dirty = Aes_compact.create () in
        Aes_compact.set_refreeze_threshold dirty (Some max_int);
        let cut = Array.length events - (Array.length events / 10) in
        Array.iteri
          (fun id set -> if id < cut then Aes_compact.add dirty ~id set)
          events;
        Aes_compact.freeze dirty;
        Array.iteri
          (fun id set -> if id >= cut then Aes_compact.add dirty ~id set)
          events;
        let measure name match_fn reset_probes probes memory_words =
          let per_doc = time_matcher match_fn docs in
          reset_probes ();
          Array.iter (fun events -> ignore (match_fn events)) docs;
          let probes_per_doc = float_of_int (probes ()) /. n_docs in
          record_mqp
            ~name:(Printf.sprintf "tbl-compact/%s/c=%d" name card_c)
            ~docs_per_sec:(1. /. per_doc) ~memory_words ~probes_per_doc ();
          [
            string_of_int card_c;
            name;
            Printf.sprintf "%.1f" (microseconds per_doc);
            Printf.sprintf "%.0f" (1. /. per_doc);
            Printf.sprintf "%.1f" (megabytes memory_words);
            Printf.sprintf "%.0f" probes_per_doc;
          ]
        in
        (* bind sequentially: list elements evaluate right-to-left,
           which would reverse the recorded JSON row order *)
        let row_boxed =
          measure "aes"
            (fun events -> Aes.match_set aes events)
            (fun () -> Aes.reset_probes aes)
            (fun () -> Aes.probes aes)
            (Aes.approx_memory_words aes)
        in
        let row_frozen =
          measure "aes-compact"
            (fun events -> Aes_compact.match_set frozen events)
            (fun () -> Aes_compact.reset_probes frozen)
            (fun () -> Aes_compact.probes frozen)
            (Aes_compact.approx_memory_words frozen)
        in
        let row_dirty =
          measure "aes-compact+10%delta"
            (fun events -> Aes_compact.match_set dirty events)
            (fun () -> Aes_compact.reset_probes dirty)
            (fun () -> Aes_compact.probes dirty)
            (Aes_compact.approx_memory_words dirty)
        in
        [ row_boxed; row_frozen; row_dirty ])
      card_cs
  in
  print_table
    ~title:
      (Printf.sprintf
         "boxed vs frozen matching, Card(A)=%d, b=%d, Card(S)=%d" card_a b s)
    ~header:[ "Card(C)"; "impl"; "us/doc"; "docs/s"; "model MB"; "probes/doc" ]
    rows

(* ------------------------------------------------------------------ *)
(* Memory: "about 500MB for Card(A)=10^6, Card(C)=10^6 and b=10". *)

let tbl_mem scale =
  section "tbl-mem — data-structure memory";
  note "paper: ~500 MB for Card(A)=10^6, Card(C)=10^6, b=10";
  let card_a, card_c, b =
    match scale with
    | Quick -> (100_000, 100_000, 10)
    | Default | Paper -> (1_000_000, 1_000_000, 10)
  in
  let workload = { Workload.card_a; card_c; b; s = 0 } in
  let mqp, words = live_words_of (fun () -> Workload.load_mqp workload ~seed:2) in
  let estimate = Mqp.approx_memory_words mqp in
  print_table ~title:"memory footprint"
    ~header:[ "Card(A)"; "Card(C)"; "b"; "measured MB (GC)"; "model MB" ]
    [
      [
        string_of_int card_a;
        string_of_int card_c;
        string_of_int b;
        Printf.sprintf "%.0f" (megabytes words);
        Printf.sprintf "%.0f" (megabytes estimate);
      ];
    ]

(* ------------------------------------------------------------------ *)
(* Algorithm comparison: AES vs the candidate algorithms the paper
   rejected (per-candidate subset testing; counting — "exponential in
   that factor [k]" in the worst case for their candidate). *)

let tbl_algo scale =
  section "tbl-algo — Atomic Event Sets vs baseline algorithms";
  note
    "paper SS4.1: alternatives considered were sensitive to k (complex \
     events per atomic event); AES was chosen for its behaviour across all \
     three parameters";
  let card_a = 100_000 and b = 4 and s = 30 in
  let card_cs =
    match scale with
    | Quick -> [ 10_000; 100_000 ]
    | Default | Paper -> [ 10_000; 100_000; 1_000_000 ]
  in
  let algorithms =
    [ ("aes", Mqp.Use_aes); ("naive", Mqp.Use_naive); ("counting", Mqp.Use_counting) ]
  in
  let rows =
    List.map
      (fun card_c ->
        let workload = { Workload.card_a; card_c; b; s } in
        let docs = Workload.document_sets workload ~seed:13 ~count:docs_for_timing in
        let cells =
          List.map
            (fun (_, algorithm) ->
              let mqp = Workload.load_mqp ~algorithm workload ~seed:29 in
              Printf.sprintf "%.1f" (microseconds (time_match_set mqp docs)))
            algorithms
        in
        (string_of_int card_c
        :: Printf.sprintf "%.1f" (Workload.k workload)
        :: cells))
      card_cs
  in
  print_table ~title:"time per document (us) per algorithm"
    ~header:([ "Card(C)"; "k" ] @ List.map fst algorithms)
    rows

(* ------------------------------------------------------------------ *)
(* Distribution: the two axes of §4.2. *)

let tbl_dist scale =
  section "tbl-dist — distributed MQP (two partitioning axes)";
  note
    "paper: split the document flow for processing speed; split the \
     subscriptions for memory; both give a very scalable system";
  let card_a = 100_000 and b = 3 and s = 30 in
  let card_c = match scale with Quick -> 50_000 | Default | Paper -> 300_000 in
  let workload = { Workload.card_a; card_c; b; s } in
  let events = Workload.complex_events workload ~seed:41 in
  let docs = Workload.document_sets workload ~seed:43 ~count:docs_for_timing in
  let alerts =
    Array.mapi
      (fun i events ->
        { Mqp.url = Printf.sprintf "http://doc%d/" i; events; payload = ""; trace = None; birth = None })
      docs
  in
  let full = Mqp.create () in
  Array.iteri (fun id set -> Mqp.subscribe full ~id set) events;
  (* Wall time to push every alert through [match_alert]: the
     aggregate work, which distribution divides across machines. *)
  let time_alerts match_alert =
    time_per_unit ~units:(Array.length alerts) (fun () ->
        Array.iter (fun alert -> ignore (match_alert alert)) alerts)
  in
  (* The documents axis: every machine holds all subscriptions and sees
     1/p of the flow, so one full processor stands for each of them. *)
  let full_per_doc = time_alerts (Mqp.process full) in
  let full_memory = Mqp.approx_memory_words full in
  let row axis partitions ~per_doc ~max_memory =
    [
      axis;
      string_of_int partitions;
      Printf.sprintf "%.1f" (microseconds per_doc);
      (* p machines in parallel: on the subscriptions axis every
         machine sees the full flow, and the sequential measurement
         sums their work *)
      Printf.sprintf "%.0f" (float_of_int partitions /. per_doc);
      Printf.sprintf "%.1f" (megabytes max_memory);
    ]
  in
  let partitions = [ 1; 2; 4; 8 ] in
  let rows =
    List.map
      (fun p ->
        row "documents" p ~per_doc:full_per_doc ~max_memory:full_memory)
      partitions
    @ List.map
        (fun p ->
          let subsets = Mqp.split full ~parts:p in
          (* Int.compare, not polymorphic compare: this merge runs once
             per alert. *)
          let merged alert =
            List.sort_uniq Int.compare
              (Array.fold_left
                 (fun acc mqp -> List.rev_append (Mqp.process mqp alert) acc)
                 [] subsets)
          in
          row "subscriptions" p ~per_doc:(time_alerts merged)
            ~max_memory:
              (Array.fold_left
                 (fun acc mqp -> max acc (Mqp.approx_memory_words mqp))
                 0 subsets))
        partitions
  in
  print_table
    ~title:
      (Printf.sprintf
         "partitioned processing, Card(C)=%d (sequential simulation; rate \
          column models p parallel machines)"
         card_c)
    ~header:
      [ "axis"; "partitions"; "us/doc (total work)"; "docs/s (cluster)"; "max MB/partition" ]
    rows

(* ------------------------------------------------------------------ *)
(* AES structural statistics — sanity numbers behind the analysis
   ("the substructure contains O(k) cells"). *)

let tbl_aes_stats scale =
  section "tbl-aes-stats — AES hash-tree shape";
  let card_a = 100_000 and b = 4 in
  let card_c = match scale with Quick -> 50_000 | Default | Paper -> 500_000 in
  let workload = { Workload.card_a; card_c; b; s = 0 } in
  let aes = Aes.create () in
  Array.iteri
    (fun id set -> Aes.add aes ~id set)
    (Workload.complex_events workload ~seed:51);
  let stats = Aes.stats aes in
  print_table ~title:"structure statistics"
    ~header:[ "Card(C)"; "tables"; "cells"; "marks"; "max depth"; "cells/complex" ]
    [
      [
        string_of_int card_c;
        string_of_int stats.Aes.tables;
        string_of_int stats.Aes.cells;
        string_of_int stats.Aes.marks;
        string_of_int stats.Aes.max_depth;
        Printf.sprintf "%.2f" (float_of_int stats.Aes.cells /. float_of_int card_c);
      ];
    ]

(* Real parallel distribution: the paper simulates scale-out by
   partitioning across machines; on OCaml 5 we can actually run the
   document-axis partitioning on separate domains (cores) and measure
   wall-clock speedup.  Each domain owns a full copy of the structure
   (exactly the paper's axis-1 deployment: every machine holds all
   subscriptions, the document flow is split). *)
let tbl_dist_par scale =
  section "tbl-dist-par — document-axis distribution on real cores";
  note
    "paper: 'we can split the flow of documents into several partitions and \
     assign a Monitoring Query Processor to each block' — here each \
     partition is an OCaml domain";
  let card_a = 100_000 and b = 3 and s = 30 in
  let card_c = match scale with Quick -> 50_000 | Default | Paper -> 200_000 in
  let docs_total = 20_000 in
  let workload = { Workload.card_a; card_c; b; s } in
  let docs = Workload.document_sets workload ~seed:61 ~count:docs_total in
  let available = max 1 (Domain.recommended_domain_count () - 1) in
  let partition_counts = List.filter (fun p -> p <= available) [ 1; 2; 4; 8 ] in
  let baseline = ref 0. in
  let rows =
    List.map
      (fun partitions ->
        (* one structure per domain, built outside the timed region *)
        let mqps =
          Array.init partitions (fun _ -> Workload.load_mqp workload ~seed:67)
        in
        let shards =
          Array.init partitions (fun shard ->
              Array.of_seq
                (Seq.filter_map
                   (fun i ->
                     if i mod partitions = shard then Some docs.(i) else None)
                   (Seq.init docs_total Fun.id)))
        in
        Gc.major ();
        let start = Unix.gettimeofday () in
        let domains =
          Array.init partitions (fun shard ->
              Domain.spawn (fun () ->
                  let mqp = mqps.(shard) in
                  Array.iter
                    (fun events ->
                      ignore
                        (Mqp.process mqp { Mqp.url = ""; events; payload = ""; trace = None; birth = None }))
                    shards.(shard)))
        in
        Array.iter Domain.join domains;
        let elapsed = Unix.gettimeofday () -. start in
        if partitions = 1 then baseline := elapsed;
        [
          string_of_int partitions;
          Printf.sprintf "%.3f" elapsed;
          Printf.sprintf "%.0f" (float_of_int docs_total /. elapsed);
          Printf.sprintf "%.2fx" (!baseline /. elapsed);
        ])
      partition_counts
  in
  print_table
    ~title:
      (Printf.sprintf "%d documents, Card(C)=%d per partition (%d cores available)"
         docs_total card_c available)
    ~header:[ "domains"; "wall s"; "docs/s"; "speedup" ]
    rows

(* Probe counting: validate the complexity analysis by counting cell
   lookups instead of timing — immune to GC/cache noise. *)
let tbl_probes scale =
  section "tbl-probes — AES work per document (cell lookups, not time)";
  note
    "paper SS4.2 analysis: the substructure under an atomic event holds O(k) \
     cells; experimentation shows the algorithm runs in O(s * log k)";
  let card_a = 100_000 and b = 4 in
  let probes_per_doc ~card_c ~s =
    let workload = { Workload.card_a; card_c; b; s } in
    let aes = Aes.create () in
    Array.iteri
      (fun id set -> Aes.add aes ~id set)
      (Workload.complex_events workload ~seed:91);
    let docs = Workload.document_sets workload ~seed:93 ~count:500 in
    Aes.reset_probes aes;
    Array.iter (fun events -> ignore (Aes.match_set aes events)) docs;
    float_of_int (Aes.probes aes) /. float_of_int (Array.length docs)
  in
  (* sweep s at fixed k *)
  let card_c_for_s = match scale with Quick -> 50_000 | Default | Paper -> 200_000 in
  let rows_s =
    List.map
      (fun s ->
        let p = probes_per_doc ~card_c:card_c_for_s ~s in
        [ string_of_int s; Printf.sprintf "%.1f" p; Printf.sprintf "%.2f" (p /. float_of_int s) ])
      [ 10; 20; 40; 80 ]
  in
  print_table
    ~title:(Printf.sprintf "probes vs Card(S) at Card(C)=%d" card_c_for_s)
    ~header:[ "Card(S)"; "probes/doc"; "probes per event" ]
    rows_s;
  (* sweep k at fixed s *)
  let card_cs =
    match scale with
    | Quick -> [ 10_000; 100_000 ]
    | Default | Paper -> [ 10_000; 50_000; 200_000; 1_000_000 ]
  in
  let rows_k =
    List.map
      (fun card_c ->
        let workload = { Workload.card_a; card_c; b; s = 30 } in
        let p = probes_per_doc ~card_c ~s:30 in
        [
          string_of_int card_c;
          Printf.sprintf "%.2f" (Workload.k workload);
          Printf.sprintf "%.1f" p;
        ])
      card_cs
  in
  print_table ~title:"probes vs k at Card(S)=30"
    ~header:[ "Card(C)"; "k"; "probes/doc" ]
    rows_k

let all =
  [
    ("fig5", fig5);
    ("tbl-probes", tbl_probes);
    ("fig6", fig6);
    ("tbl-b", tbl_b);
    ("tbl-thr", tbl_thr);
    ("tbl-compact", tbl_compact);
    ("tbl-mem", tbl_mem);
    ("tbl-algo", tbl_algo);
    ("tbl-dist", tbl_dist);
    ("tbl-dist-par", tbl_dist_par);
    ("tbl-aes-stats", tbl_aes_stats);
  ]
