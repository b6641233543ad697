(* Tests for xy_slo: the spec grammar, the multi-window burn-rate
   judgement (breach needs both the fast and the slow window burning),
   cumulative-delta sampling over xy_obs snapshots, and the JSON
   rendering the telemetry endpoint serves. *)

module Obs = Xy_obs.Obs
module Slo = Xy_slo.Slo

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let hour = 3600.
let day = 24. *. hour

(* ------------------------------------------------------------------ *)
(* Spec grammar *)

let parse_exn spec =
  match Slo.parse spec with
  | Ok o -> o
  | Error e -> Alcotest.failf "parse %S: %s" spec e

let test_parse_full () =
  let o = parse_exn "notify:reporter/notification_lag<=21600:0.99:1d/7d:2" in
  Alcotest.(check string) "name" "notify" o.Slo.o_name;
  Alcotest.(check string) "stage" "reporter" o.Slo.o_stage;
  Alcotest.(check string) "metric" "notification_lag" o.Slo.o_metric;
  checkf "threshold" 21600. o.Slo.o_threshold;
  checkf "target" 0.99 o.Slo.o_target;
  checkf "fast window" day o.Slo.o_fast_window;
  checkf "slow window" (7. *. day) o.Slo.o_slow_window;
  checkf "burn limit" 2. o.Slo.o_burn_limit

let test_parse_defaults_and_suffixes () =
  (* No BURN clause: the limit defaults; bare durations are seconds,
     m/h suffixes scale. *)
  let o = parse_exn "d:crawler/detection_lag<=4:0.9:90m/6h" in
  checkf "default burn" Slo.default_burn_limit o.Slo.o_burn_limit;
  checkf "minutes" (90. *. 60.) o.Slo.o_fast_window;
  checkf "hours" (6. *. hour) o.Slo.o_slow_window;
  let o = parse_exn "s:a/b<=1:0.5:30/60" in
  checkf "bare seconds" 30. o.Slo.o_fast_window

let test_parse_rejects () =
  let rejects spec =
    match Slo.parse spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parse %S: expected rejection" spec
  in
  rejects "";
  rejects "no-spec-separators";
  rejects "n:stage_without_metric<=1:0.9:1d/7d";
  rejects "n:s/m<=abc:0.9:1d/7d";
  (* target must lie strictly inside (0, 1) *)
  rejects "n:s/m<=1:1.5:1d/7d";
  rejects "n:s/m<=1:0:1d/7d";
  (* fast window must not exceed slow *)
  rejects "n:s/m<=1:0.9:7d/1d";
  rejects "n:s/m<=1:0.9:1w/2w";
  (* non-finite numbers, in every numeric field *)
  List.iter
    (fun v ->
      rejects (Printf.sprintf "n:s/m<=%s:0.9:1d/7d" v);
      rejects (Printf.sprintf "n:s/m<=1:%s:1d/7d" v);
      rejects (Printf.sprintf "n:s/m<=1:0.9:%s/7d" v);
      rejects (Printf.sprintf "n:s/m<=1:0.9:1d/%s" v);
      rejects (Printf.sprintf "n:s/m<=1:0.9:1d/%sd" v);
      rejects (Printf.sprintf "n:s/m<=1:0.9:1d/7d:%s" v))
    [ "inf"; "infinity"; "nan" ];
  (* a finite window that overflows once scaled to seconds *)
  rejects "n:s/m<=1:0.9:1d/1e308d"

(* ------------------------------------------------------------------ *)
(* Burn-rate judgement *)

(* One objective over a private registry: threshold 8s (a power of
   two, so a bucket bound), 90% target, 1h fast / 6h slow
   windows, burn limit 2.  The error budget is 0.1, so burn = 10 x
   bad fraction: >= 20% bad in both windows breaches. *)
let objective =
  {
    Slo.o_name = "t";
    o_stage = "s";
    o_metric = "lag";
    o_threshold = 8.;
    o_target = 0.9;
    o_fast_window = hour;
    o_slow_window = 6. *. hour;
    o_burn_limit = 2.;
  }

let harness () =
  let obs = Obs.create () in
  let h = Obs.histogram obs ~stage:"s" "lag" in
  let slo = Slo.create [ objective ] in
  (obs, h, slo)

let breached reports =
  match reports with
  | [ r ] -> r.Slo.r_breached
  | _ -> Alcotest.fail "expected exactly one report"

let test_all_good_never_breaches () =
  let obs, h, slo = harness () in
  let last = ref [] in
  for i = 1 to 12 do
    Obs.Histogram.observe h 2.;
    (* well under threshold *)
    last := Slo.tick slo ~now:(float_of_int i *. 0.5 *. hour) (Obs.snapshot obs)
  done;
  checkb "no breach" false (breached !last);
  match !last with
  | [ r ] ->
      checkf "burn is zero" 0. r.Slo.r_fast_burn;
      checki "all samples good" r.Slo.r_total r.Slo.r_good
  | _ -> Alcotest.fail "expected one report"

let test_sustained_badness_breaches () =
  let obs, h, slo = harness () in
  let last = ref [] in
  (* Every observation blows the threshold: bad fraction 1, burn 10
     in both windows once the slow window has history. *)
  for i = 1 to 14 do
    Obs.Histogram.observe h 1e6;
    last := Slo.tick slo ~now:(float_of_int i *. 0.5 *. hour) (Obs.snapshot obs)
  done;
  checkb "breach" true (breached !last);
  match !last with
  | [ r ] ->
      checkb "fast burn at 10" true (r.Slo.r_fast_burn > 9.99);
      checkb "slow burn at 10" true (r.Slo.r_slow_burn > 9.99)
  | _ -> Alcotest.fail "expected one report"

let test_blip_does_not_breach () =
  let obs, h, slo = harness () in
  (* Five hours of good samples fill the slow window... *)
  for i = 1 to 10 do
    List.iter (Obs.Histogram.observe h) [ 2.; 2.; 2.; 2. ];
    ignore (Slo.tick slo ~now:(float_of_int i *. 0.5 *. hour) (Obs.snapshot obs))
  done;
  (* ...then one bad burst inside the last hour: the fast window
     burns, but the slow window's bad fraction stays ~9% < 20%, so
     the multi-window rule holds the alert back. *)
  List.iter (Obs.Histogram.observe h) [ 1e6; 1e6; 1e6; 1e6 ];
  let reports = Slo.tick slo ~now:(5.5 *. hour) (Obs.snapshot obs) in
  (match reports with
  | [ r ] ->
      checkb "fast window burns" true (r.Slo.r_fast_burn >= 2.);
      checkb "slow window does not" true (r.Slo.r_slow_burn < 2.)
  | _ -> Alcotest.fail "expected one report");
  checkb "blip is not a breach" false (breached reports)

(* A threshold at a power of two is a bucket bound: a sample equal to
   it is good, the next float above it bad. *)
let test_power_of_two_threshold_exact () =
  let obs, h, slo = harness () in
  ignore (Slo.tick slo ~now:0. (Obs.snapshot obs));
  List.iter (Obs.Histogram.observe h)
    [ 0.; 7.9; 8.; 8.; Float.succ 8.; 8.4; 1e6 ];
  match Slo.tick slo ~now:hour (Obs.snapshot obs) with
  | [ r ] ->
      checki "total" 7 r.Slo.r_total;
      checki "good: exactly the samples <= 8" 4 r.Slo.r_good
  | _ -> Alcotest.fail "expected one report"

let test_no_samples_no_breach () =
  let obs, _, slo = harness () in
  (* A metric with no traffic must not divide by zero or breach. *)
  let reports = Slo.tick slo ~now:hour (Obs.snapshot obs) in
  checkb "empty is healthy" false (breached reports);
  (* [reports] remembers the last evaluation for the /slo endpoint. *)
  checki "remembered" 1 (List.length (Slo.reports slo))

(* ------------------------------------------------------------------ *)
(* JSON rendering *)

let test_json_shape () =
  let obs, h, slo = harness () in
  Obs.Histogram.observe h 1e6;
  let reports = Slo.tick slo ~now:hour (Obs.snapshot obs) in
  let json = Slo.reports_to_json reports in
  checkb "array" true
    (String.length json >= 2 && json.[0] = '[' && json.[String.length json - 1] = ']');
  let contains sub =
    let n = String.length sub and m = String.length json in
    let rec go i = i + n <= m && (String.sub json i n = sub || go (i + 1)) in
    go 0
  in
  checkb "name" true (contains "\"name\":\"t\"");
  checkb "breached field" true (contains "\"breached\"");
  checkb "burn fields" true (contains "\"fast_burn\"");
  checkb "empty list renders" true (Slo.reports_to_json [] = "[]")

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "slo"
    [
      ( "grammar",
        [
          tc "full spec" test_parse_full;
          tc "defaults + suffixes" test_parse_defaults_and_suffixes;
          tc "rejects" test_parse_rejects;
        ] );
      ( "burn rate",
        [
          tc "all good" test_all_good_never_breaches;
          tc "sustained badness" test_sustained_badness_breaches;
          tc "blip" test_blip_does_not_breach;
          tc "no samples" test_no_samples_no_breach;
          tc "power-of-two threshold counts exactly"
            test_power_of_two_threshold_exact;
        ] );
      ( "json", [ tc "shape" test_json_shape ] );
    ]
