(* Freshness SLOs over the metrics registry.

   An objective binds a (stage, metric) histogram to a declarative
   promise — "TARGET of samples at most THRESHOLD" — and is judged by
   multi-window burn rates in the Google-SRE style: the error budget is
   [1 - target]; the burn rate is how many times faster than budget the
   bad fraction consumes it; an alert needs BOTH a fast window (the
   page is hot right now) and a slow window (it is not a blip) burning
   past the limit.

   Sampling is cumulative-delta: each [observe] appends the
   histogram's lifetime (total, good) pair; a window's bad fraction is
   the difference between now and the newest sample at or before the
   window's left edge.  Bucketed counting takes a threshold between
   bucket bounds as the bound below it — declare thresholds on bucket
   bounds (every power of two is one) for exact accounting. *)

module Obs = Xy_obs.Obs

type objective = {
  o_name : string;
  o_stage : string;
  o_metric : string;
  o_threshold : float;
  o_target : float;
  o_fast_window : float;
  o_slow_window : float;
  o_burn_limit : float;
}

type sample = { s_at : float; s_total : int; s_good : int }

type report = {
  r_objective : objective;
  r_at : float;
  r_total : int;
  r_good : int;
  r_fast_burn : float;
  r_slow_burn : float;
  r_breached : bool;
}

type state = {
  objective : objective;
  mutable samples : sample list;  (** newest first *)
  mutable last : report option;
}

type t = { lock : Mutex.t; states : state list }

let create objectives =
  {
    lock = Mutex.create ();
    states =
      List.map (fun objective -> { objective; samples = []; last = None }) objectives;
  }

let objectives t = List.map (fun s -> s.objective) t.states

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | result ->
      Mutex.unlock t.lock;
      result
  | exception e ->
      Mutex.unlock t.lock;
      raise e

let observe t ~now snapshot =
  locked t @@ fun () ->
  List.iter
    (fun state ->
      let o = state.objective in
      let total, good =
        match
          Obs.Snapshot.find snapshot ~stage:o.o_stage o.o_metric
        with
        | Some (Obs.Snapshot.Histogram h) ->
            (h.Obs.Snapshot.count, Obs.Snapshot.count_le h o.o_threshold)
        | Some _ | None -> (0, 0)
      in
      let sample = { s_at = now; s_total = total; s_good = good } in
      (* prune anything older than what the slow window can reference *)
      let horizon = now -. (2. *. o.o_slow_window) in
      state.samples <-
        sample :: List.filter (fun s -> s.s_at >= horizon) state.samples)
    t.states

(* The baseline of a window ending now: the newest sample at or before
   its left edge, else the oldest sample we have (short history ⇒ the
   window is judged on what exists).  No samples ⇒ empty window. *)
let window_delta samples ~now ~window ~total ~good =
  let edge = now -. window in
  let baseline =
    let rec newest_at_or_before = function
      | [] -> None
      | s :: older ->
          if s.s_at <= edge then Some s
          else (
            match newest_at_or_before older with
            | Some _ as found -> found
            | None -> Some s (* oldest available *))
    in
    newest_at_or_before samples
  in
  match baseline with
  | None -> (total, good)
  | Some s -> (total - s.s_total, good - s.s_good)

let burn ~target ~total ~good =
  if total <= 0 then 0.
  else
    let bad_frac = 1. -. (float_of_int good /. float_of_int total) in
    let budget = Float.max 1e-9 (1. -. target) in
    bad_frac /. budget

let evaluate_state state ~now =
  let o = state.objective in
  let latest =
    match state.samples with
    | [] -> { s_at = now; s_total = 0; s_good = 0 }
    | s :: _ -> s
  in
  let fast_total, fast_good =
    window_delta state.samples ~now ~window:o.o_fast_window
      ~total:latest.s_total ~good:latest.s_good
  in
  let slow_total, slow_good =
    window_delta state.samples ~now ~window:o.o_slow_window
      ~total:latest.s_total ~good:latest.s_good
  in
  let fast_burn = burn ~target:o.o_target ~total:fast_total ~good:fast_good in
  let slow_burn = burn ~target:o.o_target ~total:slow_total ~good:slow_good in
  let breached =
    fast_total > 0 && fast_burn >= o.o_burn_limit && slow_burn >= o.o_burn_limit
  in
  let report =
    {
      r_objective = o;
      r_at = now;
      r_total = slow_total;
      r_good = slow_good;
      r_fast_burn = fast_burn;
      r_slow_burn = slow_burn;
      r_breached = breached;
    }
  in
  state.last <- Some report;
  report

let evaluate t ~now =
  locked t @@ fun () -> List.map (evaluate_state ~now) t.states

let tick t ~now snapshot =
  observe t ~now snapshot;
  evaluate t ~now

let reports t =
  locked t @@ fun () -> List.filter_map (fun s -> s.last) t.states

(* ------------------------------------------------------------------ *)
(* Spec parser.

   NAME:STAGE/METRIC<=THRESHOLD:TARGET:FAST/SLOW[:BURN]

   e.g. "notify:reporter/notification_lag<=21600:0.99:1d/7d:2"
   promises that 99% of changes are notified within 21600 virtual
   seconds, alerting when both the 1-day and 7-day windows burn the
   error budget at >= 2x.  Window durations take an optional s/m/h/d
   suffix (seconds when bare). *)

let spec_grammar = "NAME:STAGE/METRIC<=THRESHOLD:TARGET:FAST/SLOW[:BURN]"

let default_burn_limit = 2.0

(* first occurrence of [sep] splits [s] into (before, after) *)
let split_on_sub ~sep s =
  let n = String.length s and m = String.length sep in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = sep then
      Some (String.sub s 0 i, String.sub s (i + m) (n - i - m))
    else find (i + 1)
  in
  find 0

let parse_duration s =
  let fail () = Error (Printf.sprintf "bad duration %S" s) in
  if s = "" then fail ()
  else
    let scale, digits =
      match s.[String.length s - 1] with
      | 's' -> (1., String.sub s 0 (String.length s - 1))
      | 'm' -> (60., String.sub s 0 (String.length s - 1))
      | 'h' -> (3600., String.sub s 0 (String.length s - 1))
      | 'd' -> (86400., String.sub s 0 (String.length s - 1))
      | _ -> (1., s)
    in
    match float_of_string_opt digits with
    | Some v when v > 0. && Float.is_finite (v *. scale) -> Ok (v *. scale)
    | Some _ | None -> fail ()

let ( let* ) = Result.bind

let parse spec =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.split_on_char ':' spec with
  | [ name; slo; target; windows ] | [ name; slo; target; windows; _ ] -> (
      let* burn_limit =
        match String.split_on_char ':' spec with
        | [ _; _; _; _; burn ] -> (
            match float_of_string_opt burn with
            | Some b when b > 0. && Float.is_finite b -> Ok b
            | Some _ | None -> fail "bad burn limit %S" burn)
        | _ -> Ok default_burn_limit
      in
      let* metric_path, threshold =
        match split_on_sub ~sep:"<=" slo with
        | None -> fail "expected METRIC<=THRESHOLD in %S" slo
        | Some (path, bound) -> (
            match float_of_string_opt bound with
            | Some v when v > 0. && Float.is_finite v -> Ok (path, v)
            | Some _ | None -> fail "bad threshold %S" bound)
      in
      let* stage, metric =
        match String.index_opt metric_path '/' with
        | Some i ->
            Ok
              ( String.sub metric_path 0 i,
                String.sub metric_path (i + 1)
                  (String.length metric_path - i - 1) )
        | None -> fail "expected STAGE/METRIC in %S" metric_path
      in
      let* target =
        match float_of_string_opt target with
        | Some v when v > 0. && v < 1. -> Ok v
        | Some _ | None -> fail "bad target %S (want 0 < t < 1)" target
      in
      let* fast, slow =
        match String.split_on_char '/' windows with
        | [ fast; slow ] ->
            let* fast = parse_duration fast in
            let* slow = parse_duration slow in
            if fast > slow then fail "fast window exceeds slow in %S" windows
            else Ok (fast, slow)
        | _ -> fail "expected FAST/SLOW windows in %S" windows
      in
      if name = "" then fail "empty objective name"
      else if String.contains name '/' || String.contains name ' ' then
        fail "objective name %S may not contain '/' or spaces" name
      else
        Ok
          {
            o_name = name;
            o_stage = stage;
            o_metric = metric;
            o_threshold = threshold;
            o_target = target;
            o_fast_window = fast;
            o_slow_window = slow;
            o_burn_limit = burn_limit;
          })
  | _ -> fail "expected %s, got %S" spec_grammar spec

(* ------------------------------------------------------------------ *)
(* JSON rendering (the /slo endpoint). *)

let report_to_json r =
  let open Obs.Export in
  let o = r.r_objective in
  Printf.sprintf
    "{\"name\":%s,\"stage\":%s,\"metric\":%s,\"threshold\":%s,\"target\":%s,\"fast_window\":%s,\"slow_window\":%s,\"burn_limit\":%s,\"at\":%s,\"total\":%d,\"good\":%d,\"fast_burn\":%s,\"slow_burn\":%s,\"breached\":%b}"
    (json_string o.o_name) (json_string o.o_stage) (json_string o.o_metric)
    (json_number o.o_threshold) (json_number o.o_target)
    (json_number o.o_fast_window)
    (json_number o.o_slow_window)
    (json_number o.o_burn_limit) (json_number r.r_at) r.r_total r.r_good
    (json_number r.r_fast_burn) (json_number r.r_slow_burn) r.r_breached

let reports_to_json reports =
  "[" ^ String.concat "," (List.map report_to_json reports) ^ "]"
