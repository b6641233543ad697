module Obs = Xy_obs.Obs
module Fault = Xy_fault.Fault

type fetch = {
  url : string;
  content : string option;
  kind : Synthetic_web.kind option;
  trace : Xy_trace.Trace.ctx option;
  birth : float option;
}

type retry_policy = {
  max_retries : int;
  backoff : float;
  backoff_factor : float;
  jitter : float;
  demote_factor : float;
  site_threshold : int;
}

let default_retry =
  {
    max_retries = 3;
    backoff = 300.;
    backoff_factor = 2.;
    jitter = 0.5;
    demote_factor = 2.;
    site_threshold = 10;
  }

type metrics = {
  fetched : Obs.Counter.t;
  missing : Obs.Counter.t;
  changed : Obs.Counter.t;
  unchanged : Obs.Counter.t;
  fetch_latency : Obs.Histogram.t;
  detection_lag : Obs.Histogram.t;
      (** virtual seconds from a change's birth to the fetch that
          observed it *)
  watermark_age : Obs.Gauge.t;
      (** age (virtual seconds) of the oldest change no fetch has
          observed yet; [0] when fully current *)
  watermark_pending : Obs.Gauge.t;
      (** pages currently holding an unobserved change *)
}

(* Robustness accounting lives under the [fault] stage, next to the
   injection counters, so one snapshot shows cause and response
   side by side. *)
type fault_metrics = {
  f_failures : Obs.Counter.t;
  f_retries : Obs.Counter.t;
  f_exhausted : Obs.Counter.t;
  f_requeued : Obs.Counter.t;
  f_flagged_sites : Obs.Gauge.t;
}

type t = {
  web : Synthetic_web.t;
  queue : Fetch_queue.t;
  clock : Xy_util.Clock.t option;
  tracer : Xy_trace.Trace.t option;
  faults : Fault.t;
  retry : retry_policy;
  attempts : (string, int) Hashtbl.t;  (** url -> consecutive failures *)
  site_failures : (string, int) Hashtbl.t;
  mutable fetches : int;
  metrics : metrics;
  fault_metrics : fault_metrics;
  mutable journal : (string -> unit) option;
}

let stage = "crawler"
let fault_stage = "fault"

let create ?(obs = Obs.default) ?clock ?tracer ?(faults = Fault.none)
    ?(retry = default_retry) ~web ~queue () =
  {
    web;
    queue;
    clock;
    tracer;
    faults;
    retry;
    attempts = Hashtbl.create 64;
    site_failures = Hashtbl.create 16;
    fetches = 0;
    metrics =
      {
        fetched = Obs.counter obs ~stage "fetches";
        missing = Obs.counter obs ~stage "missing";
        changed = Obs.counter obs ~stage "changed";
        unchanged = Obs.counter obs ~stage "unchanged";
        fetch_latency = Obs.histogram obs ~stage "fetch_latency";
        detection_lag = Obs.histogram obs ~stage "detection_lag";
        watermark_age = Obs.gauge obs ~stage "staleness_watermark_age";
        watermark_pending = Obs.gauge obs ~stage "staleness_pending_changes";
      };
    fault_metrics =
      {
        f_failures = Obs.counter obs ~stage:fault_stage "fetch_failures";
        f_retries = Obs.counter obs ~stage:fault_stage "fetch_retries";
        f_exhausted = Obs.counter obs ~stage:fault_stage "retry_exhausted";
        f_requeued = Obs.counter obs ~stage:fault_stage "requeued_demoted";
        f_flagged_sites = Obs.gauge obs ~stage:fault_stage "flagged_sites";
      };
    journal = None;
  }

(* Durability: the retry bookkeeping (per-URL attempt counts, per-site
   failure tallies, the fetch counter) journals each mutation's
   post-state; replay upserts. *)
module Codec = Xy_util.Codec

let set_journal t emit = t.journal <- emit

let emit_op t encode =
  match t.journal with
  | None -> ()
  | Some emit ->
      let buf = Buffer.create 48 in
      encode buf;
      emit (Buffer.contents buf)

(* key -> count post-states; count 0 means removed *)
let journal_attempt t url =
  emit_op t (fun buf ->
      Codec.string buf "a";
      Codec.string buf url;
      Codec.int buf (Option.value ~default:0 (Hashtbl.find_opt t.attempts url)))

let journal_site t site =
  emit_op t (fun buf ->
      Codec.string buf "s";
      Codec.string buf site;
      Codec.int buf
        (Option.value ~default:0 (Hashtbl.find_opt t.site_failures site)))

let journal_fetches t =
  emit_op t (fun buf ->
      Codec.string buf "f";
      Codec.int buf t.fetches)

let discover t =
  List.iter (fun url -> Fetch_queue.add t.queue ~url) (Synthetic_web.urls t.web)

(* "http://site3.example.org/page7.xml" -> "http://site3.example.org" *)
let site_of url =
  match String.index_opt url ':' with
  | Some i
    when i + 2 < String.length url && url.[i + 1] = '/' && url.[i + 2] = '/' -> (
      match String.index_from_opt url (i + 3) '/' with
      | Some j -> String.sub url 0 j
      | None -> url)
  | _ -> url

let site_failures t ~url =
  Option.value ~default:0 (Hashtbl.find_opt t.site_failures (site_of url))

let flagged_sites t =
  Hashtbl.fold
    (fun _ failures acc -> if failures >= t.retry.site_threshold then acc + 1 else acc)
    t.site_failures 0

let pending_retries t = Hashtbl.length t.attempts

(* {2 Staleness accounting} — lags are measured on the virtual axis:
   the system clock when one was bound, else the web's own [vnow]
   (they advance in lockstep; the fallback serves clockless tests). *)

let virtual_now t =
  match t.clock with
  | Some clock -> Xy_util.Clock.now clock
  | None -> Synthetic_web.vnow t.web

let observe_detection t ~url =
  match Synthetic_web.take_change_birth t.web ~url with
  | None -> None
  | Some birth ->
      Obs.Histogram.observe t.metrics.detection_lag
        (Float.max 0. (virtual_now t -. birth));
      Some birth

let update_watermark t =
  let now = virtual_now t in
  let age =
    match Synthetic_web.oldest_pending t.web with
    | None -> 0.
    | Some birth -> Float.max 0. (now -. birth)
  in
  Obs.Gauge.set t.metrics.watermark_age age;
  Obs.Gauge.set_int t.metrics.watermark_pending
    (Synthetic_web.pending_changes t.web)

(* Deterministic content mangling: cut the document somewhere and
   append bytes no XML parser can accept (unclosed tag, bad entity
   reference, stray "]]>"). *)
let mangle t content =
  let n = String.length content in
  let cut = if n = 0 then 0 else 1 + Fault.draw_int t.faults "malformed" ~bound:n in
  String.sub content 0 (min cut n) ^ "<&malformed]]>"

(* One transient fetch failure: bounded retry with exponential backoff
   and jitter; a site whose failures pile up past the threshold gets
   its backoff doubled again (repeat offenders wait longer); on
   exhaustion the URL is requeued at demoted importance — never
   dropped. *)
let handle_failure t ~url =
  Obs.Counter.incr t.fault_metrics.f_failures;
  let site = site_of url in
  let site_count = 1 + Option.value ~default:0 (Hashtbl.find_opt t.site_failures site) in
  Hashtbl.replace t.site_failures site site_count;
  journal_site t site;
  Obs.Gauge.set_int t.fault_metrics.f_flagged_sites (flagged_sites t);
  let attempt = 1 + Option.value ~default:0 (Hashtbl.find_opt t.attempts url) in
  if attempt <= t.retry.max_retries then begin
    Hashtbl.replace t.attempts url attempt;
    journal_attempt t url;
    Obs.Counter.incr t.fault_metrics.f_retries;
    let base =
      t.retry.backoff *. Float.pow t.retry.backoff_factor (float_of_int (attempt - 1))
    in
    let offender_scale =
      if site_count >= t.retry.site_threshold then 2. else 1.
    in
    let jitter = base *. t.retry.jitter *. Fault.draw_float t.faults "fetch" in
    Fetch_queue.retry t.queue ~url ~delay:((base *. offender_scale) +. jitter)
  end
  else begin
    Hashtbl.remove t.attempts url;
    journal_attempt t url;
    Obs.Counter.incr t.fault_metrics.f_exhausted;
    Obs.Counter.incr t.fault_metrics.f_requeued;
    Fetch_queue.penalize t.queue ~url ~factor:t.retry.demote_factor
  end

let handle_success t ~url =
  if Hashtbl.mem t.attempts url then begin
    Hashtbl.remove t.attempts url;
    journal_attempt t url
  end;
  let site = site_of url in
  match Hashtbl.find_opt t.site_failures site with
  | Some n ->
      if n > 1 then Hashtbl.replace t.site_failures site (n - 1)
      else Hashtbl.remove t.site_failures site;
      journal_site t site;
      Obs.Gauge.set_int t.fault_metrics.f_flagged_sites (flagged_sites t)
  | None -> ()

let fetch_one t ~url =
  (* The failure draw precedes the fetch: a transient fault costs
     no synthetic-web access and emits no fetch record — the URL
     re-enters the schedule through the retry path instead. *)
  if Fault.fire t.faults "fetch" then begin
    handle_failure t ~url;
    None
  end
  else begin
    t.fetches <- t.fetches + 1;
    journal_fetches t;
    Obs.Counter.incr t.metrics.fetched;
    (* The sampling decision for the whole pipeline happens here, at
       fetch time; the context then rides the fetch downstream. *)
    let trace =
      Option.bind t.tracer (fun tracer -> Xy_trace.Trace.start tracer ~root:url)
    in
    let content =
      Xy_trace.Trace.wrap trace ~stage ~name:"fetch" ~attrs:[ ("url", url) ]
      @@ fun () ->
      Obs.Histogram.time t.metrics.fetch_latency (fun () ->
          Synthetic_web.fetch t.web ~url)
    in
    let birth =
      match content with
      | None ->
          Obs.Counter.incr t.metrics.missing;
          Fetch_queue.forget t.queue ~url;
          None
      | Some _ ->
          handle_success t ~url;
          (* the fetched body carries any pending change: record its
             detection lag and let the birth ride the fetch downstream
             so the reporter can measure notification lag *)
          observe_detection t ~url
    in
    let content =
      match content with
      | Some body when Fault.fire t.faults "malformed" -> Some (mangle t body)
      | other -> other
    in
    Some { url; content; kind = Synthetic_web.kind_of t.web ~url; trace; birth }
  end

let step t ~limit =
  let due = Fetch_queue.pop_due t.queue ~limit in
  List.filter_map (fun url -> fetch_one t ~url) due

let conclude t ~url ~changed =
  Obs.Counter.incr
    (if changed then t.metrics.changed else t.metrics.unchanged);
  Fetch_queue.mark_fetched t.queue ~url ~changed

let fetches t = t.fetches

(* {2 Durability} *)

let encode_snapshot t =
  let buf = Buffer.create 256 in
  let sorted table =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])
  in
  let pair buf (k, v) =
    Codec.string buf k;
    Codec.int buf v
  in
  Codec.list buf pair (sorted t.attempts);
  Codec.list buf pair (sorted t.site_failures);
  Codec.int buf t.fetches;
  Buffer.contents buf

let decode_snapshot t payload =
  let reader = Codec.reader payload in
  let pair r =
    let k = Codec.read_string r in
    let v = Codec.read_int r in
    (k, v)
  in
  let attempts = Codec.read_list reader pair in
  let sites = Codec.read_list reader pair in
  let fetches = Codec.read_int reader in
  Codec.expect_end reader;
  Hashtbl.reset t.attempts;
  List.iter (fun (k, v) -> Hashtbl.replace t.attempts k v) attempts;
  Hashtbl.reset t.site_failures;
  List.iter (fun (k, v) -> Hashtbl.replace t.site_failures k v) sites;
  t.fetches <- fetches;
  Obs.Gauge.set_int t.fault_metrics.f_flagged_sites (flagged_sites t)

let apply_op t payload =
  let reader = Codec.reader payload in
  (match Codec.read_string reader with
  | "a" ->
      let url = Codec.read_string reader in
      let n = Codec.read_int reader in
      if n = 0 then Hashtbl.remove t.attempts url
      else Hashtbl.replace t.attempts url n
  | "s" ->
      let site = Codec.read_string reader in
      let n = Codec.read_int reader in
      if n = 0 then Hashtbl.remove t.site_failures site
      else Hashtbl.replace t.site_failures site n
  | "f" -> t.fetches <- Codec.read_int reader
  | tag -> raise (Codec.Malformed ("unknown crawler op " ^ tag)));
  Codec.expect_end reader
