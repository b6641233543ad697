module Obs = Xy_obs.Obs

type alert = {
  url : string;
  events : Xy_events.Event_set.t;
  payload : string;
  trace : Xy_trace.Trace.ctx option;
  birth : float option;
}
type algorithm = Use_aes | Use_aes_compact | Use_naive | Use_counting

let algorithm_name_of = function
  | Use_aes -> Aes.name
  | Use_aes_compact -> Aes_compact.name
  | Use_naive -> Naive.name
  | Use_counting -> Counting.name

let algorithms =
  [ Use_aes; Use_aes_compact; Use_naive; Use_counting ]

let algorithm_of_name name =
  List.find_opt (fun a -> algorithm_name_of a = name) algorithms

type packed = Packed : (module Matcher.S with type t = 'a) * 'a -> packed

type metrics = {
  m_alerts : Obs.Counter.t;
  m_notifications : Obs.Counter.t;
  m_match_latency : Obs.Histogram.t;
  m_batch_size : Obs.Histogram.t;
  m_events_per_alert : Obs.Histogram.t;
  m_complex : Obs.Gauge.t;
}

type t = {
  algorithm : algorithm;
  matcher : packed;
  compact : Aes_compact.t option;
      (** the same instance as [matcher] when the algorithm is
          {!Use_aes_compact}; gives the freeze/compact-stats surface
          without breaking the packed abstraction *)
  mutable batch_listeners : (alert -> int list -> unit) list;
  mutable alerts_processed : int;
  mutable notifications_emitted : int;
  mutable mutations : int;
      (** subscribe/unsubscribe count — a cheap epoch for
          invalidating a {!split} *)
  metrics : metrics;
}

let pack (type a) (module M : Matcher.S with type t = a) =
  Packed ((module M), M.create ())

let stage = "mqp"

let create ?(algorithm = Use_aes) ?(obs = Obs.default) () =
  let matcher, compact =
    match algorithm with
    | Use_aes -> (pack (module Aes), None)
    | Use_aes_compact ->
        let c = Aes_compact.create () in
        (Packed ((module Aes_compact), c), Some c)
    | Use_naive -> (pack (module Naive), None)
    | Use_counting -> (pack (module Counting), None)
  in
  {
    algorithm;
    matcher;
    compact;
    batch_listeners = [];
    alerts_processed = 0;
    notifications_emitted = 0;
    mutations = 0;
    metrics =
      {
        m_alerts = Obs.counter obs ~stage "alerts";
        m_notifications = Obs.counter obs ~stage "notifications";
        m_match_latency = Obs.histogram obs ~stage "match_latency";
        m_batch_size = Obs.histogram obs ~stage "batch_size";
        m_events_per_alert = Obs.histogram obs ~stage "events_per_alert";
        m_complex = Obs.gauge obs ~stage "complex_events";
      };
  }

let algorithm_name t =
  let (Packed ((module M), _)) = t.matcher in
  M.name

let freeze t = Option.iter Aes_compact.freeze t.compact
let compact_stats t = Option.map Aes_compact.compact_stats t.compact

let subscribe t ~id events =
  let (Packed ((module M), m)) = t.matcher in
  M.add m ~id events;
  t.mutations <- t.mutations + 1;
  Obs.Gauge.set_int t.metrics.m_complex (M.complex_count m)

let unsubscribe t ~id =
  let (Packed ((module M), m)) = t.matcher in
  M.remove m ~id;
  t.mutations <- t.mutations + 1;
  Obs.Gauge.set_int t.metrics.m_complex (M.complex_count m)

let mutations t = t.mutations

let iter_complex t f =
  let (Packed ((module M), m)) = t.matcher in
  M.iter m f

(* The subscription axis of §4.2: complex event [id] goes to subset
   [id mod parts].  Each subset instruments into its own scratch
   registry, so that it never shadows the processor's metrics. *)
let split t ~parts =
  if parts <= 0 then invalid_arg "Mqp.split: parts <= 0";
  let subsets =
    Array.init parts (fun _ ->
        create ~algorithm:t.algorithm ~obs:(Obs.create ()) ())
  in
  iter_complex t (fun ~id events ->
      subscribe subsets.(id mod parts) ~id events);
  Array.iter freeze subsets;
  subsets

(* Bare matching against the structure: no metrics, no stats, no
   listeners.  Every matcher is read-only under [match_set], so this
   is safe from several domains at once while no subscribe/unsubscribe
   runs.  The matchers' internal probe counters are plain fields, so
   concurrent readers may undercount probes; they never corrupt the
   structure. *)
let match_readonly t events =
  let (Packed ((module M), m)) = t.matcher in
  M.match_set m events

(* The matching half of {!process}: the bare match timed, under an
   [mqp/match] span when the alert is traced.  Touches no metrics, so
   it runs on the owning domain or on a shard domain alike. *)
let match_alert t alert =
  let span =
    Option.map
      (fun ctx -> Xy_trace.Trace.begin_span ctx ~stage:"mqp" ~name:"match")
      alert.trace
  in
  let t0 = Obs.now () in
  let matched = match_readonly t alert.events in
  let latency = Obs.now () -. t0 in
  (match span with
  | None -> ()
  | Some span ->
      Xy_trace.Trace.end_span
        ~attrs:
          [
            ("events", string_of_int (Xy_events.Event_set.cardinal alert.events));
            ("matched", string_of_int (List.length matched));
          ]
        span);
  (matched, latency)

(* The dispatch half of {!process}: per-alert instruments, lifetime
   stats and batch listeners, for a match produced by
   {!match_alert}, possibly on a shard domain.  Single-threaded: only
   the owning/drainer domain may call this. *)
let dispatch_matched t alert ~matched ~latency =
  Obs.Histogram.observe t.metrics.m_match_latency latency;
  Obs.Counter.incr t.metrics.m_alerts;
  Obs.Histogram.observe t.metrics.m_events_per_alert
    (float_of_int (Xy_events.Event_set.cardinal alert.events));
  Obs.Histogram.observe t.metrics.m_batch_size
    (float_of_int (List.length matched));
  Obs.Counter.add t.metrics.m_notifications (List.length matched);
  t.alerts_processed <- t.alerts_processed + 1;
  t.notifications_emitted <- t.notifications_emitted + List.length matched;
  if matched <> [] then
    List.iter (fun listener -> listener alert matched) t.batch_listeners;
  matched

let process t alert =
  let matched, latency = match_alert t alert in
  dispatch_matched t alert ~matched ~latency

let on_batch t listener = t.batch_listeners <- listener :: t.batch_listeners

let complex_count t =
  let (Packed ((module M), m)) = t.matcher in
  M.complex_count m

let approx_memory_words t =
  let (Packed ((module M), m)) = t.matcher in
  M.approx_memory_words m

type stats = {
  alerts_processed : int;
  notifications_emitted : int;
  complex_events : int;
}

let stats (t : t) =
  {
    alerts_processed = t.alerts_processed;
    notifications_emitted = t.notifications_emitted;
    complex_events = complex_count t;
  }

(* Matching structure state is rebuilt by subscription-log recovery;
   only the lifetime counters need restoring explicitly. *)
let restore_counters (t : t) ~alerts_processed ~notifications_emitted =
  t.alerts_processed <- alerts_processed;
  t.notifications_emitted <- notifications_emitted
