(** Freshness SLOs: declarative objectives over {!Xy_obs.Obs}
    histograms, judged by multi-window burn rates.

    An objective promises "TARGET of samples at most THRESHOLD" for a
    [(stage, metric)] histogram — e.g. "99% of changes notified within
    6 virtual hours" over [reporter/notification_lag].  The engine
    samples cumulative (total, good) pairs on each {!observe} and
    judges sliding windows by burn rate: bad fraction divided by the
    error budget [1 - target].  A breach needs BOTH the fast window
    (it is bad now) and the slow window (it is not a blip) burning at
    or past the objective's limit.

    The engine is mutex-guarded: a telemetry thread may read
    {!reports} while the simulation thread ticks.  A threshold between
    histogram bucket bounds acts as the bound below it (at most 1/16
    lower); every power of two is a bound, so it counts exactly. *)

type objective = {
  o_name : string;
  o_stage : string;
  o_metric : string;  (** histogram key under [o_stage] *)
  o_threshold : float;  (** good: sample <= threshold *)
  o_target : float;  (** required good fraction, in (0, 1) *)
  o_fast_window : float;  (** seconds *)
  o_slow_window : float;  (** seconds; >= fast *)
  o_burn_limit : float;  (** breach when both windows burn >= this *)
}

type report = {
  r_objective : objective;
  r_at : float;
  r_total : int;  (** slow-window samples *)
  r_good : int;
  r_fast_burn : float;
  r_slow_burn : float;
  r_breached : bool;
}

type t

val create : objective list -> t
val objectives : t -> objective list

(** [observe t ~now snapshot] appends one cumulative sample per
    objective from the snapshot ([now] is virtual time; missing
    metrics sample as empty).  Samples older than twice the slow
    window are pruned. *)
val observe : t -> now:float -> Xy_obs.Obs.Snapshot.t -> unit

(** [evaluate t ~now] judges every objective's windows against the
    recorded samples and returns (and remembers) the reports. *)
val evaluate : t -> now:float -> report list

(** [tick t ~now snapshot] = observe then evaluate. *)
val tick : t -> now:float -> Xy_obs.Obs.Snapshot.t -> report list

(** [reports t] is the most recent evaluation of each objective
    (objectives never evaluated are absent) — safe from any thread. *)
val reports : t -> report list

(** {2 Spec grammar} *)

(** ["NAME:STAGE/METRIC<=THRESHOLD:TARGET:FAST/SLOW[:BURN]"] — e.g.
    ["notify:reporter/notification_lag<=21600:0.99:1d/7d:2"].  Window
    durations take an optional [s]/[m]/[h]/[d] suffix (bare numbers
    are seconds); [BURN] defaults to {!default_burn_limit}. *)
val spec_grammar : string

val default_burn_limit : float

(** [parse spec] reads the grammar above.  The threshold, both
    windows and the burn limit must be positive and finite ([inf],
    [infinity] and [nan] are refused), and the target strictly between
    0 and 1. *)
val parse : string -> (objective, string) result

(** {2 JSON rendering} (the telemetry [/slo] endpoint)

    Numbers and strings go through {!Xy_obs.Obs.Export}, so a
    non-finite value would print as [null], never as a bare [inf]. *)

val report_to_json : report -> string

(** A JSON array, one object per report. *)
val reports_to_json : report list -> string
