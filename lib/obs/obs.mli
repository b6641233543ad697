(** Pipeline observability substrate.

    The paper's headline claims are throughput claims — "millions of
    pages/day with millions of subscriptions on a single PC" (§1), an
    MQP at "several thousand sets of atomic events per second" (§4.2)
    — so every pipeline stage carries monotonic counters, gauges and
    histograms keyed by [(stage, name)].  Every histogram shares one
    computed log-linear layout: 16 buckets per power of two over
    (2^-30, 2^40], so a quantile is within 1/16 of the sample it
    estimates, whatever the unit (seconds, sizes, virtual lag).

    The accumulation path is lock-free and safe across OCaml domains:
    each metric keeps an array of per-domain cells (each live domain
    owns one stripe, up to 64 of them) that are only merged when a
    {!Snapshot} is taken.  Metric *creation* takes a lock; pipeline
    stages create their metrics once at construction time and only
    touch cells afterwards.

    The library depends on nothing but the standard library and one C
    stub, the clock below. *)

(** {2 Time source} *)

(** [now ()] is the process's one wall clock: [CLOCK_MONOTONIC] in
    seconds, with nanosecond resolution, read by {!Histogram.time},
    snapshot timestamps, trace spans and every deadline in the system.
    It never steps back, so a difference of two readings is never
    negative, but it counts from an arbitrary origin (typically boot):
    subtract two readings, never compare one with calendar time.
    Declared [external] and [[@@noalloc]], so a native call is one C
    call returning an unboxed float, without allocation. *)
external now : unit -> (float[@unboxed]) = "xy_obs_now" "xy_obs_now_unboxed"
[@@noalloc]

(** {2 Export encoding}

    How every machine-readable export writes a value: the Prometheus
    text, the [<metrics>] XML of {!Snapshot.to_xml_string}, the trace
    JSONL, the JSON endpoints and the SLO documents all print numbers
    and JSON strings through this module and nowhere else.  A number
    reads back to the float that was exported, so two {!now}
    readings a nanosecond apart stay apart in every export. *)

module Export : sig
  (** [number v] is the shortest of [%.15g], [%.16g] and [%.17g]
      that reads back to [v] exactly: an integer below 1e15 prints
      without an exponent (["1209601"]).  Non-finite values print as
      Prometheus spells them: ["+Inf"], ["-Inf"], ["NaN"]. *)
  val number : float -> string

  (** [json_number v] is [number v] for a finite [v], else ["null"]:
      JSON has no spelling for infinities and NaN. *)
  val json_number : float -> string

  (** [json_string s] is [s] as a quoted JSON string, with double
      quotes, backslashes and every control character escaped. *)
  val json_string : string -> string
end

(** {2 Registries} *)

type t

val create : unit -> t

(** [default] is the process-wide registry components fall back to
    when no registry is passed explicitly. *)
val default : t

(** {2 Instruments} *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit

  (** [value t] merges the per-domain cells. *)
  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val set_int : t -> int -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  (** [observe t v] records one sample. *)
  val observe : t -> float -> unit

  (** [time t f] runs [f] and records its duration on {!now} (also
      on exception). *)
  val time : t -> (unit -> 'a) -> 'a

  val count : t -> int
  val sum : t -> float
end

(** [counter t ~stage name] returns the counter registered under
    [(stage, name)], creating it on first use.  Raises
    [Invalid_argument] if the key holds another instrument kind. *)
val counter : t -> stage:string -> string -> Counter.t

val gauge : t -> stage:string -> string -> Gauge.t

(** [histogram t ~stage name] — as {!counter}, for a histogram in the
    one layout (see {!Snapshot.upper_bound}). *)
val histogram : t -> stage:string -> string -> Histogram.t

(** {2 Snapshots} *)

module Snapshot : sig
  type histogram = {
    counts : (int * int) list;
        (** the non-empty buckets, as (bucket, count) pairs in ascending
            bucket order; a bucket indexes the layout ({!upper_bound}) *)
    count : int;
    sum : float;
    min_value : float;  (** [infinity] when empty *)
    max_value : float;  (** [neg_infinity] when empty *)
  }

  (** The number of buckets in the one layout. *)
  val buckets : int

  (** [upper_bound i] is bucket [i]'s inclusive upper bound: [0.] for
      bucket 0 (zero and negative values), [2^-30] for bucket 1, then
      16 log-linear bounds per power of two up to [2^40], and
      [infinity] for the last bucket.  Every power of two in
      [[2^-30, 2^40]] is a bound. *)
  val upper_bound : int -> float

  type value = Counter of int | Gauge of float | Histogram of histogram
  type entry = { stage : string; name : string; value : value }

  type t = {
    at : float;
        (** {!now} when the snapshot was taken: seconds from an
            arbitrary monotonic origin, not calendar time *)
    entries : entry list;  (** sorted by [(stage, name)] *)
  }

  val empty : t

  (** [merge a b] combines two snapshots (e.g. taken from partitioned
      sub-systems): counters add, histograms add pointwise, gauges
      keep the maximum.  Associative and commutative, with {!empty}
      as identity. *)
  val merge : t -> t -> t

  val find : t -> stage:string -> string -> value option

  (** [counter_value t ~stage name] is [0] when absent. *)
  val counter_value : t -> stage:string -> string -> int

  (** [quantile h q] estimates the [q]-quantile (0 ≤ q ≤ 1) of a
      histogram from its buckets: the upper bound of the bucket
      covering the rank, clamped to [[min_value, max_value]].  It is
      at least the exact ⌈q·n⌉-th sample and at most that sample ×
      (1 + 1/16), or [2^-30] for smaller samples.  [nan] when
      empty. *)
  val quantile : histogram -> float -> float

  (** [count_le h x] is the number of samples in the buckets whose
      upper bound is at most [x]: exact when [x] is a bucket bound,
      such as any power of two in the layout's range. *)
  val count_le : histogram -> float -> int

  (** Grouped, human-readable rendering. *)
  val pp : Format.formatter -> t -> unit

  (** [<metrics>] document with one [<stage>] child per stage.  Every
      number is an {!Export.number}, so the document's [at] attribute
      reads back to the snapshot's [at] exactly. *)
  val to_xml_string : t -> string
end

(** [snapshot t] atomically merges every per-domain cell into an
    immutable view. *)
val snapshot : t -> Snapshot.t

(** [absorb t snapshot] folds a snapshot's cumulative values back into
    live instruments, creating them on demand: counters add, gauges
    set, histograms add bucket counts verbatim.  This is the
    warm-restart carry — scrape deltas stay meaningful across a
    restore.  Single-threaded restore only. *)
val absorb : t -> Snapshot.t -> unit

(** [reset t] zeroes every registered instrument (bench harness:
    per-experiment deltas). *)
val reset : t -> unit
