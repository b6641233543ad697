(** Pipeline observability substrate.

    The paper's headline claims are throughput claims — "millions of
    pages/day with millions of subscriptions on a single PC" (§1), an
    MQP at "several thousand sets of atomic events per second" (§4.2)
    — so every pipeline stage carries monotonic counters, gauges and
    fixed-bucket latency histograms keyed by [(stage, name)].

    The accumulation path is lock-free and safe across OCaml domains:
    each metric keeps an array of per-domain cells (each live domain
    owns one stripe, up to 64 of them) that are only merged when a
    {!Snapshot} is taken.  Metric *creation* takes a lock; pipeline
    stages create their metrics once at construction time and only
    touch cells afterwards.

    The library depends on nothing but the standard library.  Wall
    clocks are injected: callers that link [unix] should install
    [Unix.gettimeofday] with {!set_timer} (the [Sys.time] default has
    coarse resolution). *)

(** {2 Time source} *)

(** [set_timer f] installs the wall-clock used by {!Histogram.time}
    and snapshot timestamps.  Defaults to [Sys.time]. *)
val set_timer : (unit -> float) -> unit

val now : unit -> float

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

  (** [time t f] runs [f] and records its wall-clock duration (also
      on exception). *)
  val time : t -> (unit -> 'a) -> 'a

  val count : t -> int
  val sum : t -> float

  (** [inject t ~counts ~sum ~max_value] folds previously captured
      totals back in (warm-restart carry).  [counts] must match the
      instrument's bucket layout (bounds + overflow).  Not
      thread-safe: restore-time use only. *)
  val inject :
    t -> counts:int array -> sum:float -> max_value:float -> unit
end

(** [counter t ~stage name] returns the counter registered under
    [(stage, name)], creating it on first use.  Raises
    [Invalid_argument] if the key holds another instrument kind. *)
val counter : t -> stage:string -> string -> Counter.t

val gauge : t -> stage:string -> string -> Gauge.t

(** [histogram ?buckets t ~stage name] — [buckets] are ascending
    upper bounds; an implicit [+inf] bucket is appended.  Defaults to
    {!latency_buckets}. *)
val histogram : ?buckets:float array -> t -> stage:string -> string -> Histogram.t

(** {2 Bucket layouts} *)

(** [exponential_buckets ~start ~factor ~count] — [start, start·f,
    start·f², …]. *)
val exponential_buckets : start:float -> factor:float -> count:int -> float array

(** 1µs … ~100s, log-spaced (for wall-clock latencies in seconds). *)
val latency_buckets : float array

(** 1 … 10⁶, log-spaced (for sizes: batch sizes, events per doc,
    queue depths). *)
val size_buckets : float array

(** 1s … ~97 days, log-spaced (for virtual-clock staleness: detection
    and notification lag of web changes). *)
val staleness_buckets : float array

(** {2 Snapshots} *)

module Snapshot : sig
  type histogram = {
    bounds : float array;  (** ascending upper bounds *)
    counts : int array;  (** one per bound, plus the +inf overflow *)
    count : int;
    sum : float;
    max_value : float;  (** [neg_infinity] when empty *)
  }

  type value = Counter of int | Gauge of float | Histogram of histogram
  type entry = { stage : string; name : string; value : value }

  type t = {
    at : float;
    entries : entry list;  (** sorted by [(stage, name)] *)
  }

  val empty : t

  (** [merge a b] combines two snapshots (e.g. taken from partitioned
      sub-systems): counters add, histograms add pointwise (bucket
      layouts must agree), gauges keep the maximum.  Associative and
      commutative, with {!empty} as identity. *)
  val merge : t -> t -> t

  val find : t -> stage:string -> string -> value option

  (** [counter_value t ~stage name] is [0] when absent. *)
  val counter_value : t -> stage:string -> string -> int

  (** [quantile h q] estimates the [q]-quantile (0 ≤ q ≤ 1) of a
      histogram from its buckets: the smallest upper bound covering
      the rank, the recorded max for the overflow bucket. *)
  val quantile : histogram -> float -> float

  (** Grouped, human-readable rendering. *)
  val pp : Format.formatter -> t -> unit

  (** [<metrics>] document with one [<stage>] child per stage. *)
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
