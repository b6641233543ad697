(** Deterministic fault injection.

    The pipeline must survive the real web — fetches time out, pages
    arrive malformed, machines die mid-write — so every failure-prone
    stage carries a *named failure point* consulted through this
    module.  A fault plan assigns each point a firing probability;
    draws come from one seeded PRNG stream *per point*, so the
    failure schedule is a pure function of [(seed, spec)] and of how
    many times each point is consulted — two runs with the same seed
    and spec inject exactly the same faults, independent of wall
    clock.  Draws are mutex-protected, so a point shared across OCaml
    domains stays safe; determinism then holds per point, not across
    concurrently-drawing domains.

    Stdlib-only (plus the zero-dependency [xy_obs]): every injected
    fault is counted in the [fault] stage of the metrics registry as
    [<point>_injected]. *)

(** The known failure points, with one line on where each fires. *)
val points : (string * string) list

(** The wire-level subset of {!points} ([conn_drop], [partial_write],
    [net_delay], [net_mangle]), injected by [Xy_serve.Chaos] at the
    socket boundary instead of inside the pipeline.
    [Xy_system.Xyleme] splits a fault plan on this list: wire points
    feed a dedicated injector for the serving surface, so arming
    network chaos never shifts the pipeline points' schedules.  Wire
    draws are {e not} journaled — the network is external state, so a
    restored run restarts its wire schedules from the seed. *)
val wire_points : string list

(** Raised by the system's stage-boundary crash sites when the
    [crash] point fires; the payload names the boundary (e.g.
    ["doc"], ["advance"], ["step"]).  Simulates a process kill: the
    in-progress durable transaction is discarded, so recovery sees
    exactly what a real kill would have left on disk. *)
exception Crash of string

(** A validated fault plan: [(point, probability)] pairs, each point
    at most once, probabilities in [0, 1]. *)
type spec = (string * float) list

(** [parse_spec s] parses the CLI grammar
    [point=RATE(,point=RATE)*] — e.g. ["fetch=0.05,malformed=0.01"].
    Rejects unknown points, repeated points and rates outside
    [0, 1]. *)
val parse_spec : string -> (spec, string) result

val spec_to_string : spec -> string

type t

(** [none] never fires and draws nothing — the default everywhere, so
    a fault-free run consumes no randomness. *)
val none : t

(** [create ?obs ?seed spec] builds the injector.  Each point listed
    in [spec] gets its own PRNG stream derived from [seed] (default
    1) and its [fault/<point>_injected] counter in [obs] (default
    {!Xy_obs.Obs.default}). *)
val create : ?obs:Xy_obs.Obs.t -> ?seed:int -> spec -> t

(** [active t] is [false] only for {!none} and empty-spec injectors. *)
val active : t -> bool

(** [rate t point] is the configured probability (0 when absent). *)
val rate : t -> string -> float

(** [set_rate t point p] retunes a point mid-run (tests, live
    chaos-tuning).  The point must have been in the creation spec —
    points absent from the spec stay inert so their streams never
    advance.  Raises [Invalid_argument] on an unknown-to-this-[t]
    point or a rate outside [0, 1]. *)
val set_rate : t -> string -> float -> unit

(** [fire t point] draws once on [point]'s stream and reports whether
    the fault fires (counting it when it does).  A point not in the
    spec never fires and never draws. *)
val fire : t -> string -> bool

(** [draw_int t point ~bound] draws a uniform int in [0, bound) from
    [point]'s stream — for fault *shapes* (truncation offsets, mangle
    positions).  Returns 0 for an absent point or [bound <= 0]. *)
val draw_int : t -> string -> bound:int -> int

(** [draw_float t point] draws uniformly from [0, 1) (0 for an absent
    point) — for jitter. *)
val draw_float : t -> string -> float

(** [injected t point] is how many times [point] has fired. *)
val injected : t -> string -> int

(** [arm_after t point n] makes [point] fire deterministically on its
    [n]-th consultation from now (regardless of its rate), then
    disarm.  The point is created at rate 0 if it was not in the
    spec.  This is what [simulate --kill-after K] uses to place a
    crash at an exact, reproducible position.  Raises
    [Invalid_argument] on [n <= 0] or an unknown point name. *)
val arm_after : t -> string -> int -> unit

(** {2 Durability}

    Each draw advances a per-point PRNG stream; a warm restart must
    resume every stream at its exact pre-crash position or the
    resumed run's failure schedule would diverge from the
    uninterrupted one.  The injector therefore journals each draw's
    post-state and snapshots all streams at a checkpoint. *)

(** [set_journal t (Some emit)] calls [emit payload] after every draw
    with the drawn point's encoded post-draw state. *)
val set_journal : t -> (string -> unit) option -> unit

(** [encode_snapshot t] captures every point's rate, stream position
    and fire count. *)
val encode_snapshot : t -> string

(** [decode_snapshot t payload] restores a snapshot into [t],
    recreating points absent from [t]'s creation spec.  Raises
    {!Xy_util.Codec.Malformed} on damage. *)
val decode_snapshot : t -> string -> unit

(** [apply_op t payload] applies one journaled draw (a point's
    post-draw state). *)
val apply_op : t -> string -> unit
