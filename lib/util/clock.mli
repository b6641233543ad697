(** Simulated (virtual) time.

    The whole monitoring system runs against a virtual clock so that
    frequency-based behaviour (weekly continuous queries, daily report
    limits, archive garbage collection) is testable and benchmarkable
    without waiting for wall-clock time.  Time is a number of seconds
    since the start of the simulation. *)

type t

(** [create ()] returns a fresh clock at time [0.]. *)
val create : unit -> t

(** [now clock] is the current virtual time in seconds. *)
val now : t -> float

(** [advance clock seconds] moves the clock forward.  Raises
    [Invalid_argument] on negative increments: virtual time is
    monotonic. *)
val advance : t -> float -> unit

(** [set clock time] jumps to an absolute time [>= now clock]. *)
val set : t -> float -> unit

val second : float
val hour : float
val day : float
val week : float

(** [pp] prints a time as [d HH:MM:SS] relative to the simulation
    start. *)
val pp : Format.formatter -> float -> unit
