(** Process-wide wall clock for the observability layer.

    [Obs] and [Trace] default to [Sys.time] (CPU seconds); the system
    wants wall time, monotonic under NTP steps.  Both [set_timer]
    calls mutate process-global state, so installation lives here and
    runs exactly once per process — every entry point
    ({!Xyleme.create}, {!Parallel.run}, benches) calls
    {!install_timers} idempotently instead of re-installing. *)

(** Wall-clock seconds, ratcheted so it never retreats (CAS on the
    last value returned, shared across domains). *)
val monotonic : unit -> float

(** Install {!monotonic} into [Obs] and [Trace].  First call wins;
    subsequent calls (any domain) are no-ops. *)
val install_timers : unit -> unit
