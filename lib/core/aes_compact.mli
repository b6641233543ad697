(** Frozen Atomic Event Sets: the §4.2 hash-tree, compacted.

    A second {!Matcher.S} implementation that *freezes* the
    subscription set into a structure-of-arrays layout: every hash
    table of the {!Aes} tree becomes a contiguous span of sorted key
    codes in one shared [int array], with parallel arrays for mark
    spans (all marks in a single int arena) and child-table offsets.
    [match_set] is then a cache-friendly merge-join / binary-search
    walk between the sorted incoming event set and the sorted table
    spans — no [Hashtbl], no cons cells, no boxed cells on the hot
    path.  When the root key range is dense (always at paper scale)
    the first level is a direct-address array: one load per incoming
    event.

    {b Delta overlay.}  The structure stays fully dynamic: [add]s
    land in a small ordinary {!Aes} tree, removals of frozen ids in a
    tombstone set; [match_set] consults frozen + delta and filters
    tombstones.  When the dirty count (delta + tombstones) passes the
    re-freeze threshold, the structure transparently re-freezes — so
    subscriptions keep being "added, removed and updated while the
    system is running" (§4.1) at full matcher speed between freezes.

    The matcher semantics are exactly {!Aes}'s; the equivalence is
    asserted by randomized property tests across the frozen,
    delta-dirty and post-refreeze states. *)

include Matcher.S

(** [freeze t] rebuilds the flat layout from the current live set and
    clears the delta overlay and tombstones.  Idempotent; call after
    bulk loading to get the compact layout immediately instead of at
    the next threshold crossing. *)
val freeze : t -> unit

(** [set_refreeze_threshold t n] sets the dirty count (delta adds +
    tombstones) that triggers an automatic re-freeze.  [None] (the
    default) selects the adaptive policy [max 1024 (live/4)]. *)
val set_refreeze_threshold : t -> int option -> unit

(** Probe accounting, comparable to {!Aes.probes}: [match_set] counts
    every key comparison of the merge-join / binary-search walk and
    every root-directory load (plus the delta tree's own cell
    lookups). *)

val probes : t -> int
val reset_probes : t -> unit

(** Structure statistics, for the memory/bench experiments and the
    line [xyleme simulate --algorithm aes-compact] prints. *)
type compact_stats = {
  frozen_complex : int;  (** complex events in the frozen layout *)
  frozen_cells : int;
  frozen_marks : int;
  frozen_words : int;  (** words held by the flat arrays *)
  delta_complex : int;  (** adds since the last freeze *)
  tombstones : int;  (** frozen ids removed since the last freeze *)
  refreezes : int;  (** freezes performed over the structure's life *)
  refreeze_threshold : int;  (** current effective threshold *)
}

val compact_stats : t -> compact_stats
