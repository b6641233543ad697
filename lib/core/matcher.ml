(** Common interface of complex-event matchers.

    A matcher maintains a set of complex events — each a finite
    ordered set of atomic-event codes, identified by an integer id —
    and answers, for each incoming ordered event set [S], the ids of
    every complex event [c ⊆ S] (§4.1: determine
    [{i | c_i ⊆ S_j}]).  Four implementations are provided:

    - {!Aes}: the paper's "Atomic Event Sets" hash-tree (§4.2);
    - {!Aes_compact}: the same algorithm over a frozen flat-array
      layout with a delta overlay (cache-compact; see its interface);
    - {!Naive}: per-candidate subset testing behind an inverted index
      on the first (smallest) atomic event;
    - {!Counting}: the classic inverted-index counting scheme, whose
      cost is linear in [k] (complex events per atomic event) — the
      regime where the paper's algorithm wins (Figure 6).

    Matchers answer in a deterministic order (ids sorted increasingly)
    so results are directly comparable; they tolerate several complex
    events having the same event set, and dynamic add/remove while
    running (§4.1: "Subscriptions keep being added, removed and
    updated while the system is running"). *)

module type S = sig
  type t

  val name : string
  val create : unit -> t

  (** [add t ~id events] registers complex event [id].  Raises
      [Invalid_argument] on an empty event set or a duplicate id. *)
  val add : t -> id:int -> Xy_events.Event_set.t -> unit

  (** [remove t ~id] unregisters; raises [Not_found] for unknown ids. *)
  val remove : t -> id:int -> unit

  (** [events t ~id] is the event set of a registered complex event. *)
  val events : t -> id:int -> Xy_events.Event_set.t

  (** [iter t f] applies [f] to every registered complex event, in
      unspecified order.  Used for bulk export — e.g. re-freezing a
      compacted structure or splitting a subscription set. *)
  val iter : t -> (id:int -> Xy_events.Event_set.t -> unit) -> unit

  (** [match_set t s] is the sorted list of ids of complex events
      included in [s].  It does not write [t], so several domains may
      match against one structure at once. *)
  val match_set : t -> Xy_events.Event_set.t -> int list

  (** [complex_count t] is Card(C). *)
  val complex_count : t -> int

  (** [approx_memory_words t] estimates the structure's heap
      footprint in words (tables, cells, marks), for the paper's
      500 MB claim. *)
  val approx_memory_words : t -> int
end
