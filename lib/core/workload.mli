(** Synthetic MQP workloads, reproducing the paper's §4.2 methodology.

    "We completely controlled Card(C), s and b.  For Card(A), we fix
    an upper bound.  Then to produce the test set, atomic events are
    randomly drawn in the set [0 .. Card(A)-1] with no guarantee that
    they will all be taken.  Finally, to obtain k, we use the fact
    that k can be estimated as b·Card(C)/Card(A)." *)

type t = {
  card_a : int;  (** upper bound on atomic-event codes, Card(A) *)
  card_c : int;  (** number of complex events, Card(C) *)
  b : int;  (** atomic events per complex event *)
  s : int;  (** atomic events detected per document, Card(S) *)
}

(** Estimated [k]: complex events per atomic event. *)
val k : t -> float

(** [complex_events t ~seed] draws [card_c] complex events of arity
    [b] (distinct codes, sorted). *)
val complex_events : t -> seed:int -> Xy_events.Event_set.t array

(** [document_sets t ~seed ~count] draws [count] document event sets
    of cardinality [s]. *)
val document_sets : t -> seed:int -> count:int -> Xy_events.Event_set.t array

(** [load matcher-agnostic]: registers [complex_events] into a fresh
    {!Mqp.t} using ids [0 .. card_c-1]. *)
val load_mqp : ?algorithm:Mqp.algorithm -> t -> seed:int -> Mqp.t

val pp : Format.formatter -> t -> unit
