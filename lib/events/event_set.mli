(** Ordered sets of atomic-event codes.

    The Monitoring Query Processor treats both the events detected on
    a document (the set [S]) and each complex event (a set [c_i]) as
    *ordered* subsets of the event universe (§4.1). *)

type t = Xy_util.Sorted_ints.t

val empty : t
val of_list : int list -> t
val of_array : int array -> t
val to_list : t -> int list
val cardinal : t -> int
val is_empty : t -> bool
val mem : t -> int -> bool
val subset : t -> t -> bool
val union : t -> t -> t
val inter : t -> t -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
