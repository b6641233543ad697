(** Versioning of query answers.

    "The versioning of query answers (not detailed here) is an
    important aspect of a change control system" (paper §2.2).  An
    archive keeps the current answer of a continuous query as an
    XID-labelled tree plus a bounded chain of deltas, so that any
    retained past answer can be reconstructed from the current one. *)

type t

(** [create ~name ~keep ()] — [keep] bounds the retained delta chain
    (default 10). *)
val create : ?keep:int -> name:string -> unit -> t

type outcome =
  | First of Xy_xml.Types.element  (** the initial full answer *)
  | Changed of Xy_xml.Types.element  (** the [<name-delta>] document *)
  | Unchanged

(** [record t answer] stores the latest evaluation and classifies the
    change, like {!Result_delta.update}, but keeping history. *)
val record : t -> Xy_xml.Types.element -> outcome

(** [version t] is the current version number (0 before any
    recording). *)
val version : t -> int

(** [current t] is the latest answer, if any. *)
val current : t -> Xy_xml.Types.element option

(** [reconstruct t ~version] rebuilds a past answer by unwinding
    deltas; [None] if that version fell off the retained window. *)
val reconstruct : t -> version:int -> Xy_xml.Types.element option

(** [delta_between t ~from_version] is the delta document from a past
    version to the current answer ([None] when out of window); this is
    what a subscriber who missed reports would be sent to catch up. *)
val delta_between : t -> from_version:int -> Xy_xml.Types.element option
