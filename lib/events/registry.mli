(** Dynamic atomic-event code assignment.

    The Subscription Manager "chooses the internal codes of atomic
    events and (dynamically) warns the Alerters of the creation of new
    events, their codes and semantic" (§3).  The registry is that
    mapping: identical conditions used by several subscriptions share
    one code, with reference counting so a code is retired when the
    last subscription using it is deleted. *)

type code = int

type t

val create : unit -> t

(** [register t condition] returns the code of [condition],
    allocating one if needed, and increments its reference count.
    Codes increase monotonically, which gives the total order on
    atomic events the Monitoring Query Processor requires. *)
val register : t -> Atomic.t -> code

(** [release t code] gives back one registration of [code]'s
    condition: a holder keeps the codes it registered, not its own copy
    of each condition.  When the reference count drops to zero the
    code is retired.  Returns [true] when retired.  Raises [Not_found]
    if [code] is not live. *)
val release : t -> code -> bool

(** [find t condition] is the code of a live condition, if any. *)
val find : t -> Atomic.t -> code option

(** [condition t code] is the reverse lookup. *)
val condition : t -> code -> Atomic.t option

(** [refcount t condition] is the number of registrations minus
    releases ([0] if unknown). *)
val refcount : t -> Atomic.t -> int

(** [cardinal t] is the number of live codes — the paper's Card(A). *)
val cardinal : t -> int

(** [iter f t] applies [f code condition] to every live event. *)
val iter : (code -> Atomic.t -> unit) -> t -> unit

(** [on_change t callback] installs a listener called with
    [`Added (code, condition)] or [`Removed (code, condition)] — this
    is how alerters are "warned" of event creation/retirement. *)
val on_change :
  t -> ([ `Added of code * Atomic.t | `Removed of code * Atomic.t ] -> unit) -> unit
