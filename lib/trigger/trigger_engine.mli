(** The Trigger Engine (paper §3).

    "The Trigger Engine can trigger an external action either upon
    receiving a notification, or at a given date.  In our setting, it
    is in charge of evaluating the continuous queries either when a
    particular notification is detected or regularly (e.g.,
    biweekly)."

    Actions are opaque callbacks; the subscription manager installs
    the continuous-query evaluations.  Periodic actions self-renew
    with their period; notification actions run every time the
    (subscription, tag) notification arrives. *)

type t

(** Trigger metrics (ticks, periodic/notification runs, schedule depth,
    action latency) are registered under the [trigger] stage of [obs]
    (default {!Xy_obs.Obs.default}). *)
val create : ?obs:Xy_obs.Obs.t -> clock:Xy_util.Clock.t -> unit -> t

(** [schedule_periodic t ~id ~period action] — the first run happens
    one period from now.  Raises [Invalid_argument] on a duplicate id
    or non-positive period. *)
val schedule_periodic : t -> id:string -> period:float -> (unit -> unit) -> unit

(** [on_notification t ~id ~subscription ~tag action] installs a
    notification trigger. *)
val on_notification :
  t -> id:string -> subscription:string -> tag:string -> (unit -> unit) -> unit

(** [cancel t ~id] removes a trigger of either kind (no-op when
    unknown).  Leftover heap slots are skipped lazily, and a
    re-registration of the same id is a fresh trigger — old slots can
    never fire it or eat its runs. *)
val cancel : t -> id:string -> unit

(** [notify t ~subscription ~tag] fires matching notification
    triggers immediately. *)
val notify :
  ?trace:Xy_trace.Trace.ctx -> t -> subscription:string -> tag:string -> unit

(** [tick t] runs every periodic action whose deadline passed
    (catching up multiple periods one at a time, so a long clock jump
    evaluates a weekly query once per elapsed week). *)
val tick : t -> unit

(** [next_deadline t] is the earliest pending periodic deadline. *)
val next_deadline : t -> float option

(** {2 Durability}

    Subscription-log recovery re-installs periodic triggers at
    [now + period]; the durable layer then moves each deadline back
    to its authentic pre-crash position. *)

(** [override_deadline t ~id ~at] moves trigger [id]'s next run to
    [at] (superseding any pending heap slot); [false] when [id] is
    not installed. *)
val override_deadline : t -> id:string -> at:float -> bool

(** [deadlines t] is every installed periodic trigger's (id, next
    deadline), sorted by id. *)
val deadlines : t -> (string * float) list

(** [set_journal t (Some emit)] journals every deadline movement and
    run-counter change.  Cancellations are not journaled: restore
    installs the live triggers from the subscription log. *)
val set_journal : t -> (string -> unit) option -> unit

val encode_snapshot : t -> string

(** [decode_snapshot t payload] restores run counters and overrides
    the deadlines of installed triggers (unknown ids are skipped).
    Raises {!Xy_util.Codec.Malformed} on damage. *)
val decode_snapshot : t -> string -> unit

val apply_op : t -> string -> unit

type stats = { periodic_runs : int; notification_runs : int }

val stats : t -> stats
