(** Durable subscription storage.

    The paper's Subscription Manager keeps subscriptions in a MySQL
    database "for recovery"; this module provides the same contract
    with a {!Xy_durable.Record_log}: every accepted subscription (as
    source text) and every deletion is appended as one record, and
    recovery replays the log.  A torn or damaged tail is detected by
    the record log and ignored.  The log is compacted with
    {!Xy_durable.Record_log.Compaction} and {!key}. *)

type record =
  | Insert of { name : string; owner : string; text : string }
  | Delete of string

val append_insert :
  Xy_durable.Record_log.t -> name:string -> owner:string -> text:string -> unit

val append_delete : Xy_durable.Record_log.t -> name:string -> unit

(** [key payload] is a record's compaction key: its subscription
    name, and whether the record survives when it is the name's last
    (an insert does, a delete does not). *)
val key : string -> string * bool

(** [replay path] reads the log and returns the surviving records in
    order (an [Insert] cancelled by a later [Delete] is dropped).
    Returns [[]] for a missing file. *)
val replay : string -> record list

(** [replay_counting path] is [replay path] and the number of records
    it dropped: the superseded records a compaction would remove. *)
val replay_counting : string -> record list * int

(** [read_all path] returns every raw record, including superseded
    ones (for inspection/tests). *)
val read_all : string -> record list

(** How the log ended. *)
type tail = Xy_durable.Record_log.tail = Clean | Torn | Corrupt

(** [scan path] is {!read_all} plus the tail diagnosis, so recovery
    can tell an ordinary torn tail from in-place damage. *)
val scan : string -> record list * tail
