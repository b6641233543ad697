(** Durable subscription storage.

    The paper's Subscription Manager keeps subscriptions in a MySQL
    database "for recovery"; this module provides the same contract
    with a {!Xy_durable.Record_log}: every accepted subscription (as
    source text) and every deletion is appended as one record, and
    recovery replays the log.  A torn or damaged tail is detected by
    the record log and ignored.  {!rewrite} drops the records a
    replay would drop. *)

type record =
  | Insert of { name : string; owner : string; text : string }
  | Delete of string

val append_insert :
  Xy_durable.Record_log.t -> name:string -> owner:string -> text:string -> unit

val append_delete : Xy_durable.Record_log.t -> name:string -> unit

(** [survivors records] is what recovery installs from a log holding
    [records]: each name's last record when it is an insert, in log
    order (an [Insert] cancelled by a later [Delete] or superseded by
    a later [Insert] is dropped, as is every [Delete]). *)
val survivors : record list -> record list

(** [replay path] is the {!survivors} of the log's intact records.
    Returns [[]] for a missing file. *)
val replay : string -> record list

(** [replay_counting path] is [replay path] and the number of records
    it dropped: the superseded records a {!rewrite} would remove. *)
val replay_counting : string -> record list * int

(** [rewrite log] replaces the log's file with its {!survivors}, as
    their original payloads in log order — what a replay installs,
    record for record — and reopens [log] on it
    ({!Xy_durable.Record_log.rewrite}); [Some dropped] is the number
    of records it dropped.  [None] when [log] is dead, the file does
    not scan [Clean] or the write failed: the file is left exactly as
    it was and [log] still appends to it. *)
val rewrite : Xy_durable.Record_log.t -> int option

(** [read_all path] returns every raw record, including superseded
    ones (for inspection/tests). *)
val read_all : string -> record list

(** How the log ended. *)
type tail = Xy_durable.Record_log.tail = Clean | Torn | Corrupt

(** [scan path] is {!read_all} plus the tail diagnosis, so recovery
    can tell an ordinary torn tail from in-place damage. *)
val scan : string -> record list * tail
