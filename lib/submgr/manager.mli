(** The Subscription Manager (paper §3).

    "The Subscription Manager receives the user requests and manages
    the other modules of the subscription system ... It chooses the
    internal codes of atomic events and (dynamically) warns the
    Alerters of the creation of new events, their codes and semantic.
    It controls in a similar manner the Monitoring Query Processor for
    managing complex events, the Trigger Engine for continuous queries
    and the Reporter(s) for reports."

    The manager is the only writer of the event registry and of the
    processor's complex-event table; it also owns the durable log
    (the MySQL stand-in) used for recovery. *)

type t

type error =
  | Parse_error of string
  | Rejected of string  (** policy violation (§5.4) *)
  | Duplicate of string
  | Unknown of string

val error_to_string : error -> string

(** Management metrics (subscribed/rejected/unsubscribed/recovered
    counters, live-subscription gauge) are registered under the
    [submgr] stage of [obs] (default {!Xy_obs.Obs.default}).
    Subscriptions are validated against
    {!Xy_sublang.S_compile.default_policy}.

    [runner query] is called once when a continuous query is installed
    and returns the function each of its runs calls for its answer.
    Whatever that function keeps between runs lives with the installed
    query: an unsubscribe or an update drops it. *)
val create :
  ?persist:Xy_durable.Record_log.t ->
  ?obs:Xy_obs.Obs.t ->
  clock:Xy_util.Clock.t ->
  registry:Xy_events.Registry.t ->
  mqp:Xy_core.Mqp.t ->
  trigger:Xy_trigger.Trigger_engine.t ->
  reporter:Xy_reporter.Reporter.t ->
  runner:(Xy_query.Ast.t -> unit -> Xy_xml.Types.node list) ->
  unit ->
  t

(** [subscribe t ~owner ~text] parses, validates and installs a
    subscription; returns its name.  The subscription is persisted
    (when a log is attached) only after successful installation.

    The manager keeps of it only what {!unsubscribe} reads: its
    complex-event ids, the registry codes of its atomic conditions and
    its trigger ids; the text is kept by the persisted log alone.  Its
    report spec, dispatch targets (tag and select) and recipient name
    are held once for all the subscriptions with equal ones, in weak
    sets that drop a part with its last subscription. *)
val subscribe : t -> owner:string -> text:string -> (string, error) result

(** [unsubscribe t ~name] tears a subscription down: complex events
    are removed from the processor, atomic events released (alerters
    are warned through the registry), triggers cancelled, the report
    buffer dropped, and the deletion persisted. *)
val unsubscribe : t -> name:string -> (unit, error) result

(** [update t ~name ~owner ~text] modifies an existing subscription
    ("the insertion of new subscriptions and the deletion or
    modification of existing ones", §3): the new text is validated
    first — on any error the old subscription stays installed — then
    the old one is torn down and the new one installed.  The new text
    must declare the same subscription name.  The owners of the
    virtual subscriptions targeting it stay among its recipients. *)
val update : t -> name:string -> owner:string -> text:string -> (unit, error) result

(** [recover t path] replays a persisted log (use on an empty
    manager).  Returns the number of subscriptions restored.  A
    subscription listed before its virtual target (the target was
    updated since) is installed once the target is; entries that no
    longer validate are skipped with a warning. *)
val recover : t -> string -> int

val subscription_names : t -> string list
val subscription_count : t -> int

(** [superseded_records t] counts the records of the persisted log
    that a rewrite would drop: those {!recover}'s replay dropped, and
    two per persisted unsubscribe since (the delete and the insert it
    cancels; an {!update} is one of these), back to [0] after each
    {!rewrite_log}. *)
val superseded_records : t -> int

(** [rewrite_log t] rewrites the persisted log to the records a
    replay installs ({!Persist.rewrite}) and returns the number of
    records dropped; [None] when there is no log or it was left as it
    was. *)
val rewrite_log : t -> int option

(** [refresh_statements t] aggregates the refresh clauses of all live
    subscriptions: [(url, period_seconds)], for the crawler.  "In our
    current implementation, subscriptions influence the refreshing of
    pages only by adding importance to the pages they explicitly
    mention."  Only the subscriptions that have refresh clauses are
    visited, so the cost follows the number of clauses, not the
    population. *)
val refresh_statements : t -> (string * float) list

(** [subscription_refresh t ~name] is the refresh clauses
    [(url, period_seconds)] of one live subscription ([[]] when
    unknown) — what an unsubscribe or an update must subtract from
    the crawler's refresh ceilings. *)
val subscription_refresh : t -> name:string -> (string * float) list
