(** The serving surface: a stdlib-only TCP front end that streams
    change reports to remote subscribers.

    Connections speak the {!Frame} protocol.  A client binds an
    identity with [HELLO id], registers monitoring queries with
    [SUBSCRIBE owner text], and receives [REPORT] frames as the
    pipeline commits deliveries for that recipient.  Acknowledgement
    is cumulative by the reporter's global delivery sequence: [ACK n]
    retires every report with [seq <= n].

    {2 Threading and backpressure}

    Each connection gets a blocking reader thread and a blocking
    writer thread; shared state sits behind one server mutex with
    per-session condition variables, so a stalled client only ever
    blocks its own writer.  At most [outbox] unacknowledged reports
    are in flight per client; everything beyond that stays in the
    per-recipient pending store (a journaled "pending redelivery"
    mark) until acks open the window — the pipeline thread never
    touches a socket and can never be stalled by a slow client.

    {2 Durability}

    The pending store is a durable stage ("serve"): enqueues ([P])
    and acks ([A]) are journaled through the hook installed with
    {!set_journal}, the whole store snapshots via {!encode_snapshot},
    and {!apply_op}/{!decode_snapshot} rebuild it on restore.  Both
    ops name only (recipient, seq): the report itself is already in
    the reporter's delivery intent for that seq, journaled before the
    sink runs and acknowledged only after it, so replay takes the
    report from there.  The snapshot keeps every pending report's
    subscription, time and body, because the reporter forgets an
    intent once it is acknowledged.  Combined with those intents this
    extends the existing at-least-once guarantee across the wire: a
    report is retired only by a client [ACK]; clients deduplicate by
    [seq].

    {2 Mutation discipline}

    [SUBSCRIBE]/[UNSUBSCRIBE]/[ACK] never run on connection threads —
    they queue, and {!pump} (called from the pipeline thread between
    steps) applies them through the {!callbacks}.  [STATUS] and
    [PING] are answered immediately by the reader.

    {2 Liveness and admission}

    Each reader enforces two deadlines from a receive-timeout tick:
    [idle_deadline] evicts a peer that has sent no bytes at all (a
    [PING] suffices to stay alive), and [read_deadline] cuts a
    slow-loris peer that leaves a frame incomplete for too long.
    When [max_connections] is positive, the accept loop sheds excess
    connections with a best-effort [ERR busy retry-after=<s>] frame
    before closing them — the handler never sees them.  {!stop}
    performs a deadline-bounded graceful drain first: writers get up
    to [drain] seconds to flush queued frames; whatever is still
    unacked stays in the journaled pending store exactly as a crash
    would leave it.

    {2 Chaos}

    All socket I/O crosses a deterministic chaotic transport
    ({!Chaos}); arm the [faults] injector passed to {!create} with
    any of {!Xy_fault.Fault.wire_points} to exercise connection
    drops, torn writes, stalls and corruption on a seeded schedule. *)

type t

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port *)
  backlog : int;  (** accept backlog *)
  outbox : int;  (** max unacknowledged reports in flight per client *)
  max_connections : int;  (** admission ceiling; [0] = unlimited *)
  retry_after : float;  (** hint (seconds) carried by [ERR busy] *)
  idle_deadline : float;  (** evict after this long without bytes; [0.] off *)
  read_deadline : float;  (** max age of an incomplete frame; [0.] off *)
  drain : float;  (** default graceful-drain budget for {!stop}, seconds *)
}

val config :
  ?host:string ->
  ?backlog:int ->
  ?outbox:int ->
  ?max_connections:int ->
  ?retry_after:float ->
  ?idle_deadline:float ->
  ?read_deadline:float ->
  ?drain:float ->
  port:int ->
  unit ->
  config

type callbacks = {
  cb_subscribe : owner:string -> text:string -> (string, string) result;
      (** register a subscription; [Ok name] on success *)
  cb_unsubscribe : string -> (unit, string) result;
  cb_status : unit -> string;
      (** the XML document [STATUS] returns (the system's [<metrics>]
          snapshot); thread-safe *)
}

(** [create ~obs ?faults ~config ()] builds the server state (pending
    store, metrics under the [serve/*] stage) without opening the
    socket, so a restore can replay journaled state into it first.
    [faults] arms the chaotic transport on every session's socket
    I/O; its draws are {e not} journaled (the network is external
    state — a restore restarts wire schedules from the seed). *)
val create :
  obs:Xy_obs.Obs.t -> ?faults:Xy_fault.Fault.t -> config:config -> unit -> t

(** [listen t ~callbacks] binds the socket and starts accepting,
    with admission control and shed accounting when
    [config.max_connections] is positive. *)
val listen : t -> callbacks:callbacks -> unit

(** Bound port, once listening. *)
val port : t -> int

(** [stop ?drain t] stops accepting, gives writers up to [drain]
    seconds (default [config.drain]) to flush queued frames to
    connected clients, then closes every session and joins all
    connection threads.  During the drain no commands are processed:
    reports left unacked stay in the journaled pending store for
    redelivery on the next [HELLO].  Idempotent. *)
val stop : ?drain:float -> t -> unit

(** {2 Pipeline-thread interface} *)

(** [deliver t ~seq ~recipient ~subscription ~at ~body] journals and
    enqueues one report for a recipient that has connected at least
    once (others are ignored — the in-process sink covers them).
    Duplicate redeliveries of an already-pending or already-acked
    [seq] are dropped.  Never blocks on a socket. *)
val deliver :
  t ->
  seq:int ->
  recipient:string ->
  subscription:string ->
  at:float ->
  body:string ->
  unit

(** [pump t] applies every queued client mutation and returns how
    many were processed.  [span] wraps each application (tracing). *)
val pump : ?span:(string -> (unit -> unit) -> unit) -> t -> int

(** {2 Durability hooks} *)

val set_journal : t -> (string -> unit) option -> unit

(** Crash-fault fuse; fired with ["frame"], ["frame_written"],
    ["ack"], ["acked"] at the delivery fault boundaries. *)
val set_fuse : t -> (string -> unit) option -> unit

val encode_snapshot : t -> string
val decode_snapshot : t -> string -> unit

(** [apply_op t ~intent op] replays one journaled op.  For a [P] op,
    [intent seq] is the report's (subscription, time, body); raises
    {!Xy_util.Codec.Malformed} when it is [None]. *)
val apply_op :
  t -> intent:(int -> (string * float * string) option) -> string -> unit

(** {2 Introspection} *)

val connections : t -> int

(** Total unacknowledged reports across all recipients. *)
val pending_total : t -> int
