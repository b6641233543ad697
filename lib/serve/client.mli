(** Supervised reconnecting client for the wire protocol.

    A single supervisor thread owns the socket: it dials, binds the
    identity with [HELLO], and on {e any} link failure — peer reset,
    injected fault, server restart, admission shed — backs off
    (capped exponential with jitter) and dials again under the same
    id, so the server's pending store resumes delivery where it
    stopped.  Requests the dead connection never answered are
    replayed on the next one; a replayed [SUBSCRIBE] that the server
    already registered ("duplicate subscription") counts as success.
    Inbound reports are acknowledged automatically and deduplicated
    by [seq] across reconnects, so the [on_report] callback sees each
    report exactly once even though the wire guarantees only
    at-least-once.

    An [ERR busy retry-after=<s>] shed during the handshake is
    honored: the client stays away for the hinted interval instead of
    the normal backoff. *)

type t

type config = {
  host : string;
  port : int;
  id : string;  (** recipient identity bound by [HELLO] *)
  backoff_initial : float;  (** first retry delay, seconds *)
  backoff_max : float;  (** retry delay ceiling, seconds; each delay is
                            spread by +/- 25% *)
  ping_interval : float;  (** seconds between keepalive [PING]s; [0.] off *)
  pong_deadline : float;  (** declare the link dead after this long
                              without a [PONG]; [0.] off *)
  seed : int;  (** jitter PRNG seed (determinism in tests) *)
}

val config :
  ?host:string ->
  ?backoff_initial:float ->
  ?backoff_max:float ->
  ?ping_interval:float ->
  ?pong_deadline:float ->
  ?seed:int ->
  port:int ->
  id:string ->
  unit ->
  config

type report = { seq : int; subscription : string; at : float; body : string }

type stats = {
  connects : int;  (** successful HELLO/WELCOME handshakes *)
  reconnects : int;  (** connects beyond the first *)
  attempts : int;  (** dial attempts, including failures *)
  reports : int;  (** unique reports delivered to the callback *)
  duplicates : int;  (** redeliveries suppressed by seq dedup *)
}

(** [connect ?on_report cfg] starts the supervisor thread and returns
    immediately; use {!wait_connected} to block for the first
    handshake.  [on_report] runs on the supervisor thread — keep it
    quick, and never call back into this client from it. *)
val connect : ?on_report:(report -> unit) -> config -> t

(** [wait_connected ?timeout t] blocks until the client holds a live,
    welcomed connection; [false] on timeout. *)
val wait_connected : ?timeout:float -> t -> bool

(** Currently holding a live connection.  Advisory: may flip at any
    moment; queued requests survive flips either way. *)
val connected : t -> bool

(** [subscribe t ~owner ~text] registers a monitoring query and
    blocks (up to [timeout], default 10 s) for the server's verdict.
    The request survives reconnects; [Error "timeout"] means no
    verdict yet, not failure. *)
val subscribe :
  ?timeout:float -> t -> owner:string -> text:string -> (string, string) result

(** [unsubscribe t name] removes a subscription; same blocking and
    replay semantics as {!subscribe}. *)
val unsubscribe : ?timeout:float -> t -> string -> (string, string) result

val status : ?timeout:float -> t -> (string, string) result

val stats : t -> stats

(** [close t] stops the supervisor, closes any live connection and
    joins the thread.  Idempotent. *)
val close : t -> unit
