(** Shared TCP accept loop.

    Both the wire-protocol server ({!Serve}) and the telemetry HTTP
    endpoint ({!Xy_telemetry.Telemetry}) front their sockets with
    this helper so they get the same hardening once: [SO_REUSEADDR]
    (restarts never fight [TIME_WAIT]), a bounded accept backlog, a
    connection handler that cannot kill the accept thread, and a
    close-once discipline that guarantees the listening socket is
    released on {e every} exit path — normal {!stop}, a handler
    exception, or the accept loop dying abnormally.  The previous
    per-component accept threads leaked the socket when the loop
    exited on an unexpected exception, which made [--telemetry] plus
    [--serve] in one process race on shutdown; funnelling every
    close through one atomic guard fixes that. *)

type t

(** [start ?host ?backlog ?admit ?shed ?on_accept_error ~port ~handle ()]
    binds, listens and spawns the accept thread.  [port] 0 picks an
    ephemeral port (see {!port}).  [handle fd addr] runs on the accept
    thread for each connection; it owns [fd] unless it raises, in
    which case the listener closes [fd] and keeps accepting.  The
    first [start] also ignores [SIGPIPE] process-wide, so a peer
    disconnecting mid-write surfaces as [EPIPE] on the writing thread
    instead of killing the process.

    [admit] is the admission-control gate, consulted once per
    accepted connection: when it returns [false] the connection is
    {e shed} — [shed fd addr] may write a best-effort rejection (the
    wire server's [ERR busy] frame), then the listener closes [fd]
    without ever calling [handle], and counts it in {!sheds}.

    Transient accept failures — [EMFILE]/[ENFILE] descriptor
    exhaustion, [ENOMEM], [ECONNABORTED] — no longer kill the accept
    thread: the loop counts them ({!accept_errors}, plus the
    [on_accept_error] callback for the owner's own metrics), backs
    off briefly (50 ms) and keeps accepting.

    @raise Unix.Unix_error when the address cannot be bound. *)
val start :
  ?host:string ->
  ?backlog:int ->
  ?admit:(unit -> bool) ->
  ?shed:(Unix.file_descr -> Unix.sockaddr -> unit) ->
  ?on_accept_error:(exn -> unit) ->
  port:int ->
  handle:(Unix.file_descr -> Unix.sockaddr -> unit) ->
  unit ->
  t

(** Actual bound port. *)
val port : t -> int

(** True until {!stop} (or an abnormal accept-loop exit). *)
val running : t -> bool

(** Connections refused by the [admit] gate since [start]. *)
val sheds : t -> int

(** Transient accept failures absorbed by the backoff path. *)
val accept_errors : t -> int

(** [stop t] closes the listening socket and joins the accept thread.
    Idempotent and safe to call from several threads at once: exactly
    one caller performs the close, the rest return immediately. *)
val stop : t -> unit
