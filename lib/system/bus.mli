(** Inter-module message queues.

    The paper's modules run on a cluster and communicate through Corba
    (§2.1); here the same dataflow decoupling is provided by bounded
    blocking queues safe across OCaml domains, so the pipeline stages
    of {!Parallel} can run on separate cores with the same
    producer/consumer contract a remote transport would give. *)

type 'a t

(** [create ~capacity ()] — producers block when [capacity] messages
    are in flight (backpressure, default 1024).  Queue metrics
    ([name_pushed]/[name_popped] counters, [name_depth] gauge and a
    [name_blocked] backpressure-stall histogram) are registered under
    the [bus] stage of [obs] (default {!Xy_obs.Obs.default}); [name]
    defaults to ["bus"].

    [trace_of] extracts the trace context riding a message, if any:
    each traced message's queue wait (enqueue → dequeue wall time,
    measured across domains) is then recorded as a [bus/wait] span on
    its trace, attributed with the bus [name].

    [faults] (default {!Xy_fault.Fault.none}) arms two failure
    points on {!push}: [bus_stall] delays the push briefly (a slow
    transport hop) and [bus_drop] silently loses the message. *)
val create :
  ?capacity:int ->
  ?obs:Xy_obs.Obs.t ->
  ?name:string ->
  ?trace_of:('a -> Xy_trace.Trace.ctx option) ->
  ?faults:Xy_fault.Fault.t ->
  unit ->
  'a t

(** [push t message] blocks while the queue is full.  Raises
    [Invalid_argument] if the queue is closed. *)
val push : 'a t -> 'a -> unit

(** [pop t] blocks until a message is available; [None] once the
    queue is closed *and* drained. *)
val pop : 'a t -> 'a option

(** [try_pop t] — a message if one is immediately available, [None]
    otherwise (empty or closed); never blocks. *)
val try_pop : 'a t -> 'a option

(** [steal_half t] removes and returns the back half of the queue
    (⌈n/2⌉ messages, in order) in one locked sweep — the work-stealing
    primitive: the victim keeps the front half so its local order is
    preserved.  Empty list when fewer than 2 messages are queued.
    Stolen messages count as popped, and each traced one gets its
    [bus/wait] span exactly as {!pop} records it. *)
val steal_half : 'a t -> 'a list

(** [drained t] — closed and empty: no message will ever arrive. *)
val drained : 'a t -> bool

(** [close t] signals end-of-stream: producers may no longer push,
    consumers drain the remaining messages then receive [None].
    Idempotent. *)
val close : 'a t -> unit

(** [length t] is the current number of queued messages. *)
val length : 'a t -> int
