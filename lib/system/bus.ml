module Obs = Xy_obs.Obs
module Trace = Xy_trace.Trace
module Fault = Xy_fault.Fault

type metrics = {
  m_pushed : Obs.Counter.t;
  m_popped : Obs.Counter.t;
  m_depth : Obs.Gauge.t;
  m_blocked : Obs.Histogram.t;
}

type 'a t = {
  queue : ('a * float) Queue.t;  (** (message, enqueue wall instant) *)
  capacity : int;
  mutex : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  mutable closed : bool;
  name : string;
  trace_of : ('a -> Trace.ctx option) option;
  faults : Fault.t;
  metrics : metrics;
}

let stage = "bus"

let create ?(capacity = 1024) ?(obs = Obs.default) ?(name = "bus") ?trace_of
    ?(faults = Fault.none) () =
  if capacity <= 0 then invalid_arg "Bus.create: capacity <= 0";
  {
    queue = Queue.create ();
    capacity;
    mutex = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    closed = false;
    name;
    trace_of;
    faults;
    metrics =
      {
        m_pushed = Obs.counter obs ~stage (name ^ "_pushed");
        m_popped = Obs.counter obs ~stage (name ^ "_popped");
        m_depth = Obs.gauge obs ~stage (name ^ "_depth");
        m_blocked = Obs.histogram obs ~stage (name ^ "_blocked");
      };
  }

let observe_blocked t ~blocked_since =
  match blocked_since with
  | Some since -> Obs.Histogram.observe t.metrics.m_blocked (Obs.now () -. since)
  | None -> ()

let push_message t message =
  Mutex.lock t.mutex;
  let rec wait ~blocked_since =
    if t.closed then begin
      (* A producer that stalled on backpressure and then lost to a
         concurrent [close] still blocked: account for it before
         raising, or the histogram under-counts stalls. *)
      observe_blocked t ~blocked_since;
      Mutex.unlock t.mutex;
      invalid_arg "Bus.push: closed"
    end
    else if Queue.length t.queue >= t.capacity then begin
      let blocked_since =
        match blocked_since with Some _ -> blocked_since | None -> Some (Obs.now ())
      in
      Condition.wait t.not_full t.mutex;
      wait ~blocked_since
    end
    else
      (* Only producers that actually hit backpressure contribute a
         sample, so the histogram count doubles as a block counter. *)
      observe_blocked t ~blocked_since
  in
  wait ~blocked_since:None;
  Queue.push (message, Trace.now ()) t.queue;
  Obs.Counter.incr t.metrics.m_pushed;
  Obs.Gauge.set_int t.metrics.m_depth (Queue.length t.queue);
  Condition.signal t.not_empty;
  Mutex.unlock t.mutex

let push t message =
  (* Fault points, consulted before the lock so a stalled or dropped
     push never holds the queue hostage.  A [bus_stall] models a slow
     producer-side hop (scheduling hiccup, transport retry); a
     [bus_drop] models a lossy hop — the message vanishes and only
     the fault-stage [bus_drop_injected] counter remembers it. *)
  if Fault.fire t.faults "bus_stall" then
    Thread.delay (0.0002 +. (0.0008 *. Fault.draw_float t.faults "bus_stall"));
  if Fault.fire t.faults "bus_drop" then () else push_message t message

(* Queue wait is recorded retroactively on the consumer side — the
   producer may live on another domain, so only the enqueue instant
   travels with the message.  Called after the lock is released. *)
let record_wait t (message, enqueued_at) =
  match Option.bind t.trace_of (fun f -> f message) with
  | Some ctx ->
      Trace.record ctx ~stage ~name:"wait"
        ~attrs:[ ("bus", t.name) ]
        ~start_wall:enqueued_at
        ~dur_wall:(Trace.now () -. enqueued_at)
        ()
  | None -> ()

let pop t =
  Mutex.lock t.mutex;
  let rec wait () =
    if not (Queue.is_empty t.queue) then begin
      let entry = Queue.pop t.queue in
      Obs.Counter.incr t.metrics.m_popped;
      Obs.Gauge.set_int t.metrics.m_depth (Queue.length t.queue);
      Condition.signal t.not_full;
      Mutex.unlock t.mutex;
      record_wait t entry;
      Some (fst entry)
    end
    else if t.closed then begin
      Mutex.unlock t.mutex;
      None
    end
    else begin
      Condition.wait t.not_empty t.mutex;
      wait ()
    end
  in
  wait ()

let try_pop t =
  Mutex.lock t.mutex;
  if Queue.is_empty t.queue then begin
    Mutex.unlock t.mutex;
    None
  end
  else begin
    let entry = Queue.pop t.queue in
    Obs.Counter.incr t.metrics.m_popped;
    Obs.Gauge.set_int t.metrics.m_depth (Queue.length t.queue);
    Condition.signal t.not_full;
    Mutex.unlock t.mutex;
    record_wait t entry;
    Some (fst entry)
  end

(* Work stealing: an idle shard takes the back half of a loaded
   sibling's inbox in one locked sweep.  The front half stays with the
   victim (preserving its local order); the stolen tail keeps its
   relative order on the thief. *)
let steal_half t =
  Mutex.lock t.mutex;
  let n = Queue.length t.queue in
  if n < 2 then begin
    Mutex.unlock t.mutex;
    []
  end
  else begin
    let keep = n / 2 in
    let kept = Queue.create () in
    for _ = 1 to keep do
      Queue.push (Queue.pop t.queue) kept
    done;
    let stolen = List.of_seq (Queue.to_seq t.queue) in
    Queue.clear t.queue;
    Queue.transfer kept t.queue;
    Obs.Counter.add t.metrics.m_popped (n - keep);
    Obs.Gauge.set_int t.metrics.m_depth keep;
    Condition.broadcast t.not_full;
    Mutex.unlock t.mutex;
    List.iter (record_wait t) stolen;
    List.map fst stolen
  end

let drained t =
  Mutex.lock t.mutex;
  let d = t.closed && Queue.is_empty t.queue in
  Mutex.unlock t.mutex;
  d

let close t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  Mutex.unlock t.mutex

let length t =
  Mutex.lock t.mutex;
  let n = Queue.length t.queue in
  Mutex.unlock t.mutex;
  n
