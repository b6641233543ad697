module Obs = Xy_obs.Obs
module Trace = Xy_trace.Trace

type axis = By_documents | By_subscriptions

type config = {
  domains : int;  (** an upper bound on the pool workers a batch uses *)
  shards : int;  (** subscription subsets under [By_subscriptions] *)
  axis : axis;
}

let default_config = { domains = 1; shards = 1; axis = By_documents }

(* The document-flow placement of §4.2: FNV-1a of the URL, folded into
   [workers].  Pure, so one URL's versions always reach one worker. *)
let slot_of_url ~workers url =
  Int64.to_int
    (Int64.rem
       (Int64.logand (Xy_util.Hashing.fnv1a64 url) Int64.max_int)
       (Int64.of_int workers))

let pool_size = max 1 (Domain.recommended_domain_count () - 1)
let workers (config : config) = min config.domains pool_size

(* The process-wide pool: per process, not per system, because a
   process may create hundreds of systems and OCaml caps live domains.
   A worker runs the batch body [job] for its slot once per
   [generation]; [job] returns [false] when the worker must die (the
   [worker] fault). *)
type pool = {
  owner : Mutex.t;  (** held by the running batch's caller *)
  lock : Mutex.t;
  work : Condition.t;  (** workers wait here between batches *)
  mutable generation : int;
  mutable job : int -> bool;
  mutable wanted : int;  (** slots the running batch uses *)
  domains : unit Domain.t option array;
  (* The caller's wake-up: a worker published, died or finished.
     Workers only take [signal] while the caller is blocked. *)
  signal : Mutex.t;
  signalled : Condition.t;
  waiting : bool Atomic.t;
}

let idle _ = true

let pool =
  {
    owner = Mutex.create ();
    lock = Mutex.create ();
    work = Condition.create ();
    generation = 0;
    job = idle;
    wanted = 0;
    domains = Array.make pool_size None;
    signal = Mutex.create ();
    signalled = Condition.create ();
    waiting = Atomic.make false;
  }

let rec serve slot ~seen =
  Mutex.lock pool.lock;
  while pool.generation = seen do
    Condition.wait pool.work pool.lock
  done;
  let generation = pool.generation and job = pool.job in
  let mine = slot < pool.wanted in
  Mutex.unlock pool.lock;
  if (not mine) || job slot then serve slot ~seen:generation

(* Called by a worker after any change the caller may be waiting for.
   The caller raises [waiting] under [signal] before its last check of
   the condition, so either it sees the change or this sees the flag. *)
let notify () =
  if Atomic.get pool.waiting then begin
    Mutex.lock pool.signal;
    Condition.broadcast pool.signalled;
    Mutex.unlock pool.signal
  end

(* A document's wait is short next to the work it waits for, so the
   caller spins briefly before blocking. *)
let spins = 1000

let await ready =
  let rec spin n =
    if ready () then ()
    else if n > 0 then begin
      Domain.cpu_relax ();
      spin (n - 1)
    end
    else begin
      Mutex.lock pool.signal;
      Atomic.set pool.waiting true;
      while not (ready ()) do
        Condition.wait pool.signalled pool.signal
      done;
      Atomic.set pool.waiting false;
      Mutex.unlock pool.signal
    end
  in
  spin spins

let run (config : config) ?(obs = Obs.default) ~docs ~kill ~url_of ~trace_of
    ~worker ~drain () =
  if config.domains <= 0 then invalid_arg "Parallel.run: domains <= 0";
  let len = Array.length docs in
  if Array.length kill <> len then invalid_arg "Parallel.run: kill length";
  (* registered here, on the caller's domain *)
  let m_deaths = Obs.counter obs ~stage:"fault" "worker_deaths" in
  let m_respawns = Obs.counter obs ~stage:"fault" "worker_respawns" in
  let k = workers config in
  let slot_of =
    Array.map (fun d -> slot_of_url ~workers:k (url_of d)) docs
  in
  let cells = Array.init len (fun _ -> Atomic.make None) in
  (* Per slot: the next document index the slot's worker looks at.
     Only that worker writes it; a replacement reads it after the dead
     worker has been joined. *)
  let cursor = Array.make k 0 in
  let dead = Array.init k (fun _ -> Atomic.make false) in
  let busy = Atomic.make k in
  let failure = Atomic.make None in
  let fail e = ignore (Atomic.compare_and_set failure None (Some e)) in
  let failed () = Option.is_some (Atomic.get failure) in
  let handed_at = Obs.now () in
  let rec walk slot =
    let idx = cursor.(slot) in
    if idx >= len || failed () then true
    else if slot_of.(idx) <> slot then begin
      cursor.(slot) <- idx + 1;
      walk slot
    end
    else if kill.(idx) then begin
      kill.(idx) <- false;
      Obs.Counter.incr m_deaths;
      Atomic.set dead.(slot) true;
      notify ();
      false
    end
    else begin
      let doc = docs.(idx) in
      Option.iter
        (fun ctx ->
          Trace.record ctx ~stage:"bus" ~name:"wait"
            ~attrs:[ ("bus", "handoff") ]
            ~start_wall:handed_at
            ~dur_wall:(Obs.now () -. handed_at)
            ())
        (trace_of doc);
      Atomic.set cells.(idx) (Some (worker ~slot doc));
      cursor.(slot) <- idx + 1;
      notify ();
      walk slot
    end
  in
  let job slot =
    let alive =
      try walk slot
      with e ->
        fail e;
        true
    in
    if alive then begin
      Atomic.decr busy;
      notify ()
    end;
    alive
  in
  Mutex.lock pool.owner;
  Fun.protect
    ~finally:(fun () ->
      (* the idle pool must not keep the batch, and the system its
         closures reach, alive *)
      Mutex.lock pool.lock;
      pool.job <- idle;
      Mutex.unlock pool.lock;
      Mutex.unlock pool.owner)
  @@ fun () ->
  for slot = 0 to k - 1 do
    if Option.is_none pool.domains.(slot) then begin
      let seen = pool.generation in
      pool.domains.(slot) <- Some (Domain.spawn (fun () -> serve slot ~seen))
    end
  done;
  Mutex.lock pool.lock;
  pool.job <- job;
  pool.wanted <- k;
  pool.generation <- pool.generation + 1;
  let generation = pool.generation in
  Condition.broadcast pool.work;
  Mutex.unlock pool.lock;
  (* A dead worker's domain has exited: join it, then start a
     replacement that carries the batch over from the dead one's
     cursor, so the pool never exceeds its size. *)
  let any_dead () = Array.exists Atomic.get dead in
  let rec wait_for ready =
    await (fun () -> ready () || any_dead ());
    if any_dead () then begin
      Array.iteri
        (fun slot flag ->
          if Atomic.get flag then begin
            Atomic.set flag false;
            Option.iter Domain.join pool.domains.(slot);
            Obs.Counter.incr m_respawns;
            pool.domains.(slot) <-
              Some
                (Domain.spawn (fun () ->
                     if job slot then serve slot ~seen:generation))
          end)
        dead;
      wait_for ready
    end
  in
  let next = ref 0 in
  while !next < len && not (failed ()) do
    wait_for (fun () -> Option.is_some (Atomic.get cells.(!next)) || failed ());
    match Atomic.get cells.(!next) with
    | Some result ->
        (try drain !next result with e -> fail e);
        incr next
    | None -> ()
  done;
  wait_for (fun () -> Atomic.get busy = 0);
  Option.iter raise (Atomic.get failure)
