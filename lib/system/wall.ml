(* [Unix.gettimeofday] can step backwards (NTP); latency math
   subtracts timestamps, so the timer installed into [Obs]/[Trace] is
   a CAS ratchet that never retreats.  (The libraries' own default,
   [Sys.time], measures CPU seconds — time blocked in I/O was
   invisible.) *)
let monotonic =
  let last = Atomic.make neg_infinity in
  let rec ratchet now =
    let prev = Atomic.get last in
    if now >= prev then
      if Atomic.compare_and_set last prev now then now else ratchet now
    else prev
  in
  fun () -> ratchet (Unix.gettimeofday ())

(* [Obs.set_timer]/[Trace.set_timer] mutate process-global state;
   installing them from every [Parallel.run] or system [make] was a
   data race against concurrently running pipelines.  One atomic flag
   makes installation happen exactly once per process, no matter how
   many systems or parallel runs start. *)
let installed = Atomic.make false

let install_timers () =
  if not (Atomic.exchange installed true) then begin
    Xy_obs.Obs.set_timer monotonic;
    Xy_trace.Trace.set_timer monotonic
  end
