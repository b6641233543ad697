module Schedule = Xy_trigger.Schedule
module Obs = Xy_obs.Obs

type entry = {
  mutable refresh_period : float;
  mutable ceiling : float;  (** subscription boost: period <= ceiling *)
  mutable live : bool;
  mutable queued : bool;  (** a heap entry at [deadline] is pending *)
  mutable deadline : float;  (** authoritative next fetch time *)
}

type metrics = {
  depth : Obs.Gauge.t;
  boosts : Obs.Counter.t;
  resurrected : Obs.Counter.t;
  served : Obs.Counter.t;
  retried : Obs.Counter.t;
  demoted : Obs.Counter.t;
}

type t = {
  clock : Xy_util.Clock.t;
  initial_period : float;
  min_period : float;
  max_period : float;
  entries : (string, entry) Hashtbl.t;
  mutable schedule : string Schedule.t;
  metrics : metrics;
  mutable journal : (string -> unit) option;
}

let stage = "crawler"

let create ?(initial_period = 86400.) ?(min_period = 3600.)
    ?(max_period = 4. *. 7. *. 86400.) ?(obs = Obs.default) ~clock () =
  {
    clock;
    initial_period;
    min_period;
    max_period;
    entries = Hashtbl.create 1024;
    schedule = Schedule.create ();
    metrics =
      {
        depth = Obs.gauge obs ~stage "due_queue_depth";
        boosts = Obs.counter obs ~stage "boosts";
        resurrected = Obs.counter obs ~stage "boost_resurrected";
        served = Obs.counter obs ~stage "due_served";
        retried = Obs.counter obs ~stage "retried";
        demoted = Obs.counter obs ~stage "demoted";
      };
    journal = None;
  }

let clock t = t.clock

(* Durability: every mutation journals the entry's post-state — replay
   upserts, and [pop_due]'s staleness checks (deadline mismatch,
   already-dequeued) make the duplicate heap entries replay creates
   harmless. *)
module Codec = Xy_util.Codec

let set_journal t emit = t.journal <- emit

let add_entry buf url entry =
  Codec.string buf url;
  Codec.bool buf true;
  Codec.float buf entry.refresh_period;
  Codec.float buf entry.ceiling;
  Codec.bool buf entry.live;
  Codec.bool buf entry.queued;
  Codec.float buf entry.deadline

let encode_entry url entry =
  let buf = Buffer.create 64 in
  add_entry buf url entry;
  Buffer.contents buf

let encode_removal url =
  let buf = Buffer.create 32 in
  Codec.string buf url;
  Codec.bool buf false;
  Buffer.contents buf

let journal_entry t url entry =
  match t.journal with None -> () | Some emit -> emit (encode_entry url entry)

let journal_removal t url =
  match t.journal with None -> () | Some emit -> emit (encode_removal url)

let update_depth t =
  Obs.Gauge.set_int t.metrics.depth (Schedule.size t.schedule)

let add t ~url =
  if not (Hashtbl.mem t.entries url) then begin
    let now = Xy_util.Clock.now t.clock in
    let entry =
      {
        refresh_period = t.initial_period;
        ceiling = t.max_period;
        live = true;
        queued = true;
        deadline = now;
      }
    in
    Hashtbl.replace t.entries url entry;
    (* first fetch due immediately *)
    Schedule.add t.schedule ~at:now url;
    update_depth t;
    journal_entry t url entry
  end

let forget t ~url =
  match Hashtbl.find_opt t.entries url with
  | Some entry ->
      entry.live <- false;
      journal_entry t url entry
  | None -> ()

let clamp t entry =
  entry.refresh_period <-
    Float.min entry.ceiling
      (Float.max t.min_period (Float.min t.max_period entry.refresh_period))

let boost t ~url ~period =
  add t ~url;
  let entry = Hashtbl.find t.entries url in
  if not entry.live then begin
    (* resurrect a forgotten URL: a subscription re-demands it *)
    entry.live <- true;
    Obs.Counter.incr t.metrics.resurrected
  end;
  (* Boosts only tighten: the ceiling is the strongest demand among
     the live subscriptions, whatever order they were applied in.
     Relaxation (a subscription leaving) goes through [reset_ceiling]
     followed by re-applying the survivors' statements. *)
  entry.ceiling <- Float.max t.min_period (Float.min entry.ceiling period);
  clamp t entry;
  Obs.Counter.incr t.metrics.boosts;
  let target = Xy_util.Clock.now t.clock +. entry.refresh_period in
  if not entry.queued then begin
    (* nothing pending (served then forgotten): schedule anew *)
    entry.queued <- true;
    entry.deadline <- target;
    Schedule.add t.schedule ~at:target url;
    update_depth t
  end
  else if target < entry.deadline then begin
    (* The clamped period shortens the pending deadline: supersede the
       possibly weeks-away heap entry.  The old entry is deleted
       lazily — [pop_due] skips entries whose time no longer matches
       the authoritative [deadline]. *)
    entry.deadline <- target;
    Schedule.add t.schedule ~at:target url;
    update_depth t
  end;
  journal_entry t url entry

let pop_due t ~limit =
  let now = Xy_util.Clock.now t.clock in
  let rec go acc n =
    if n = 0 then List.rev acc
    else
      match Schedule.peek_time t.schedule with
      | Some at when at <= now -> (
          match Schedule.pop_next t.schedule with
          | None -> List.rev acc
          | Some (at, url) -> (
              match Hashtbl.find_opt t.entries url with
              | Some entry when not entry.queued ->
                  (* stale: already served this cycle *)
                  go acc n
              | Some entry when at <> entry.deadline ->
                  (* stale: superseded by a boost reschedule *)
                  go acc n
              | Some entry when entry.live ->
                  entry.queued <- false;
                  Obs.Counter.incr t.metrics.served;
                  journal_entry t url entry;
                  go (url :: acc) (n - 1)
              | Some _ ->
                  (* dead entry drained from the heap *)
                  Hashtbl.remove t.entries url;
                  journal_removal t url;
                  go acc n
              | None -> go acc n))
      | Some _ | None -> List.rev acc
  in
  let served = go [] limit in
  update_depth t;
  (* Deterministic batch order: the heap breaks deadline ties by
     insertion history, which a rebuilt (restored) heap does not
     share.  Sorting by (deadline, url) makes the processing order a
     pure function of queue *state*, so a warm restart refetches
     in-flight documents in exactly the order the crashed run would
     have processed them. *)
  List.sort
    (fun a b ->
      let da = (Hashtbl.find t.entries a).deadline
      and db = (Hashtbl.find t.entries b).deadline in
      match Float.compare da db with 0 -> String.compare a b | c -> c)
    served

(* A fetch that failed after [pop_due] left its entry dequeued
   ([queued = false]) with nothing pending in the heap: without an
   explicit requeue the URL would only ever come back through a
   subscription boost.  [retry] puts the in-flight URL back at
   [now + delay] leaving its refresh period untouched. *)
let retry t ~url ~delay =
  match Hashtbl.find_opt t.entries url with
  | None -> ()
  | Some entry when entry.live && not entry.queued ->
      entry.queued <- true;
      let at = Xy_util.Clock.now t.clock +. Float.max 0. delay in
      entry.deadline <- at;
      Schedule.add t.schedule ~at url;
      Obs.Counter.incr t.metrics.retried;
      update_depth t;
      journal_entry t url entry
  | Some _ -> ()

(* Retry exhaustion: the URL is kept — losing it would break the
   "loses no subscriptions" contract — but demoted in importance: its
   refresh period is multiplied by [factor] (clamped; a subscription
   boost ceiling still wins, those pages are demanded regardless of
   flakiness) and the next attempt is scheduled a full period away. *)
let penalize t ~url ~factor =
  if factor < 1. then invalid_arg "Fetch_queue.penalize: factor < 1";
  match Hashtbl.find_opt t.entries url with
  | None -> ()
  | Some entry when entry.live && not entry.queued ->
      entry.refresh_period <- entry.refresh_period *. factor;
      clamp t entry;
      entry.queued <- true;
      let at = Xy_util.Clock.now t.clock +. entry.refresh_period in
      entry.deadline <- at;
      Schedule.add t.schedule ~at url;
      Obs.Counter.incr t.metrics.demoted;
      update_depth t;
      journal_entry t url entry
  | Some entry ->
      (* Not in flight (e.g. already rescheduled by a boost): still
         demote the period so the offender is fetched less often. *)
      if entry.live then begin
        entry.refresh_period <- entry.refresh_period *. factor;
        clamp t entry;
        Obs.Counter.incr t.metrics.demoted;
        journal_entry t url entry
      end

let mark_fetched t ~url ~changed =
  match Hashtbl.find_opt t.entries url with
  | None -> ()
  | Some entry ->
      if entry.live && not entry.queued then begin
        entry.refresh_period <-
          (if changed then entry.refresh_period *. 0.5
           else entry.refresh_period *. 1.5);
        clamp t entry;
        entry.queued <- true;
        let at = Xy_util.Clock.now t.clock +. entry.refresh_period in
        entry.deadline <- at;
        Schedule.add t.schedule ~at url;
        update_depth t;
        journal_entry t url entry
      end

let next_deadline t = Schedule.peek_time t.schedule

let period t ~url =
  Option.map (fun e -> e.refresh_period) (Hashtbl.find_opt t.entries url)

let known_count t =
  Hashtbl.fold (fun _ e acc -> if e.live then acc + 1 else acc) t.entries 0

(* Unsubscribe support: the boost ceiling a subscription's refresh
   statement imposed must not outlive the subscription.  [reset_ceiling]
   lifts the ceiling back to [max_period]; the caller then re-applies
   the refresh statements of the remaining subscriptions. *)
let reset_ceiling t ~url =
  match Hashtbl.find_opt t.entries url with
  | None -> ()
  | Some entry ->
      entry.ceiling <- t.max_period;
      clamp t entry;
      journal_entry t url entry

type view = {
  v_url : string;
  v_period : float;
  v_ceiling : float;
  v_live : bool;
  v_queued : bool;
  v_deadline : float;
}

let view t =
  List.sort compare
    (Hashtbl.fold
       (fun url e acc ->
         {
           v_url = url;
           v_period = e.refresh_period;
           v_ceiling = e.ceiling;
           v_live = e.live;
           v_queued = e.queued;
           v_deadline = e.deadline;
         }
         :: acc)
       t.entries [])

(* {2 Durability} *)

let encode_snapshot t =
  let buf = Buffer.create 1024 in
  let entries =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun url e acc -> (url, e) :: acc) t.entries [])
  in
  Codec.list buf (fun buf (url, e) -> add_entry buf url e) entries;
  Buffer.contents buf

let apply_encoded t reader =
  let url = Codec.read_string reader in
  if not (Codec.read_bool reader) then Hashtbl.remove t.entries url
  else begin
    let refresh_period = Codec.read_float reader in
    let ceiling = Codec.read_float reader in
    let live = Codec.read_bool reader in
    let queued = Codec.read_bool reader in
    let deadline = Codec.read_float reader in
    (match Hashtbl.find_opt t.entries url with
    | Some e ->
        e.refresh_period <- refresh_period;
        e.ceiling <- ceiling;
        e.live <- live;
        e.queued <- queued;
        e.deadline <- deadline
    | None ->
        Hashtbl.replace t.entries url
          { refresh_period; ceiling; live; queued; deadline });
    (* Keep the heap consistent: a queued entry needs a heap slot at
       its deadline.  Duplicates are harmless — [pop_due] skips slots
       whose time differs from the authoritative [deadline]. *)
    if queued then Schedule.add t.schedule ~at:deadline url
  end;
  update_depth t

let decode_snapshot t payload =
  Hashtbl.reset t.entries;
  t.schedule <- Schedule.create ();
  let reader = Codec.reader payload in
  ignore (Codec.read_list reader (fun r -> apply_encoded t r));
  Codec.expect_end reader

let apply_op t payload =
  let reader = Codec.reader payload in
  apply_encoded t reader;
  Codec.expect_end reader

(* After a crash, entries that were popped but never concluded
   ([live] and not [queued]) were in flight: put them back at their
   original deadline so the resumed run refetches them. *)
let rearm_in_flight t =
  let rearmed = ref 0 in
  Hashtbl.iter
    (fun url entry ->
      if entry.live && not entry.queued then begin
        entry.queued <- true;
        Schedule.add t.schedule ~at:entry.deadline url;
        journal_entry t url entry;
        incr rearmed
      end)
    t.entries;
  update_depth t;
  !rearmed
