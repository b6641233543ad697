module Obs = Xy_obs.Obs

type periodic = {
  p_id : string;
  period : float;
  action : unit -> unit;
  mutable deadline : float;  (** authoritative next run time *)
}

type metrics = {
  m_ticks : Obs.Counter.t;
  m_periodic_runs : Obs.Counter.t;
  m_notification_runs : Obs.Counter.t;
  m_depth : Obs.Gauge.t;
  m_action_latency : Obs.Histogram.t;
}

type t = {
  clock : Xy_util.Clock.t;
  schedule : periodic Schedule.t;
  active : (string, periodic) Hashtbl.t;
      (** the authoritative trigger per id; heap slots referring to a
          superseded record or a stale deadline are skipped on pop *)
  notification_triggers :
    (string * string, (string * (unit -> unit)) list ref) Hashtbl.t;
      (** (subscription, tag) -> [(id, action)] *)
  mutable periodic_runs : int;
  mutable notification_runs : int;
  metrics : metrics;
  mutable journal : (string -> unit) option;
}

let stage = "trigger"

let create ?(obs = Obs.default) ~clock () =
  {
    clock;
    schedule = Schedule.create ();
    active = Hashtbl.create 16;
    notification_triggers = Hashtbl.create 64;
    periodic_runs = 0;
    notification_runs = 0;
    metrics =
      {
        m_ticks = Obs.counter obs ~stage "ticks";
        m_periodic_runs = Obs.counter obs ~stage "periodic_runs";
        m_notification_runs = Obs.counter obs ~stage "notification_runs";
        m_depth = Obs.gauge obs ~stage "schedule_depth";
        m_action_latency = Obs.histogram obs ~stage "action_latency";
      };
    journal = None;
  }

(* Durability: deadlines are the only periodic state that cannot be
   rebuilt from the subscription log (recovery re-installs triggers
   at [now + period], not at their pre-crash position), so every
   deadline movement journals (id, deadline) and the run counters.
   A cancellation journals nothing: recovery installs exactly the
   live triggers, so a replayed cancel could only remove a trigger a
   later registration of the same id installed. *)
module Codec = Xy_util.Codec

let set_journal t emit = t.journal <- emit

let emit_op t encode =
  match t.journal with
  | None -> ()
  | Some emit ->
      let buf = Buffer.create 48 in
      encode buf;
      emit (Buffer.contents buf)

let journal_deadline t p =
  emit_op t (fun buf ->
      Codec.string buf "d";
      Codec.string buf p.p_id;
      Codec.float buf p.deadline)

let journal_runs t =
  emit_op t (fun buf ->
      Codec.string buf "r";
      Codec.int buf t.periodic_runs;
      Codec.int buf t.notification_runs)

let schedule_periodic t ~id ~period action =
  if period <= 0. then invalid_arg "Trigger_engine: non-positive period";
  if Hashtbl.mem t.active id then
    invalid_arg "Trigger_engine: duplicate trigger id";
  let deadline = Xy_util.Clock.now t.clock +. period in
  let periodic = { p_id = id; period; action; deadline } in
  Hashtbl.replace t.active id periodic;
  Schedule.add t.schedule ~at:deadline periodic;
  Obs.Gauge.set_int t.metrics.m_depth (Schedule.size t.schedule);
  journal_deadline t periodic

let on_notification t ~id ~subscription ~tag action =
  let key = (subscription, tag) in
  match Hashtbl.find_opt t.notification_triggers key with
  | Some actions -> actions := (id, action) :: !actions
  | None -> Hashtbl.replace t.notification_triggers key (ref [ (id, action) ])

let cancel t ~id =
  (* Heap slots for the cancelled record are skipped lazily when
     popped: [tick] only runs a slot whose record is still the
     authoritative entry for its id — so a later re-registration of
     the same id (a fresh record) is never confused with the old
     one's leftover slots. *)
  Hashtbl.remove t.active id;
  Hashtbl.filter_map_inplace
    (fun _ actions ->
      actions := List.filter (fun (aid, _) -> aid <> id) !actions;
      (* drop emptied keys: dangling (subscription, tag) entries would
         otherwise accumulate across unsubscribes forever *)
      if !actions = [] then None else Some actions)
    t.notification_triggers

let notify ?trace t ~subscription ~tag =
  (* Most systems install no notification-triggered query: then no key
     is built or hashed. *)
  if Hashtbl.length t.notification_triggers > 0 then
    match Hashtbl.find_opt t.notification_triggers (subscription, tag) with
    | None -> ()
    | Some actions ->
        List.iter
          (fun (id, action) ->
            t.notification_runs <- t.notification_runs + 1;
            Obs.Counter.incr t.metrics.m_notification_runs;
            Xy_trace.Trace.wrap trace ~stage ~name:"action"
              ~attrs:[ ("trigger", id); ("subscription", subscription) ]
            @@ fun () -> Obs.Histogram.time t.metrics.m_action_latency action)
          (List.rev !actions);
        journal_runs t

let tick t =
  Obs.Counter.incr t.metrics.m_ticks;
  let now = Xy_util.Clock.now t.clock in
  let ran = ref false in
  (* Loop until nothing is due: a long clock advance re-arms entries
     that are themselves already due, giving one run per elapsed
     period. *)
  let rec drain () =
    match Schedule.pop_due t.schedule ~now with
    | [] -> ()
    | due ->
        List.iter
          (fun (deadline, periodic) ->
            match Hashtbl.find_opt t.active periodic.p_id with
            | Some current
              when current == periodic && periodic.deadline = deadline ->
                ran := true;
                t.periodic_runs <- t.periodic_runs + 1;
                Obs.Counter.incr t.metrics.m_periodic_runs;
                Obs.Histogram.time t.metrics.m_action_latency periodic.action;
                (* Re-arm from the *deadline*, not from now. *)
                periodic.deadline <- deadline +. periodic.period;
                Schedule.add t.schedule ~at:periodic.deadline periodic;
                journal_deadline t periodic
            | _ ->
                (* stale slot: cancelled, re-registered, or superseded
                   by a deadline override *)
                ())
          due;
        drain ()
  in
  drain ();
  if !ran then journal_runs t;
  Obs.Gauge.set_int t.metrics.m_depth (Schedule.size t.schedule)

let next_deadline t = Schedule.peek_time t.schedule

(* Restore support: recovery replays the subscription log, which
   re-installs every trigger at [now + period]; the durable snapshot
   then moves each deadline back to its authentic pre-crash value. *)
let override_deadline t ~id ~at =
  match Hashtbl.find_opt t.active id with
  | None -> false
  | Some periodic ->
      periodic.deadline <- at;
      Schedule.add t.schedule ~at periodic;
      Obs.Gauge.set_int t.metrics.m_depth (Schedule.size t.schedule);
      journal_deadline t periodic;
      true

let deadlines t =
  List.sort compare
    (Hashtbl.fold (fun id p acc -> (id, p.deadline) :: acc) t.active [])

let encode_snapshot t =
  let buf = Buffer.create 512 in
  Codec.int buf t.periodic_runs;
  Codec.int buf t.notification_runs;
  Codec.list buf
    (fun buf (id, deadline) ->
      Codec.string buf id;
      Codec.float buf deadline)
    (deadlines t);
  Buffer.contents buf

let decode_snapshot t payload =
  let reader = Codec.reader payload in
  t.periodic_runs <- Codec.read_int reader;
  t.notification_runs <- Codec.read_int reader;
  let entries =
    Codec.read_list reader (fun r ->
        let id = Codec.read_string r in
        let deadline = Codec.read_float r in
        (id, deadline))
  in
  Codec.expect_end reader;
  List.iter
    (fun (id, at) ->
      (* ids unknown to the recovered subscription set are ignored:
         their subscription was deleted after the snapshot *)
      ignore (override_deadline t ~id ~at))
    entries

let apply_op t payload =
  let reader = Codec.reader payload in
  (match Codec.read_string reader with
  | "d" ->
      let id = Codec.read_string reader in
      let at = Codec.read_float reader in
      ignore (override_deadline t ~id ~at)
  | "r" ->
      t.periodic_runs <- Codec.read_int reader;
      t.notification_runs <- Codec.read_int reader
  | tag -> raise (Codec.Malformed ("unknown trigger op " ^ tag)));
  Codec.expect_end reader

type stats = { periodic_runs : int; notification_runs : int }

let stats (t : t) =
  { periodic_runs = t.periodic_runs; notification_runs = t.notification_runs }
