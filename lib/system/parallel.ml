module Mqp = Xy_core.Mqp
module Partition = Xy_core.Partition
module Obs = Xy_obs.Obs

type config = {
  domains : int;  (** loader workers *)
  shards : int;  (** monitoring-query-processor shards *)
  axis : Partition.axis;
}

let default_config = { domains = 1; shards = 1; axis = Partition.By_documents }

(* Loader and shard inbox capacity: per-stage backpressure. *)
let capacity = 64

type stats = {
  p_deaths : int;
  p_respawns : int;
  p_steals : int;
  p_stolen : int;
}

(* One copy of an alert bound for a shard.  [s_slot] is the shard the
   router *destined* it for: under [By_subscriptions] the matcher
   subset is the destination's, even when a thief executes the match.
   [s_kill] arms the worker-death failure point — pre-drawn serially
   on the main domain (the fault journal is not multi-domain safe), it
   rides the message and fires in whichever shard dequeues it. *)
type shard_item = {
  s_idx : int;
  s_slot : int;
  s_alert : Mqp.alert;
  s_kill : bool;
}

type 'r result_msg =
  | Worked of int * 'r * bool  (** doc index, outcome, has-alert *)
  | Matched of int * int list * float  (** doc index, partial match, seconds *)
  | Shard_died of int * shard_item list
      (** slot, items the dead worker held (kill cleared on the head) *)

(* Reorder-buffer cell: a document is complete once its load outcome
   has arrived and, if it alerted, all its match partials did too
   (1 under [By_documents], [shards] under [By_subscriptions]). *)
type 'r cell = {
  mutable c_outcome : 'r option;
  mutable c_has_alert : bool;
  mutable c_partials : int list list;
  mutable c_partial_count : int;
  mutable c_latency : float;
}

let stage = "bus"

let run config ?(obs = Obs.default) ~docs ~kill ~url_of ~worker ~shard_match
    ~drain () =
  let { domains; shards; axis } = config in
  if domains <= 0 then invalid_arg "Parallel.run: domains <= 0";
  if shards <= 0 then invalid_arg "Parallel.run: shards <= 0";
  let len = Array.length docs in
  if Array.length kill <> len then invalid_arg "Parallel.run: kill length";
  Wall.install_timers ();
  let m_steals = Obs.counter obs ~stage "steals" in
  let m_stolen = Obs.counter obs ~stage "stolen_items" in
  let m_deaths = Obs.counter obs ~stage:"fault" "worker_deaths" in
  let m_respawns = Obs.counter obs ~stage:"fault" "worker_respawns" in
  (* All buses and counters are registered here, on the caller's
     domain, before anything spawns. *)
  let doc_inboxes : (int * 'd) Bus.t array =
    Array.init domains (fun _ ->
        Bus.create ~capacity ~obs ~name:"loader_inbox" ())
  in
  let shard_inboxes : shard_item Bus.t array =
    Array.init shards (fun _ ->
        Bus.create ~capacity ~obs ~name:"shard_inbox"
          ~trace_of:(fun item -> item.s_alert.Mqp.trace)
          ())
  in
  let results : 'r result_msg Bus.t =
    Bus.create ~capacity:256 ~obs ~name:"results" ()
  in
  let steal_ops = Pad.create shards in
  let steal_items = Pad.create shards in
  (* Feeder: its own domain, so the caller's domain is free to drain
     results while the batch is still streaming in under bounded
     capacities.  Same-URL documents hash to the same loader, so a
     URL's version chain is built in feed order by a single worker. *)
  let feeder =
    Domain.spawn (fun () ->
        Array.iteri
          (fun idx doc ->
            let slot = Partition.slot_of_url ~partitions:domains (url_of doc) in
            Bus.push doc_inboxes.(slot) (idx, doc))
          docs;
        Array.iter Bus.close doc_inboxes)
  in
  (* Loaders: parse/warehouse/diff/detect via the caller's [worker],
     then announce the outcome and route the alert (if any) to its
     shard(s).  The last loader to finish closes the shard inboxes. *)
  let live_loaders = Atomic.make domains in
  let loaders =
    Array.init domains (fun slot ->
        Domain.spawn (fun () ->
            let rec loop () =
              match Bus.pop doc_inboxes.(slot) with
              | None -> ()
              | Some (idx, doc) ->
                  let outcome, alert = worker ~slot doc in
                  Bus.push results (Worked (idx, outcome, alert <> None));
                  (match alert with
                  | None -> ()
                  | Some (alert : Mqp.alert) -> (
                      match axis with
                      | Partition.By_documents ->
                          let dest =
                            Partition.slot_of_url ~partitions:shards
                              alert.Mqp.url
                          in
                          Bus.push shard_inboxes.(dest)
                            { s_idx = idx; s_slot = dest; s_alert = alert;
                              s_kill = kill.(idx) }
                      | Partition.By_subscriptions ->
                          (* Broadcast; the kill flag rides exactly one
                             copy so a fault draw costs one death. *)
                          for dest = 0 to shards - 1 do
                            Bus.push shard_inboxes.(dest)
                              { s_idx = idx; s_slot = dest; s_alert = alert;
                                s_kill = kill.(idx) && dest = 0 }
                          done));
                  loop ()
            in
            loop ();
            if Atomic.fetch_and_add live_loaders (-1) = 1 then
              Array.iter Bus.close shard_inboxes))
  in
  (* Shard workers.  [pending] holds locally dequeued items (a stolen
     batch); a death therefore carries the whole remainder back to the
     supervisor, so stolen work is never lost.  A worker never blocks
     on its own inbox: it polls, robs the longest sibling when idle,
     and exits only once every shard inbox is closed and empty (the
     tail-steal phase — late skew drains onto whichever workers are
     still hungry). *)
  let spawn_shard slot ~carried =
    Domain.spawn (fun () ->
        let process item =
          let matched, latency = shard_match ~dest:item.s_slot item.s_alert in
          Bus.push results (Matched (item.s_idx, matched, latency))
        in
        let steal_once () =
          let victim = ref (-1) and longest = ref 1 in
          Array.iteri
            (fun v inbox ->
              if v <> slot then begin
                let n = Bus.length inbox in
                if n > !longest then begin
                  victim := v;
                  longest := n
                end
              end)
            shard_inboxes;
          if !victim < 0 then []
          else
            match Bus.steal_half shard_inboxes.(!victim) with
            | [] -> []
            | stolen ->
                Pad.incr steal_ops slot;
                Pad.add steal_items slot (List.length stolen);
                Obs.Counter.incr m_steals;
                Obs.Counter.add m_stolen (List.length stolen);
                stolen
        in
        let rec loop pending =
          match pending with
          | item :: rest ->
              if item.s_kill then begin
                Obs.Counter.incr m_deaths;
                Bus.push results
                  (Shard_died (slot, { item with s_kill = false } :: rest))
              end
              else begin
                process item;
                loop rest
              end
          | [] -> (
              match Bus.try_pop shard_inboxes.(slot) with
              | Some item -> loop [ item ]
              | None -> (
                  match steal_once () with
                  | _ :: _ as stolen -> loop stolen
                  | [] ->
                      if Array.for_all Bus.drained shard_inboxes then ()
                      else begin
                        (* Nothing to do anywhere yet: brief sleep
                           rather than a hot spin, so single-core
                           hosts still make progress elsewhere. *)
                        Unix.sleepf 2e-5;
                        loop []
                      end))
        in
        loop carried)
  in
  let shard_domains = Array.init shards (fun slot -> spawn_shard slot ~carried:[]) in
  (* Drainer — the caller's own domain.  Applies per-document results
     strictly in batch order through [drain] (the single serial owner
     of journal, reporter and trigger state), supervises shard deaths,
     and on a [drain] exception keeps consuming (so every stage can
     finish and be joined) but applies nothing further — matching what
     a serial kill leaves behind. *)
  let cells =
    Array.init len (fun _ ->
        { c_outcome = None; c_has_alert = false; c_partials = [];
          c_partial_count = 0; c_latency = 0. })
  in
  let needed =
    match axis with Partition.By_documents -> 1 | Partition.By_subscriptions -> shards
  in
  let complete c =
    c.c_outcome <> None && ((not c.c_has_alert) || c.c_partial_count >= needed)
  in
  let deaths = ref 0 and respawns = ref 0 in
  let failure = ref None in
  let next = ref 0 in
  let apply idx =
    let c = cells.(idx) in
    let outcome = Option.get c.c_outcome in
    let matched =
      if not c.c_has_alert then None
      else
        match c.c_partials with
        | [ one ] -> Some (one, c.c_latency)
        | many ->
            (* Subscription-axis merge: partials are disjoint but
               unordered across shards. *)
            Some (List.sort_uniq Int.compare (List.concat many), c.c_latency)
    in
    match !failure with
    | Some _ -> ()
    | None -> ( try drain idx outcome matched with e -> failure := Some e)
  in
  let advance () =
    while !next < len && complete cells.(!next) do
      apply !next;
      incr next
    done
  in
  while !next < len do
    match Bus.pop results with
    | None -> assert false (* the results bus is never closed *)
    | Some (Worked (idx, outcome, has_alert)) ->
        let c = cells.(idx) in
        c.c_outcome <- Some outcome;
        c.c_has_alert <- has_alert;
        advance ()
    | Some (Matched (idx, partial, latency)) ->
        let c = cells.(idx) in
        c.c_partials <- partial :: c.c_partials;
        c.c_partial_count <- c.c_partial_count + 1;
        c.c_latency <- c.c_latency +. latency;
        advance ()
    | Some (Shard_died (slot, carried)) ->
        incr deaths;
        incr respawns;
        Obs.Counter.incr m_respawns;
        Domain.join shard_domains.(slot);
        shard_domains.(slot) <- spawn_shard slot ~carried
  done;
  Domain.join feeder;
  Array.iter Domain.join loaders;
  Array.iter Domain.join shard_domains;
  (match !failure with Some e -> raise e | None -> ());
  {
    p_deaths = !deaths;
    p_respawns = !respawns;
    p_steals = Pad.total steal_ops;
    p_stolen = Pad.total steal_items;
  }
