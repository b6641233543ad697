type axis = By_documents | By_subscriptions

(* The two placement functions of §4.2, shared by every sharded
   consumer (this in-process router and the system's parallel crawl
   pipeline): documents spread by URL hash, complex events by id.
   Both are pure so that any routing decision can be re-derived
   identically on any domain. *)
let slot_of_url ~partitions url =
  if partitions <= 0 then invalid_arg "Partition.slot_of_url: partitions <= 0";
  Int64.to_int
    (Int64.rem
       (Int64.logand (Xy_util.Hashing.fnv1a64 url) Int64.max_int)
       (Int64.of_int partitions))

let slot_of_subscription ~partitions id =
  if partitions <= 0 then
    invalid_arg "Partition.slot_of_subscription: partitions <= 0";
  ((id mod partitions) + partitions) mod partitions

type t = { axis : axis; instances : Mqp.t array }

let create ?algorithm axis ~partitions =
  if partitions <= 0 then invalid_arg "Partition.create: partitions <= 0";
  { axis; instances = Array.init partitions (fun _ -> Mqp.create ?algorithm ()) }

let axis t = t.axis
let partitions t = Array.length t.instances

let subscribe t ~id events =
  match t.axis with
  | By_documents ->
      Array.iter (fun mqp -> Mqp.subscribe mqp ~id events) t.instances
  | By_subscriptions ->
      let slot = slot_of_subscription ~partitions:(Array.length t.instances) id in
      Mqp.subscribe t.instances.(slot) ~id events

let unsubscribe t ~id =
  match t.axis with
  | By_documents -> Array.iter (fun mqp -> Mqp.unsubscribe mqp ~id) t.instances
  | By_subscriptions ->
      Mqp.unsubscribe
        t.instances.(slot_of_subscription ~partitions:(Array.length t.instances) id)
        ~id

let doc_slot t (alert : Mqp.alert) =
  slot_of_url ~partitions:(Array.length t.instances) alert.url

let route t alert =
  match t.axis with
  | By_documents -> [ doc_slot t alert ]
  | By_subscriptions -> List.init (Array.length t.instances) Fun.id

let process t alert =
  match t.axis with
  | By_documents -> Mqp.process t.instances.(doc_slot t alert) alert
  | By_subscriptions ->
      let all =
        Array.fold_left
          (fun acc mqp -> List.rev_append (Mqp.process mqp alert) acc)
          [] t.instances
      in
      (* Int.compare, not polymorphic compare: this merge runs once
         per alert on the subscriptions axis. *)
      List.sort_uniq Int.compare all

let memory_per_partition t = Array.map Mqp.approx_memory_words t.instances
