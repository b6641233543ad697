let log_src = Logs.Src.create "xyleme" ~doc:"Xyleme monitoring pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)

module T = Xy_xml.Types
module Loader = Xy_warehouse.Loader
module Store = Xy_warehouse.Store
module Chain = Xy_alerters.Chain
module Alert = Xy_alerters.Alert
module Mqp = Xy_core.Mqp
module Manager = Xy_submgr.Manager
module Obs = Xy_obs.Obs
module Trace = Xy_trace.Trace
module Fault = Xy_fault.Fault
module Durable = Xy_durable.Durable
module Codec = Xy_util.Codec
module Record_log = Xy_durable.Record_log
module Sink = Xy_reporter.Sink
module Slo = Xy_slo.Slo
module Serve = Xy_serve.Serve

(* One durable stage: its checkpoint section (encoded by a thunk,
   which [Durable.checkpoint] runs unless the stage is WAL-carried and
   written as a delta, into pieces it writes in order) and its
   journaled ops. *)
type stage = {
  name : string;
  encode : unit -> string list;
  decode : string -> unit;
  apply_op : (string -> unit) option;  (** [None]: journals no ops *)
  attach : (string -> unit) -> unit;  (** hands the stage its journal *)
  wal_carried : bool;  (** see {!Durable.set_wal_carried} *)
}

(* Per-pool-worker pipeline stage: a private Loader + alerter Chain
   over the shared (internally locked) store and registry.  Their
   instruments are the system registry's own: each live domain writes
   its own stripe of them. *)
type worker_ctx = { wc_loader : Loader.t; wc_chain : Chain.t }

(* What the continuous queries run on one store state share: each
   domain's documents, the whole warehouse view, built only for a query
   that does not split by document, and the one-document views built so
   far, by URL. *)
type documents = {
  d_at : int;  (** the {!Store.mutations} count they were taken at *)
  d_by_domain : (string * (string * Xy_xml.Xid.tree) list) list Lazy.t;
  d_view : T.element Lazy.t;
  d_views : (string, T.element) Hashtbl.t;
}

type t = {
  obs : Obs.t;
  tracer : Trace.t;
  faults : Fault.t;
  wire_faults : Fault.t;
      (** the wire-point slice of the fault plan, armed on the serving
          surface's chaotic transport; never journaled *)
  clock : Xy_util.Clock.t;
  registry : Xy_events.Registry.t;
  mqp : Mqp.t;
  reporter : Xy_reporter.Reporter.t;
  trigger : Xy_trigger.Trigger_engine.t;
  store : Store.t;
  domains : Xy_warehouse.Domains.t;
  loader : Loader.t;
  chain : Chain.t;
  web : Xy_crawler.Synthetic_web.t;
  queue : Xy_crawler.Fetch_queue.t;
  crawler : Xy_crawler.Crawler.t;
  mutable manager : Manager.t option;  (** set right after creation *)
  mutable alerts_sent : int;
  durable : Durable.t option;
  mutable stages : stage list;  (** set right after creation *)
  mutable steps_done : int;
  mutable mid_step : bool;
      (** an [advance] has committed since the last completed
          [crawl_step] — lets a resumed run know whether to advance
          again (journaled, so a kill between the two cannot
          double-advance the clock) *)
  m_ingested : Obs.Counter.t;
  m_ingest_latency : Obs.Histogram.t;
  m_quarantined : Obs.Counter.t;
  m_restarts : Obs.Counter.t;
      (** warm restarts survived — carried across restores with the
          rest of the metrics, so it counts the directory's lifetime *)
  slo : Slo.t option;
  slo_breached : (string, bool) Hashtbl.t;
      (** last injected status per objective: an SLO document is
          (re-)ingested only when the status flips, not every tick *)
  parallel : Parallel.config;
  worker_ctxs : worker_ctx array Lazy.t;
      (** forced at the first parallel batch, on this domain:
          [Chain.create] registers registry listeners and instruments,
          and neither registry is thread-safe for that *)
  mutable subsets : (int * Mqp.t array) option;
      (** the subscription axis's {!Mqp.split} and the
          {!Mqp.mutations} epoch it was built at *)
  mutable documents : documents option;
      (** what the continuous queries of one tick share, dropped when
          the tick ends *)
  serve : Serve.t option;
}

let default_domains () =
  let domains = Xy_warehouse.Domains.create () in
  Xy_warehouse.Domains.register_keyword domains ~keyword:"museum" ~domain:"culture";
  Xy_warehouse.Domains.register_keyword domains ~keyword:"painting" ~domain:"culture";
  Xy_warehouse.Domains.register_keyword domains ~keyword:"catalog" ~domain:"commerce";
  Xy_warehouse.Domains.register_keyword domains ~keyword:"product" ~domain:"commerce";
  Xy_warehouse.Domains.register_keyword domains ~keyword:"team" ~domain:"people";
  Xy_warehouse.Domains.register_keyword domains ~keyword:"Member" ~domain:"people";
  domains

let domain_of meta =
  Option.value ~default:"unclassified" meta.Xy_warehouse.Meta.domain

(* A document's nodes in its domain's element: spliced when the
   document root already carries the domain name, so that
   [culture/museum] resolves. *)
let spliced domain tree =
  let root = Xy_xml.Xid.strip tree in
  if root.T.tag = domain then root.T.children else [ T.Element root ]

(* Each domain's (URL, tree) pairs, domains in name order and documents
   in URL order: a function of the store's contents, not of its
   hashtable order, which differs after a warm restart. *)
let documents_by_domain store =
  let docs = ref [] in
  Store.iter
    (fun entry ->
      match entry.Store.tree with
      | None -> ()
      | Some tree ->
          let meta = entry.Store.meta in
          docs := (domain_of meta, meta.Xy_warehouse.Meta.url, tree) :: !docs)
    store;
  let order (d1, u1, _) (d2, u2, _) =
    match String.compare d1 d2 with 0 -> String.compare u1 u2 | c -> c
  in
  (* Walk the documents last to first, prepending. *)
  List.sort (fun a b -> order b a) !docs
  |> List.fold_left
       (fun groups (domain, url, tree) ->
         match groups with
         | (d, docs) :: rest when d = domain -> (d, (url, tree) :: docs) :: rest
         | _ -> (domain, [ (url, tree) ]) :: groups)
       []

let build_warehouse_view by_domain =
  List.map
    (fun (domain, docs) ->
      T.el domain (List.concat_map (fun (_, tree) -> spliced domain tree) docs))
    by_domain
  |> T.element "warehouse"

(* The trees are immutable, so every query until the next store
   mutation can share what is built from them.  Made at the first query
   of a tick and dropped when the tick ends. *)
let documents t =
  let count = Store.mutations t.store in
  match t.documents with
  | Some d when d.d_at = count -> d
  | Some _ | None ->
      let by_domain = lazy (documents_by_domain t.store) in
      let d =
        {
          d_at = count;
          d_by_domain = by_domain;
          d_view = lazy (build_warehouse_view (Lazy.force by_domain));
          d_views = Hashtbl.create 64;
        }
      in
      t.documents <- Some d;
      d

let warehouse_view t = Lazy.force (documents t).d_view

(* The warehouse view of one document of [domain], as
   [build_warehouse_view] splices it. *)
let document_view d ~domain url tree =
  match Hashtbl.find_opt d.d_views url with
  | Some view -> view
  | None ->
      let view = T.element "warehouse" [ T.el domain (spliced domain tree) ] in
      Hashtbl.replace d.d_views url view;
      view

(* A query that decomposes by document keeps each document's answer
   with the tree it was computed from, and re-evaluates only the
   documents whose stored tree is no longer physically that one (an
   unchanged load keeps the old tree); any other query is evaluated
   over the whole view. *)
let query_runner t query =
  let module Eval = Xy_query.Eval in
  match Eval.by_document query with
  | None -> fun () -> Eval.eval query (Eval.env (warehouse_view t))
  | Some domain ->
      let answers = ref (Hashtbl.create 0) in
      fun () ->
        let d = documents t in
        let previous = !answers and current = Hashtbl.create 256 in
        let answer (url, tree) =
          let nodes =
            match Hashtbl.find_opt previous url with
            | Some (answered, nodes) when answered == tree -> nodes
            | Some _ | None ->
                Eval.eval query (Eval.env (document_view d ~domain url tree))
          in
          Hashtbl.replace current url (tree, nodes);
          nodes
        in
        let docs = List.assoc_opt domain (Lazy.force d.d_by_domain) in
        let nodes = List.concat_map answer (Option.value ~default:[] docs) in
        answers := current;
        if query.Xy_query.Ast.distinct then Eval.distinct nodes else nodes

(* ------------------------------------------------------------------ *)
(* Durable plumbing.  Every durable stage is declared once, in
   [stage_table], which checkpoint sections, restore's decode, WAL
   replay and the journal hooks walk.  This module journals the
   system's own state (clock, step counter, warehouse loads). *)

let system_stage = "system"
let warehouse_stage = "warehouse"
let serve_stage = "serve" (* replay drops its ops when not serving *)

(* A delivery's wire (subscription, time, body).  The live sink tee and
   the replay of a serve [P] op both build it here, from the report's
   one print, so a restored pending store holds exactly the bytes the
   live one did. *)
let wire_report (d : Sink.delivery) = (d.subscription, d.at, Lazy.force d.printed)

let journal_op t ~stage encode =
  match t.durable with
  | None -> ()
  | Some d ->
      let buf = Buffer.create 64 in
      encode buf;
      Durable.journal d ~stage (Buffer.contents buf)

(* Commit the open transaction; when the reporter holds undelivered
   reports (from this transaction or from the sealed ones before it),
   sync the WAL *before* invoking the sinks (at-least-once: an intent
   is durable before its report leaves the system) and commit the
   acknowledgements right after.  A crawl batch calls it once, after
   its last document; the single-call entries once per call.  The sink
   runs only once every transaction carrying an intent is on disk, so
   a group-commit batch lost at a kill can only ever drop *whole*
   transactions, whose reports were never sent. *)
let commit_txn t =
  match t.durable with
  | None -> ()
  | Some d ->
      Durable.commit d;
      if Xy_reporter.Reporter.pending_count t.reporter > 0 then begin
        Durable.barrier d;
        ignore (Xy_reporter.Reporter.deliver_pending t.reporter);
        Durable.commit d
      end

(* A consultation of the [crash] fault point: a stage boundary the
   kill-at-any-point tests can die at.  The transaction in progress is
   discarded — exactly what a real kill would do to unflushed state. *)
let crash_point t label =
  if Fault.fire t.faults "crash" then begin
    Option.iter Durable.discard t.durable;
    Log.warn (fun m -> m "injected crash at %s" label);
    raise (Fault.Crash label)
  end

let journal_counters t =
  journal_op t ~stage:system_stage (fun buf ->
      let ms = Mqp.stats t.mqp in
      Codec.string buf "c";
      Codec.int buf t.alerts_sent;
      Codec.int buf ms.Mqp.alerts_processed;
      Codec.int buf ms.Mqp.notifications_emitted)

let encode_system t =
  let buf = Buffer.create 64 in
  Codec.float buf (Xy_util.Clock.now t.clock);
  Codec.int buf t.steps_done;
  Codec.bool buf t.mid_step;
  Codec.int buf t.alerts_sent;
  let ms = Mqp.stats t.mqp in
  Codec.int buf ms.Mqp.alerts_processed;
  Codec.int buf ms.Mqp.notifications_emitted;
  Buffer.contents buf

let decode_system t payload =
  let r = Codec.reader payload in
  Xy_util.Clock.set t.clock (Codec.read_float r);
  t.steps_done <- Codec.read_int r;
  t.mid_step <- Codec.read_bool r;
  t.alerts_sent <- Codec.read_int r;
  let alerts_processed = Codec.read_int r in
  let notifications_emitted = Codec.read_int r in
  Codec.expect_end r;
  Mqp.restore_counters t.mqp ~alerts_processed ~notifications_emitted

let apply_system_op t payload =
  let r = Codec.reader payload in
  (match Codec.read_string r with
  | "A" ->
      let seconds = Codec.read_float r in
      Xy_util.Clock.advance t.clock seconds;
      ignore (Xy_crawler.Synthetic_web.evolve t.web ~elapsed:seconds);
      t.mid_step <- true
  | "S" ->
      t.steps_done <- Codec.read_int r;
      Xy_util.Clock.set t.clock (Codec.read_float r);
      t.mid_step <- false
  | "c" ->
      t.alerts_sent <- Codec.read_int r;
      let alerts_processed = Codec.read_int r in
      let notifications_emitted = Codec.read_int r in
      Mqp.restore_counters t.mqp ~alerts_processed ~notifications_emitted
  | tag -> raise (Codec.Malformed ("unknown system op " ^ tag)));
  Codec.expect_end r

let kind_tag = function Loader.Xml -> 0 | Loader.Html -> 1 | Loader.Auto -> 2

let kind_of_tag = function
  | 0 -> Loader.Xml
  | 1 -> Loader.Html
  | 2 -> Loader.Auto
  | n -> raise (Codec.Malformed (Printf.sprintf "unknown content kind %d" n))

(* Warehouse ops replay through the Loader alone — no alerter chain,
   no MQP, no reporter: those stages replay their own journaled ops,
   so the restored pipeline cannot double-notify. *)
let apply_warehouse_op t payload =
  let r = Codec.reader payload in
  (match Codec.read_string r with
  | "L" ->
      let url = Codec.read_string r in
      let kind = kind_of_tag (Codec.read_int r) in
      let content = Codec.read_string r in
      let at = Codec.read_float r in
      Xy_util.Clock.set t.clock at;
      (try ignore (Loader.load t.loader ~url ~content ~kind)
       with Loader.Rejected _ -> ())
  | "X" ->
      let url = Codec.read_string r in
      let at = Codec.read_float r in
      Xy_util.Clock.set t.clock at;
      ignore (Loader.delete t.loader ~url)
  | "D" ->
      (* batch DOCID pre-allocation: replay in journal order keeps the
         numbering identical to the run that wrote it *)
      let url = Codec.read_string r in
      ignore (Store.allocate_docid t.store ~url)
  | tag -> raise (Codec.Malformed ("unknown warehouse op " ^ tag)));
  Codec.expect_end r

(* The metrics themselves are durable state: the cumulative counters
   and histograms ride the checkpoint, so a warm restart's [/metrics]
   series keep climbing instead of resetting — scrape deltas stay
   meaningful.  Encoded from a live snapshot; decoded by folding the
   values back into the (fresh) registry via {!Obs.absorb}. *)
let encode_obs t =
  let s = Obs.snapshot t.obs in
  let buf = Buffer.create 512 in
  Codec.list buf
    (fun buf (e : Obs.Snapshot.entry) ->
      Codec.string buf e.Obs.Snapshot.stage;
      Codec.string buf e.Obs.Snapshot.name;
      match e.Obs.Snapshot.value with
      | Obs.Snapshot.Counter n ->
          Codec.int buf 0;
          Codec.int buf n
      | Obs.Snapshot.Gauge v ->
          Codec.int buf 1;
          Codec.float buf v
      | Obs.Snapshot.Histogram h ->
          Codec.int buf 2;
          Codec.list buf
            (fun buf (i, c) ->
              Codec.int buf i;
              Codec.int buf c)
            h.Obs.Snapshot.counts;
          Codec.float buf h.Obs.Snapshot.sum;
          Codec.float buf h.Obs.Snapshot.min_value;
          Codec.float buf h.Obs.Snapshot.max_value)
    s.Obs.Snapshot.entries;
  Buffer.contents buf

let decode_obs t payload =
  let r = Codec.reader payload in
  let entries =
    Codec.read_list r (fun r ->
        let stage = Codec.read_string r in
        let name = Codec.read_string r in
        let value =
          match Codec.read_int r with
          | 0 -> Obs.Snapshot.Counter (Codec.read_int r)
          | 1 -> Obs.Snapshot.Gauge (Codec.read_float r)
          | 2 ->
              (* non-empty buckets in ascending order, inside the layout *)
              let last = ref (-1) in
              let counts =
                Codec.read_list r (fun r ->
                    let i = Codec.read_int r in
                    let c = Codec.read_int r in
                    if i <= !last || i >= Obs.Snapshot.buckets || c <= 0 then
                      raise (Codec.Malformed "bad histogram bucket");
                    last := i;
                    (i, c))
              in
              let sum = Codec.read_float r in
              let min_value = Codec.read_float r in
              let max_value = Codec.read_float r in
              let count = List.fold_left (fun n (_, c) -> n + c) 0 counts in
              Obs.Snapshot.Histogram
                { Obs.Snapshot.counts; count; sum; min_value; max_value }
          | k -> raise (Codec.Malformed (Printf.sprintf "unknown metric kind %d" k))
        in
        { Obs.Snapshot.stage; name; value })
  in
  Codec.expect_end r;
  Obs.absorb t.obs { Obs.Snapshot.at = neg_infinity; entries }

(* What a stage module offers to be journaled through a hook. *)
module type Journaled = sig
  type t
  val encode_snapshot : t -> string
  val decode_snapshot : t -> string -> unit
  val apply_op : t -> string -> unit
  val set_journal : t -> (string -> unit) option -> unit
end

(* The durable stages in snapshot order, which restore also decodes
   in.  A stage without [apply_op] (the web, re-evolved by the
   journaled advance; the metrics, which move under every transaction)
   journals nothing; every checkpoint re-encodes it.

   Only the reporter is WAL-carried: it is the one stage whose payload
   grows with the subscription population (per-sub report frames),
   whose re-encoding would stall checkpoints at 10^5 subs.  The web
   must not be (it moves without ops), nor the queue (restore's
   re-arming mutates it outside the journal). *)
let stage_table t =
  let stage ?apply_op ?(attach = ignore) ?(wal_carried = false) name encode
      decode =
    { name; encode; decode; apply_op; attach; wal_carried }
  in
  let journaled (type a) name (module M : Journaled with type t = a) (x : a) =
    stage name
      (fun () -> [ M.encode_snapshot x ])
      (M.decode_snapshot x) ~apply_op:(M.apply_op x)
      ~attach:(fun j -> M.set_journal x (Some j))
  in
  let module Web = Xy_crawler.Synthetic_web in
  let module Reporter = Xy_reporter.Reporter in
  [
    stage system_stage
      (fun () -> [ encode_system t ])
      (decode_system t) ~apply_op:(apply_system_op t);
    stage "obs" (fun () -> [ encode_obs t ]) (decode_obs t);
    journaled "fault" (module Fault) t.faults;
    stage "web"
      (fun () -> [ Web.encode_snapshot t.web ])
      (Web.decode_snapshot t.web);
    (* The warehouse and the reporter hand over pieces: per-document
       fields and cached prints, per-subscription frames around cached
       notification encodings. *)
    stage warehouse_stage
      (fun () -> Store.snapshot_pieces t.store)
      (Store.decode_snapshot t.store) ~apply_op:(apply_warehouse_op t);
    journaled "queue" (module Xy_crawler.Fetch_queue) t.queue;
    journaled "crawler" (module Xy_crawler.Crawler) t.crawler;
    journaled "trigger" (module Xy_trigger.Trigger_engine) t.trigger;
    (* The reporter's commit hook is also a sync barrier: it syncs an
       unregistration's op before the subscription log moves on.  The
       fire path defers sink invocation to [commit_txn], which syncs
       the intents before it delivers them. *)
    stage "reporter" ~wal_carried:true
      (fun () -> Reporter.snapshot_pieces t.reporter)
      (Reporter.decode_snapshot t.reporter)
      ~apply_op:(Reporter.apply_op t.reporter)
      ~attach:(fun j ->
        Reporter.set_persistence t.reporter ~journal:(Some j)
          ~commit:
            (Option.map
               (fun d () ->
                 Durable.commit d;
                 Durable.barrier d)
               t.durable));
  ]
  @
  (* the wire pending store: report enqueues and client acks journal
     as ops; an enqueue's report is replayed from the reporter's
     intent for its seq *)
  match t.serve with
  | None -> []
  | Some s ->
      let intent seq =
        Option.map wire_report (Reporter.pending_delivery t.reporter ~seq)
      in
      [
        stage serve_stage
          (fun () -> [ Serve.encode_snapshot s ])
          (Serve.decode_snapshot s) ~apply_op:(Serve.apply_op s ~intent)
          ~attach:(fun j -> Serve.set_journal s (Some j));
      ]

let snapshot_sections t = List.map (fun s -> (s.name, s.encode)) t.stages

let apply_replay_op t { Durable.stage; payload } =
  match List.find_opt (fun s -> s.name = stage) t.stages with
  | Some { apply_op = Some apply; _ } -> apply payload
  | None when stage = serve_stage -> () (* restored without a serving surface *)
  | Some { apply_op = None; _ } | None ->
      raise (Codec.Malformed ("no ops expected from stage " ^ stage))

(* ------------------------------------------------------------------ *)

let make ?(seed = 1) ?algorithm ?sink ?web ?obs ?tracer ?fault_plan ?slos
    ?(parallel = Parallel.default_config) ?serve_config ~durable () =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  (* The failure schedule shares the system seed: one (seed, spec)
     pair pins the whole run, faults included.  A durable system
     always carries a real injector (even with an empty spec): the
     [crash] point and the restored fault streams must never live in
     the shared {!Fault.none}. *)
  (* The wire points live in their own injector: the serving surface
     draws from it on connection threads, outside the pipeline's
     journal discipline (the network is external state — a restore
     restarts wire schedules from the seed).  Splitting the plan also
     keeps the pipeline points' per-point streams byte-identical
     whether or not network chaos is armed. *)
  let wire_spec, pipeline_spec =
    match fault_plan with
    | None -> ([], [])
    | Some spec ->
        List.partition (fun (p, _) -> List.mem p Fault.wire_points) spec
  in
  let faults =
    match pipeline_spec with
    | [] -> if durable = None then Fault.none else Fault.create ~obs ~seed []
    | spec -> Fault.create ~obs ~seed spec
  in
  let wire_faults =
    match wire_spec with [] -> Fault.none | spec -> Fault.create ~obs ~seed spec
  in
  (match (wire_spec, serve_config) with
  | _ :: _, None ->
      Log.warn (fun m ->
          m
            "fault plan arms wire points (%s) but no serving surface is \
             configured; they will never fire"
            (String.concat ", " (List.map fst wire_spec)))
  | _ -> ());
  let clock = Xy_util.Clock.create () in
  let tracer =
    match tracer with Some tr -> tr | None -> Trace.create ~seed ()
  in
  (* Span virtual timestamps follow this system's simulation clock. *)
  Trace.set_virtual_clock tracer (fun () -> Xy_util.Clock.now clock);
  let registry = Xy_events.Registry.create () in
  let mqp = Mqp.create ?algorithm ~obs () in
  let sink = match sink with Some s -> s | None -> Xy_reporter.Sink.null () in
  (* The wire path rides the normal sink slot: deliveries tee into the
     serving surface, which journals them into its pending store and
     streams them to whichever client has claimed the recipient. *)
  let serve =
    Option.map
      (fun c -> Serve.create ~obs ~faults:wire_faults ~config:c ())
      serve_config
  in
  let sink =
    match serve with
    | None -> sink
    | Some s ->
        Sink.tee sink
          {
            Sink.deliver =
              (fun d ->
                let subscription, at, body = wire_report d in
                Serve.deliver s ~seq:d.Sink.seq ~recipient:d.Sink.recipient
                  ~subscription ~at ~body);
          }
  in
  let reporter = Xy_reporter.Reporter.create ~obs ~clock ~sink () in
  let trigger = Xy_trigger.Trigger_engine.create ~obs ~clock () in
  let store = Store.create () in
  let domains = default_domains () in
  let loader = Loader.create ~domains ~obs ~store ~clock () in
  let chain = Chain.create ~obs registry in
  let web =
    match web with
    | Some w -> w
    | None -> Xy_crawler.Synthetic_web.generate ~seed ~sites:4 ~pages_per_site:5 ()
  in
  let queue = Xy_crawler.Fetch_queue.create ~obs ~clock () in
  let crawler =
    Xy_crawler.Crawler.create ~obs ~tracer ~faults ~clock ~web ~queue ()
  in
  (* The durable directory owns the subscription log. *)
  let persist =
    Option.map
      (fun d -> Record_log.open_log ~faults (Durable.subscription_log_path d))
      durable
  in
  let t =
    {
      obs;
      tracer;
      faults;
      wire_faults;
      clock;
      registry;
      mqp;
      reporter;
      trigger;
      store;
      domains;
      loader;
      chain;
      web;
      queue;
      crawler;
      manager = None;
      alerts_sent = 0;
      durable;
      stages = [];
      steps_done = 0;
      mid_step = false;
      m_ingested = Obs.counter obs ~stage:"system" "ingested";
      m_ingest_latency = Obs.histogram obs ~stage:"system" "ingest_latency";
      m_quarantined = Obs.counter obs ~stage:"fault" "quarantined";
      m_restarts = Obs.counter obs ~stage:"system" "restarts";
      slo =
        (match slos with
        | None | Some [] -> None
        | Some objectives -> Some (Slo.create objectives));
      slo_breached = Hashtbl.create 8;
      parallel;
      worker_ctxs =
        lazy
          (Array.init (Parallel.workers parallel) (fun _ ->
               {
                 wc_loader = Loader.create ~domains ~obs ~store ~clock ();
                 wc_chain = Chain.create ~obs registry;
               }));
      subsets = None;
      documents = None;
      serve;
    }
  in
  t.stages <- stage_table t;
  (* Durability timings land in the same registry as the pipeline
     stages; restore's closing checkpoint keeps the WAL chains of the
     WAL-carried stages. *)
  Option.iter
    (fun d ->
      Durable.set_obs d obs;
      Durable.set_wal_carried d
        (List.filter_map
           (fun s -> if s.wal_carried then Some s.name else None)
           t.stages))
    durable;
  let manager =
    Manager.create ?persist ~obs ~clock ~registry ~mqp ~trigger ~reporter
      ~runner:(query_runner t) ()
  in
  t.manager <- Some manager;
  t

(* The configurations [create] and [restore] share, before either
   touches the directory. *)
let prepare ?serve_port ?serve_config ?sync_every () =
  let d = Durable.default_config in
  ( (match serve_port with
    | Some port when Option.is_none serve_config -> Some (Serve.config ~port ())
    | _ -> serve_config),
    {
      Durable.sync_every = Option.value ~default:d.Durable.sync_every sync_every;
    } )

let obs t = t.obs
let tracer t = t.tracer
let faults t = t.faults
let wire_faults t = t.wire_faults
let clock t = t.clock
let registry t = t.registry
let mqp t = t.mqp
let reporter t = t.reporter
let trigger t = t.trigger
let manager t = Option.get t.manager
let store t = t.store
let loader t = t.loader
let domains t = t.domains
let chain t = t.chain
let web t = t.web
let queue t = t.queue
let steps_done t = t.steps_done
let restarts t = Obs.Counter.value t.m_restarts
let durable_dir t = Option.map Durable.dir t.durable

(* Boosts only tighten a ceiling, so the ceilings of a departing or
   replaced text ([withdrawn]) are lifted first; then every live
   subscription re-asserts what it still demands. *)
let apply_refresh_statements ?(withdrawn = []) t =
  List.iter
    (fun (url, _period) -> Xy_crawler.Fetch_queue.reset_ceiling t.queue ~url)
    withdrawn;
  List.iter
    (fun (url, period) -> Xy_crawler.Fetch_queue.boost t.queue ~url ~period)
    (Manager.refresh_statements (manager t))

let subscribe t ~owner ~text =
  let result = Manager.subscribe (manager t) ~owner ~text in
  (match result with
  | Ok name ->
      Log.info (fun m -> m "subscribed %s (owner %s)" name owner);
      apply_refresh_statements t;
      commit_txn t
  | Error e ->
      Log.warn (fun m -> m "subscription rejected: %s" (Manager.error_to_string e)));
  result

let unsubscribe t ~name =
  (* Capture the departing subscription's refresh clauses first: its
     ceiling contributions must be withdrawn, not leak into the
     refresh schedule forever. *)
  let refresh = Manager.subscription_refresh (manager t) ~name in
  match Manager.unsubscribe (manager t) ~name with
  | Error _ as e -> e
  | Ok () ->
      apply_refresh_statements ~withdrawn:refresh t;
      commit_txn t;
      Ok ()

(* ------------------------------------------------------------------ *)
(* Serving surface.  The server state (pending store, metrics) is
   built in [make] so restore can replay journaled deliveries into it;
   the socket only opens here, once the manager exists to back the
   protocol's mutations. *)

let serve t = t.serve

let serve_listen t =
  match t.serve with
  | None -> ()
  | Some s ->
      Serve.listen s
        ~callbacks:
          {
            Serve.cb_subscribe =
              (fun ~owner ~text ->
                match subscribe t ~owner ~text with
                | Ok name -> Ok name
                | Error e -> Error (Manager.error_to_string e));
            cb_unsubscribe =
              (fun name ->
                match unsubscribe t ~name with
                | Ok () -> Ok ()
                | Error e -> Error (Manager.error_to_string e));
            cb_status =
              (fun () -> Obs.Snapshot.to_xml_string (Obs.snapshot t.obs));
          }

(* Apply queued wire mutations (SUBSCRIBE/UNSUBSCRIBE/ACK) on the
   pipeline thread — the manager, MQP and journal are not thread-safe,
   so connection threads only ever enqueue.  Called between steps by
   [advance]/[crawl_step]; exposed for driving a server outside a
   run loop. *)
let serve_pump t =
  match t.serve with
  | None -> 0
  | Some s ->
      let span name f =
        let ctx = Trace.start t.tracer ~root:"serve" in
        Trace.wrap ctx ~stage:"serve" ~name f;
        Option.iter (fun c -> Trace.finish c) ctx
      in
      let n = Serve.pump ~span s in
      if n > 0 then commit_txn t;
      n

let stop_serve ?drain t = Option.iter (Serve.stop ?drain) t.serve

(* The last steps of [create] and [restore]: the journal hooks go on,
   committed but unacked delivery intents are re-sent, at least once
   (the wire's pending store, restored already, dedups them by seq),
   their acks are committed and synced, and only then does the socket
   open.  Returns the number re-sent. *)
let start t =
  Option.iter
    (fun d ->
      List.iter (fun s -> s.attach (Durable.journal d ~stage:s.name)) t.stages;
      (* every checkpoint boundary and every wire delivery boundary is
         a crash window the matrix tests can kill inside *)
      Durable.set_fuse d (fun label -> crash_point t ("durable:" ^ label));
      Option.iter
        (fun s ->
          Serve.set_fuse s (Some (fun label -> crash_point t ("serve:" ^ label))))
        t.serve)
    t.durable;
  let redelivered = Xy_reporter.Reporter.deliver_pending t.reporter in
  if redelivered > 0 then
    Option.iter
      (fun d ->
        Durable.commit d;
        Durable.barrier d)
      t.durable;
  serve_listen t;
  redelivered

let create ?seed ?algorithm ?sink ?web ?obs ?tracer ?fault_plan ?slos ?parallel
    ?serve_port ?serve_config ?durable_dir ?sync_every () =
  let serve_config, config = prepare ?serve_port ?serve_config ?sync_every () in
  let durable = Option.map (Durable.open_fresh ~config) durable_dir in
  let t =
    make ?seed ?algorithm ?sink ?web ?obs ?tracer ?fault_plan ?slos ?parallel
      ?serve_config ~durable ()
  in
  ignore (start t);
  t

let update t ~name ~owner ~text =
  (* As in [unsubscribe], the replaced text's ceilings are withdrawn. *)
  let refresh = Manager.subscription_refresh (manager t) ~name in
  let result = Manager.update (manager t) ~name ~owner ~text in
  (match result with
  | Ok () ->
      apply_refresh_statements ~withdrawn:refresh t;
      commit_txn t
  | Error _ -> ());
  result

type ingest_outcome = {
  status : Loader.status;
  alerted : bool;
  matched : int list;
}

(* ------------------------------------------------------------------ *)
(* The per-document path.  Every document, whether it comes through
   [ingest], [ingest_missing], the serial batch loop or the parallel
   engine, takes the same two steps around its match:

   - [load_doc]: [Loader.load] (or [Loader.delete] for a page that
     disappeared), then the alerter chain.  It touches only the
     (internally locked) store and the loader and chain it is handed,
     so it runs on the system's own pair or on a loader domain's.
   - [apply_doc]: every effect on serial state (the warehouse journal
     op, the [system] counters, quarantine, MQP dispatch, the
     crawler's [conclude]), on the system's own domain.

   The match in between ([Mqp.match_alert]) runs inline or on a pool
   worker. *)

type batch_doc = {
  bd_url : string;
  bd_content : string option;  (** [None]: the page disappeared *)
  bd_kind : Loader.content_kind;
  bd_trace : Trace.ctx option;
  bd_birth : float option;
}

type loaded =
  | Loaded of Loader.status * Mqp.alert option
  | Deleted of Mqp.alert option  (** a warehoused page disappeared *)
  | Absent  (** a page disappeared that was never warehoused *)
  | Quarantined of string  (** the loader rejected the content *)

let alert_of = function
  | Loaded (_, alert) | Deleted alert -> alert
  | Absent | Quarantined _ -> None

let mqp_alert ?trace ?birth (alert : Alert.t) =
  {
    Mqp.url = alert.Alert.url;
    events = alert.Alert.events;
    payload = Alert.payload_string alert;
    trace;
    birth;
  }

(* Also returns the seconds spent loading and detecting.  Never raises
   [Loader.Rejected]: a rejection is the [Quarantined] outcome. *)
let load_doc t ~loader ~chain d =
  let t0 = Obs.now () in
  let loaded =
    match d.bd_content with
    | None -> (
        let tree =
          Option.bind (Store.find t.store d.bd_url) (fun e -> e.Store.tree)
        in
        match Loader.delete loader ~url:d.bd_url with
        | None -> Absent
        | Some meta ->
            Deleted
              (Option.map
                 (mqp_alert ?trace:d.bd_trace)
                 (Chain.process_deleted ?trace:d.bd_trace chain ~meta ~tree)))
    | Some content -> (
        match
          Trace.wrap d.bd_trace ~stage:"warehouse" ~name:"load" @@ fun () ->
          Loader.load loader ~url:d.bd_url ~content ~kind:d.bd_kind
        with
        | exception Loader.Rejected reason -> Quarantined reason
        | result ->
            Loaded
              ( result.Loader.status,
                Option.map
                  (mqp_alert ?trace:d.bd_trace ?birth:d.bd_birth)
                  (Chain.process ?trace:d.bd_trace chain ~result ~content) ))
  in
  (loaded, Obs.now () -. t0)

(* [matched] is the match and its latency when [loaded] carries an
   alert.  The load op is journaled before the dispatch's reporter
   ops: replay re-applies it through the Loader alone, and
   notifications and reports replay from their own journaled ops,
   never re-derived, so a restore cannot double-notify. *)
let apply_doc t ~conclude d loaded ~busy matched =
  let dispatch alert =
    match (alert, matched) with
    | Some alert, Some (ids, latency) ->
        t.alerts_sent <- t.alerts_sent + 1;
        ignore (Mqp.dispatch_matched t.mqp alert ~matched:ids ~latency);
        journal_counters t;
        if ids <> [] then
          Log.debug (fun m ->
              m "%s matched %d complex event(s)" d.bd_url (List.length ids))
    | _ -> ()
  in
  let conclude_fetch ~changed =
    if conclude then Xy_crawler.Crawler.conclude t.crawler ~url:d.bd_url ~changed
  in
  match loaded with
  | Absent -> ()
  | Deleted alert ->
      journal_op t ~stage:warehouse_stage (fun buf ->
          Codec.string buf "X";
          Codec.string buf d.bd_url;
          Codec.float buf (Xy_util.Clock.now t.clock));
      dispatch alert
  | Quarantined reason ->
      (* Unparseable documents are quarantined, not fatal: the
         rejection is counted, logged and the crawl goes on, so a
         corrupted page cannot take the pipeline down. *)
      Obs.Counter.incr t.m_quarantined;
      Log.warn (fun m -> m "quarantined %s: %s" d.bd_url reason);
      conclude_fetch ~changed:true
  | Loaded (status, alert) ->
      Obs.Counter.incr t.m_ingested;
      Obs.Histogram.observe t.m_ingest_latency
        (busy +. match matched with Some (_, latency) -> latency | None -> 0.);
      journal_op t ~stage:warehouse_stage (fun buf ->
          Codec.string buf "L";
          Codec.string buf d.bd_url;
          Codec.int buf (kind_tag d.bd_kind);
          Codec.string buf (Option.get d.bd_content);
          Codec.float buf (Xy_util.Clock.now t.clock));
      dispatch alert;
      conclude_fetch ~changed:(status <> Loader.Unchanged)

(* One document on the system's own loader, chain and matcher. *)
let ingest_doc t ~conclude d =
  let loaded, busy = load_doc t ~loader:t.loader ~chain:t.chain d in
  let matched = Option.map (Mqp.match_alert t.mqp) (alert_of loaded) in
  apply_doc t ~conclude d loaded ~busy matched;
  (loaded, matched)

(* [ingest] inside the caller's transaction: [advance] injects its
   documents this way, so it stays one transaction (replay relies on
   its leading [A] op). *)
let ingest_in_txn ?trace ?birth t ~url ~content ~kind =
  match
    ingest_doc t ~conclude:false
      { bd_url = url; bd_content = Some content; bd_kind = kind;
        bd_trace = trace; bd_birth = birth }
  with
  | Loaded (status, alert), matched ->
      { status; alerted = alert <> None;
        matched = Option.fold ~none:[] ~some:fst matched }
  | Quarantined reason, _ -> raise (Loader.Rejected reason)
  | (Deleted _ | Absent), _ -> assert false (* the page has content *)

(* The public entries commit, as [subscribe] does: an immediate
   report is delivered before the call returns. *)
let ingest ?trace ?birth t ~url ~content ~kind =
  let outcome = ingest_in_txn ?trace ?birth t ~url ~content ~kind in
  commit_txn t;
  outcome

let ingest_missing ?trace t ~url =
  ignore
    (ingest_doc t ~conclude:false
       { bd_url = url; bd_content = None; bd_kind = Loader.Auto;
         bd_trace = trace; bd_birth = None });
  commit_txn t

(* ------------------------------------------------------------------ *)
(* Batch ingestion: the crawl → match → report pipeline.

   One crawl step's fetches are processed as a batch.  With
   [parallel.domains <= 1] the batch runs through [ingest_doc] one
   document at a time; otherwise it fans out over {!Parallel}: pool
   workers run [load_doc] and the match, and this domain — the single
   owner of journal, reporter and trigger state — runs [apply_doc]
   strictly in batch order, so both modes emit the same notifications
   in the same order and journal the same ops. *)

(* The subscription axis's subsets, split again only once the
   subscription set has changed. *)
let subscription_subsets t =
  let epoch = Mqp.mutations t.mqp in
  match t.subsets with
  | Some (at, subsets) when at = epoch -> subsets
  | _ ->
      let subsets = Mqp.split t.mqp ~parts:t.parallel.Parallel.shards in
      t.subsets <- Some (epoch, subsets);
      subsets

(* A document's synchronous journey ends with its transaction, sealed
   into the group-commit batch without a sync: the reports it fired
   wait among the reporter's pending deliveries for the batch's one
   barrier in [process_batch].
   Reports held back by buffering fire from [tick] without
   attribution. *)
let finish_doc t d =
  Option.iter Trace.finish d.bd_trace;
  Option.iter Durable.commit t.durable

let process_batch t ~conclude docs =
  (* DOCID pre-pass, in batch order on this domain: numbering must not
     depend on which loader domain finishes first (the id is embedded
     in alert payloads), so fresh URLs allocate — and journal — before
     anything fans out.  Both modes run it, so serial and parallel
     runs of one batch number identically. *)
  List.iter
    (fun d ->
      match d.bd_content with
      | Some _ when not (Store.has_docid t.store ~url:d.bd_url) ->
          ignore (Store.allocate_docid t.store ~url:d.bd_url);
          journal_op t ~stage:warehouse_stage (fun buf ->
              Codec.string buf "D";
              Codec.string buf d.bd_url)
      | _ -> ())
    docs;
  commit_txn t;
  let config = t.parallel in
  if config.Parallel.domains <= 1 || docs = [] then
    List.iter
      (fun d ->
        crash_point t ("ingest:" ^ d.bd_url);
        ignore (ingest_doc t ~conclude d);
        finish_doc t d)
      docs
  else begin
    let docs = Array.of_list docs in
    (* Worker-death draws happen here, serially: [Fault.fire] counts
       and journals at draw time and neither is multi-domain safe.
       The kill flag rides the document to its worker instead. *)
    let kill = Array.map (fun _ -> Fault.fire t.faults "worker") docs in
    let ctxs = Lazy.force t.worker_ctxs in
    (* Read-only from every worker: the one subscription set, or the
       subscription axis's subsets, matched in turn and merged. *)
    let matchers =
      match config.Parallel.axis with
      | Parallel.By_documents -> [| t.mqp |]
      | Parallel.By_subscriptions -> subscription_subsets t
    in
    let match_alert alert =
      let partials, latency =
        Array.fold_left
          (fun (partials, latency) mqp ->
            let ids, l = Mqp.match_alert mqp alert in
            (ids :: partials, latency +. l))
          ([], 0.) matchers
      in
      match partials with
      | [ ids ] -> (ids, latency)
      | partials -> (List.sort_uniq Int.compare (List.concat partials), latency)
    in
    let worker ~slot d =
      let ctx = ctxs.(slot) in
      let loaded, busy = load_doc t ~loader:ctx.wc_loader ~chain:ctx.wc_chain d in
      (loaded, busy, Option.map match_alert (alert_of loaded))
    in
    let drain idx (loaded, busy, matched) =
      let d = docs.(idx) in
      crash_point t ("ingest:" ^ d.bd_url);
      apply_doc t ~conclude d loaded ~busy matched;
      finish_doc t d
    in
    Parallel.run config ~obs:t.obs ~docs ~kill
      ~url_of:(fun d -> d.bd_url)
      ~trace_of:(fun d -> d.bd_trace)
      ~worker ~drain ()
  end;
  (* the batch's one barrier: every document's transaction is synced
     before any of the batch's reports reaches a sink *)
  commit_txn t

(* Public batch entry (bench, tests): the crawler is not involved, so
   fetched-state bookkeeping ([conclude]) is skipped. *)
let ingest_batch t docs = process_batch t ~conclude:false docs

(* Evaluate the SLO objectives against the live metrics and ingest an
   SLO document for every objective whose status flipped (first
   evaluation included).  The document rides the ordinary pipeline —
   subscriptions on [xyleme://self/slo/] do the actual alerting — and
   the ingest journals like any other, so replay needs no SLO logic.
   Engine window state itself is in-memory only: a restored run
   re-fills its windows from the carried cumulative metrics. *)
let evaluate_slos t =
  match t.slo with
  | None -> ()
  | Some engine ->
      let now = Xy_util.Clock.now t.clock in
      let reports = Slo.tick engine ~now (Obs.snapshot t.obs) in
      List.iter
        (fun (r : Slo.report) ->
          let name = r.Slo.r_objective.Slo.o_name in
          if Hashtbl.find_opt t.slo_breached name <> Some r.Slo.r_breached
          then begin
            Hashtbl.replace t.slo_breached name r.Slo.r_breached;
            if r.Slo.r_breached then
              Log.warn (fun m ->
                  m "SLO %s breached: fast burn %.2f, slow burn %.2f" name
                    r.Slo.r_fast_burn r.Slo.r_slow_burn)
            else Log.info (fun m -> m "SLO %s ok" name);
            ignore
              (ingest_in_txn t ~url:(Self_monitor.slo_url name)
                 ~content:(Self_monitor.slo_content r)
                 ~kind:Loader.Xml)
          end)
        reports

let slo_reports t =
  match t.slo with None -> [] | Some engine -> Slo.reports engine

let discover t = Xy_crawler.Crawler.discover t.crawler

(* One crawl step, decomposed into transactions so that a kill at any
   boundary loses at most the unit in progress and the unsynced
   group-commit batch, whole transactions either way:

   - the pop is one transaction (a batch marked in-flight atomically);
   - each fetch is one transaction (failure handling included);
   - each ingest (load + notifications + conclude) is one transaction;
     the batch syncs once, after its last document, and only then
     hands its reports to the sinks;
   - the closing step marker is one transaction.

   Documents fetched but not yet ingested at the kill, or ingested in
   a transaction the kill lost, are re-queued by restore at their
   original deadline ([rearm_in_flight]) — a crash can delay a page's
   processing, never lose it. *)
let crawl_step t ~limit =
  crash_point t "crawl-start";
  let urls = Xy_crawler.Fetch_queue.pop_due t.queue ~limit in
  commit_txn t;
  let fetches =
    List.filter_map
      (fun url ->
        crash_point t ("fetch:" ^ url);
        let fetch = Xy_crawler.Crawler.fetch_one t.crawler ~url in
        commit_txn t;
        fetch)
      urls
  in
  let docs =
    List.map
      (fun fetch ->
        {
          bd_url = fetch.Xy_crawler.Crawler.url;
          bd_content = fetch.Xy_crawler.Crawler.content;
          bd_kind =
            (match fetch.Xy_crawler.Crawler.kind with
            | Some Xy_crawler.Synthetic_web.Xml_page -> Loader.Xml
            | Some Xy_crawler.Synthetic_web.Html_page -> Loader.Html
            | None -> Loader.Auto);
          bd_trace = fetch.Xy_crawler.Crawler.trace;
          bd_birth = fetch.Xy_crawler.Crawler.birth;
        })
      fetches
  in
  process_batch t ~conclude:true docs;
  crash_point t "step-end";
  (* the staleness watermark reflects what this step left undetected *)
  Xy_crawler.Crawler.update_watermark t.crawler;
  t.steps_done <- t.steps_done + 1;
  t.mid_step <- false;
  journal_op t ~stage:system_stage (fun buf ->
      Codec.string buf "S";
      Codec.int buf t.steps_done;
      Codec.float buf (Xy_util.Clock.now t.clock));
  commit_txn t;
  (* drain client acks promptly so delivery windows reopen between
     steps, not only at the next advance *)
  ignore (serve_pump t);
  List.length fetches

let advance t ~seconds =
  (* wire mutations queued since the last step land before the clock
     moves, so a SUBSCRIBE acknowledged over the wire is armed for the
     very next tick *)
  ignore (serve_pump t);
  crash_point t "advance";
  (* The [A] op leads the transaction: replay advances the clock and
     re-evolves the web (its PRNG stream position is part of the
     snapshot, so the draws repeat exactly) before applying the tick
     effects journaled after it. *)
  journal_op t ~stage:system_stage (fun buf ->
      Codec.string buf "A";
      Codec.float buf seconds);
  Xy_util.Clock.advance t.clock seconds;
  ignore (Xy_crawler.Synthetic_web.evolve t.web ~elapsed:seconds);
  (* newly born pages become crawlable *)
  discover t;
  (* ages the oldest still-undetected change just produced *)
  Xy_crawler.Crawler.update_watermark t.crawler;
  Xy_trigger.Trigger_engine.tick t.trigger;
  t.documents <- None;
  Xy_reporter.Reporter.tick t.reporter;
  evaluate_slos t;
  t.mid_step <- true;
  commit_txn t

(* ------------------------------------------------------------------ *)
(* Checkpoint & restore *)

type checkpoint_info = { generation : int; compacted_records : int }

(* Every checkpoint, restore's closing one included, then keeps the
   subscription log in check: it is rewritten to what a replay
   installs once the records superseded since its last rewrite (an
   unsubscribe's delete and the insert it cancels; an update is one
   of these) number at least its live subscriptions.  A rewrite thus
   drops at least as many records as it keeps, and an insert-only log
   is never rewritten.  A rewrite that cannot run (a dead handle, a
   log that does not scan clean, a failed write) leaves the log as it
   was, and the checkpoint stands.  Returns the records dropped. *)
let checkpoint_durable t d =
  Durable.checkpoint d ~snapshot:(snapshot_sections t);
  let m = manager t in
  let superseded = Manager.superseded_records m in
  if superseded > 0 && superseded >= Manager.subscription_count m then
    Option.value ~default:0 (Manager.rewrite_log m)
  else 0

let checkpoint t =
  match t.durable with
  | None -> invalid_arg "Xyleme.checkpoint: created without ~durable_dir"
  | Some d ->
      let compacted_records = checkpoint_durable t d in
      { generation = Durable.generation d; compacted_records }

(* The one stepping loop.  It is driven by the journaled position, so
   a restored system picks up exactly where the killed one stopped: a
   committed advance is not repeated ([mid_step]), completed steps are
   not re-crawled ([steps_done]).  [between] runs after every step and
   ends the run early by answering [false]. *)
let run ?(checkpoint_every = 0) ?(between = fun () -> true) t ~days ~step
    ~fetch_limit =
  discover t;
  let steps =
    if days = infinity then max_int
    else int_of_float (ceil (days *. 86400. /. step))
  in
  let rec loop () =
    if t.steps_done < steps then begin
      if not t.mid_step then advance t ~seconds:step;
      ignore (crawl_step t ~limit:fetch_limit);
      if
        checkpoint_every > 0
        && t.steps_done mod checkpoint_every = 0
        && t.durable <> None
      then ignore (checkpoint t);
      if between () then loop ()
    end
  in
  loop ();
  (* An orderly end applies the wire acks that arrived during the last
     step and must not leave the last group-commit batch sitting in
     memory: a restore of this directory would miss it. *)
  ignore (serve_pump t);
  Option.iter Durable.barrier t.durable

type restore_info = {
  generation : int;
  subscriptions_recovered : int;
  txns_replayed : int;
  wal_tail : Durable.tail;
  requeued_fetches : int;
  redelivered_reports : int;
}

let restore ?seed ?algorithm ?sink ?web ?obs ?tracer ?fault_plan ?slos
    ?parallel ?serve_port ?serve_config ?sync_every ~dir () =
  let serve_config, config = prepare ?serve_port ?serve_config ?sync_every () in
  let manifest = Filename.concat dir "MANIFEST" in
  match Durable.open_existing ~config dir with
  | None when Record_log.older_format manifest ->
      Error
        (Printf.sprintf
           "%s was written by an older build: its records are in the older \
            record format (X header, FNV-1a checksum), which this build \
            does not read"
           dir)
  | None when Sys.file_exists manifest ->
      Error (Printf.sprintf "damaged MANIFEST in %s" dir)
  | None -> Error (Printf.sprintf "no durable run in %s (missing MANIFEST)" dir)
  | Some d -> (
      match Durable.load_latest d with
      | Error e -> Error e
      | Ok (sections, txns, wal_tail) -> (
          let t =
            make ?seed ?algorithm ?sink ?web ?obs ?tracer ?fault_plan ?slos
              ?parallel ?serve_config ~durable:(Some d) ()
          in
          (* 1. Structure: replay the subscription log.  This rebuilds
             specs, recipients, triggers, atomic/complex events — at
             the recovery clock, so dynamic timing state is wrong
             until the snapshot overrides it. *)
          let subscriptions_recovered =
            Manager.recover (manager t) (Durable.subscription_log_path d)
          in
          match
            (* 2. State: the snapshot's sections, then 3. the WAL's
               committed transactions, in commit order. *)
            List.iter
              (fun s ->
                Option.iter s.decode (List.assoc_opt s.name sections))
              t.stages;
            List.iter (List.iter (apply_replay_op t)) txns
          with
          | exception Codec.Malformed m ->
              Error ("damaged durable state: " ^ m)
          | () ->
              (* this run survived one more restart; the counter is
                 carried in the [obs] section just applied, so it
                 counts restarts over the directory's whole life *)
              Obs.Counter.incr t.m_restarts;
              (* 4. Documents popped but never concluded go back on
                 the schedule at their original deadline. *)
              let requeued_fetches =
                Xy_crawler.Fetch_queue.rearm_in_flight t.queue
              in
              (* 5. Checkpoint immediately: the old generation's WAL
                 may end torn, and nothing must ever append after a
                 torn record.  This also opens the new generation's
                 WAL, which journaling needs.  It re-encodes the
                 queue the re-arming just mutated; the reporter keeps
                 its delta chain. *)
              ignore (checkpoint_durable t d);
              (* 6. Hooks, re-sends, socket. *)
              let info =
                {
                  generation = Durable.generation d;
                  subscriptions_recovered;
                  txns_replayed = List.length txns;
                  wal_tail;
                  requeued_fetches;
                  redelivered_reports = start t;
                }
              in
              Log.info (fun m ->
                  m
                    "restored %s: generation %d, %d subscription(s), %d \
                     txn(s) replayed, %d fetch(es) re-queued, %d report(s) \
                     re-delivered"
                    dir info.generation subscriptions_recovered
                    info.txns_replayed requeued_fetches info.redelivered_reports);
              Ok (t, info)))

type stats = {
  documents_fetched : int;
  documents_stored : int;
  alerts_sent : int;
  notifications : int;
  reports : int;
  complex_events : int;
  atomic_events : int;
}

let stats t =
  let mqp_stats = Mqp.stats t.mqp in
  let reporter_stats = Xy_reporter.Reporter.stats t.reporter in
  {
    documents_fetched = Xy_crawler.Crawler.fetches t.crawler;
    documents_stored = Store.document_count t.store;
    alerts_sent = t.alerts_sent;
    notifications = mqp_stats.Mqp.notifications_emitted;
    reports = reporter_stats.Xy_reporter.Reporter.reports_sent;
    complex_events = mqp_stats.Mqp.complex_events;
    atomic_events = Xy_events.Registry.cardinal t.registry;
  }
