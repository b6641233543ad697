module S = Xy_sublang.S_ast
module Compile = Xy_sublang.S_compile
module Atomic = Xy_events.Atomic
module Registry = Xy_events.Registry
module Event_set = Xy_events.Event_set
module Mqp = Xy_core.Mqp
module Trigger = Xy_trigger.Trigger_engine
module Reporter = Xy_reporter.Reporter
module Notification = Xy_reporter.Notification
module T = Xy_xml.Types
module QAst = Xy_query.Ast
module Obs = Xy_obs.Obs
module Log = (val Logs.src_log (Logs.Src.create "xyleme.submgr") : Logs.LOG)

type error =
  | Parse_error of string
  | Rejected of string
  | Duplicate of string
  | Unknown of string

let error_to_string = function
  | Parse_error m -> "parse error: " ^ m
  | Rejected m -> "rejected: " ^ m
  | Duplicate name -> "duplicate subscription: " ^ name
  | Unknown name -> "unknown subscription: " ^ name

(* Everything needed to tear one subscription down. *)
type installed = {
  owner : string;
  text : string;
  ast : S.t;
  complex_ids : int list;
  conditions : Atomic.t list;  (** to release, with multiplicity *)
  trigger_ids : string list;
}

(* Per complex event: how to turn a processor notification into a
   reporter notification. *)
type dispatch = {
  d_subscription : string;
  d_tag : string;
  d_select : QAst.select option;
}

type metrics = {
  m_subscribed : Obs.Counter.t;
  m_rejected : Obs.Counter.t;
  m_unsubscribed : Obs.Counter.t;
  m_recovered : Obs.Counter.t;
  m_live : Obs.Gauge.t;
}

type t = {
  policy : Compile.policy;
  mutable persist : Xy_durable.Record_log.t option;
  mutable superseded : int;
      (** records of the persisted log a compaction would drop, over
          its lifetime *)
  clock : Xy_util.Clock.t;
  registry : Registry.t;
  mqp : Mqp.t;
  trigger : Trigger.t;
  reporter : Reporter.t;
  run_query : QAst.t -> T.node list;
  subscriptions : (string, installed) Hashtbl.t;
  refreshing : (string, (string * float) list) Hashtbl.t;
      (** the refresh statements of the subscriptions that have any *)
  linking : (string, (string * string) list) Hashtbl.t;
      (** the virtual links (target subscription, recipient) of the
          subscriptions that have any *)
  dispatches : (int, dispatch) Hashtbl.t;
  mutable next_complex_id : int;
  metrics : metrics;
}

let stage = "submgr"

(* ------------------------------------------------------------------ *)
(* Notification materialization: instantiate the monitoring query's
   select clause from the alert payload.  The payload is the opaque
   <doc url=... status=...><matched code=N>...</matched>*</doc>
   document assembled by the alerter chain. *)

let parse_payload payload =
  match Xy_xml.Parser.parse_element payload with
  | element -> Some element
  | exception Xy_xml.Parser.Error _ -> None

let matched_elements payload_elem =
  List.concat_map
    (fun m -> T.children_elements m)
    (List.filter
       (fun e -> e.T.tag = "matched")
       (T.children_elements payload_elem))

let pseudo_strings ~url payload_elem =
  let of_attr name =
    match Option.bind payload_elem (fun e -> T.attr e name) with
    | Some v -> [ (String.uppercase_ascii name, v); (name, v) ]
    | None -> []
  in
  [ ("URL", url) ] @ of_attr "status" @ of_attr "domain" @ of_attr "dtd"
  @ of_attr "docid"

let default_body ~url payload_elem =
  let attrs =
    [ ("url", url) ]
    @
    match Option.bind payload_elem (fun e -> T.attr e "status") with
    | Some status -> [ ("status", status) ]
    | None -> []
  in
  [ T.el "Notification" ~attrs [] ]

let rec materialize_construct strings matched construct =
  match construct with
  | QAst.K_text s -> [ T.Text s ]
  | QAst.K_operand op -> materialize_operand strings matched op
  | QAst.K_element (tag, attr_templates, children) ->
      let attrs =
        List.map
          (fun (name, op) ->
            let value =
              match materialize_operand strings matched op with
              | T.Text s :: _ -> s
              | T.Element e :: _ -> T.text_content e
              | _ -> ""
            in
            (name, value))
          attr_templates
      in
      [ T.el tag ~attrs (List.concat_map (materialize_construct strings matched) children) ]

and materialize_operand strings matched = function
  | QAst.O_const s -> [ T.Text s ]
  | QAst.O_path (Some name, []) when List.mem_assoc name strings ->
      (* A pseudo-variable of the monitoring context (URL, status,
         domain, ...). *)
      [ T.Text (List.assoc name strings) ]
  | QAst.O_path (Some _, _) ->
      (* A from-variable: its witnesses are the matched elements the
         alerters shipped in the payload. *)
      List.map (fun e -> T.Element e) matched
  | QAst.O_path (None, [ { Xy_xml.Path.axis = Xy_xml.Path.Child; tag = Some name } ])
    when List.mem_assoc name strings ->
      [ T.Text (List.assoc name strings) ]
  | QAst.O_path (None, _) -> List.map (fun e -> T.Element e) matched

(* What an alert gives every notification it raises: the payload is
   parsed, and its matched elements, pseudo-variables and default body
   derived, once per alert however many subscriptions it matched. *)
type alert_view = {
  strings : (string * string) list;
  matched : T.element list;
  default : T.node list;  (** shared by the alert's notifications *)
}

let view_of_payload ~payload ~url =
  let payload_elem = parse_payload payload in
  {
    strings = pseudo_strings ~url payload_elem;
    matched =
      (match payload_elem with Some e -> matched_elements e | None -> []);
    default = default_body ~url payload_elem;
  }

let materialize select view =
  match select with
  | None -> view.default
  | Some (QAst.S_operand op) -> (
      match materialize_operand view.strings view.matched op with
      | [] -> view.default
      | nodes -> nodes)
  | Some (QAst.S_construct construct) ->
      materialize_construct view.strings view.matched construct

(* ------------------------------------------------------------------ *)

let create ?(policy = Compile.default_policy) ?persist ?(obs = Obs.default)
    ~clock ~registry ~mqp ~trigger ~reporter ~run_query () =
  let t =
    {
      policy;
      persist;
      superseded = 0;
      clock;
      registry;
      mqp;
      trigger;
      reporter;
      run_query;
      subscriptions = Hashtbl.create 64;
      refreshing = Hashtbl.create 16;
      linking = Hashtbl.create 16;
      dispatches = Hashtbl.create 256;
      next_complex_id = 0;
      metrics =
        {
          m_subscribed = Obs.counter obs ~stage "subscribed";
          m_rejected = Obs.counter obs ~stage "rejected";
          m_unsubscribed = Obs.counter obs ~stage "unsubscribed";
          m_recovered = Obs.counter obs ~stage "recovered";
          m_live = Obs.gauge obs ~stage "live_subscriptions";
        };
    }
  in
  (* Batch dispatch: the disjuncts of one monitoring query are
     distinct complex events sharing a dispatch target; a document
     matching several of them yields a single notification.  The
     subscriptions that share a (tag, select) share one notification
     value, so its body is materialized and encoded once per alert. *)
  Mqp.on_batch mqp (fun alert matched ->
      let seen = Hashtbl.create 4 in
      let view =
        lazy (view_of_payload ~payload:alert.Mqp.payload ~url:alert.Mqp.url)
      in
      let values = ref [] in
      let notification dispatch =
        (* a sink may advance the clock between two notifications *)
        let at = Xy_util.Clock.now t.clock in
        let same ((n : Notification.t), select) =
          String.equal n.Notification.tag dispatch.d_tag
          && Float.equal n.Notification.at at
          && select = dispatch.d_select
        in
        match List.find_opt same !values with
        | Some (n, _) -> n
        | None ->
            let n =
              {
                Notification.source = Notification.Monitoring;
                tag = dispatch.d_tag;
                body = materialize dispatch.d_select (Lazy.force view);
                at;
                birth = alert.Mqp.birth;
                rendered = None;
              }
            in
            values := (n, dispatch.d_select) :: !values;
            n
      in
      Reporter.alert t.reporter @@ fun () ->
      List.iter
        (fun complex_id ->
          match Hashtbl.find_opt t.dispatches complex_id with
          | None -> ()
          | Some dispatch ->
              let key = (dispatch.d_subscription, dispatch.d_tag) in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.replace seen key ();
                Reporter.notify ?trace:alert.Mqp.trace t.reporter
                  ~subscription:dispatch.d_subscription (notification dispatch);
                Trigger.notify ?trace:alert.Mqp.trace t.trigger
                  ~subscription:dispatch.d_subscription ~tag:dispatch.d_tag
              end)
        matched);
  t

let default_report =
  { S.r_query = None; r_when = [ S.R_immediate ]; r_atmost = None; r_archive = None }

(* Install one continuous query: evaluation action + scheduling. *)
let install_continuous t ~subscription (c : S.continuous) =
  let tracker =
    if c.S.c_delta then Some (Xy_query.Result_delta.create ~name:c.S.c_name)
    else None
  in
  let action () =
    let nodes = t.run_query c.S.c_query in
    let result = T.element c.S.c_name nodes in
    let body =
      match tracker with
      | None -> Some [ T.Element result ]
      | Some tracker -> (
          match Xy_query.Result_delta.update tracker result with
          | Xy_query.Result_delta.First full -> Some [ T.Element full ]
          | Xy_query.Result_delta.Changed delta -> Some [ T.Element delta ]
          | Xy_query.Result_delta.Unchanged -> None)
    in
    match body with
    | None -> ()
    | Some body ->
        Reporter.notify t.reporter ~subscription
          {
            Notification.source = Notification.Continuous;
            tag = c.S.c_name;
            body;
            at = Xy_util.Clock.now t.clock;
            birth = None;
            rendered = None;
          };
        Trigger.notify t.trigger ~subscription ~tag:c.S.c_name
  in
  let trigger_id = subscription ^ "/" ^ c.S.c_name in
  (match c.S.c_when with
  | S.T_frequency f ->
      Trigger.schedule_periodic t.trigger ~id:trigger_id ~period:(S.seconds f)
        action
  | S.T_notification { subscription = source_sub; tag } ->
      let source = Option.value ~default:subscription source_sub in
      Trigger.on_notification t.trigger ~id:trigger_id ~subscription:source ~tag
        action);
  trigger_id

let subscribe_unmetered t ~owner ~text =
  match Xy_sublang.S_parser.parse text with
  | exception Xy_sublang.S_parser.Error { line; message } ->
      Error (Parse_error (Printf.sprintf "line %d: %s" line message))
  | ast -> (
      if Hashtbl.mem t.subscriptions ast.S.name then Error (Duplicate ast.S.name)
      else
        match Compile.validate ~policy:t.policy ast with
        | exception Compile.Rejected reason -> Error (Rejected reason)
        | compiled ->
            (* Virtual targets must exist. *)
            let missing_virtual =
              List.find_opt
                (fun (target, _) -> not (Hashtbl.mem t.subscriptions target))
                ast.S.virtuals
            in
            (match missing_virtual with
            | Some (target, _) -> Error (Unknown target)
            | None ->
                (* 1. Register atomic events and complex events: one
                   complex event per disjunct, all sharing the
                   monitoring query's dispatch. *)
                let conditions = ref [] in
                let complex_ids =
                  List.concat_map
                    (fun (cm : Compile.monitoring) ->
                      List.map
                        (fun disjunct ->
                          let codes =
                            List.map
                              (fun condition ->
                                conditions := condition :: !conditions;
                                Registry.register t.registry condition)
                              disjunct
                          in
                          let id = t.next_complex_id in
                          t.next_complex_id <- id + 1;
                          Mqp.subscribe t.mqp ~id (Event_set.of_list codes);
                          Hashtbl.replace t.dispatches id
                            {
                              d_subscription = ast.S.name;
                              d_tag = cm.Compile.cm_name;
                              d_select = cm.Compile.cm_select;
                            };
                          id)
                        cm.Compile.cm_disjuncts)
                    compiled
                in
                (* 2. Reporter registration. *)
                let report = Option.value ~default:default_report ast.S.report in
                Reporter.register t.reporter ~subscription:ast.S.name
                  ~recipient:owner report;
                (* 3. Continuous queries. *)
                let trigger_ids =
                  List.map (install_continuous t ~subscription:ast.S.name)
                    ast.S.continuous
                in
                (* 4. Virtual registrations. *)
                (match ast.S.virtuals with
                | [] -> ()
                | virtuals ->
                    Hashtbl.replace t.linking ast.S.name
                      (List.map
                         (fun (target, _query) ->
                           Reporter.add_recipient t.reporter
                             ~subscription:target ~recipient:owner;
                           (target, owner))
                         virtuals));
                Hashtbl.replace t.subscriptions ast.S.name
                  {
                    owner;
                    text;
                    ast;
                    complex_ids;
                    conditions = !conditions;
                    trigger_ids;
                  };
                (match ast.S.refresh with
                | [] -> ()
                | refresh ->
                    Hashtbl.replace t.refreshing ast.S.name
                      (List.map
                         (fun r -> (r.S.r_url, S.seconds r.S.r_freq))
                         refresh));
                (match t.persist with
                | Some log ->
                    Persist.append_insert log ~name:ast.S.name ~owner ~text
                | None -> ());
                Ok ast.S.name))

let subscribe t ~owner ~text =
  match subscribe_unmetered t ~owner ~text with
  | Ok _ as ok ->
      Obs.Counter.incr t.metrics.m_subscribed;
      Obs.Gauge.set_int t.metrics.m_live (Hashtbl.length t.subscriptions);
      ok
  | Error _ as err ->
      Obs.Counter.incr t.metrics.m_rejected;
      err

let unsubscribe t ~name =
  match Hashtbl.find_opt t.subscriptions name with
  | None -> Error (Unknown name)
  | Some installed ->
      List.iter
        (fun id ->
          Mqp.unsubscribe t.mqp ~id;
          Hashtbl.remove t.dispatches id)
        installed.complex_ids;
      List.iter
        (fun condition -> ignore (Registry.release t.registry condition))
        installed.conditions;
      List.iter (fun id -> Trigger.cancel t.trigger ~id) installed.trigger_ids;
      List.iter
        (fun (target, recipient) ->
          Reporter.remove_recipient t.reporter ~subscription:target ~recipient)
        (Option.value ~default:[] (Hashtbl.find_opt t.linking name));
      Reporter.unregister t.reporter ~subscription:name;
      Hashtbl.remove t.subscriptions name;
      Hashtbl.remove t.refreshing name;
      Hashtbl.remove t.linking name;
      (match t.persist with
      | Some log ->
          Persist.append_delete log ~name;
          (* the delete and the insert it cancels *)
          t.superseded <- t.superseded + 2
      | None -> ());
      Obs.Counter.incr t.metrics.m_unsubscribed;
      Obs.Gauge.set_int t.metrics.m_live (Hashtbl.length t.subscriptions);
      Ok ()

let update t ~name ~owner ~text =
  match Hashtbl.find_opt t.subscriptions name with
  | None -> Error (Unknown name)
  | Some _ -> (
      (* Validate the replacement before touching anything. *)
      match Xy_sublang.S_parser.parse text with
      | exception Xy_sublang.S_parser.Error { line; message } ->
          Error (Parse_error (Printf.sprintf "line %d: %s" line message))
      | ast -> (
          if ast.S.name <> name then
            Error
              (Parse_error
                 (Printf.sprintf "update of %s declares subscription %s" name
                    ast.S.name))
          else
            match Compile.validate ~policy:t.policy ast with
            | exception Compile.Rejected reason -> Error (Rejected reason)
            | _compiled -> (
                match
                  List.find_opt
                    (fun (target, _) ->
                      target = name || not (Hashtbl.mem t.subscriptions target))
                    ast.S.virtuals
                with
                | Some (target, _) -> Error (Unknown target)
                | None ->
                    (* neither step can fail (the name is installed, the
                       text validated); still, surface an error *)
                    Result.bind (unsubscribe t ~name) @@ fun () ->
                    Result.map
                      (fun _ ->
                        (* the teardown dropped the recipients its
                           virtual dependents had added *)
                        Hashtbl.iter
                          (fun _ ->
                            List.iter (fun (target, recipient) ->
                                if target = name then
                                  Reporter.add_recipient t.reporter
                                    ~subscription:name ~recipient))
                          t.linking)
                      (subscribe t ~owner ~text))))

let recover t path =
  (* Replayed inserts must not be re-appended to the log. *)
  let saved_persist = t.persist in
  t.persist <- None;
  let restored = ref 0 in
  let skip name e =
    Log.warn (fun m -> m "recovery skips %s: %s" name (error_to_string e))
  in
  (* A subscription the log lists before its virtual target (the
     target was updated since) fails with [Unknown]: those are retried
     after the others, until a pass installs none. *)
  let rec pass records =
    let before = !restored in
    let waiting =
      List.filter_map
        (function
          | Persist.Delete _ -> None
          | Persist.Insert { name; owner; text } as record -> (
              match subscribe t ~owner ~text with
              | Ok _ ->
                  incr restored;
                  None
              | Error (Unknown _ as e) -> Some (record, name, e)
              | Error e ->
                  skip name e;
                  None))
        records
    in
    if waiting <> [] && !restored > before then
      pass (List.map (fun (record, _, _) -> record) waiting)
    else List.iter (fun (_, name, e) -> skip name e) waiting
  in
  let live, superseded = Persist.replay_counting path in
  t.superseded <- t.superseded + superseded;
  pass live;
  t.persist <- saved_persist;
  Obs.Counter.add t.metrics.m_recovered !restored;
  !restored

let subscription_names t =
  List.sort compare (List.of_seq (Hashtbl.to_seq_keys t.subscriptions))

let subscription_count t = Hashtbl.length t.subscriptions
let superseded_records t = t.superseded

let refresh_statements t =
  Hashtbl.fold
    (fun _ statements acc -> List.rev_append statements acc)
    t.refreshing []

let subscription_refresh t ~name =
  Option.value ~default:[] (Hashtbl.find_opt t.refreshing name)

let complex_event_count t = Hashtbl.length t.dispatches
