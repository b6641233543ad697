(* Span collection is deliberately dumb: a sampled document's spans
   accumulate in a per-trace pending list under one tracer mutex, and
   are sorted once at [finish].  Only sampled documents (1-in-N) ever
   take the lock, so the steady-state cost of tracing is the [ctx
   option] match in each stage. *)

module Obs = Xy_obs.Obs

type span = {
  sp_stage : string;
  sp_name : string;
  sp_start_wall : float;
  sp_dur_wall : float;
  sp_start_virtual : float;
  sp_dur_virtual : float;
  sp_attrs : (string * string) list;
}

type trace = {
  tr_id : int;
  tr_root : string;
  tr_start_wall : float;
  tr_dur_wall : float;
  tr_start_virtual : float;
  tr_spans : span list;
}

type t = {
  lock : Mutex.t;
  prng : Xy_util.Prng.t;
  mutable every : int;
  mutable virtual_clock : unit -> float;
  pending : (int, span list ref) Hashtbl.t;
  ring : trace option array;  (** completed traces, oldest overwritten *)
  mutable ring_pos : int;
  mutable next_id : int;
  mutable started : int;
  mutable completed : int;
}

type ctx = {
  c_tracer : t;
  c_id : int;
  c_root : string;
  c_start_wall : float;
  c_start_virtual : float;
}

let create ?(capacity = 256) ?(sample_every = 0) ?(seed = 1) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity <= 0";
  if sample_every < 0 then invalid_arg "Trace.create: sample_every < 0";
  {
    lock = Mutex.create ();
    prng = Xy_util.Prng.create ~seed;
    every = sample_every;
    virtual_clock = (fun () -> 0.);
    pending = Hashtbl.create 16;
    ring = Array.make capacity None;
    ring_pos = 0;
    next_id = 0;
    started = 0;
    completed = 0;
  }

let sample_every t = t.every

let set_sampling t ~every =
  if every < 0 then invalid_arg "Trace.set_sampling: every < 0";
  t.every <- every

let set_virtual_clock t f = t.virtual_clock <- f

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | result ->
      Mutex.unlock t.lock;
      result
  | exception e ->
      Mutex.unlock t.lock;
      raise e

let start_always t ~root =
  locked t @@ fun () ->
  let id = t.next_id in
  t.next_id <- id + 1;
  t.started <- t.started + 1;
  Hashtbl.replace t.pending id (ref []);
  {
    c_tracer = t;
    c_id = id;
    c_root = root;
    c_start_wall = Obs.now ();
    c_start_virtual = t.virtual_clock ();
  }

let start t ~root =
  if t.every <= 0 then None
  else
    let sampled =
      t.every = 1 || locked t (fun () -> Xy_util.Prng.int t.prng t.every) = 0
    in
    if sampled then Some (start_always t ~root) else None

let trace_id ctx = ctx.c_id

type span_handle = {
  h_ctx : ctx;
  h_stage : string;
  h_name : string;
  h_start_wall : float;
  h_start_virtual : float;
}

let begin_span ctx ~stage ~name =
  {
    h_ctx = ctx;
    h_stage = stage;
    h_name = name;
    h_start_wall = Obs.now ();
    h_start_virtual = ctx.c_tracer.virtual_clock ();
  }

let file ctx span =
  let t = ctx.c_tracer in
  locked t @@ fun () ->
  (* Spans arriving after [finish] (a late domain, a report fired from
     a later tick) have no pending list and are dropped. *)
  match Hashtbl.find_opt t.pending ctx.c_id with
  | Some spans -> spans := span :: !spans
  | None -> ()

let end_span ?(attrs = []) handle =
  let t = handle.h_ctx.c_tracer in
  file handle.h_ctx
    {
      sp_stage = handle.h_stage;
      sp_name = handle.h_name;
      sp_start_wall = handle.h_start_wall;
      sp_dur_wall = Obs.now () -. handle.h_start_wall;
      sp_start_virtual = handle.h_start_virtual;
      (* Clamped: replay may set the virtual clock back. *)
      sp_dur_virtual =
        Float.max 0. (t.virtual_clock () -. handle.h_start_virtual);
      sp_attrs = attrs;
    }

let wrap ctx ~stage ~name ?attrs f =
  match ctx with
  | None -> f ()
  | Some ctx -> (
      let handle = begin_span ctx ~stage ~name in
      match f () with
      | result ->
          end_span ?attrs handle;
          result
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          end_span ?attrs handle;
          Printexc.raise_with_backtrace e bt)

let record ctx ~stage ~name ?(attrs = []) ~start_wall ~dur_wall () =
  file ctx
    {
      sp_stage = stage;
      sp_name = name;
      sp_start_wall = start_wall;
      sp_dur_wall = dur_wall;
      sp_start_virtual = ctx.c_tracer.virtual_clock ();
      sp_dur_virtual = 0.;
      sp_attrs = attrs;
    }

let finish ctx =
  let t = ctx.c_tracer in
  locked t @@ fun () ->
  match Hashtbl.find_opt t.pending ctx.c_id with
  | None -> ()
  | Some spans ->
      Hashtbl.remove t.pending ctx.c_id;
      (* Stable over insertion order, so same-instant spans (timer
         granularity) keep their causal order. *)
      let spans =
        List.stable_sort
          (fun a b -> compare a.sp_start_wall b.sp_start_wall)
          (List.rev !spans)
      in
      let last_end =
        List.fold_left
          (fun acc s -> Float.max acc (s.sp_start_wall +. s.sp_dur_wall))
          ctx.c_start_wall spans
      in
      t.ring.(t.ring_pos) <-
        Some
          {
            tr_id = ctx.c_id;
            tr_root = ctx.c_root;
            tr_start_wall = ctx.c_start_wall;
            tr_dur_wall = last_end -. ctx.c_start_wall;
            tr_start_virtual = ctx.c_start_virtual;
            tr_spans = spans;
          };
      t.ring_pos <- (t.ring_pos + 1) mod Array.length t.ring;
      t.completed <- t.completed + 1

let started t = t.started
let completed t = t.completed

(* Oldest first: walk the ring forward from the write position. *)
let traces_oldest_first t =
  locked t @@ fun () ->
  let n = Array.length t.ring in
  let out = ref [] in
  for i = n - 1 downto 0 do
    match t.ring.((t.ring_pos + i) mod n) with
    | Some trace -> out := trace :: !out
    | None -> ()
  done;
  !out

let traces t = List.rev (traces_oldest_first t)

let slowest t ~k =
  let by_duration a b = compare b.tr_dur_wall a.tr_dur_wall in
  List.filteri (fun i _ -> i < k) (List.sort by_duration (traces t))

let clear t =
  locked t @@ fun () ->
  Array.fill t.ring 0 (Array.length t.ring) None;
  t.ring_pos <- 0

(* ------------------------------------------------------------------ *)
(* Analysis *)

let stage_breakdown trace =
  let totals : (string, float ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt totals s.sp_stage with
      | Some acc -> acc := !acc +. s.sp_dur_wall
      | None -> Hashtbl.replace totals s.sp_stage (ref s.sp_dur_wall))
    trace.tr_spans;
  let grand =
    Hashtbl.fold (fun _ acc total -> !acc +. total) totals 0.
  in
  Hashtbl.fold (fun stage acc rows -> (stage, !acc) :: rows) totals []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.map (fun (stage, total) ->
         (stage, total, if grand > 0. then total /. grand else 0.))

type stage_stat = {
  st_stage : string;
  st_spans : int;
  st_total_wall : float;
  st_max_wall : float;
}

let summary t =
  let stats : (string, stage_stat ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun trace ->
      List.iter
        (fun s ->
          match Hashtbl.find_opt stats s.sp_stage with
          | Some stat ->
              stat :=
                {
                  !stat with
                  st_spans = !stat.st_spans + 1;
                  st_total_wall = !stat.st_total_wall +. s.sp_dur_wall;
                  st_max_wall = Float.max !stat.st_max_wall s.sp_dur_wall;
                }
          | None ->
              Hashtbl.replace stats s.sp_stage
                (ref
                   {
                     st_stage = s.sp_stage;
                     st_spans = 1;
                     st_total_wall = s.sp_dur_wall;
                     st_max_wall = s.sp_dur_wall;
                   }))
        trace.tr_spans)
    (traces t);
  Hashtbl.fold (fun _ stat acc -> !stat :: acc) stats []
  |> List.sort (fun a b -> compare b.st_total_wall a.st_total_wall)

(* ------------------------------------------------------------------ *)
(* Export *)

let span_to_json s =
  let open Obs.Export in
  let attrs =
    String.concat ","
      (List.map (fun (k, v) -> json_string k ^ ":" ^ json_string v) s.sp_attrs)
  in
  Printf.sprintf
    "{\"stage\":%s,\"name\":%s,\"start_wall\":%s,\"dur_wall\":%s,\"start_virtual\":%s,\"dur_virtual\":%s,\"attrs\":{%s}}"
    (json_string s.sp_stage) (json_string s.sp_name)
    (json_number s.sp_start_wall) (json_number s.sp_dur_wall)
    (json_number s.sp_start_virtual) (json_number s.sp_dur_virtual) attrs

let trace_to_jsonl trace =
  let open Obs.Export in
  Printf.sprintf
    "{\"id\":%d,\"root\":%s,\"start_wall\":%s,\"dur_wall\":%s,\"start_virtual\":%s,\"spans\":[%s]}"
    trace.tr_id (json_string trace.tr_root)
    (json_number trace.tr_start_wall)
    (json_number trace.tr_dur_wall)
    (json_number trace.tr_start_virtual)
    (String.concat "," (List.map span_to_json trace.tr_spans))

let to_jsonl_string t =
  String.concat ""
    (List.map (fun trace -> trace_to_jsonl trace ^ "\n") (traces_oldest_first t))

(* ------------------------------------------------------------------ *)
(* Pretty rendering *)

let pp_ms ppf seconds = Format.fprintf ppf "%.3f ms" (seconds *. 1e3)

let pp_trace ppf trace =
  Format.fprintf ppf "@[<v>trace #%d %s@,  wall %a, virtual start %a, %d span(s)@,"
    trace.tr_id trace.tr_root pp_ms trace.tr_dur_wall Xy_util.Clock.pp
    trace.tr_start_virtual
    (List.length trace.tr_spans);
  List.iter
    (fun s ->
      Format.fprintf ppf "    %-11s %-8s %10.3f ms" s.sp_stage s.sp_name
        (s.sp_dur_wall *. 1e3);
      List.iter (fun (k, v) -> Format.fprintf ppf "  %s=%s" k v) s.sp_attrs;
      Format.pp_print_cut ppf ())
    trace.tr_spans;
  (match stage_breakdown trace with
  | [] -> ()
  | breakdown ->
      Format.fprintf ppf "  breakdown: %s@,"
        (String.concat " | "
           (List.map
              (fun (stage, total, share) ->
                Printf.sprintf "%s %.1f%% (%.3f ms)" stage (share *. 100.)
                  (total *. 1e3))
              breakdown)));
  Format.pp_close_box ppf ()
