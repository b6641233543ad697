module Obs = Xy_obs.Obs

let points =
  [
    ("fetch", "crawler: a due fetch fails transiently (timeout / 5xx)");
    ("malformed", "crawler: fetched content is mangled before the alerters");
    ("torn_write", "persist: an append is cut short and the log goes dead (crash)");
    ("short_write", "persist: an append is cut short but the log lives on");
    ("worker", "parallel: a pool worker domain dies before handling a document");
    ("crash", "system: the process dies at a stage boundary (durability testing)");
    ("conn_drop", "wire: the connection is torn down abruptly mid-operation");
    ("partial_write", "wire: a write delivers only a prefix before the connection dies");
    ("net_delay", "wire: a socket operation stalls briefly before completing");
    ("net_mangle", "wire: one byte is flipped in flight (caught by the frame CRC)");
  ]

(* The wire-level subset, injected by [Xy_serve.Chaos] at the socket
   boundary rather than inside the pipeline.  [Xy_system.Xyleme]
   splits a fault plan on this list so wire faults get their own
   injector and the pipeline's per-point schedules stay byte-identical
   whether or not network chaos is armed. *)
let wire_points = [ "conn_drop"; "partial_write"; "net_delay"; "net_mangle" ]

exception Crash of string

type spec = (string * float) list

let known point = List.mem_assoc point points

let parse_rate point s =
  match float_of_string_opt s with
  | Some r when r >= 0. && r <= 1. -> Ok r
  | Some _ -> Error (Printf.sprintf "%s: rate %s outside [0, 1]" point s)
  | None -> Error (Printf.sprintf "%s: unreadable rate %S" point s)

let parse_spec s =
  let parts =
    List.filter (fun p -> p <> "") (String.split_on_char ',' (String.trim s))
  in
  if parts = [] then Error "empty fault spec"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | part :: rest -> (
          match String.index_opt part '=' with
          | None -> Error (Printf.sprintf "%S: expected point=rate" part)
          | Some i -> (
              let point = String.trim (String.sub part 0 i) in
              let rate_text =
                String.trim (String.sub part (i + 1) (String.length part - i - 1))
              in
              if not (known point) then
                Error
                  (Printf.sprintf "unknown failure point %S (known: %s)" point
                     (String.concat ", " (List.map fst points)))
              else if List.mem_assoc point acc then
                Error (Printf.sprintf "failure point %s given twice" point)
              else
                match parse_rate point rate_text with
                | Error _ as e -> e
                | Ok rate -> go ((point, rate) :: acc) rest))
    in
    go [] parts

let spec_to_string spec =
  String.concat ","
    (List.map (fun (point, rate) -> Printf.sprintf "%s=%g" point rate) spec)

(* One stream per point: the schedule of point A is unaffected by how
   often point B is consulted, which is what makes "same seed + same
   spec => same failure schedule" survive pipeline reorderings that
   only touch other points. *)
type point_state = {
  mutable p_rate : float;
  mutable p_prng : Xy_util.Prng.t;
  p_injected : Obs.Counter.t;
  mutable p_count : int;
  mutable p_fuse : int option;
      (** countdown to a deterministic fire ([arm_after]) *)
}

type t = {
  lock : Mutex.t;
  table : (string, point_state) Hashtbl.t;
  obs : Obs.t;
  seed : int;
  mutable journal : (string -> unit) option;
}

let stage = "fault"

let make_state ~obs ~seed point rate =
  (* Derive a per-point seed: any point-dependent mixing works,
     it only has to be stable across runs. *)
  let point_seed = (seed * 1000003) lxor Hashtbl.hash point in
  {
    p_rate = rate;
    p_prng = Xy_util.Prng.create ~seed:point_seed;
    p_injected = Obs.counter obs ~stage (point ^ "_injected");
    p_count = 0;
    p_fuse = None;
  }

let none =
  {
    lock = Mutex.create ();
    table = Hashtbl.create 1;
    obs = Obs.default;
    seed = 1;
    journal = None;
  }

let create ?(obs = Obs.default) ?(seed = 1) spec =
  let table = Hashtbl.create 8 in
  List.iter
    (fun (point, rate) ->
      if not (known point) then
        invalid_arg ("Fault.create: unknown failure point " ^ point);
      Hashtbl.replace table point (make_state ~obs ~seed point rate))
    spec;
  { lock = Mutex.create (); table; obs; seed; journal = None }

let active t = Hashtbl.length t.table > 0

let with_point t point f ~default =
  match Hashtbl.find_opt t.table point with
  | None -> default
  | Some state ->
      Mutex.lock t.lock;
      let result = try f state with e -> Mutex.unlock t.lock; raise e in
      Mutex.unlock t.lock;
      result

let rate t point =
  match Hashtbl.find_opt t.table point with
  | None -> 0.
  | Some state -> state.p_rate

let set_rate t point rate =
  if rate < 0. || rate > 1. then invalid_arg "Fault.set_rate: rate outside [0, 1]";
  match Hashtbl.find_opt t.table point with
  | None -> invalid_arg ("Fault.set_rate: point not in this injector: " ^ point)
  | Some state -> state.p_rate <- rate

(* Durability: every draw mutates a PRNG stream, so each draw journals
   the point's post-draw state — replaying the journal resumes every
   stream at exactly the position the crash left it. *)
module Codec = Xy_util.Codec

let encode_point point state =
  let buf = Buffer.create 64 in
  Codec.string buf point;
  Codec.float buf state.p_rate;
  Codec.string buf (Xy_util.Prng.to_string state.p_prng);
  Codec.int buf state.p_count;
  Buffer.contents buf

let journal_point t point state =
  match t.journal with
  | None -> ()
  | Some emit -> emit (encode_point point state)

let fire t point =
  with_point t point ~default:false (fun state ->
      (* Always draw, even at rate 0: one draw per consultation keeps
         the stream position independent of mid-run [set_rate]
         retuning. *)
      let drawn = Xy_util.Prng.float state.p_prng 1. < state.p_rate in
      let fires =
        match state.p_fuse with
        | Some n when n <= 1 ->
            state.p_fuse <- None;
            true
        | Some n ->
            state.p_fuse <- Some (n - 1);
            drawn
        | None -> drawn
      in
      if fires then begin
        Obs.Counter.incr state.p_injected;
        state.p_count <- state.p_count + 1
      end;
      journal_point t point state;
      fires)

let draw_int t point ~bound =
  if bound <= 0 then 0
  else
    with_point t point ~default:0 (fun state ->
        let v = Xy_util.Prng.int state.p_prng bound in
        journal_point t point state;
        v)

let draw_float t point =
  with_point t point ~default:0. (fun state ->
      let v = Xy_util.Prng.float state.p_prng 1. in
      journal_point t point state;
      v)

let arm_after t point count =
  if count <= 0 then invalid_arg "Fault.arm_after: count must be positive";
  Mutex.lock t.lock;
  let state =
    match Hashtbl.find_opt t.table point with
    | Some state -> state
    | None ->
        if not (known point) then begin
          Mutex.unlock t.lock;
          invalid_arg ("Fault.arm_after: unknown failure point " ^ point)
        end;
        let state = make_state ~obs:t.obs ~seed:t.seed point 0. in
        Hashtbl.replace t.table point state;
        state
  in
  state.p_fuse <- Some count;
  Mutex.unlock t.lock

let set_journal t emit = t.journal <- emit

let encode_snapshot t =
  let buf = Buffer.create 256 in
  let entries =
    List.sort compare
      (Hashtbl.fold (fun point state acc -> (point, state) :: acc) t.table [])
  in
  Codec.list buf (fun buf (point, state) ->
      Buffer.add_string buf (encode_point point state))
    entries;
  Buffer.contents buf

let restore_point t reader =
  let point = Codec.read_string reader in
  let rate = Codec.read_float reader in
  let prng = Xy_util.Prng.of_string (Codec.read_string reader) in
  let count = Codec.read_int reader in
  Mutex.lock t.lock;
  let state =
    match Hashtbl.find_opt t.table point with
    | Some state -> state
    | None ->
        (* restoring into an injector created without this point:
           recreate it so the resumed run keeps the schedule *)
        let state = make_state ~obs:t.obs ~seed:t.seed point rate in
        Hashtbl.replace t.table point state;
        state
  in
  state.p_rate <- rate;
  state.p_prng <- prng;
  state.p_count <- count;
  Mutex.unlock t.lock

let decode_snapshot t payload =
  let reader = Codec.reader payload in
  ignore (Codec.read_list reader (fun r -> restore_point t r));
  Codec.expect_end reader

let apply_op t payload =
  let reader = Codec.reader payload in
  restore_point t reader;
  Codec.expect_end reader

let injected t point =
  match Hashtbl.find_opt t.table point with
  | None -> 0
  | Some state -> state.p_count
