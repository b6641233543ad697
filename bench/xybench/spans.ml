(* In-memory spans recorded by the benchmark around its own calls into
   the system.  A trace is one batch (or one crawl step); a span names
   the layer whose public call it wraps ("warehouse.load",
   "mqp.match", ...).  A traced ingest run records a few hundred
   thousand spans, so they are stored column-wise in flat arrays: the
   float columns are never scanned by the GC, which keeps recording
   from inflating the very layer times it measures.  A sample of them is
   written as JSONL when the run ends. *)

(* Span names, interned once so recording a span hashes nothing. *)
let names : (string, int) Hashtbl.t = Hashtbl.create 16
let name_of = ref [||]

let name s =
  match Hashtbl.find_opt names s with
  | Some i -> i
  | None ->
      let i = Array.length !name_of in
      Hashtbl.replace names s i;
      name_of := Array.append !name_of [| s |];
      i

type t = {
  mutable enabled : bool;  (** off during set-up *)
  mutable len : int;
  mutable trace : int array;
  mutable name : int array;
  mutable parent : int array;  (** [-1] for a root span *)
  mutable start : float array;
  mutable stop : float array;
  mutable open_spans : int list;  (** innermost first *)
  mutable trace_id : int;
}

let create () =
  {
    enabled = false;
    len = 0;
    trace = [||];
    name = [||];
    parent = [||];
    start = [||];
    stop = [||];
    open_spans = [];
    trace_id = 0;
  }

let set_trace t id = t.trace_id <- id

let grow t =
  let cap = max 1024 (2 * t.len) in
  let ints a = Array.append a (Array.make (cap - t.len) 0) in
  let floats a = Array.append a (Array.make (cap - t.len) 0.) in
  t.trace <- ints t.trace;
  t.name <- ints t.name;
  t.parent <- ints t.parent;
  t.start <- floats t.start;
  t.stop <- floats t.stop

(* [with_span t name f] times [f] as a child of the innermost open
   span; [name] comes from {!name}.  With recording off it is a plain
   call.  A raising [f] ends the run, so its span is left open. *)
let with_span t name f =
  if not t.enabled then f ()
  else begin
    if t.len = Array.length t.trace then grow t;
    let i = t.len in
    t.len <- i + 1;
    t.trace.(i) <- t.trace_id;
    t.name.(i) <- name;
    t.parent.(i) <- (match t.open_spans with p :: _ -> p | [] -> -1);
    t.open_spans <- i :: t.open_spans;
    t.start.(i) <- Unix.gettimeofday ();
    let r = f () in
    t.stop.(i) <- Unix.gettimeofday ();
    t.open_spans <- List.tl t.open_spans;
    r
  end

let duration t i = t.stop.(i) -. t.start.(i)

(* Self-time samples (seconds) per span name.  Self time is a span's
   duration minus the part its children cover; children of one parent
   never overlap (recording is single-threaded and strictly nested),
   so their durations simply add. *)
let self_times t =
  let child = Array.make t.len 0. in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) +. duration t i
  done;
  let by_name = Hashtbl.create 16 in
  for i = t.len - 1 downto 0 do
    let n = !name_of.(t.name.(i)) in
    let samples = Option.value ~default:[] (Hashtbl.find_opt by_name n) in
    Hashtbl.replace by_name n ((duration t i -. child.(i)) :: samples)
  done;
  by_name

(* Summed duration of the root spans: the timed wall time the layers
   below them should account for. *)
let root_time t =
  let total = ref 0. in
  for i = 0 to t.len - 1 do
    if t.parent.(i) < 0 then total := !total +. duration t i
  done;
  !total

(* Every span of every [sample]th trace: a traced ingest run records
   close to a million spans, and a sample is enough to follow single
   batches; the layer metrics use every span. *)
let write_jsonl oc ~workload ~phase ~sample t =
  for i = 0 to t.len - 1 do
    if t.trace.(i) mod sample = 0 then
      Printf.fprintf oc
        "{\"workload\":\"%s\",\"phase\":\"%s\",\"trace\":%d,\"span\":%d,\
         \"parent\":%s,\"name\":\"%s\",\"start\":%.6f,\"end\":%.6f}\n"
        workload phase t.trace.(i) i
        (if t.parent.(i) < 0 then "null" else string_of_int t.parent.(i))
        !name_of.(t.name.(i)) t.start.(i) t.stop.(i)
  done
