let log = Logs.Src.create "xy.durable" ~doc:"checkpoint + WAL durability"

module Log = (val Logs.src_log log : Logs.LOG)
module Obs = Xy_obs.Obs
module Codec = Xy_util.Codec

(* Durability timings, registered under the [durable] stage once a
   caller hands over a registry ({!set_obs}): checkpoint pauses and
   group-commit fsync batches, as histograms. *)
type metrics = {
  m_checkpoint_pause : Obs.Histogram.t;
  m_fsync_batch : Obs.Histogram.t;
}

type op = { stage : string; payload : string }
type tail = Record_log.tail = Clean | Torn | Corrupt

type config = { sync_every : int }

let default_config = { sync_every = 32 }

(* Generation numbers in file names are parsed strictly: "gen-0x1.snap"
   is not a generation file. *)
let decimal = Xy_util.Parse.decimal_int

(* Decode one record payload completely, or raise [Codec.Malformed]. *)
let decoding f payload =
  let r = Codec.reader payload in
  let v = f r in
  Codec.expect_end r;
  v

(* A transaction is one record whose payload is the Codec list of its
   ops' (stage, payload) pairs.  As parts: the count, then for each op
   its fields up to the payload's bytes (a Codec string is its length
   field, then the raw bytes), then those bytes, so the record's
   checksum folds over them and no payload is copied before it lands
   in the group-commit batch. *)
let txn_parts ops =
  let fields fill =
    let buf = Buffer.create 32 in
    fill buf;
    Buffer.contents buf
  in
  fields (fun buf -> Codec.int buf (List.length ops))
  :: List.concat_map
       (fun { stage; payload } ->
         [
           fields (fun buf ->
               Codec.string buf stage;
               Codec.int buf (String.length payload));
           payload;
         ])
       ops

let decode_ops =
  decoding @@ fun r ->
  Codec.read_list r (fun r ->
      let stage = Codec.read_string r in
      let payload = Codec.read_string r in
      { stage; payload })

(* {2 Paths} *)

let manifest_path dir = Filename.concat dir "MANIFEST"
let snap_path dir gen = Filename.concat dir (Printf.sprintf "gen-%d.snap" gen)

(* The WAL of generation N is one file, grown until the checkpoint
   that starts generation N+1. *)
let wal_path dir gen = Filename.concat dir (Printf.sprintf "gen-%d.wal" gen)

module Wal = struct
  let append_txn oc ops =
    Record_log.output_record oc (txn_parts ops);
    Record_log.sync oc

  let scan path = Record_log.read path ~decode:decode_ops
  let scan_generation ~dir ~gen = scan (wal_path dir gen)
end

(* A snapshot section is the stage's payload inline, or a delta: the
   payload at a base generation plus the stage's journaled operations
   in the retained WALs of generations base..current.  A delta always
   points at the generation that wrote the payload inline, never at
   another delta, so restore chases at most one reference per
   stage. *)
type section = Inline of string | Delta of int

module Snapshot = struct
  (* One record per section: (stage, kind, body) with kind [S]
     (inline: the payload) or [D] (delta), whose body is the base
     generation.  An inline payload's pieces are written as parts
     of their own, after the Codec prefix that frames their
     concatenation, so they are never joined or copied. *)
  let prefix stage kind n =
    let buf = Buffer.create 32 in
    Codec.string buf stage;
    Codec.string buf kind;
    Codec.int buf n;
    Buffer.contents buf

  let inline_parts stage ~len pieces = prefix stage "S" len :: pieces

  let parts (stage, section) =
    match section with
    | Inline payload ->
        inline_parts stage ~len:(String.length payload) [ payload ]
    | Delta gen -> [ prefix stage "D" gen ]

  let decode_section =
    decoding @@ fun r ->
    let stage = Codec.read_string r in
    match Codec.read_string r with
    | "S" -> (stage, Inline (Codec.read_string r))
    | "D" -> (stage, Delta (Codec.read_int r))
    | kind -> raise (Codec.Malformed ("unknown section kind " ^ kind))

  let write path sections =
    Record_log.write_file path (List.map parts sections)

  let load path =
    if not (Sys.file_exists path) then Error (path ^ ": no such snapshot")
    else
      match Record_log.read path ~decode:decode_section with
      | sections, Clean -> Ok sections
      | _, Torn -> Error "truncated section"
      | _, Corrupt -> Error "damaged section"
end

(* A WAL-carried stage's delta chain: the generation whose snapshot
   holds its last inline payload, that payload's size, and the WAL
   bytes written since, every stage's as framed, because the chain
   keeps whole WAL files — the chain ends once they outgrow the
   payload. *)
type chain = { base : int; base_bytes : int; mutable wal_bytes : int }

type t = {
  dir : string;
  config : config;
  mutable gen : int;
  mutable wal : out_channel option;
  mutable txn : op list;  (** reversed *)
  pending : Buffer.t;
      (** committed transactions not yet synced (the group-commit
          batch) — a kill loses these, exactly like OS buffers *)
  mutable pending_txns : int;
  mutable sync_count : int;
  wal_carried : (string, unit) Hashtbl.t;
      (** stages whose every mutation is journaled, eligible for
          delta sections (base payload + retained WAL replay) *)
  chains : (string, chain) Hashtbl.t;
      (** WAL-carried stage -> its delta chain, once a snapshot holds
          its payload inline *)
  mutable fuse : (string -> unit) option;
  mutable metrics : metrics option;
}

let dir t = t.dir
let generation t = t.gen
let subscription_log_path t = Filename.concat t.dir "subscriptions.log"
let set_fuse t f = t.fuse <- Some f
let fire_fuse t label = match t.fuse with Some f -> f label | None -> ()

let set_obs t obs =
  t.metrics <-
    Some
      {
        m_checkpoint_pause = Obs.histogram obs ~stage:"durable" "checkpoint_pause";
        m_fsync_batch = Obs.histogram obs ~stage:"durable" "fsync_batch";
      }

let observe_time t select f =
  match t.metrics with None -> f () | Some m -> Obs.Histogram.time (select m) f

(* The MANIFEST is a one-record file: the committed generation. *)
let read_manifest dir =
  match
    Record_log.read (manifest_path dir) ~decode:(decoding Codec.read_int)
  with
  | [ gen ], Clean -> Some gen
  | _ -> None

let write_manifest dir gen =
  let buf = Buffer.create 16 in
  Codec.int buf gen;
  Record_log.write_file (manifest_path dir) [ [ Buffer.contents buf ] ]

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let remove_if path =
  try if Sys.file_exists path then Sys.remove path with Sys_error _ -> ()

let open_wal dir gen =
  open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644
    (wal_path dir gen)

(* Classify a generation file by name: gen-<n>.snap, gen-<n>.snap.tmp,
   gen-<n>.wal, and gen-<n>.wal.<k>, a WAL segment an older build
   rotated into, which [open_fresh] and [cleanup] still remove. *)
let parse_gen_file name =
  if String.length name <= 4 || String.sub name 0 4 <> "gen-" then None
  else
    match String.index_from_opt name 4 '.' with
    | None -> None
    | Some dot -> (
        match decimal (String.sub name 4 (dot - 4)) with
        | None -> None
        | Some gen -> (
            let ext = String.sub name dot (String.length name - dot) in
            if ext = ".snap" then Some (gen, `Snap)
            else if ext = ".snap.tmp" then Some (gen, `Temp)
            else if ext = ".wal" then Some (gen, `Wal)
            else if
              String.length ext > 5
              && String.sub ext 0 5 = ".wal."
              && decimal (String.sub ext 5 (String.length ext - 5)) <> None
            then Some (gen, `Wal)
            else None))

let make ~dir ~config ~gen ~wal =
  {
    dir;
    config;
    gen;
    wal;
    txn = [];
    pending = Buffer.create 4096;
    pending_txns = 0;
    sync_count = 0;
    wal_carried = Hashtbl.create 4;
    chains = Hashtbl.create 4;
    fuse = None;
    metrics = None;
  }

let open_fresh ?(config = default_config) dir =
  ensure_dir dir;
  (* wipe any previous run: a fresh run must not inherit its
     subscriptions, replay its WALs, or trip over orphaned
     generation files a killed checkpoint left behind *)
  Array.iter
    (fun name ->
      let matches =
        name = "MANIFEST" || name = "MANIFEST.tmp" || name = "subscriptions.log"
        || name = "subscriptions.log.compact"
        || parse_gen_file name <> None
      in
      if matches then remove_if (Filename.concat dir name))
    (try Sys.readdir dir with Sys_error _ -> [||]);
  write_manifest dir 0;
  make ~dir ~config ~gen:0 ~wal:(Some (open_wal dir 0))

let open_existing ?(config = default_config) dir =
  match read_manifest dir with
  | None -> None
  | Some gen ->
      (* Do not open the WAL for appending: its tail may be torn, and
         appending after a torn record would corrupt it.  Restore ends
         with a checkpoint, which opens the next generation's WAL. *)
      Some (make ~dir ~config ~gen ~wal:None)

let set_wal_carried t stages =
  Hashtbl.reset t.wal_carried;
  List.iter (fun s -> Hashtbl.replace t.wal_carried s ()) stages

let journal t ~stage payload = t.txn <- { stage; payload } :: t.txn

let discard t =
  (* A simulated kill: the transaction in progress and the un-synced
     group-commit batch both evaporate, exactly like process memory
     and OS buffers. *)
  t.txn <- [];
  Buffer.clear t.pending;
  t.pending_txns <- 0

(* Drain the group-commit batch to the WAL and sync it.  The bytes
   count toward every chain: each keeps the current WAL. *)
let sync_pending t =
  match t.wal with
  | None -> ()
  | Some oc ->
      let n = Buffer.length t.pending in
      if n > 0 then
        observe_time t (fun m -> m.m_fsync_batch) @@ fun () ->
        Buffer.output_buffer oc t.pending;
        Buffer.clear t.pending;
        t.pending_txns <- 0;
        Record_log.sync oc;
        t.sync_count <- t.sync_count + 1;
        Hashtbl.iter (fun _ c -> c.wal_bytes <- c.wal_bytes + n) t.chains

let barrier t = sync_pending t

let commit t =
  match t.txn with
  | [] -> ()
  | ops ->
      let ops = List.rev ops in
      t.txn <- [];
      (match t.wal with
      | Some _ -> ()
      | None ->
          (* attach-for-restore sessions gain a WAL only at their
             closing checkpoint; until then commits must not land in
             the old generation's (possibly torn) log *)
          invalid_arg "Durable.commit: no open WAL (restore not finished?)");
      Record_log.add_record t.pending (txn_parts ops);
      t.pending_txns <- t.pending_txns + 1;
      if t.pending_txns >= t.config.sync_every then sync_pending t

(* The eldest WAL generation a delta section still replays from: a
   chain with WAL bytes since its base needs every WAL from its base
   generation onward. *)
let wal_floor t =
  Hashtbl.fold
    (fun _ c floor -> if c.wal_bytes > 0 then min c.base floor else floor)
    t.chains t.gen

(* Remove files no longer reachable: snapshots other than the current
   generation's and the delta bases, WALs no delta section
   replays from, stale snapshot temps.  Runs after the manifest flip,
   so a kill anywhere in here only leaves garbage a later cleanup (or
   [open_fresh]) retires. *)
let cleanup t =
  let keep g =
    g = t.gen
    || Hashtbl.fold (fun _ c kept -> kept || c.base = g) t.chains false
  in
  let floor = wal_floor t in
  Array.iter
    (fun name ->
      let path = Filename.concat t.dir name in
      match parse_gen_file name with
      | Some (g, `Snap) when not (keep g) -> remove_if path
      | Some (g, `Wal) when g < floor || g > t.gen -> remove_if path
      | Some (g, `Temp) when g <> t.gen + 1 -> remove_if path
      | _ -> ())
    (try Sys.readdir t.dir with Sys_error _ -> [||])

let checkpoint t ~snapshot =
  observe_time t (fun m -> m.m_checkpoint_pause) @@ fun () ->
  commit t;
  barrier t;
  fire_fuse t "checkpoint-begin";
  let next = t.gen + 1 in
  (* Every stage encodes a fresh payload, except a WAL-carried stage
     whose chain's WAL bytes are still under its base payload: it
     writes a delta, whose base payload plus the retained WALs
     reconstruct it, so the checkpoint pause does not pay for
     re-encoding it.  A chain ends (fresh inline payload) once the WAL
     bytes written since its base outgrow the base payload, so the
     WAL it keeps, and restore reads, stays under the base payload's
     size plus one checkpoint interval's WAL.  Each section: its
     stage, its chain after this checkpoint, and its record's
     parts. *)
  let sections =
    List.map
      (fun (stage, encode) ->
        let wal_carried = Hashtbl.mem t.wal_carried stage in
        match Hashtbl.find_opt t.chains stage with
        | Some c when wal_carried && c.wal_bytes < c.base_bytes ->
            (stage, Some c, Snapshot.parts (stage, Delta c.base))
        | _ ->
            let pieces = encode () in
            let len =
              List.fold_left (fun n piece -> n + String.length piece) 0 pieces
            in
            let chain =
              if wal_carried then
                Some { base = next; base_bytes = len; wal_bytes = 0 }
              else None
            in
            (stage, chain, Snapshot.inline_parts stage ~len pieces))
      snapshot
  in
  (* Ops journaled from here on (the fuses below consult the crash
     fault point, whose draw is itself journaled) land in the next
     generation's WAL and count toward the new chains. *)
  Hashtbl.reset t.chains;
  List.iter
    (fun (stage, chain, _) ->
      Option.iter (Hashtbl.replace t.chains stage) chain)
    sections;
  if Hashtbl.fold (fun _ c delta -> delta || c.base <> next) t.chains false then
    fire_fuse t "carry-forward";
  Record_log.write_file (snap_path t.dir next)
    (List.map (fun (_, _, parts) -> parts) sections);
  fire_fuse t "snapshot-written";
  (* Create the next generation's WAL *before* the manifest names the
     generation: a manifest pointing at generation N+1 must never
     observe its WAL as missing-because-not-yet-created (indistinct
     from damage).  The old generation's files are removed only after
     the flip, so a kill in either window restores cleanly from
     whichever generation the manifest names. *)
  (match t.wal with Some oc -> close_out oc | None -> ());
  t.wal <- Some (open_wal t.dir next);
  Record_log.sync_dir t.dir;
  fire_fuse t "wal-created";
  write_manifest t.dir next;
  fire_fuse t "manifest-committed";
  t.gen <- next;
  cleanup t;
  Log.debug (fun m -> m "checkpoint: generation %d committed in %s" next t.dir)

(* Resolve delta sections against the snapshots holding their base
   payloads; each base generation loads once.  Also seeds [chains]
   with every section's base generation and payload size, so the next
   checkpoint's delta policy keeps its threshold ([load_latest] adds
   the retained WAL bytes; the checkpoint drops the chains of stages
   that are not WAL-carried).  Returns the resolved payloads plus the
   delta stages with their base generations. *)
let resolve_sections t sections =
  let cache = Hashtbl.create 4 in
  let load_gen g =
    match Hashtbl.find_opt cache g with
    | Some r -> r
    | None ->
        let r = Snapshot.load (snap_path t.dir g) in
        Hashtbl.replace cache g r;
        r
  in
  let base_payload stage g =
    match load_gen g with
    | Error e ->
        Error
          (Printf.sprintf "delta section %s: generation %d unreadable: %s" stage
             g e)
    | Ok base -> (
        match List.assoc_opt stage base with
        | Some (Inline payload) -> Ok payload
        | Some (Delta _) ->
            Error
              (Printf.sprintf
                 "delta section %s: generation %d is itself a delta" stage g)
        | None ->
            Error
              (Printf.sprintf "delta section %s missing from generation %d"
                 stage g))
  in
  let seed stage base payload =
    Hashtbl.replace t.chains stage
      { base; base_bytes = String.length payload; wal_bytes = 0 }
  in
  let rec go acc deltas = function
    | [] -> Ok (List.rev acc, List.rev deltas)
    | (stage, Inline payload) :: rest ->
        seed stage t.gen payload;
        go ((stage, payload) :: acc) deltas rest
    | (stage, Delta g) :: rest -> (
        match base_payload stage g with
        | Error e -> Error e
        | Ok payload ->
            seed stage g payload;
            go ((stage, payload) :: acc) ((stage, g) :: deltas) rest)
  in
  go [] [] sections

(* A generation's committed transactions.  An older build rotated a
   WAL into [gen-N.wal.1], [gen-N.wal.2], ...: replaying [gen-N.wal]
   alone would drop the later segments' transactions and still report
   a clean tail, so such a directory is refused. *)
let replay_generation t g =
  let rotated = wal_path t.dir g ^ ".1" in
  if Sys.file_exists rotated then
    Error
      (Printf.sprintf
         "%s: a WAL segment rotated by an older build, which this build \
          does not replay"
         rotated)
  else Ok (Wal.scan_generation ~dir:t.dir ~gen:g)

(* The stage-filtered transactions a set of delta sections replays on
   top of their base payloads: every op of a delta stage, from the
   WAL of its base generation up to (excluding) the current one, in
   commit order.  A torn tail in one of these retired generations is
   the remnant of an earlier crash — the lost batch was never applied
   anywhere, so replay past it is exact; mid-log damage is not. *)
let collect_delta_txns t deltas =
  match deltas with
  | [] -> Ok []
  | _ ->
      let floor = List.fold_left (fun acc (_, g) -> min acc g) t.gen deltas in
      let rec go g acc =
        if g >= t.gen then Ok (List.concat (List.rev acc))
        else
          match replay_generation t g with
          | Error _ as e -> e
          | Ok (_, Corrupt) ->
              Error
                (Printf.sprintf
                   "delta section WAL: generation %d damaged mid-log" g)
          | Ok (txns, (Clean | Torn)) ->
              let live =
                List.filter_map
                  (fun (stage, base) -> if base <= g then Some stage else None)
                  deltas
              in
              let filtered =
                List.filter_map
                  (fun ops ->
                    match
                      List.filter (fun op -> List.mem op.stage live) ops
                    with
                    | [] -> None
                    | kept -> Some kept)
                  txns
              in
              go (g + 1) (filtered :: acc)
      in
      go floor []

let load_latest t =
  let ( let* ) = Result.bind in
  let snap = snap_path t.dir t.gen in
  let* resolved, deltas =
    if Sys.file_exists snap then
      Result.map_error (fun e -> "snapshot unreadable: " ^ e)
      @@
      let* sections = Snapshot.load snap in
      resolve_sections t sections
    else if t.gen = 0 then
      (* generation 0 of a run that never checkpointed: empty snapshot *)
      Ok ([], [])
    else
      (* every generation past 0 wrote its snapshot before the
         MANIFEST named it *)
      Error
        (Printf.sprintf "damaged MANIFEST: generation %d has no snapshot"
           t.gen)
  in
  let* old_txns = collect_delta_txns t deltas in
  let* txns, tail = replay_generation t t.gen in
  let txns = old_txns @ txns in
  (* a chain's count is the size of the WAL files it keeps, so the
     closing checkpoint (and every one after) inlines when the
     uninterrupted run would have *)
  let wal_size g =
    try (Unix.stat (wal_path t.dir g)).Unix.st_size
    with Unix.Unix_error _ -> 0
  in
  Hashtbl.iter
    (fun _ c ->
      for g = c.base to t.gen do
        c.wal_bytes <- c.wal_bytes + wal_size g
      done)
    t.chains;
  Ok (resolved, txns, tail)

let syncs t = t.sync_count
