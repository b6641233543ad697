(* Durability experiment: what checkpoint + warm restart cost as the
   subscription population grows.  The paper's system is meant to run
   unattended against the web for months, so the numbers that matter
   are (a) how long a checkpoint stalls the pipeline — separated into
   the *cold* first checkpoint (a full snapshot of every stage) and
   the *steady-state* pause (every stage re-encoded except the
   WAL-carried reporter, written as a delta on its base payload) —
   (b) how long a warm restart takes before the crawler is fetching
   again, and (c) the pause of the one checkpoint that also rewrites
   the subscription log, once half the population has been updated. *)

open Harness
module Xyleme = Xy_system.Xyleme
module Web = Xy_crawler.Synthetic_web
module Sink = Xy_reporter.Sink
module Obs = Xy_obs.Obs
module Manager = Xy_submgr.Manager

let sub_counts = function
  | Quick -> [ 1_000; 5_000 ]
  | Default -> [ 1_000; 10_000; 50_000 ]
  | Paper -> [ 1_000; 10_000; 50_000; 100_000 ]

let rm_rf path =
  let rec go p =
    if Sys.is_directory p then (
      Array.iter (fun e -> go (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p)
    else Sys.remove p
  in
  if Sys.file_exists path then go path

let with_temp_dir f =
  let dir = Filename.temp_file "xyleme-bench-durable" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let file_size path =
  if Sys.file_exists path then (Unix.stat path).Unix.st_size else 0

let wal_size dir ~gen =
  file_size (Filename.concat dir (Printf.sprintf "gen-%d.wal" gen))

let sub_text i ~sites =
  Printf.sprintf
    {|subscription D%d
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://site%d.example.org/" and modified self
report when count > 2 atmost daily|}
    i (i mod sites)

let tbl_durable scale =
  section "tbl-durable — checkpoint pause and warm-restart time";
  note
    "a durable run group-commits journalled txns into one gen-N.wal \
     file per generation; the first checkpoint snapshots every stage \
     (cold, full), later ones re-encode every stage except the WAL-carried \
     reporter, written as a delta on its base payload while the WAL \
     since stays smaller (steady); restore replays subscriptions + \
     snapshot + WAL and re-arms in-flight work; a checkpoint rewrites \
     the subscription log once its superseded records number at least \
     its live subscriptions (compact: after N/2 updates on the restored \
     system)";
  let sites = 8 in
  let step = 6. *. 3600. in
  let rows =
    List.map
      (fun n ->
        with_temp_dir (fun dir ->
            let web = Web.generate ~seed:11 ~sites ~pages_per_site:6 () in
            let sink, _ = Sink.counting () in
            let xyleme =
              Xyleme.create ~seed:11 ~sink ~web ~obs:(Obs.create ())
                ~durable_dir:dir ()
            in
            (* Bulk-load through the manager: these subscriptions carry
               no refresh clauses, so the system-level wrapper's
               re-application of refresh ceilings (linear in the live
               population, quadratic for a bulk load) would be a no-op
               anyway. *)
            let mgr = Xyleme.manager xyleme in
            let (), load_wall =
              time_once (fun () ->
                  for i = 0 to n - 1 do
                    match
                      Manager.subscribe mgr
                        ~owner:(Printf.sprintf "u%d" i)
                        ~text:(sub_text i ~sites)
                    with
                    | Ok _ -> ()
                    | Error e ->
                        failwith (Manager.error_to_string e)
                  done)
            in
            (* A day of simulated crawling populates the warehouse and
               leaves a realistic WAL for the checkpoint to retire. *)
            Xyleme.run xyleme ~days:1. ~step ~fetch_limit:400;
            let wal_bytes = wal_size dir ~gen:0 in
            (* Cold: the first checkpoint has no base for a delta —
               every stage snapshots inline. *)
            let _, ckpt_cold =
              time_once (fun () -> Xyleme.checkpoint xyleme)
            in
            (* Steady state: crawl one more step (days is cumulative),
               checkpoint again.  Every stage but the reporter is
               re-encoded; this pause is what the pipeline actually
               feels per checkpoint while running. *)
            Xyleme.run xyleme ~days:1.25 ~step ~fetch_limit:400;
            let info, ckpt_steady =
              time_once (fun () -> Xyleme.checkpoint xyleme)
            in
            let snap_bytes =
              file_size
                (Filename.concat dir
                   (Printf.sprintf "gen-%d.snap" info.Xyleme.generation))
            in
            let restored, restart_wall =
              time_once (fun () ->
                  let web = Web.generate ~seed:11 ~sites ~pages_per_site:6 () in
                  let sink, _ = Sink.counting () in
                  Xyleme.restore ~seed:11 ~sink ~web ~obs:(Obs.create ()) ~dir
                    ())
            in
            let restored, ri =
              match restored with
              | Ok r -> r
              | Error e -> failwith ("restore failed: " ^ e)
            in
            assert (ri.Xyleme.subscriptions_recovered = n);
            (* Updating half the population supersedes n records, as
               many as stay live: the next checkpoint must rewrite the
               subscription log. *)
            let mgr = Xyleme.manager restored in
            for i = 0 to (n / 2) - 1 do
              match
                Manager.update mgr
                  ~name:(Printf.sprintf "D%d" i)
                  ~owner:(Printf.sprintf "u%d" i)
                  ~text:(sub_text i ~sites)
              with
              | Ok () -> ()
              | Error e -> failwith (Manager.error_to_string e)
            done;
            let compacted, ckpt_compact =
              time_once (fun () -> Xyleme.checkpoint restored)
            in
            assert (compacted.Xyleme.compacted_records = 2 * (n / 2));
            let log_bytes = file_size (Filename.concat dir "subscriptions.log") in
            record_mqp
              ~name:(Printf.sprintf "tbl-durable/checkpoint@%d" n)
              ~docs_per_sec:(1. /. ckpt_steady)
              ~memory_words:(snap_bytes / 8) ();
            (* the bounded-pause row: probes_per_doc carries the
               steady-state pause in milliseconds *)
            record_mqp
              ~name:(Printf.sprintf "tbl-durable/pause@%d" n)
              ~docs_per_sec:(1. /. ckpt_steady)
              ~probes_per_doc:(ckpt_steady *. 1e3)
              ~memory_words:(snap_bytes / 8) ();
            record_mqp
              ~name:(Printf.sprintf "tbl-durable/checkpoint-full@%d" n)
              ~docs_per_sec:(1. /. ckpt_cold)
              ~memory_words:(wal_bytes / 8) ();
            record_mqp
              ~name:(Printf.sprintf "tbl-durable/restart@%d" n)
              ~docs_per_sec:(float_of_int n /. restart_wall)
              ~memory_words:(wal_bytes / 8) ();
            (* the rewriting checkpoint's pause, in milliseconds, as the
               pause rows carry theirs; the rewritten log's size *)
            record_mqp
              ~name:(Printf.sprintf "tbl-durable/compact@%d" n)
              ~docs_per_sec:(1. /. ckpt_compact)
              ~probes_per_doc:(ckpt_compact *. 1e3)
              ~memory_words:(log_bytes / 8) ();
            [
              string_of_int n;
              Printf.sprintf "%.0f" (float_of_int n /. load_wall);
              Printf.sprintf "%.1f" (ckpt_cold *. 1e3);
              Printf.sprintf "%.1f" (ckpt_steady *. 1e3);
              Printf.sprintf "%d" (snap_bytes / 1024);
              Printf.sprintf "%d" (wal_bytes / 1024);
              Printf.sprintf "%.1f" (restart_wall *. 1e3);
              Printf.sprintf "%.0f" (float_of_int n /. restart_wall);
              Printf.sprintf "%.1f" (ckpt_compact *. 1e3);
            ]))
      (sub_counts scale)
  in
  print_table ~title:"checkpoint & warm restart vs. subscription count"
    ~header:
      [
        "subs";
        "load subs/s";
        "full ckpt ms";
        "steady ckpt ms";
        "snap KiB";
        "wal KiB";
        "restart ms";
        "restart subs/s";
        "rewrite ckpt ms";
      ]
    rows

let all = [ ("tbl-durable", tbl_durable) ]
