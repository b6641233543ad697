(* Tests for xy_core: the Atomic Event Sets matcher, its baselines,
   the MQP wrapper and its subscription split.  The central oracle is
   agreement of all three matchers on random workloads. *)

module Event_set = Xy_events.Event_set
module Registry = Xy_events.Registry
module Atomic = Xy_events.Atomic
module Aes = Xy_core.Aes
module Aes_compact = Xy_core.Aes_compact
module Naive = Xy_core.Naive
module Counting = Xy_core.Counting
module Mqp = Xy_core.Mqp
module Workload = Xy_core.Workload

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_ids = Alcotest.(check (list int))

(* The paper's running example (Figure 4):
     c0:a0        c10:a1a3    c201:a1a3a4   c3:a1a3a5   c43:a1a5a6
     c25:a1a5a8   c9:a1a7     c527:a2       c15:a3      c4:a5
     c7:a5a6      c11:a5a7    c50:a5a8      c60:a8a9    c13:a8a12
     c31:a99a101 *)
let figure4 =
  [
    (0, [ 0 ]);
    (10, [ 1; 3 ]);
    (201, [ 1; 3; 4 ]);
    (3, [ 1; 3; 5 ]);
    (43, [ 1; 5; 6 ]);
    (25, [ 1; 5; 8 ]);
    (9, [ 1; 7 ]);
    (527, [ 2 ]);
    (15, [ 3 ]);
    (4, [ 5 ]);
    (7, [ 5; 6 ]);
    (11, [ 5; 7 ]);
    (50, [ 5; 8 ]);
    (60, [ 8; 9 ]);
    (13, [ 8; 12 ]);
    (31, [ 99; 101 ]);
  ]

module type MATCHER = Xy_core.Matcher.S

(* Closure wrapper so matchers of different abstract types can be
   exercised by the same test body. *)
type loaded = {
  name : string;
  add : id:int -> Event_set.t -> unit;
  remove : id:int -> unit;
  events : id:int -> Event_set.t;
  match_set : Event_set.t -> int list;
  complex_count : unit -> int;
}

let load (module M : MATCHER) defs =
  let m = M.create () in
  List.iter (fun (id, events) -> M.add m ~id (Event_set.of_list events)) defs;
  {
    name = M.name;
    add = (fun ~id events -> M.add m ~id events);
    remove = (fun ~id -> M.remove m ~id);
    events = (fun ~id -> M.events m ~id);
    match_set = (fun s -> M.match_set m s);
    complex_count = (fun () -> M.complex_count m);
  }

(* Aes_compact rides along through the generic tests in delta-heavy
   mode (no explicit freeze); its frozen / post-refreeze states get
   dedicated tests below. *)
let matchers : (module MATCHER) list =
  [ (module Aes); (module Aes_compact); (module Naive); (module Counting) ]

let run_figure4_example (module M : MATCHER) () =
  let m = load (module M) figure4 in
  (* Paper walk-through: S = {a1, a3, a5} detects c10, c3, c15, c4. *)
  check_ids
    (Printf.sprintf "%s: paper example S={1,3,5}" m.name)
    [ 3; 4; 10; 15 ]
    (m.match_set (Event_set.of_list [ 1; 3; 5 ]));
  (* S = {a1, a4, a8}: no registered complex event is included
     (c25 = {a1,a5,a8} misses a5; c201 = {a1,a3,a4} misses a3). *)
  check_ids
    (Printf.sprintf "%s: S={1,4,8}" m.name)
    []
    (m.match_set (Event_set.of_list [ 1; 4; 8 ]));
  (* S = {a1, a5, a8}: the paper's second walk-through finds c25,
     plus the subsets c4 = {a5} and c50 = {a5,a8}. *)
  check_ids
    (Printf.sprintf "%s: S={1,5,8}" m.name)
    [ 4; 25; 50 ]
    (m.match_set (Event_set.of_list [ 1; 5; 8 ]));
  check_ids
    (Printf.sprintf "%s: S={8,9,12}" m.name)
    [ 13; 60 ]
    (m.match_set (Event_set.of_list [ 8; 9; 12 ]));
  check_ids
    (Printf.sprintf "%s: singleton S={2}" m.name)
    [ 527 ]
    (m.match_set (Event_set.of_list [ 2 ]));
  check_ids
    (Printf.sprintf "%s: no match" m.name)
    []
    (m.match_set (Event_set.of_list [ 4; 6; 7 ]));
  check_ids
    (Printf.sprintf "%s: empty S" m.name)
    [] (m.match_set Event_set.empty)

let run_prefix_not_matched (module M : MATCHER) () =
  let m = load (module M) [ (1, [ 2; 4; 6 ]) ] in
  check_ids (m.name ^ ": proper prefix is not a match") []
    (m.match_set (Event_set.of_list [ 2; 4 ]));
  check_ids (m.name ^ ": full set matches") [ 1 ]
    (m.match_set (Event_set.of_list [ 2; 4; 6 ]));
  check_ids (m.name ^ ": superset matches") [ 1 ]
    (m.match_set (Event_set.of_list [ 1; 2; 3; 4; 5; 6; 7 ]))

let run_shared_event_sets (module M : MATCHER) () =
  (* Several complex events (subscriptions) with the same atomic set. *)
  let m =
    load (module M) [ (1, [ 5; 9 ]); (2, [ 5; 9 ]); (3, [ 5 ]) ]
  in
  check_ids (m.name ^ ": all marks reported") [ 1; 2; 3 ]
    (m.match_set (Event_set.of_list [ 5; 9 ]))

let run_dynamic_remove (module M : MATCHER) () =
  let m = load (module M) figure4 in
  let s = Event_set.of_list [ 1; 3; 5 ] in
  m.remove ~id:3;
  check_ids (m.name ^ ": removed id gone") [ 4; 10; 15 ] (m.match_set s);
  m.remove ~id:15;
  m.remove ~id:10;
  m.remove ~id:4;
  check_ids (m.name ^ ": all removed") [] (m.match_set s);
  checki (m.name ^ ": count drops") (List.length figure4 - 4) (m.complex_count ());
  (* Removal must not disturb siblings sharing prefixes. *)
  check_ids (m.name ^ ": shared prefixes intact") [ 201 ]
    (m.match_set (Event_set.of_list [ 1; 3; 4 ]))

let run_remove_unknown (module M : MATCHER) () =
  let m = load (module M) [ (1, [ 1 ]) ] in
  Alcotest.check_raises (m.name ^ ": unknown id") Not_found (fun () ->
      m.remove ~id:99)

let run_add_duplicate_id (module M : MATCHER) () =
  let m = load (module M) [ (1, [ 1 ]) ] in
  (match m.add ~id:1 (Event_set.of_list [ 2 ]) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail (m.name ^ ": duplicate id accepted"))

let run_add_empty (module M : MATCHER) () =
  let m = load (module M) [] in
  match m.add ~id:1 Event_set.empty with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail (m.name ^ ": empty complex event accepted")

let run_readd_after_remove (module M : MATCHER) () =
  let m = load (module M) [] in
  m.add ~id:7 (Event_set.of_list [ 1; 2 ]);
  m.remove ~id:7;
  m.add ~id:7 (Event_set.of_list [ 3 ]);
  check_ids (m.name ^ ": new definition") [ 7 ]
    (m.match_set (Event_set.of_list [ 3 ]));
  check_ids (m.name ^ ": old definition gone") []
    (m.match_set (Event_set.of_list [ 1; 2 ]))

let run_events_lookup (module M : MATCHER) () =
  let m = load (module M) [ (5, [ 3; 8 ]) ] in
  checkb (m.name ^ ": events returns set") true
    (Event_set.equal (m.events ~id:5) (Event_set.of_list [ 3; 8 ]));
  Alcotest.check_raises (m.name ^ ": events of unknown") Not_found (fun () ->
      ignore (m.events ~id:42))

let for_all_matchers name f =
  List.map
    (fun (module M : MATCHER) ->
      Alcotest.test_case (M.name ^ ": " ^ name) `Quick (f (module M : MATCHER)))
    matchers

(* ------------------------------------------------------------------ *)
(* Oracle: all three matchers agree with the reference semantics. *)

let reference_match defs s =
  List.filter_map
    (fun (id, events) ->
      if Event_set.subset (Event_set.of_list events) s then Some id else None)
    defs
  |> List.sort_uniq compare

let test_matchers_agree_random () =
  let prng = Xy_util.Prng.create ~seed:4242 in
  for _round = 1 to 30 do
    let card_a = 20 + Xy_util.Prng.int prng 200 in
    let card_c = 1 + Xy_util.Prng.int prng 300 in
    let defs =
      List.init card_c (fun id ->
          let b = 1 + Xy_util.Prng.int prng (min 6 card_a) in
          ( id,
            Array.to_list
              (Xy_util.Prng.distinct_sorted prng ~bound:card_a ~count:b) ))
    in
    let ms = List.map (fun m -> load m defs) matchers in
    for _doc = 1 to 30 do
      let s_card = 1 + Xy_util.Prng.int prng (min 30 card_a) in
      let s =
        Event_set.of_array
          (Xy_util.Prng.distinct_sorted prng ~bound:card_a ~count:s_card)
      in
      let expected = reference_match defs s in
      List.iter
        (fun m ->
          check_ids (m.name ^ " agrees with reference") expected
            (m.match_set s))
        ms
    done
  done

let test_matchers_agree_after_churn () =
  (* Interleave adds, removes and matches; matchers must stay in sync. *)
  let prng = Xy_util.Prng.create ~seed:99 in
  let live = Hashtbl.create 64 in
  let ms = List.map (fun m -> load m []) matchers in
  let next_id = ref 0 in
  for _step = 1 to 500 do
    let action = Xy_util.Prng.int prng 3 in
    if action = 0 || Hashtbl.length live = 0 then begin
      let id = !next_id in
      incr next_id;
      let b = 1 + Xy_util.Prng.int prng 4 in
      let events = Xy_util.Prng.distinct_sorted prng ~bound:50 ~count:b in
      Hashtbl.replace live id (Array.to_list events);
      List.iter (fun m -> m.add ~id (Event_set.of_array events)) ms
    end
    else if action = 1 then begin
      let ids = List.of_seq (Hashtbl.to_seq_keys live) in
      let id = Xy_util.Prng.pick_list prng ids in
      Hashtbl.remove live id;
      List.iter (fun m -> m.remove ~id) ms
    end
    else begin
      let s_card = 1 + Xy_util.Prng.int prng 15 in
      let s =
        Event_set.of_array
          (Xy_util.Prng.distinct_sorted prng ~bound:50 ~count:s_card)
      in
      let defs = List.of_seq (Hashtbl.to_seq live) in
      let expected = reference_match defs s in
      List.iter
        (fun m -> check_ids (m.name ^ " churn agreement") expected (m.match_set s))
        ms
    end
  done

let qcheck_matcher_agreement =
  let gen =
    QCheck.make
      ~print:(fun (defs, s) ->
        Printf.sprintf "defs=%s s=%s"
          (String.concat ";"
             (List.map
                (fun (id, e) ->
                  Printf.sprintf "%d:[%s]" id
                    (String.concat "," (List.map string_of_int e)))
                defs))
          (String.concat "," (List.map string_of_int s)))
      QCheck.Gen.(
        let event = int_bound 30 in
        let small_set = list_size (1 -- 5) event in
        pair
          (map
             (fun sets -> List.mapi (fun i s -> (i, List.sort_uniq compare s)) sets)
             (list_size (1 -- 40) small_set))
          (list_size (0 -- 12) event))
  in
  QCheck.Test.make ~name:"aes = naive = counting = reference" ~count:500 gen
    (fun (defs, s_list) ->
      let s = Event_set.of_list s_list in
      let expected = reference_match defs s in
      List.for_all
        (fun (module M : MATCHER) ->
          let m = load (module M) defs in
          m.match_set s = expected)
        matchers)

(* ------------------------------------------------------------------ *)
(* AES structure internals *)

let test_aes_stats () =
  let m = Aes.create () in
  List.iter (fun (id, events) -> Aes.add m ~id (Event_set.of_list events)) figure4;
  let stats = Aes.stats m in
  checki "marks = complex events" (List.length figure4) stats.Aes.marks;
  checkb "has sub-tables" true (stats.Aes.tables > 1);
  checkb "depth is max arity" true (stats.Aes.max_depth = 3);
  checkb "memory estimate positive" true (Aes.approx_memory_words m > 0)

let test_aes_prune_on_remove () =
  let m = Aes.create () in
  Aes.add m ~id:1 (Event_set.of_list [ 1; 2; 3 ]);
  let before = (Aes.stats m).Aes.cells in
  Aes.remove m ~id:1;
  let after = (Aes.stats m).Aes.cells in
  checki "cells before" 3 before;
  checki "all cells pruned" 0 after

let test_aes_probe_counting () =
  let m = Aes.create () in
  Aes.add m ~id:1 (Event_set.of_list [ 1; 2 ]);
  Aes.add m ~id:2 (Event_set.of_list [ 4 ]);
  (* root keys {1,4} (range [1,4]); sub-table of 1 holds {2}. *)
  checki "no probes yet" 0 (Aes.probes m);
  (* S = {1,2}: root probe for 1 (hit), sub-table probe for 2 (hit),
     root probe for 2 (miss, but within [1,4]) -> 3 probes. *)
  ignore (Aes.match_set m (Event_set.of_list [ 1; 2 ]));
  checki "three probes" 3 (Aes.probes m);
  (* S = {5}: above the root range — the scan stops without probing. *)
  ignore (Aes.match_set m (Event_set.of_list [ 5 ]));
  checki "out-of-range events not probed" 3 (Aes.probes m);
  (* S = {0,4}: 0 is below the range (skipped without probing), 4
     probes the root and matches. *)
  check_ids "id2 still matches" [ 2 ] (Aes.match_set m (Event_set.of_list [ 0; 4 ]));
  checki "below-range skipped, in-range probed" 4 (Aes.probes m);
  Aes.reset_probes m;
  checki "reset" 0 (Aes.probes m)

let test_aes_prune_keeps_shared () =
  let m = Aes.create () in
  Aes.add m ~id:1 (Event_set.of_list [ 1; 2; 3 ]);
  Aes.add m ~id:2 (Event_set.of_list [ 1; 2 ]);
  Aes.remove m ~id:1;
  checki "shared prefix kept" 2 (Aes.stats m).Aes.cells;
  check_ids "survivor still matches" [ 2 ]
    (Aes.match_set m (Event_set.of_list [ 1; 2; 3 ]))

(* ------------------------------------------------------------------ *)
(* Aes_compact: the frozen flat-array variant's freeze/delta
   lifecycle, beyond the generic matcher tests above. *)

let load_compact defs =
  let m = Aes_compact.create () in
  List.iter
    (fun (id, events) -> Aes_compact.add m ~id (Event_set.of_list events))
    defs;
  m

let test_compact_frozen_figure4 () =
  let m = load_compact figure4 in
  Aes_compact.freeze m;
  check_ids "frozen: paper example S={1,3,5}" [ 3; 4; 10; 15 ]
    (Aes_compact.match_set m (Event_set.of_list [ 1; 3; 5 ]));
  check_ids "frozen: S={1,5,8}" [ 4; 25; 50 ]
    (Aes_compact.match_set m (Event_set.of_list [ 1; 5; 8 ]));
  check_ids "frozen: no match" []
    (Aes_compact.match_set m (Event_set.of_list [ 4; 6; 7 ]));
  let cs = Aes_compact.compact_stats m in
  checki "all complex events frozen" (List.length figure4)
    cs.Aes_compact.frozen_complex;
  checki "one mark per complex event" (List.length figure4)
    cs.Aes_compact.frozen_marks;
  checkb "has cells" true (cs.Aes_compact.frozen_cells > 0);
  checkb "flat arrays sized" true (cs.Aes_compact.frozen_words > 0);
  checki "delta empty" 0 cs.Aes_compact.delta_complex;
  checki "no tombstones" 0 cs.Aes_compact.tombstones

let test_compact_lifecycle () =
  let m = load_compact figure4 in
  Aes_compact.freeze m;
  let refreezes_after_load = (Aes_compact.compact_stats m).Aes_compact.refreezes in
  (* Remove a frozen id (tombstone) and add a new one (delta). *)
  Aes_compact.remove m ~id:3;
  Aes_compact.add m ~id:999 (Event_set.of_list [ 1; 3 ]);
  let s = Event_set.of_list [ 1; 3; 5 ] in
  check_ids "tombstone filtered, delta consulted" [ 4; 10; 15; 999 ]
    (Aes_compact.match_set m s);
  checkb "events finds delta id" true
    (Event_set.equal (Aes_compact.events m ~id:999) (Event_set.of_list [ 1; 3 ]));
  Alcotest.check_raises "events of tombstoned id" Not_found (fun () ->
      ignore (Aes_compact.events m ~id:3));
  Alcotest.check_raises "double remove" Not_found (fun () ->
      Aes_compact.remove m ~id:3);
  checki "count reflects overlay" (List.length figure4)
    (Aes_compact.complex_count m);
  let cs = Aes_compact.compact_stats m in
  checki "one tombstone" 1 cs.Aes_compact.tombstones;
  checki "one delta add" 1 cs.Aes_compact.delta_complex;
  (* Re-freeze folds the overlay into the flat layout. *)
  Aes_compact.freeze m;
  let cs = Aes_compact.compact_stats m in
  checki "overlay folded in" (List.length figure4) cs.Aes_compact.frozen_complex;
  checki "tombstones cleared" 0 cs.Aes_compact.tombstones;
  checki "delta cleared" 0 cs.Aes_compact.delta_complex;
  checki "refreeze counted" (refreezes_after_load + 1) cs.Aes_compact.refreezes;
  check_ids "same matches after refreeze" [ 4; 10; 15; 999 ]
    (Aes_compact.match_set m s);
  (* Freeze with nothing dirty is an identity. *)
  Aes_compact.freeze m;
  check_ids "idempotent freeze" [ 4; 10; 15; 999 ] (Aes_compact.match_set m s)

let test_compact_auto_refreeze () =
  let m = Aes_compact.create () in
  Aes_compact.set_refreeze_threshold m (Some 4);
  List.iteri
    (fun id (_, events) -> Aes_compact.add m ~id (Event_set.of_list events))
    figure4;
  let cs = Aes_compact.compact_stats m in
  checkb "auto-refreeze fired" true (cs.Aes_compact.refreezes > 0);
  checkb "delta stays under threshold" true (cs.Aes_compact.delta_complex <= 4);
  (* Matching is unaffected by where each entry currently lives
     (ids are positional: figure4's (10, [1;3]) is id 1 here, etc.). *)
  let defs = List.mapi (fun i (_, e) -> (i, e)) figure4 in
  let s = Event_set.of_list [ 1; 3; 5 ] in
  check_ids "matches reference across freeze boundary"
    (reference_match defs s)
    (Aes_compact.match_set m s)

(* The heart of the tentpole's correctness claim: frozen, delta-dirty
   and post-refreeze states all agree with every other matcher and the
   reference semantics under random add/remove/match interleavings. *)
let test_compact_states_equivalence () =
  let prng = Xy_util.Prng.create ~seed:2718 in
  let live = Hashtbl.create 64 in
  let ms = List.map (fun m -> load m []) matchers in
  let manual = Aes_compact.create () in
  Aes_compact.set_refreeze_threshold manual (Some max_int);
  let auto = Aes_compact.create () in
  Aes_compact.set_refreeze_threshold auto (Some 8);
  let next_id = ref 0 in
  for _step = 1 to 600 do
    let action = Xy_util.Prng.int prng 4 in
    if action = 0 || Hashtbl.length live = 0 then begin
      let id = !next_id in
      incr next_id;
      let b = 1 + Xy_util.Prng.int prng 4 in
      let events = Xy_util.Prng.distinct_sorted prng ~bound:40 ~count:b in
      Hashtbl.replace live id (Array.to_list events);
      let set = Event_set.of_array events in
      List.iter (fun m -> m.add ~id set) ms;
      Aes_compact.add manual ~id set;
      Aes_compact.add auto ~id set
    end
    else if action = 1 then begin
      let ids = List.of_seq (Hashtbl.to_seq_keys live) in
      let id = Xy_util.Prng.pick_list prng ids in
      Hashtbl.remove live id;
      List.iter (fun m -> m.remove ~id) ms;
      Aes_compact.remove manual ~id;
      Aes_compact.remove auto ~id
    end
    else if action = 2 && Xy_util.Prng.int prng 10 = 0 then
      (* occasional explicit freeze: the manual instance cycles
         through frozen / dirty / re-frozen states *)
      Aes_compact.freeze manual
    else begin
      let s_card = 1 + Xy_util.Prng.int prng 12 in
      let s =
        Event_set.of_array
          (Xy_util.Prng.distinct_sorted prng ~bound:40 ~count:s_card)
      in
      let defs = List.of_seq (Hashtbl.to_seq live) in
      let expected = reference_match defs s in
      List.iter
        (fun m ->
          check_ids (m.name ^ " state agreement") expected (m.match_set s))
        ms;
      check_ids "manual-freeze compact agreement" expected
        (Aes_compact.match_set manual s);
      check_ids "auto-refreeze compact agreement" expected
        (Aes_compact.match_set auto s)
    end
  done;
  checkb "auto instance did refreeze" true
    ((Aes_compact.compact_stats auto).Aes_compact.refreezes > 0)

let qcheck_compact_frozen_agreement =
  let gen =
    QCheck.make
      ~print:(fun (defs, s) ->
        Printf.sprintf "defs=%s s=%s"
          (String.concat ";"
             (List.map
                (fun (id, e) ->
                  Printf.sprintf "%d:[%s]" id
                    (String.concat "," (List.map string_of_int e)))
                defs))
          (String.concat "," (List.map string_of_int s)))
      QCheck.Gen.(
        let event = int_bound 30 in
        let small_set = list_size (1 -- 5) event in
        pair
          (map
             (fun sets -> List.mapi (fun i s -> (i, List.sort_uniq compare s)) sets)
             (list_size (1 -- 40) small_set))
          (list_size (0 -- 12) event))
  in
  QCheck.Test.make ~name:"frozen aes-compact = reference" ~count:300 gen
    (fun (defs, s_list) ->
      let s = Event_set.of_list s_list in
      let m = load_compact defs in
      Aes_compact.freeze m;
      Aes_compact.match_set m s = reference_match defs s)

(* ------------------------------------------------------------------ *)
(* Mqp wrapper *)

let test_mqp_notifications () =
  let mqp = Mqp.create () in
  Mqp.subscribe mqp ~id:1 (Event_set.of_list [ 10; 20 ]);
  Mqp.subscribe mqp ~id:2 (Event_set.of_list [ 20 ]);
  let received = ref [] in
  Mqp.on_batch mqp (fun alert matched ->
      List.iter (fun _ -> received := alert :: !received) matched);
  let matched =
    Mqp.process mqp
      { Mqp.url = "http://inria.fr/Xy/"; events = Event_set.of_list [ 10; 20; 30 ];
        payload = "<UpdatedPage/>"; trace = None; birth = None }
  in
  check_ids "batch" [ 1; 2 ] matched;
  checki "two notifications" 2 (List.length !received);
  List.iter
    (fun n ->
      Alcotest.(check string) "url" "http://inria.fr/Xy/" n.Mqp.url;
      Alcotest.(check string) "payload forwarded" "<UpdatedPage/>" n.Mqp.payload)
    !received

let test_mqp_stats () =
  let mqp = Mqp.create () in
  Mqp.subscribe mqp ~id:1 (Event_set.of_list [ 1 ]);
  ignore (Mqp.process mqp { Mqp.url = "u"; events = Event_set.of_list [ 1 ]; payload = ""; trace = None; birth = None });
  ignore (Mqp.process mqp { Mqp.url = "u"; events = Event_set.of_list [ 2 ]; payload = ""; trace = None; birth = None });
  let stats = Mqp.stats mqp in
  checki "alerts" 2 stats.Mqp.alerts_processed;
  checki "notifications" 1 stats.Mqp.notifications_emitted;
  checki "complex events" 1 stats.Mqp.complex_events

let test_mqp_algorithms_equivalent () =
  let workload = { Workload.card_a = 500; card_c = 400; b = 3; s = 25 } in
  let docs = Workload.document_sets workload ~seed:5 ~count:50 in
  let mk algorithm = Workload.load_mqp ~algorithm workload ~seed:1 in
  let aes = mk Mqp.Use_aes
  and compact = mk Mqp.Use_aes_compact
  and naive = mk Mqp.Use_naive
  and counting = mk Mqp.Use_counting in
  (* exercise the compact processor in its frozen state too *)
  Mqp.freeze compact;
  Array.iter
    (fun events ->
      let alert = { Mqp.url = "u"; events; payload = ""; trace = None; birth = None } in
      let expected = Mqp.process aes alert in
      check_ids "aes-compact" expected (Mqp.process compact alert);
      check_ids "naive" expected (Mqp.process naive alert);
      check_ids "counting" expected (Mqp.process counting alert))
    docs

let test_mqp_compact_surface () =
  let mqp = Mqp.create ~algorithm:Mqp.Use_aes_compact () in
  Alcotest.(check string) "algorithm name" "aes-compact" (Mqp.algorithm_name mqp);
  Mqp.subscribe mqp ~id:1 (Event_set.of_list [ 1; 2 ]);
  Mqp.freeze mqp;
  (match Mqp.compact_stats mqp with
  | None -> Alcotest.fail "compact_stats expected for aes-compact"
  | Some cs -> checki "frozen after Mqp.freeze" 1 cs.Xy_core.Aes_compact.frozen_complex);
  (* other algorithms: the surface is inert *)
  let plain = Mqp.create () in
  Mqp.freeze plain;
  checkb "no stats for boxed aes" true (Mqp.compact_stats plain = None)

let test_mqp_algorithm_names () =
  List.iter
    (fun a ->
      match Mqp.algorithm_of_name (Mqp.algorithm_name_of a) with
      | Some a' -> checkb "name round-trips" true (a = a')
      | None -> Alcotest.fail "algorithm name did not round-trip")
    Mqp.algorithms;
  checkb "unknown name rejected" true (Mqp.algorithm_of_name "nope" = None)

(* ------------------------------------------------------------------ *)
(* The subscription split (§4.2's memory axis) *)

(* Whatever the algorithm and the number of parts, the subsets'
   merged matches are the whole processor's. *)
let test_split_matches_whole () =
  let workload = { Workload.card_a = 300; card_c = 200; b = 3; s = 20 } in
  let docs = Workload.document_sets workload ~seed:3 ~count:40 in
  List.iter
    (fun algorithm ->
      let whole = Workload.load_mqp ~algorithm workload ~seed:2 in
      List.iter
        (fun parts ->
          let subsets = Mqp.split whole ~parts in
          checki "parts" parts (Array.length subsets);
          checki "every complex event in one subset" (Mqp.complex_count whole)
            (Array.fold_left (fun n m -> n + Mqp.complex_count m) 0 subsets);
          Array.iter
            (fun events ->
              check_ids
                (Printf.sprintf "%s/%d: same matches"
                   (Mqp.algorithm_name_of algorithm) parts)
                (Mqp.match_readonly whole events)
                (List.sort Int.compare
                   (List.concat_map
                      (fun m -> Mqp.match_readonly m events)
                      (Array.to_list subsets))))
            docs)
        [ 1; 2; 4; 8 ])
    Mqp.algorithms

let test_split_memory_shrinks () =
  let workload = { Workload.card_a = 1000; card_c = 2000; b = 3; s = 10 } in
  let whole = Workload.load_mqp workload ~seed:7 in
  let largest =
    Array.fold_left
      (fun acc m -> max acc (Mqp.approx_memory_words m))
      0 (Mqp.split whole ~parts:4)
  in
  checkb "largest subset under half the whole" true
    (largest * 2 < Mqp.approx_memory_words whole)

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_shares_codes () =
  let r = Registry.create () in
  let c1 = Registry.register r (Atomic.Url_extends "http://inria.fr/") in
  let c2 = Registry.register r (Atomic.Url_extends "http://inria.fr/") in
  let c3 = Registry.register r (Atomic.Doc_contains "xml") in
  checki "same condition, same code" c1 c2;
  checkb "different condition, different code" true (c1 <> c3);
  checki "two live codes" 2 (Registry.cardinal r)

let test_registry_refcount_retire () =
  let r = Registry.create () in
  let cond = Atomic.Doc_contains "camera" in
  let code = Registry.register r cond in
  ignore (Registry.register r cond);
  checki "refcount 2" 2 (Registry.refcount r cond);
  checkb "not retired yet" false (Registry.release r code);
  checkb "retired" true (Registry.release r code);
  Alcotest.(check (option int)) "code gone" None (Registry.find r cond);
  Alcotest.(check bool) "reverse gone" true (Registry.condition r code = None)

let test_registry_notifies_listeners () =
  let r = Registry.create () in
  let log = ref [] in
  Registry.on_change r (fun e -> log := e :: !log);
  let cond = Atomic.Has_tag "product" in
  let code = Registry.register r cond in
  ignore (Registry.register r cond);
  ignore (Registry.release r code);
  ignore (Registry.release r code);
  match List.rev !log with
  | [ `Added (c1, _); `Removed (c2, _) ] ->
      checki "added code" code c1;
      checki "removed code" code c2
  | _ -> Alcotest.fail "expected exactly one Added and one Removed"

let test_registry_codes_increase () =
  let r = Registry.create () in
  let codes =
    List.map
      (fun w -> Registry.register r (Atomic.Doc_contains w))
      [ "a"; "b"; "c"; "d" ]
  in
  let sorted = List.sort compare codes in
  Alcotest.(check (list int)) "monotonic" sorted codes

let test_weak_strong () =
  checkb "new self is weak" true (Atomic.is_weak (Atomic.Doc_status Atomic.New));
  checkb "updated self is weak" true
    (Atomic.is_weak (Atomic.Doc_status Atomic.Updated));
  checkb "unchanged self is weak" true
    (Atomic.is_weak (Atomic.Doc_status Atomic.Unchanged));
  checkb "url is strong" false (Atomic.is_weak (Atomic.Url_equals "u"));
  checkb "element event is strong" false
    (Atomic.is_weak
       (Atomic.Element { Atomic.change = Some Atomic.New; tag = "p"; word = None }))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "core"
    [
      ("figure4 example", for_all_matchers "figure 4" run_figure4_example);
      ("prefix semantics", for_all_matchers "prefix" run_prefix_not_matched);
      ("shared event sets", for_all_matchers "shared" run_shared_event_sets);
      ("dynamic remove", for_all_matchers "remove" run_dynamic_remove);
      ("remove unknown", for_all_matchers "remove unknown" run_remove_unknown);
      ("duplicate id", for_all_matchers "dup id" run_add_duplicate_id);
      ("empty complex event", for_all_matchers "empty" run_add_empty);
      ("re-add after remove", for_all_matchers "readd" run_readd_after_remove);
      ("events lookup", for_all_matchers "events" run_events_lookup);
      ( "oracle",
        [
          tc "random workloads agree" test_matchers_agree_random;
          tc "agreement under churn" test_matchers_agree_after_churn;
          QCheck_alcotest.to_alcotest qcheck_matcher_agreement;
        ] );
      ( "aes structure",
        [
          tc "stats" test_aes_stats;
          tc "prune on remove" test_aes_prune_on_remove;
          tc "probe counting" test_aes_probe_counting;
          tc "prune keeps shared prefixes" test_aes_prune_keeps_shared;
        ] );
      ( "aes-compact",
        [
          tc "frozen figure 4" test_compact_frozen_figure4;
          tc "freeze/delta lifecycle" test_compact_lifecycle;
          tc "auto refreeze" test_compact_auto_refreeze;
          tc "state equivalence under churn" test_compact_states_equivalence;
          QCheck_alcotest.to_alcotest qcheck_compact_frozen_agreement;
        ] );
      ( "mqp",
        [
          tc "notifications" test_mqp_notifications;
          tc "stats" test_mqp_stats;
          tc "algorithms equivalent" test_mqp_algorithms_equivalent;
          tc "compact freeze surface" test_mqp_compact_surface;
          tc "algorithm names round-trip" test_mqp_algorithm_names;
        ] );
      ( "split",
        [
          tc "merged matches equal the whole" test_split_matches_whole;
          tc "memory shrinks" test_split_memory_shrinks;
        ] );
      ( "registry",
        [
          tc "shares codes" test_registry_shares_codes;
          tc "refcount retire" test_registry_refcount_retire;
          tc "notifies listeners" test_registry_notifies_listeners;
          tc "codes increase" test_registry_codes_increase;
          tc "weak/strong classification" test_weak_strong;
        ] );
    ]
