(* Tests for xy_util: simulated clock, PRNG, sorted integer sets,
   content hashing, the field codec; and the byte kernels under every
   durable record, the record checksum and framing. *)

module Clock = Xy_util.Clock
module Prng = Xy_util.Prng
module Sorted_ints = Xy_util.Sorted_ints
module Hashing = Xy_util.Hashing
module Parse = Xy_util.Parse
module Codec = Xy_util.Codec
module Record_log = Xy_durable.Record_log

let check = Alcotest.check
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Clock *)

let test_clock_starts_at_zero () =
  check (Alcotest.float 0.) "initial time" 0. (Clock.now (Clock.create ()))

let test_clock_advance () =
  let clock = Clock.create () in
  Clock.advance clock 10.;
  Clock.advance clock 2.5;
  check (Alcotest.float 1e-9) "advanced" 12.5 (Clock.now clock)

let test_clock_advance_negative_rejected () =
  let clock = Clock.create () in
  Alcotest.check_raises "negative advance"
    (Invalid_argument "Clock.advance: negative increment") (fun () ->
      Clock.advance clock (-1.))

let test_clock_set_monotonic () =
  let clock = Clock.create () in
  Clock.set clock 100.;
  check (Alcotest.float 0.) "set" 100. (Clock.now clock);
  Alcotest.check_raises "set backwards"
    (Invalid_argument "Clock.set: time in the past") (fun () ->
      Clock.set clock 50.)

let test_clock_constants () =
  checkb "hour" true (Clock.hour = 3600.);
  checkb "day" true (Clock.day = 24. *. 3600.);
  checkb "week" true (Clock.week = 7. *. Clock.day)

let test_clock_pp () =
  let s = Format.asprintf "%a" Clock.pp (Clock.day +. 3661.) in
  check Alcotest.string "format" "1d 01:01:01" s

let test_clock_pp_edge_cases () =
  let render t = Format.asprintf "%a" Clock.pp t in
  check Alcotest.string "zero" "0d 00:00:00" (render 0.);
  check Alcotest.string "sub-second flushes to zero" "0d 00:00:00" (render 0.999);
  check Alcotest.string "negative sub-second" "0d 00:00:00" (render (-0.25));
  check Alcotest.string "negative time carries one sign" "-1d 01:01:01"
    (render (-.(Clock.day +. 3661.)));
  check Alcotest.string "negative second" "-0d 00:00:01" (render (-1.));
  check Alcotest.string "nan" "nan" (render Float.nan);
  (* Huge values must not truncate into garbage. *)
  checkb "huge positive renders" true
    (String.length (render 1e30) > 0);
  checkb "huge negative is signed" true
    (String.length (render (-1e30)) > 1 && (render (-1e30)).[0] = '-')

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  let seq_a = List.init 50 (fun _ -> Prng.int a 1000) in
  let seq_b = List.init 50 (fun _ -> Prng.int b 1000) in
  check Alcotest.(list int) "same seed, same stream" seq_a seq_b

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let seq_a = List.init 50 (fun _ -> Prng.int a 1_000_000) in
  let seq_b = List.init 50 (fun _ -> Prng.int b 1_000_000) in
  checkb "different seed, different stream" false (seq_a = seq_b)

let test_distinct_sorted_properties () =
  let prng = Prng.create ~seed:7 in
  for _ = 1 to 100 do
    let bound = 50 + Prng.int prng 1000 in
    let count = 1 + Prng.int prng (min bound 40) in
    let draw = Prng.distinct_sorted prng ~bound ~count in
    Alcotest.(check int) "cardinality" count (Array.length draw);
    Array.iter (fun x -> checkb "in range" true (x >= 0 && x < bound)) draw;
    for i = 1 to Array.length draw - 1 do
      checkb "strictly increasing" true (draw.(i - 1) < draw.(i))
    done
  done

let test_distinct_sorted_full_range () =
  let prng = Prng.create ~seed:3 in
  let draw = Prng.distinct_sorted prng ~bound:10 ~count:10 in
  check Alcotest.(list int) "all values" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (Array.to_list draw)

let test_distinct_sorted_count_too_large () =
  let prng = Prng.create ~seed:3 in
  Alcotest.check_raises "count > bound"
    (Invalid_argument "Prng.distinct_sorted: count > bound") (fun () ->
      ignore (Prng.distinct_sorted prng ~bound:5 ~count:6))

let test_zipf_range_and_skew () =
  let prng = Prng.create ~seed:11 in
  let n = 1000 in
  let counts = Array.make n 0 in
  let draws = 20_000 in
  for _ = 1 to draws do
    let r = Prng.zipf prng ~n ~alpha:1.0 in
    checkb "in range" true (r >= 0 && r < n);
    counts.(r) <- counts.(r) + 1
  done;
  (* Rank 0 must be drawn far more often than rank 500. *)
  checkb "head heavier than tail" true (counts.(0) > 10 * max 1 counts.(500))

let test_exponential_positive_mean () =
  let prng = Prng.create ~seed:5 in
  let n = 10_000 in
  let total = ref 0. in
  for _ = 1 to n do
    let x = Prng.exponential prng ~mean:3. in
    checkb "non-negative" true (x >= 0.);
    total := !total +. x
  done;
  let mean = !total /. float_of_int n in
  checkb "mean close to 3" true (mean > 2.7 && mean < 3.3)

let test_pick_and_shuffle () =
  let prng = Prng.create ~seed:9 in
  let arr = [| 1; 2; 3; 4; 5 |] in
  for _ = 1 to 20 do
    checkb "pick member" true (Array.mem (Prng.pick prng arr) arr)
  done;
  let copy = Array.copy arr in
  Prng.shuffle prng copy;
  Array.sort compare copy;
  check Alcotest.(array int) "shuffle is a permutation" arr copy;
  Alcotest.check_raises "empty pick" (Invalid_argument "Prng.pick: empty array")
    (fun () -> ignore (Prng.pick prng [||]))

let test_words () =
  let prng = Prng.create ~seed:13 in
  let w = Prng.word prng in
  checkb "word length" true (String.length w >= 3 && String.length w <= 10);
  let ws = Prng.words prng 5 in
  Alcotest.(check int) "five words" 5
    (List.length (String.split_on_char ' ' ws))

(* ------------------------------------------------------------------ *)
(* Sorted_ints *)

let si = Alcotest.testable Sorted_ints.pp Sorted_ints.equal

let test_of_list_sorts_dedups () =
  check si "sorted, deduped"
    (Sorted_ints.of_list [ 1; 2; 3 ])
    (Sorted_ints.of_list [ 3; 1; 2; 3; 1 ])

let test_of_list_empty () =
  checkb "empty" true (Sorted_ints.is_empty (Sorted_ints.of_list []))

let test_mem () =
  let s = Sorted_ints.of_list [ 2; 5; 9; 40; 100 ] in
  List.iter (fun x -> checkb "mem" true (Sorted_ints.mem s x)) [ 2; 5; 9; 40; 100 ];
  List.iter
    (fun x -> checkb "not mem" false (Sorted_ints.mem s x))
    [ 0; 1; 3; 41; 99; 101 ]

let test_subset () =
  let sub a b =
    Sorted_ints.subset (Sorted_ints.of_list a) (Sorted_ints.of_list b)
  in
  checkb "subset yes" true (sub [ 1; 3 ] [ 1; 2; 3 ]);
  checkb "equal sets" true (sub [ 1; 2 ] [ 1; 2 ]);
  checkb "empty subset" true (sub [] [ 1 ]);
  checkb "not subset" false (sub [ 1; 4 ] [ 1; 2; 3 ]);
  checkb "superset is not subset" false (sub [ 1; 2; 3 ] [ 1; 2 ])

let test_set_algebra () =
  let a = Sorted_ints.of_list [ 1; 3; 5; 7 ] in
  let b = Sorted_ints.of_list [ 3; 4; 5; 8 ] in
  check si "union" (Sorted_ints.of_list [ 1; 3; 4; 5; 7; 8 ]) (Sorted_ints.union a b);
  check si "inter" (Sorted_ints.of_list [ 3; 5 ]) (Sorted_ints.inter a b);
  check si "diff" (Sorted_ints.of_list [ 1; 7 ]) (Sorted_ints.diff a b)

let test_check_rejects_unsorted () =
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Sorted_ints.check: not strictly increasing") (fun () ->
      Sorted_ints.check [| 1; 1 |])

(* qcheck: algebra laws *)
let int_set_gen = QCheck.(list_of_size Gen.(0 -- 30) (int_bound 100))

let qcheck_tests =
  [
    QCheck.Test.make ~name:"union commutes" ~count:200
      QCheck.(pair int_set_gen int_set_gen)
      (fun (a, b) ->
        let a = Sorted_ints.of_list a and b = Sorted_ints.of_list b in
        Sorted_ints.equal (Sorted_ints.union a b) (Sorted_ints.union b a));
    QCheck.Test.make ~name:"inter subset of both" ~count:200
      QCheck.(pair int_set_gen int_set_gen)
      (fun (a, b) ->
        let a = Sorted_ints.of_list a and b = Sorted_ints.of_list b in
        let i = Sorted_ints.inter a b in
        Sorted_ints.subset i a && Sorted_ints.subset i b);
    QCheck.Test.make ~name:"diff disjoint from b" ~count:200
      QCheck.(pair int_set_gen int_set_gen)
      (fun (a, b) ->
        let a = Sorted_ints.of_list a and b = Sorted_ints.of_list b in
        Sorted_ints.is_empty (Sorted_ints.inter (Sorted_ints.diff a b) b));
    QCheck.Test.make ~name:"union/diff/inter partition a" ~count:200
      QCheck.(pair int_set_gen int_set_gen)
      (fun (a, b) ->
        let a = Sorted_ints.of_list a and b = Sorted_ints.of_list b in
        Sorted_ints.equal a
          (Sorted_ints.union (Sorted_ints.diff a b) (Sorted_ints.inter a b)));
    QCheck.Test.make ~name:"mem agrees with list membership" ~count:200
      QCheck.(pair int_set_gen (int_bound 100))
      (fun (l, x) ->
        let s = Sorted_ints.of_list l in
        Sorted_ints.mem s x = List.mem x l);
  ]

(* ------------------------------------------------------------------ *)
(* Hashing *)

let test_hash_stable () =
  check Alcotest.string "known vector" "af63dc4c8601ec8c"
    (Hashing.signature "a");
  check Alcotest.string "empty string" "cbf29ce484222325" (Hashing.signature "")

let test_hash_distinguishes () =
  checkb "different content" false
    (Hashing.signature "<a>1</a>" = Hashing.signature "<a>2</a>")

let test_combine_order_sensitive () =
  let h1 = Hashing.fnv1a64 "x" and h2 = Hashing.fnv1a64 "y" in
  checkb "combine not commutative" false
    (Hashing.combine h1 h2 = Hashing.combine h2 h1)

(* The optimised native-int FNV-1a must agree bit-for-bit with the
   straightforward Int64 reference on arbitrary bytes. *)
let qcheck_fnv_fast_equals_boxed =
  QCheck.Test.make ~name:"fnv1a64 = fnv1a64_boxed" ~count:1000
    QCheck.(string_gen_of_size Gen.(0 -- 200) Gen.char)
    (fun s -> Int64.equal (Hashing.fnv1a64 s) (Hashing.fnv1a64_boxed s))

(* ------------------------------------------------------------------ *)
(* Strict decimal parsing (durable-format headers) *)

let test_decimal_accepts () =
  let d = Alcotest.(option int) in
  check d "zero" (Some 0) (Parse.decimal_int "0");
  check d "plain" (Some 42) (Parse.decimal_int "42");
  check d "leading zeros" (Some 7) (Parse.decimal_int "007");
  check d "max_int" (Some max_int) (Parse.decimal_int (string_of_int max_int))

let test_decimal_rejects_leniencies () =
  let d = Alcotest.(option int) in
  (* everything [int_of_string_opt] would wave through *)
  check d "hex prefix" None (Parse.decimal_int "0x10");
  check d "octal prefix" None (Parse.decimal_int "0o17");
  check d "binary prefix" None (Parse.decimal_int "0b101");
  check d "underscore separator" None (Parse.decimal_int "1_0");
  check d "leading plus" None (Parse.decimal_int "+3");
  check d "negative" None (Parse.decimal_int "-1");
  check d "empty" None (Parse.decimal_int "");
  check d "spaces" None (Parse.decimal_int " 1");
  check d "trailing junk" None (Parse.decimal_int "12a")

let test_decimal_rejects_overflow () =
  let d = Alcotest.(option int) in
  (* max_int plus one: same digit count, must overflow cleanly *)
  let over =
    let s = string_of_int max_int in
    let b = Bytes.of_string s in
    Bytes.set b (Bytes.length b - 1)
      (Char.chr (Char.code (Bytes.get b (Bytes.length b - 1)) + 1));
    Bytes.to_string b
  in
  check d "max_int + 1" None (Parse.decimal_int over);
  check d "way past" None (Parse.decimal_int "99999999999999999999")

(* ------------------------------------------------------------------ *)
(* Codec: the writers' bytes and the strict int reader *)

let field write v =
  let buf = Buffer.create 32 in
  write buf v;
  Buffer.contents buf

let read read s = read (Codec.reader s)

let gen_bits64 =
  QCheck.Gen.(
    map2
      (fun hi lo -> Int64.(logor (shift_left (of_int hi) 32) (of_int lo)))
      (int_bound 0xffff_ffff) (int_bound 0xffff_ffff))

(* Uniform 64-bit patterns hit every exponent, NaN payloads of either
   sign included; the listed ones are the edges uniform draws miss. *)
let gen_float =
  QCheck.Gen.(
    frequency
      [
        (8, map Int64.float_of_bits gen_bits64);
        ( 2,
          oneofl
            [
              0.; -0.; 1.; -1.; 0.1; 1.5; 17.; infinity; neg_infinity; nan;
              -.nan; Float.min_float; -.Float.min_float; Float.max_float;
              -.Float.max_float; Int64.float_of_bits 1L;
              Int64.float_of_bits 0x000f_ffff_ffff_ffffL;
              Int64.float_of_bits 0x8000_0000_0000_0001L;
              Int64.float_of_bits 0x7ff0_0000_0000_0001L;
              Int64.float_of_bits 0xfff0_0000_0000_0001L;
            ] );
        (2, map float_of_int (int_range (-100_000) 100_000));
      ])

let qcheck_float_bytes =
  QCheck.Test.make ~name:"float writes the bytes of %h and reads back"
    ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%h") gen_float)
    (fun f ->
      let bytes = field Codec.float f in
      let back = read Codec.read_float bytes in
      String.equal bytes (Printf.sprintf "%h\n" f)
      &&
      if Float.is_nan f then Float.is_nan back
      else Int64.equal (Int64.bits_of_float back) (Int64.bits_of_float f))

let gen_int =
  QCheck.Gen.(
    frequency
      [
        (6, map Int64.to_int gen_bits64);
        (3, int_range (-1000) 1000);
        (1, oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1; 9; 10 ]);
      ])

let qcheck_int_bytes =
  QCheck.Test.make ~name:"int writes the bytes of string_of_int and reads back"
    ~count:20_000
    (QCheck.make ~print:string_of_int gen_int)
    (fun i ->
      let bytes = field Codec.int i in
      String.equal bytes (string_of_int i ^ "\n") && read Codec.read_int bytes = i)

let test_read_int_strict () =
  let malformed s =
    match read Codec.read_int (s ^ "\n") with
    | exception Codec.Malformed _ -> ()
    | i -> Alcotest.failf "%S read as %d" s i
  in
  List.iter malformed
    [
      "0x10"; "1_0"; "+3"; "-0x1"; "0b11"; "0o7"; ""; "-"; "--1"; " 1"; "1 ";
      "12a"; "99999999999999999999"; "-99999999999999999999";
      "4611686018427387904" (* max_int + 1 *);
      "-4611686018427387905" (* min_int - 1 *);
    ];
  (match read Codec.read_int "12" with
  | exception Codec.Malformed _ -> ()
  | i -> Alcotest.failf "an unterminated field read as %d" i);
  let r = Codec.reader "-4611686018427387904\n4611686018427387903\n007\n" in
  check Alcotest.int "min_int" min_int (Codec.read_int r);
  check Alcotest.int "max_int" max_int (Codec.read_int r);
  check Alcotest.int "leading zeros" 7 (Codec.read_int r);
  checkb "every byte read" true (Codec.at_end r)

(* ------------------------------------------------------------------ *)
(* Records: the checksum over parts, bit flips and truncation *)

(* A record written from parts is the record of their concatenation,
   whatever the cuts: empty parts, and cuts inside a word. *)
let qcheck_checksum_parts =
  let gen =
    QCheck.Gen.(
      pair
        (string_size ~gen:char (0 -- 80))
        (list_size (0 -- 12) (oneof [ return 0; 1 -- 9; 0 -- 80 ])))
  in
  QCheck.Test.make ~name:"record over parts = record over their concatenation"
    ~count:5_000
    (QCheck.make
       ~print:(fun (s, cuts) ->
         Printf.sprintf "%S cut at %s" s
           (String.concat "," (List.map string_of_int cuts)))
       gen)
    (fun (s, cuts) ->
      (* cut [s] at the given sizes, clamped, with empty parts kept *)
      let rec split pos = function
        | [] -> [ String.sub s pos (String.length s - pos) ]
        | n :: rest ->
            let n = min n (String.length s - pos) in
            String.sub s pos n :: split (pos + n) rest
      in
      let buf = Buffer.create 128 in
      Record_log.add_record buf (split 0 cuts);
      String.equal (Buffer.contents buf) (Record_log.encode s))

(* 43 bytes: five whole words and a 3-byte tail, so a checksum that
   skipped the trailing [n mod 8] bytes would miss flips there. *)
let sample_payload =
  let buf = Buffer.create 64 in
  Codec.string buf "warehouse";
  Codec.int buf (-42);
  Codec.float buf 0.1;
  Codec.string buf "tail!";
  Buffer.contents buf

let decodes record =
  let d = Record_log.decoder () in
  Record_log.feed d record;
  match Record_log.next d with Ok (Some payload) -> Some payload | _ -> None

let test_record_flips_and_truncations () =
  check Alcotest.int "payload length" 43 (String.length sample_payload);
  let record = Record_log.encode sample_payload in
  check Alcotest.(option string) "intact" (Some sample_payload) (decodes record);
  String.iteri
    (fun pos c ->
      for bit = 0 to 7 do
        let b = Bytes.of_string record in
        Bytes.set b pos (Char.chr (Char.code c lxor (1 lsl bit)));
        match decodes (Bytes.to_string b) with
        | None -> ()
        | Some _ -> Alcotest.failf "byte %d bit %d: flipped record accepted" pos bit
      done)
    record;
  for cut = 0 to String.length record - 1 do
    match decodes (String.sub record 0 cut) with
    | None -> ()
    | Some _ -> Alcotest.failf "cut %d: truncated record accepted" cut
  done

(* The framing older builds wrote, an X header with the payload's
   byte-serial FNV-1a: refused by name once whole, never read. *)
let test_record_older_format () =
  let older =
    Printf.sprintf "X %d %s\n%s\n" (String.length sample_payload)
      (Hashing.signature sample_payload)
      sample_payload
  in
  let d = Record_log.decoder () in
  Record_log.feed d (String.sub older 0 (String.length older - 1));
  checkb "incomplete until whole" true (Record_log.next d = Ok None);
  Record_log.feed d "\n";
  checkb "refused as the older format" true
    (Record_log.next d = Error Record_log.Older_format)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "util"
    [
      ( "clock",
        [
          tc "starts at zero" test_clock_starts_at_zero;
          tc "advance" test_clock_advance;
          tc "negative advance rejected" test_clock_advance_negative_rejected;
          tc "set is monotonic" test_clock_set_monotonic;
          tc "constants" test_clock_constants;
          tc "pretty printing" test_clock_pp;
          tc "pretty printing edge cases" test_clock_pp_edge_cases;
        ] );
      ( "prng",
        [
          tc "deterministic" test_prng_deterministic;
          tc "seed sensitivity" test_prng_seed_sensitivity;
          tc "distinct_sorted properties" test_distinct_sorted_properties;
          tc "distinct_sorted full range" test_distinct_sorted_full_range;
          tc "distinct_sorted bound check" test_distinct_sorted_count_too_large;
          tc "zipf range and skew" test_zipf_range_and_skew;
          tc "exponential mean" test_exponential_positive_mean;
          tc "pick and shuffle" test_pick_and_shuffle;
          tc "words" test_words;
        ] );
      ( "sorted_ints",
        [
          tc "of_list sorts and dedups" test_of_list_sorts_dedups;
          tc "empty" test_of_list_empty;
          tc "mem" test_mem;
          tc "subset" test_subset;
          tc "algebra" test_set_algebra;
          tc "check rejects unsorted" test_check_rejects_unsorted;
        ] );
      ("sorted_ints.qcheck", List.map QCheck_alcotest.to_alcotest qcheck_tests);
      ( "hashing",
        [
          tc "stable known vectors" test_hash_stable;
          tc "distinguishes content" test_hash_distinguishes;
          tc "combine order-sensitive" test_combine_order_sensitive;
          QCheck_alcotest.to_alcotest qcheck_fnv_fast_equals_boxed;
        ] );
      ( "parse",
        [
          tc "decimal accepts" test_decimal_accepts;
          tc "decimal rejects leniencies" test_decimal_rejects_leniencies;
          tc "decimal rejects overflow" test_decimal_rejects_overflow;
        ] );
      ( "codec",
        [
          QCheck_alcotest.to_alcotest qcheck_float_bytes;
          QCheck_alcotest.to_alcotest qcheck_int_bytes;
          tc "read_int is strict" test_read_int_strict;
        ] );
      ( "record",
        [
          QCheck_alcotest.to_alcotest qcheck_checksum_parts;
          tc "every bit flip and truncation is refused"
            test_record_flips_and_truncations;
          tc "the older format is refused by name" test_record_older_format;
        ] );
    ]
