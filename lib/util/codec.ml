(* These run millions of times per checkpoint at 10^5 subscriptions,
   so the number writers build their digits by hand in a block of
   their own (the callers include the wire server's reader threads, so
   nothing here is shared between calls) and hand it to the buffer
   once. *)

(* [put_digits b stop q] writes the decimal digits of [-q], for
   [q <= 0], so that they end just before [stop], and returns where
   they begin.  Working on the negation gives [min_int] its digits. *)
let rec put_digits b stop q =
  let stop = stop - 1 in
  Bytes.unsafe_set b stop (Char.unsafe_chr (Char.code '0' - (q mod 10)));
  if q <= -10 then put_digits b stop (q / 10) else stop

(* The bytes of [string_of_int i], then '\n'. *)
let int buf i =
  if i >= 0 && i < 10 then begin
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + i));
    Buffer.add_char buf '\n'
  end
  else begin
    (* a sign and at most 19 digits, then the newline *)
    let b = Bytes.create 21 in
    Bytes.unsafe_set b 20 '\n';
    let start = put_digits b 20 (if i < 0 then i else -i) in
    let start =
      if i < 0 then begin
        Bytes.unsafe_set b (start - 1) '-';
        start - 1
      end
      else start
    in
    Buffer.add_subbytes buf b start (21 - start)
  end

let hex_digit = "0123456789abcdef"
let mantissa_mask = (1 lsl 52) - 1

(* The bytes of [Printf.sprintf "%h" f], then '\n': hexadecimal float
   notation, in which every finite float round-trips exactly through
   [float_of_string], and so do infinities ("infinity") and nan.  A
   set sign bit prints '-', NaN's included; the mantissa's trailing
   zero digits, and the point with them, are dropped; a subnormal
   prints as 0x0.<digits>p-1022. *)
let float buf f =
  let bits = Int64.bits_of_float f in
  (* the low 63 bits: the biased exponent and the mantissa *)
  let v = Int64.to_int bits in
  let exponent = (v lsr 52) land 0x7ff and mantissa = v land mantissa_mask in
  if bits < 0L then Buffer.add_char buf '-';
  if exponent = 0x7ff then
    Buffer.add_string buf (if mantissa = 0 then "infinity\n" else "nan\n")
  else begin
    (* "0x1." + at most 13 hex digits + "p-1022" + '\n' *)
    let b = Bytes.create 24 in
    Bytes.unsafe_set b 0 '0';
    Bytes.unsafe_set b 1 'x';
    Bytes.unsafe_set b 2 (if exponent = 0 then '0' else '1');
    Bytes.unsafe_set b 3 '.';
    let rec fraction p m =
      if m = 0 then p
      else begin
        Bytes.unsafe_set b p (String.unsafe_get hex_digit (m lsr 48));
        fraction (p + 1) ((m lsl 4) land mantissa_mask)
      end
    in
    (* without fraction digits, the exponent overwrites the point *)
    let p = match fraction 4 mantissa with 4 -> 3 | p -> p in
    let e =
      if exponent > 0 then exponent - 1023
      else if mantissa = 0 then 0
      else -1022
    in
    Bytes.unsafe_set b p 'p';
    Bytes.unsafe_set b (p + 1) (if e < 0 then '-' else '+');
    let e = abs e in
    let stop =
      p + 2
      + if e >= 1000 then 4 else if e >= 100 then 3 else if e >= 10 then 2 else 1
    in
    ignore (put_digits b stop (-e));
    Bytes.unsafe_set b stop '\n';
    Buffer.add_subbytes buf b 0 (stop + 1)
  end

let bool buf b =
  Buffer.add_char buf (if b then '1' else '0');
  Buffer.add_char buf '\n'

let string buf s =
  int buf (String.length s);
  Buffer.add_string buf s

let list buf item xs =
  int buf (List.length xs);
  List.iter (item buf) xs

type reader = { data : string; mutable pos : int }

exception Malformed of string

let reader data = { data; pos = 0 }
let fail msg = raise (Malformed msg)

let newline r =
  match String.index_from r.data r.pos '\n' with
  | nl -> nl
  | exception Not_found -> fail "unterminated field"

(* Reads up to the next '\n' (consumed, not returned). *)
let token r =
  let nl = newline r in
  let s = String.sub r.data r.pos (nl - r.pos) in
  r.pos <- nl + 1;
  s

(* In place and as strict as the header fields: an optional '-', then
   ASCII digits only, overflow-checked. *)
let read_int r =
  let nl = newline r in
  let negative = r.pos < nl && String.unsafe_get r.data r.pos = '-' in
  let pos = if negative then r.pos + 1 else r.pos in
  match Parse.digits r.data ~pos ~stop:nl ~negative with
  | Some i ->
      r.pos <- nl + 1;
      i
  | None -> fail "bad int"

let read_float r =
  match float_of_string_opt (token r) with
  | Some f -> f
  | None -> fail "bad float"

let read_bool r =
  match token r with "1" -> true | "0" -> false | _ -> fail "bad bool"

let read_string r =
  let len = read_int r in
  if len < 0 || r.pos + len > String.length r.data then fail "bad string length"
  else begin
    let s = String.sub r.data r.pos len in
    r.pos <- r.pos + len;
    s
  end

let read_list r item =
  let n = read_int r in
  if n < 0 then fail "bad list length" else List.init n (fun _ -> item r)

let read_span r f =
  let start = r.pos in
  let v = f r in
  (v, String.sub r.data start (r.pos - start))

let at_end r = r.pos >= String.length r.data
let expect_end r = if not (at_end r) then fail "trailing bytes"
