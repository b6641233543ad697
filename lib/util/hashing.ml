let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* 64-bit FNV-1a on the native int representation.  The obvious
   [Int64] loop boxes two values per input byte, and every page the
   loader stores pays for its signature.  The prime is 2^40 + 0x1b3, so with [h] split into
   32-bit halves (hi, lo):

     h * prime mod 2^64
       = h * 0x1b3  +  h * 2^40                        (mod 2^64)
       = h * 0x1b3  +  (lo mod 2^24) * 2^40            (hi * 2^72 = 0)

   Every intermediate fits a 63-bit native int: lo * 0x1b3 < 2^41 and
   hi * 0x1b3 + carry + ((lo land 0xffffff) lsl 8) < 2^42. *)
let fnv_fold (hi, lo) s =
  let lo = ref lo and hi = ref hi in
  for i = 0 to String.length s - 1 do
    let l = !lo lxor Char.code (String.unsafe_get s i) in
    let ll = l * 0x1b3 in
    let hh = (!hi * 0x1b3) + ((l land 0xffffff) lsl 8) + (ll lsr 32) in
    lo := ll land 0xffffffff;
    hi := hh land 0xffffffff
  done;
  (!hi, !lo)

let to_int64 (hi, lo) =
  Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

let fnv1a64 s = to_int64 (fnv_fold (0xcbf29ce4, 0x84222325) s)

(* Reference implementation, kept for the equivalence property test. *)
let fnv1a64_boxed s =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    s;
  !h

let signature s = Printf.sprintf "%016Lx" (fnv1a64 s)

let combine h1 h2 =
  Int64.mul (Int64.logxor h1 (Int64.add h2 0x9e3779b97f4a7c15L)) fnv_prime
