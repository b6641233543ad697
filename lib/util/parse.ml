(* [int_of_string_opt] accepts far more than the on-disk formats ever
   write: hex/octal/binary prefixes ("0x10"), underscore separators
   ("1_0"), and signs ("+3", "-0").  A length or generation field in a
   WAL/snapshot/manifest header that was damaged into one of those
   shapes would then parse as a valid number and misclassify a Corrupt
   tail as something else.  Recovery-path readers use this strict
   scanner instead: ASCII decimal digits only, overflow-checked.

   The value accumulates negated, so that [min_int], whose magnitude
   no positive int holds, scans too. *)

let digits s ~pos ~stop ~negative =
  let rec go i acc =
    if i >= stop then
      if negative then Some acc else if acc = min_int then None else Some (-acc)
    else
      let d = Char.code (String.unsafe_get s i) - Char.code '0' in
      if d < 0 || d > 9 || acc < (min_int + d) / 10 then None
      else go (i + 1) ((acc * 10) - d)
  in
  if pos < 0 || pos >= stop || stop > String.length s then None else go pos 0

let decimal_int s =
  digits s ~pos:0 ~stop:(String.length s) ~negative:false
