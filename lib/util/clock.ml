type t = { mutable now : float }

let create () = { now = 0. }
let now clock = clock.now

let advance clock seconds =
  if seconds < 0. then invalid_arg "Clock.advance: negative increment";
  clock.now <- clock.now +. seconds

let set clock time =
  if time < clock.now then invalid_arg "Clock.set: time in the past";
  clock.now <- time

let second = 1.
let hour = 3600.
let day = 86400.
let week = 7. *. day

let pp ppf time =
  (* Truncating [int_of_float] rounds toward zero, so for negative
     times days/rem would carry mismatched signs and the %02d fields
     print garbage like "-1d -0:-59:-59"; format the magnitude and
     prefix the sign instead.  Sub-second times flush to "0d
     00:00:00" explicitly rather than relying on truncation of
     not-a-number corner cases. *)
  if Float.is_nan time then Format.pp_print_string ppf "nan"
  else begin
    let t =
      let magnitude = Float.abs time in
      if magnitude >= float_of_int max_int then max_int
      else int_of_float magnitude
    in
    (* No "-0d 00:00:00": a negative that truncates to zero is zero. *)
    let sign = if time < 0. && t > 0 then "-" else "" in
    let days = t / 86400 in
    let rem = t mod 86400 in
    Format.fprintf ppf "%s%dd %02d:%02d:%02d" sign days (rem / 3600)
      (rem mod 3600 / 60) (rem mod 60)
  end
