module T = Xy_xml.Types

let number = Xy_obs.Obs.Export.number

let markers v =
  let rec grow acc threshold =
    if threshold > v || threshold > 1e9 then List.rev acc
    else
      grow (("over_" ^ number threshold) :: acc) (threshold *. 10.)
  in
  grow [] 1.

(* "12 over_1 over_10": the value itself first, then its markers, all
   plain words the subscription language's [contains] can test. *)
let value_text v = String.concat " " (number v :: markers v)

(* One document per objective: its URL is stable, so a subscription on
   [URL extends "xyleme://self/slo/"] sees every status transition as a
   modification of "its" page — exactly how the paper's subscribers
   watch any other page. *)
let slo_url name = Printf.sprintf "xyleme://self/slo/%s.xml" name

let slo_document (r : Xy_slo.Slo.report) =
  let o = r.Xy_slo.Slo.r_objective in
  T.element "slo"
    ~attrs:
      [
        ("name", o.Xy_slo.Slo.o_name);
        ("at", number r.Xy_slo.Slo.r_at);
        ("objective", Printf.sprintf "%s of %s/%s within %ss"
           (number o.Xy_slo.Slo.o_target) o.Xy_slo.Slo.o_stage
           o.Xy_slo.Slo.o_metric (number o.Xy_slo.Slo.o_threshold));
      ]
    [
      (* the word the alerting subscription tests with [contains] *)
      T.el "status"
        [ T.text (if r.Xy_slo.Slo.r_breached then "breached" else "ok") ];
      T.el "fast_burn" [ T.text (value_text r.Xy_slo.Slo.r_fast_burn) ];
      T.el "slow_burn" [ T.text (value_text r.Xy_slo.Slo.r_slow_burn) ];
      T.el "window_total"
        [ T.text (value_text (float_of_int r.Xy_slo.Slo.r_total)) ];
      T.el "window_good"
        [ T.text (value_text (float_of_int r.Xy_slo.Slo.r_good)) ];
    ]

let slo_content report =
  Xy_xml.Printer.element_to_string ~indent:2 (slo_document report) ^ "\n"
