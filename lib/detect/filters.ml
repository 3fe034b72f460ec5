open Wr_mem

type run_info = { dispatch_count : target:int -> event:string -> int }

type outcome = {
  kept : Race.t list;
  suppressed : (string * Race.t) list;
  counts : (string * int) list;
}

let form_field_name = "form-field"

let single_dispatch_name = "single-dispatch"

let involves_form_field (r : Race.t) =
  Access.has_flag r.first Form_field || Access.has_flag r.second Form_field

let writer_checked_first (r : Race.t) =
  let checked (a : Access.t) = a.kind = `Write && Access.has_flag a Checked_read_first in
  checked r.first || checked r.second

let form_field_keeps (r : Race.t) =
  match r.race_type with
  | Variable -> involves_form_field r && not (writer_checked_first r)
  | Html | Function_race | Event_dispatch -> true

let single_dispatch_keeps info (r : Race.t) =
  match r.race_type, r.loc with
  | Event_dispatch, Location.Event_handler { target; event; _ } ->
      info.dispatch_count ~target ~event <= 1
  | Event_dispatch, (Location.Js_var _ | Location.Html_elem _) ->
      (* Unreachable by classification, but keep such reports visible. *)
      true
  | (Variable | Html | Function_race), _ -> true

let form_field races = List.filter form_field_keeps races

let single_dispatch info races = List.filter (single_dispatch_keeps info) races

(* Each suppression is logged with the responsible filter so a developer
   can see *why* a race vanished from the report — previously filter
   outcomes were invisible. *)
let log_suppression filter (r : Race.t) =
  if Wr_support.Log.enabled Wr_support.Log.Info then
    Wr_support.Log.info "filter.suppress"
      [
        ("filter", Wr_support.Json.String filter);
        ("race_type", Wr_support.Json.String (Race.type_name r.race_type));
        ("location", Wr_support.Json.String (Location.to_string r.loc));
        ("first_op", Wr_support.Json.Int r.first.Access.op);
        ("second_op", Wr_support.Json.Int r.second.Access.op);
      ]

let apply info races =
  let stage name keeps (kept, suppressed) =
    List.fold_left
      (fun (kept, suppressed) r ->
        if keeps r then (r :: kept, suppressed)
        else begin
          log_suppression name r;
          (kept, (name, r) :: suppressed)
        end)
      ([], suppressed) kept
    |> fun (kept, suppressed) -> (List.rev kept, suppressed)
  in
  let kept, suppressed =
    (races, [])
    |> stage form_field_name form_field_keeps
    |> stage single_dispatch_name (single_dispatch_keeps info)
  in
  let suppressed = List.rev suppressed in
  let count name =
    List.length (List.filter (fun (f, _) -> f = name) suppressed)
  in
  {
    kept;
    suppressed;
    counts =
      [
        (form_field_name, count form_field_name);
        (single_dispatch_name, count single_dispatch_name);
      ];
  }
