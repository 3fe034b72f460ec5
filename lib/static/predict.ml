(* The ahead-of-time race predictor: intersect the effect sets of
   may-happen-in-parallel units (Model) under the conflict rules the
   dynamic detector uses (Effects.conflicts), classify each surviving
   pair into the paper's race classes, and deduplicate to one prediction
   per (type, location) — matching the dynamic side's one-report-per-
   location rule. *)

module Json = Wr_support.Json
module Telemetry = Wr_telemetry.Telemetry

type prediction = {
  race_type : Wr_detect.Race.race_type;
  loc : Effects.sloc;  (* the more concrete of the two effect locations *)
  first_unit : int;
  second_unit : int;
  first_eff : Effects.eff;
  second_eff : Effects.eff;
}

type lint_finding =
  | Duplicate_id of { doc : int; id : string; count : int }
  | Handler_on_missing_id of {
      doc : int;
      id : string;
      event : string;
      registered_by : string;
    }
  | Write_only_global of { name : string; written_by : string }

type result = {
  model : Model.t;
  predictions : prediction list;
  mhp_pairs : int;
  lint : lint_finding list;
}

(* How specifically a location names its cell; the dedup keeps the most
   concrete witness and loc pairs are canonicalized to the sharper one. *)
let sstr_rank = function
  | Effects.Lit _ -> 2
  | Effects.Prefix _ -> 1
  | Effects.Any_str -> 0

let loc_rank = function
  | Effects.S_top -> -2
  | Effects.S_dom_any _ -> -1
  | Effects.S_global s | Effects.S_collection { name = s; _ } -> sstr_rank s
  | Effects.S_id { id; _ } -> sstr_rank id
  | Effects.S_prop { prop; _ } -> sstr_rank prop
  | Effects.S_node _ -> 2
  | Effects.S_handler { event; _ } -> if event = "*" then 0 else 2

let canonical_loc (a : Effects.eff) (b : Effects.eff) =
  if loc_rank b.loc > loc_rank a.loc then b.loc else a.loc

(* --- prediction ------------------------------------------------------- *)

(* One prediction per (race type, canonical location) — mirroring
   Location.report_key collapsing on the dynamic side — keeping the most
   concretely located witness, the first discovered among equals. The
   table holds one witness per key while the conflicts stream past, so
   memory grows with the predictions, not with the raw conflicts.
   Predictions come out ordered by unit pair, then most concrete
   location first, then by discovery. *)
let find_conflicts (m : Model.t) =
  let kept = Hashtbl.create 64 in
  let found = ref 0 in
  Wr_hb.Graph.iter_chc_pairs m.hb (fun i j ->
      List.iter
        (fun (e1 : Effects.eff) ->
          List.iter
            (fun (e2 : Effects.eff) ->
              if Effects.conflicts e1 e2 then begin
                let race_type = Effects.classify e1 e2 in
                let loc = canonical_loc e1 e2 in
                let rank = loc_rank loc in
                let key =
                  Wr_detect.Race.type_name race_type ^ "|" ^ Effects.sloc_to_string loc
                in
                (match Hashtbl.find_opt kept key with
                | Some (r, _, _) when r >= rank -> ()
                | _ ->
                    Hashtbl.replace kept key
                      ( rank,
                        !found,
                        {
                          race_type;
                          loc;
                          first_unit = i;
                          second_unit = j;
                          first_eff = e1;
                          second_eff = e2;
                        } ));
                incr found
              end)
            m.units.(j).effs)
        m.units.(i).effs);
  Hashtbl.fold (fun _ w acc -> w :: acc) kept []
  |> List.sort (fun (ra, ia, a) (rb, ib, b) ->
         compare (a.first_unit, a.second_unit, rb, ia) (b.first_unit, b.second_unit, ra, ib))
  |> List.map (fun (_, _, p) -> p)

(* --- lint ------------------------------------------------------------- *)

let lint_findings (m : Model.t) =
  let dup =
    List.map
      (fun (doc, id, count) -> Duplicate_id { doc; id; count })
      m.duplicate_ids
  in
  let missing =
    List.map
      (fun (doc, id, event, registered_by) ->
        Handler_on_missing_id { doc; id; event; registered_by })
      m.missing_handler_ids
  in
  (* Globals written by some unit but read by none: dead state or a typo
     for another variable. Only literal names count — wildcard reads or
     writes make the question unanswerable. *)
  let reads = Hashtbl.create 64 and writes = Hashtbl.create 64 in
  let any_read = ref false in
  Array.iter
    (fun (u : Model.unit_) ->
      List.iter
        (fun (e : Effects.eff) ->
          match (e.loc, e.kind) with
          | Effects.S_global (Effects.Lit n), Effects.Read ->
              Hashtbl.replace reads n ()
          | Effects.S_global (Effects.Lit n), Effects.Write ->
              if not (Hashtbl.mem writes n) then
                Hashtbl.replace writes n u.label
          | Effects.S_global _, Effects.Read | Effects.S_top, _ ->
              any_read := true
          | _ -> ())
        u.effs)
    m.units;
  let write_only =
    if !any_read then []
    else
      Hashtbl.fold
        (fun name written_by l ->
          if Hashtbl.mem reads name then l
          else Write_only_global { name; written_by } :: l)
        writes []
      |> List.sort compare
  in
  dup @ missing @ write_only

(* --- entry point ------------------------------------------------------ *)

let predict ?(tm = Telemetry.disabled) ~page ~resources () =
  let model = Model.build ~tm ~page ~resources () in
  let predictions =
    Telemetry.with_span tm ~cat:"static" ~name:"static.predict" (fun () ->
        find_conflicts model)
  in
  let mhp_pairs = Model.mhp_pairs model in
  Telemetry.set_counter tm "static.predictions" (List.length predictions);
  Telemetry.set_counter tm "static.mhp_pairs" mhp_pairs;
  { model; predictions; mhp_pairs; lint = lint_findings model }

let count_by_type preds =
  List.fold_left
    (fun (h, f, v, d) p ->
      match p.race_type with
      | Wr_detect.Race.Html -> (h + 1, f, v, d)
      | Wr_detect.Race.Function_race -> (h, f + 1, v, d)
      | Wr_detect.Race.Variable -> (h, f, v + 1, d)
      | Wr_detect.Race.Event_dispatch -> (h, f, v, d + 1))
    (0, 0, 0, 0) preds

(* --- JSON ------------------------------------------------------------- *)

let prediction_to_json (m : Model.t) p =
  let unit_json i =
    Json.Obj
      [
        ("uid", Json.Int i);
        ("kind", Json.String (Model.kind_name m.units.(i).kind));
        ("label", Json.String m.units.(i).label);
      ]
  in
  Json.Obj
    [
      ("type", Json.String (Wr_detect.Race.type_name p.race_type));
      ("location", Json.String (Effects.sloc_to_string p.loc));
      ("first", unit_json p.first_unit);
      ("second", unit_json p.second_unit);
      ("first_kind", Json.String (Effects.kind_name p.first_eff.Effects.kind));
      ("second_kind", Json.String (Effects.kind_name p.second_eff.Effects.kind));
    ]

let lint_to_json = function
  | Duplicate_id { doc; id; count } ->
      Json.Obj
        [
          ("check", Json.String "duplicate-id");
          ("doc", Json.Int doc);
          ("id", Json.String id);
          ("count", Json.Int count);
        ]
  | Handler_on_missing_id { doc; id; event; registered_by } ->
      Json.Obj
        [
          ("check", Json.String "handler-on-missing-id");
          ("doc", Json.Int doc);
          ("id", Json.String id);
          ("event", Json.String event);
          ("registered_by", Json.String registered_by);
        ]
  | Write_only_global { name; written_by } ->
      Json.Obj
        [
          ("check", Json.String "write-only-global");
          ("name", Json.String name);
          ("written_by", Json.String written_by);
        ]

let to_json ?compare r =
  let h, f, v, d = count_by_type r.predictions in
  Json.Obj
    (Wr_support.Schema.tag
    :: [
         ("units", Json.Int (Array.length r.model.Model.units));
         ("docs", Json.Int r.model.Model.docs);
         ("mhp_pairs", Json.Int r.mhp_pairs);
         ( "predictions",
           Json.List (List.map (prediction_to_json r.model) r.predictions) );
         ( "summary",
           Json.Obj
             [
               ("total", Json.Int (List.length r.predictions));
               ("html", Json.Int h);
               ("function", Json.Int f);
               ("variable", Json.Int v);
               ("dispatch", Json.Int d);
             ] );
         ("lint", Json.List (List.map lint_to_json r.lint));
       ]
    @ match compare with None -> [] | Some c -> [ ("compare", c) ])
