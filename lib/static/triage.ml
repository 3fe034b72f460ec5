(* Static -> dynamic triage (DESIGN.md §8).

   The predictor names every pair that MAY race; the dynamic detector
   reports whatever the one schedule it ran happened to realize. This
   layer closes the loop: for each prediction it derives *scheduling
   directives* — which delay channels (parse, timers, network, XHR,
   user input) to speed up or slow down so the two units can land in
   either order — from the units' HB ancestors in the MHP model, runs only
   those directed schedules through [Webracer.Replay.run_directed], and
   classifies every prediction as confirmed (some schedule realized
   it), refuted (a certificate shows it unrealizable under the explored
   directive space), or unconfirmed (budget exhausted).

   Soundness stays pinned throughout: any raw dynamic race observed in
   any schedule that no prediction covers is reported as [unpredicted]
   — the CLI exits 2 on it, and CI runs `triage --corpus` as a gate. *)

module Race = Wr_detect.Race
module Loop = Wr_scheduler.Event_loop
module Json = Wr_support.Json

(* ------------------------------------------------------------------ *)
(* Directive extraction                                                *)

type channel = C_parse | C_timer | C_net | C_xhr | C_user

let channel_name = function
  | C_parse -> "parse"
  | C_timer -> "timer"
  | C_net -> "net"
  | C_xhr -> "xhr"
  | C_user -> "user"

let channel_rank = function
  | C_parse -> 0
  | C_timer -> 1
  | C_net -> 2
  | C_xhr -> 3
  | C_user -> 4

(* The delay channel a unit's own dispatch rides on. DCL/load fire at
   structural points the bias cannot move, so they contribute none. *)
let own_channel (u : Model.unit_) =
  match u.Model.kind with
  | Model.U_parse _ | Model.U_script `Sync | Model.U_script `Defer -> Some C_parse
  | Model.U_script `Async -> Some C_net
  | Model.U_timer _ -> Some C_timer
  | Model.U_xhr -> Some C_xhr
  | Model.U_handler _ | Model.U_dispatch _ | Model.U_user _ -> Some C_user
  | Model.U_dcl | Model.U_load -> None

(* Every channel whose delays can move WHEN a unit runs: its own plus
   those of all its HB ancestors (a timer registered by an async script
   moves when the network does). *)
let channels (m : Model.t) uid =
  let acc = ref [] in
  let add = function
    | Some c when not (List.mem c !acc) -> acc := c :: !acc
    | _ -> ()
  in
  add (own_channel m.Model.units.(uid));
  for i = 0 to uid - 1 do
    if Model.happens_before m i uid then add (own_channel m.Model.units.(i))
  done;
  List.sort (fun a b -> compare (channel_rank a) (channel_rank b)) !acc

(* A directive: a set of per-channel speed overrides, canonically
   ordered so equal directives render (and dedup) identically. *)
type directive = (channel * Loop.speed) list

let norm (d : directive) =
  List.sort (fun (a, _) (b, _) -> compare (channel_rank a) (channel_rank b)) d

let directive_label (d : directive) =
  String.concat "+"
    (List.map (fun (c, s) -> channel_name c ^ ":" ^ Loop.speed_name s) d)

let bias_of (d : directive) =
  List.fold_left
    (fun b (c, s) ->
      match c with
      | C_parse -> { b with Loop.parse = Some s }
      | C_timer -> { b with Loop.timer = Some s }
      | C_net -> { b with Loop.net = Some s }
      | C_xhr -> { b with Loop.xhr = Some s }
      | C_user -> { b with Loop.user = Some s })
    Loop.neutral d

let max_directives_per_prediction = 10

(* Cross directives (one side fast, the other slow — the two targeted
   inversions) first, then single-channel perturbations. *)
let directives_for (m : Model.t) (p : Predict.prediction) =
  let a = channels m p.Predict.first_unit and b = channels m p.Predict.second_unit in
  let cross =
    List.concat_map
      (fun ca ->
        List.concat_map
          (fun cb ->
            if ca = cb then []
            else [ norm [ (ca, Loop.Fast); (cb, Loop.Slow) ];
                   norm [ (ca, Loop.Slow); (cb, Loop.Fast) ] ])
          b)
      a
  in
  let union =
    List.sort_uniq (fun x y -> compare (channel_rank x) (channel_rank y)) (a @ b)
  in
  let singles =
    List.concat_map (fun c -> [ [ (c, Loop.Fast) ]; [ (c, Loop.Slow) ] ]) union
  in
  let seen = Hashtbl.create 16 in
  let deduped =
    List.filter
      (fun d ->
        let l = directive_label d in
        if Hashtbl.mem seen l then false
        else begin
          Hashtbl.replace seen l ();
          true
        end)
      (cross @ singles)
  in
  List.filteri (fun i _ -> i < max_directives_per_prediction) deduped

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)

type certificate =
  | Side_never_observed of { side : string; sloc : string }
  | Disjoint_cells of { first_cells : string list; second_cells : string list }
  | Always_ordered of { common_cells : string list }

type classification =
  | Confirmed of { schedule : string }
  | Refuted of certificate
  | Unconfirmed of { reason : string }

type item = {
  prediction : Predict.prediction;
  classification : classification;
  directives : string list;  (** labels derived for this prediction *)
}

type t = {
  result : Predict.result;
  items : item list;
  schedules_run : int;
  schedules_to_confirm : int;
      (** index of the schedule that produced the last new confirmation
          (1 = baseline); 0 when nothing confirmed *)
  budget : int;
  unpredicted : (Race.t * string) list;
      (** raw dynamic races no prediction covers, with the schedule
          label that surfaced them — a soundness violation *)
}

let cap_cells n cells =
  List.filteri (fun i _ -> i < n) (List.sort_uniq compare cells)

let access_kind_of_eff = function Effects.Read -> `Read | Effects.Write -> `Write

(* Per-run rendered cell sets an effect's abstract location matched in
   the trace, kind-respecting. *)
let side_cells runs (eff : Effects.eff) =
  let want = access_kind_of_eff eff.Effects.kind in
  List.map
    (fun (_, (report : Webracer.report)) ->
      match report.Webracer.trace with
      | None -> []
      | Some tr ->
          List.sort_uniq compare
            (List.filter_map
               (fun (a : Wr_mem.Access.t) ->
                 if
                   a.Wr_mem.Access.kind = want
                   && Compare.loc_covers eff.Effects.loc a.Wr_mem.Access.loc
                 then Some (Wr_mem.Location.to_string a.Wr_mem.Access.loc)
                 else None)
               tr.Wr_detect.Trace.accesses))
    runs

let certificate_for runs (p : Predict.prediction) =
  let first = side_cells runs p.Predict.first_eff
  and second = side_cells runs p.Predict.second_eff in
  if List.for_all (fun cells -> cells = []) first then
    Side_never_observed
      { side = "first"; sloc = Effects.sloc_to_string p.Predict.first_eff.Effects.loc }
  else if List.for_all (fun cells -> cells = []) second then
    Side_never_observed
      { side = "second"; sloc = Effects.sloc_to_string p.Predict.second_eff.Effects.loc }
  else
    let inter a b = List.filter (fun c -> List.mem c b) a in
    let common = List.concat (List.map2 inter first second) in
    if common = [] then
      Disjoint_cells
        {
          first_cells = cap_cells 5 (List.concat first);
          second_cells = cap_cells 5 (List.concat second);
        }
    else Always_ordered { common_cells = cap_cells 5 common }

(* ------------------------------------------------------------------ *)
(* The guided search                                                   *)

(* Fixed re-classification granularity: confirmations are rechecked
   every [chunk_size] schedules whatever [jobs] is, so the schedule
   count (and the whole report) is independent of parallelism. *)
let chunk_size = 4

let default_budget = 24

let race_key (r : Race.t) =
  Race.type_name r.Race.race_type ^ "|" ^ Wr_mem.Location.to_string r.Race.loc

let run ?tm ?(seed = 42) ?(jobs = 1) ?(budget = default_budget) ~page ~resources () =
  let result = Predict.predict ?tm ~page ~resources () in
  let preds = Array.of_list result.Predict.predictions in
  let n = Array.length preds in
  let confirmed = Array.make n None in
  let base_cfg =
    Webracer.config ~page ~resources ~seed ~explore:true ~trace:true
      ?telemetry:tm ()
  in
  let runs = ref [] in
  let schedules = ref 0 and last_confirm = ref 0 in
  let note label (report : Webracer.report) =
    incr schedules;
    runs := (label, report) :: !runs;
    Array.iteri
      (fun i p ->
        if
          confirmed.(i) = None
          && List.exists (fun r -> Compare.covers p r) report.Webracer.races
        then begin
          confirmed.(i) <- Some label;
          last_confirm := !schedules
        end)
      preds
  in
  (* Schedule 1: the page as configured — same semantics as the
     predict --compare baseline. Most true predictions confirm here. *)
  note "baseline" (Webracer.analyze base_cfg);
  (* Directive pool: insertion-ordered, globally deduplicated, each
     entry carrying the predictions waiting on it. *)
  let by_label = Hashtbl.create 32 in
  let pool = ref [] in
  let per_pred = Array.make n [] in
  Array.iteri
    (fun i p ->
      let ds = directives_for result.Predict.model p in
      per_pred.(i) <- List.map directive_label ds;
      List.iter
        (fun d ->
          let lbl = directive_label d in
          match Hashtbl.find_opt by_label lbl with
          | Some waiting -> waiting := i :: !waiting
          | None ->
              let waiting = ref [ i ] in
              Hashtbl.replace by_label lbl waiting;
              pool := (lbl, d, waiting) :: !pool)
        ds)
    preds;
  let executed = Hashtbl.create 32 in
  let pending = ref (List.rev !pool) in
  let wanted (_, _, waiting) = List.exists (fun i -> confirmed.(i) = None) !waiting in
  let rec drive () =
    (* A directive all of whose predictions have confirmed will never
       be needed again — confirmations only grow. *)
    pending := List.filter wanted !pending;
    let room = budget - !schedules in
    if !pending <> [] && room > 0 then begin
      let k = min chunk_size room in
      let chunk = List.filteri (fun i _ -> i < k) !pending in
      pending := List.filteri (fun i _ -> i >= k) !pending;
      let specs =
        List.map
          (fun (lbl, d, _) ->
            {
              Webracer.Replay.label = lbl;
              dir_seed = seed;
              dir_parse_delay = 2.;
              dir_bias = bias_of d;
            })
          chunk
      in
      let reports = Webracer.Replay.run_directed ~jobs base_cfg specs in
      List.iter2
        (fun (lbl, _, _) report ->
          Hashtbl.replace executed lbl ();
          note lbl report)
        chunk reports;
      drive ()
    end
  in
  drive ();
  let runs = List.rev !runs in
  let items =
    List.mapi
      (fun i p ->
        let classification =
          match confirmed.(i) with
          | Some schedule -> Confirmed { schedule }
          | None ->
              if List.for_all (Hashtbl.mem executed) per_pred.(i) then
                Refuted (certificate_for runs p)
              else Unconfirmed { reason = "budget exhausted" }
        in
        { prediction = p; classification; directives = per_pred.(i) })
      (Array.to_list preds)
  in
  let seen = Hashtbl.create 8 in
  let unpredicted =
    List.concat_map
      (fun (lbl, (report : Webracer.report)) ->
        List.filter_map
          (fun r ->
            let key = race_key r in
            if Hashtbl.mem seen key || Array.exists (fun p -> Compare.covers p r) preds
            then None
            else begin
              Hashtbl.replace seen key ();
              Some (r, lbl)
            end)
          report.Webracer.races)
      runs
  in
  {
    result;
    items;
    schedules_run = !schedules;
    schedules_to_confirm = !last_confirm;
    budget;
    unpredicted;
  }

let count cls t =
  List.length
    (List.filter
       (fun it ->
         match (it.classification, cls) with
         | Confirmed _, `Confirmed | Refuted _, `Refuted | Unconfirmed _, `Unconfirmed
           ->
             true
         | _ -> false)
       t.items)

let sound t = t.unpredicted = []

(* ------------------------------------------------------------------ *)
(* Blind counterpart (Perf-8)                                          *)

type blind = { blind_schedules : int; blind_matched : bool }

(* How many schedules blind enumeration (the pre-triage
   [Replay.explore_schedules] recipe: baseline, then seed enumeration
   at 2 ms/element parse cost) needs before every guided-confirmed
   prediction is also blindly confirmed. Capped — some targeted
   interleavings are simply never sampled blindly. *)
let blind_equivalent ?(jobs = 1) ?(cap = 64) ?(seed = 42) ~page ~resources t =
  let goals =
    List.filter_map
      (fun it ->
        match it.classification with Confirmed _ -> Some it.prediction | _ -> None)
      t.items
  in
  if goals = [] then { blind_schedules = 0; blind_matched = true }
  else begin
    let goals = Array.of_list goals in
    let matched = Array.make (Array.length goals) false in
    let all_matched () = Array.for_all (fun m -> m) matched in
    let absorb (report : Webracer.report) =
      Array.iteri
        (fun i p ->
          if
            (not matched.(i))
            && List.exists (fun r -> Compare.covers p r) report.Webracer.races
          then matched.(i) <- true)
        goals
    in
    let base = Webracer.config ~page ~resources ~seed ~explore:true () in
    let used = ref 0 in
    absorb (Webracer.analyze base);
    incr used;
    let next_seed = ref 0 in
    while (not (all_matched ())) && !used < cap do
      let k = min chunk_size (cap - !used) in
      let seeds = List.init k (fun i -> !next_seed + i) in
      next_seed := !next_seed + k;
      let reports =
        Webracer.analyze_batch ~jobs
          (List.map (fun s -> { base with Wr_browser.Config.seed = s; parse_delay = 2. }) seeds)
      in
      List.iter
        (fun report ->
          if not (all_matched ()) then begin
            absorb report;
            incr used
          end)
        reports
    done;
    { blind_schedules = !used; blind_matched = all_matched () }
  end

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let classification_name = function
  | Confirmed _ -> "confirmed"
  | Refuted _ -> "refuted"
  | Unconfirmed _ -> "unconfirmed"

let certificate_to_json = function
  | Side_never_observed { side; sloc } ->
      Json.Obj
        [
          ("kind", Json.String "side-never-observed");
          ("side", Json.String side);
          ("location", Json.String sloc);
        ]
  | Disjoint_cells { first_cells; second_cells } ->
      Json.Obj
        [
          ("kind", Json.String "disjoint-cells");
          ("first_cells", Json.List (List.map (fun c -> Json.String c) first_cells));
          ("second_cells", Json.List (List.map (fun c -> Json.String c) second_cells));
        ]
  | Always_ordered { common_cells } ->
      Json.Obj
        [
          ("kind", Json.String "always-ordered");
          ("common_cells", Json.List (List.map (fun c -> Json.String c) common_cells));
        ]

let item_to_json it =
  let p = it.prediction in
  let base =
    [
      ("type", Json.String (Race.type_name p.Predict.race_type));
      ("location", Json.String (Effects.sloc_to_string p.Predict.loc));
      ("classification", Json.String (classification_name it.classification));
    ]
  in
  let tail =
    match it.classification with
    | Confirmed { schedule } -> [ ("schedule", Json.String schedule) ]
    | Refuted cert -> [ ("certificate", certificate_to_json cert) ]
    | Unconfirmed { reason } -> [ ("reason", Json.String reason) ]
  in
  Json.Obj
    (base @ tail
    @ [ ("directives", Json.List (List.map (fun d -> Json.String d) it.directives)) ])

let to_json t =
  Json.Obj
    [
      Wr_support.Schema.tag_of Wr_support.Schema.v2;
      ("budget", Json.Int t.budget);
      ("schedules_run", Json.Int t.schedules_run);
      ("schedules_to_confirm", Json.Int t.schedules_to_confirm);
      ("predictions", Json.Int (List.length t.items));
      ("confirmed", Json.Int (count `Confirmed t));
      ("refuted", Json.Int (count `Refuted t));
      ("unconfirmed", Json.Int (count `Unconfirmed t));
      ("sound", Json.Bool (sound t));
      ("items", Json.List (List.map item_to_json t.items));
      ( "unpredicted",
        Json.List
          (List.map
             (fun (r, lbl) ->
               Json.Obj
                 [
                   ("type", Json.String (Race.type_name r.Race.race_type));
                   ("location", Json.String (Wr_mem.Location.to_string r.Race.loc));
                   ("schedule", Json.String lbl);
                 ])
             t.unpredicted) );
    ]

let render t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "predictions: %d  confirmed: %d  refuted: %d  unconfirmed: %d\n\
        schedules: %d run (budget %d), last confirmation at %d\n"
       (List.length t.items) (count `Confirmed t) (count `Refuted t)
       (count `Unconfirmed t) t.schedules_run t.budget t.schedules_to_confirm);
  List.iter
    (fun it ->
      let p = it.prediction in
      let detail =
        match it.classification with
        | Confirmed { schedule } -> "schedule " ^ schedule
        | Refuted (Side_never_observed { side; sloc }) ->
            Printf.sprintf "certificate: %s side (%s) never observed" side sloc
        | Refuted (Disjoint_cells _) -> "certificate: sides touch disjoint cells"
        | Refuted (Always_ordered _) -> "certificate: accesses always ordered"
        | Unconfirmed { reason } -> reason
      in
      Buffer.add_string b
        (Printf.sprintf "  %-11s %-8s %s — %s\n"
           (classification_name it.classification)
           (Race.type_name p.Predict.race_type)
           (Effects.sloc_to_string p.Predict.loc)
           detail))
    t.items;
  List.iter
    (fun (r, lbl) ->
      Buffer.add_string b
        (Printf.sprintf "  UNPREDICTED %s %s (schedule %s)\n"
           (Race.type_name r.Race.race_type)
           (Wr_mem.Location.to_string r.Race.loc)
           lbl))
    t.unpredicted;
  Buffer.contents b
