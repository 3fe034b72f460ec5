module Json = Wr_support.Json
module Schema = Wr_support.Schema
module Race = Wr_detect.Race

let config_of_params ?(trace = false) ?telemetry (p : Request.analyze_params) =
  Webracer.config ~page:p.Request.page ~resources:p.Request.resources
    ~seed:p.Request.seed ~explore:p.Request.explore ~detector:p.Request.detector
    ~hb_strategy:p.Request.hb ~time_limit:p.Request.time_limit
    ~dedup:p.Request.dedup ~trace ?telemetry ()

let analyze ?trace ?telemetry p =
  Webracer.analyze (config_of_params ?trace ?telemetry p)

let select_races (report : Webracer.report) ~race =
  let races = report.Webracer.races in
  match race with
  | None -> Ok (List.mapi (fun i r -> (i + 1, r)) races)
  | Some n ->
      if n < 1 || n > List.length races then
        Error
          (Printf.sprintf "race %d out of range (page has %d races)" n
             (List.length races))
      else Ok [ (n, List.nth races (n - 1)) ]

let explain_json (report : Webracer.report) selection =
  let witness = Wr_explain.encoder report.Webracer.hb_graph in
  Json.Obj
    [
      Schema.tag;
      ("races", Json.Int (List.length report.Webracer.races));
      ("filtered", Json.Int (List.length report.Webracer.filtered));
      ( "witnesses",
        Json.List
          (List.map
             (fun (i, race) ->
               Json.Obj
                 [
                   ("index", Json.Int i);
                   ("race", Race.to_json ~extra:[ ("witness", witness race) ] race);
                 ])
             selection) );
    ]

let replay (p : Request.replay_params) =
  Webracer.Replay.explore_schedules ~jobs:p.Request.jobs
    (config_of_params p.Request.target)
    ~seeds:(List.init p.Request.schedules (fun i -> i))
    ~parse_delay:p.Request.parse_delay ()

let predict_json ?telemetry (p : Request.predict_params) =
  let tm = Option.value ~default:Wr_telemetry.Telemetry.disabled telemetry in
  let t = p.Request.target in
  let result =
    Wr_static.Predict.predict ~tm ~page:t.Request.page
      ~resources:t.Request.resources ()
  in
  if p.Request.lint then
    Json.Obj
      [
        Schema.tag;
        ( "lint",
          Json.List
            (List.map Wr_static.Predict.lint_to_json
               result.Wr_static.Predict.lint) );
      ]
  else
    let compare =
      if p.Request.compare then
        Some
          (Wr_static.Compare.to_json result.Wr_static.Predict.model
             (Wr_static.Compare.against_report result (analyze t)))
      else None
    in
    Wr_static.Predict.to_json ?compare result

let triage_json ?telemetry (p : Request.triage_params) =
  let t = p.Request.target in
  Wr_static.Triage.to_json
    (Wr_static.Triage.run ?tm:telemetry ~seed:t.Request.seed
       ~jobs:p.Request.jobs ~budget:p.Request.budget ~page:t.Request.page
       ~resources:t.Request.resources ())

let ping_result = Json.Obj [ ("pong", Json.Bool true) ]

let dispatch (req : Request.t) =
  let id = req.Request.id in
  let trace = req.Request.trace in
  let schema = req.Request.schema in
  let ok result = Response.ok ~schema ~id ?trace result in
  match
    match req.Request.verb with
    | Request.Ping -> ok ping_result
    | Request.Stats ->
        Response.error ~schema ~id ?trace Response.Internal
          "stats is only served by a running daemon, not a one-shot dispatch"
    | Request.Metrics ->
        Response.error ~schema ~id ?trace Response.Internal
          "metrics is only served by a running daemon, not a one-shot dispatch"
    | Request.Watch _ ->
        Response.error ~schema ~id ?trace Response.Bad_request
          "watch streams from a running daemon, not a one-shot dispatch"
    | Request.Analyze p -> ok (Webracer.report_to_json (analyze p))
    | Request.Explain { target; race } -> (
        let report = analyze target in
        match select_races report ~race with
        | Ok selection -> ok (explain_json report selection)
        | Error msg -> Response.error ~schema ~id ?trace Response.Bad_request msg)
    | Request.Replay p -> ok (Webracer.Replay.verdict_to_json (replay p))
    | Request.Predict p -> ok (predict_json p)
    | Request.Triage p -> ok (triage_json p)
  with
  | resp -> resp
  | exception e ->
      (* Crash isolation: a pathological page must answer, not abort the
         worker (let alone the daemon). *)
      Response.error ~schema ~id ?trace Response.Internal (Printexc.to_string e)
