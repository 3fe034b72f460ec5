module Config = Wr_browser.Config
module Browser = Wr_browser.Browser
module Race = Wr_detect.Race
module Filters = Wr_detect.Filters
module Detector = Wr_detect.Detector
module Graph = Wr_hb.Graph
module Telemetry = Wr_telemetry.Telemetry
module Log = Wr_support.Log

type report = {
  races : Race.t list;
  filtered : Race.t list;
  suppressed : (string * Race.t) list;
  filter_counts : (string * int) list;
  crashes : Browser.crash list;
  console : string list;
  ops : int;
  hb_edges : int;
  accesses : int;
  detector_records : int;
      (* accesses that reached the detector after the dedup front-end;
         equals [accesses] when dedup is off *)
  virtual_ms : float;
  explored_events : int;
  wall_clock_s : float;
  hb_graph : Wr_hb.Graph.t;
  trace : Wr_detect.Trace.t option;
  metrics : Wr_support.Json.t option;
}

let config ~page ?(resources = []) ?(seed = 0) ?(explore = true)
    ?(detector = Config.Last_access) ?(hb_strategy = Wr_hb.Graph.default_strategy)
    ?(time_limit = 60_000.) ?(mean_latency = 20.) ?(parse_delay = 0.) ?(trace = false)
    ?(dedup = true) ?(bias = Wr_scheduler.Event_loop.neutral)
    ?(telemetry = Telemetry.disabled) () =
  {
    (Config.default ~page ()) with
    Config.resources;
    seed;
    explore;
    detector;
    hb_strategy;
    time_limit;
    mean_latency;
    parse_delay;
    trace;
    dedup;
    bias;
    telemetry;
  }

(* Automatic exploration (§5.2.2): after the page settles, dispatch every
   registered exploration-set handler, type into text fields, and click
   javascript: links — then drain the loop again. Repeatable user events
   fire twice so the single-dispatch filter (§5.3) sees that clicks and
   hovers are not once-only events; load/DOMContentLoaded keep their
   natural single dispatch. *)
let explore browser =
  let injected = ref 0 in
  List.iter
    (fun (target, event) ->
      injected := !injected + 2;
      Browser.schedule_user_event browser ~target ~event;
      Browser.schedule_user_event browser ~target ~event)
    (Browser.explorable_handler_targets browser);
  List.iter
    (fun target ->
      incr injected;
      Browser.schedule_user_typing browser ~target ~text:"user input")
    (Browser.text_input_uids browser);
  List.iter
    (fun target ->
      injected := !injected + 2;
      Browser.schedule_user_click browser ~target;
      Browser.schedule_user_click browser ~target)
    (Browser.javascript_link_uids browser);
  !injected

let analyze (cfg : Config.t) =
  let tm = cfg.Config.telemetry in
  let started = Wr_support.Clock.now () in
  Telemetry.with_span tm ~cat:"page" ~name:"analyze" (fun () ->
      let browser = Browser.create cfg in
      Browser.start browser;
      ignore (Browser.run browser);
      Telemetry.mark tm ~cat:"page" "settled";
      let explored_events =
        if cfg.Config.explore then begin
          Telemetry.mark tm ~cat:"page" "explore";
          let n = explore browser in
          ignore (Browser.run browser);
          Telemetry.mark tm ~cat:"page" "drained";
          n
        end
        else 0
      in
      let races =
        Telemetry.account tm ~cat:"detect" (fun () ->
            (Browser.detector browser).Detector.races ())
      in
      let outcome = Filters.apply (Browser.run_info browser) races in
      let filtered = outcome.Filters.kept in
      if Log.enabled Log.Info then begin
        Log.info "page.analyzed"
          [
            ("ops", Wr_support.Json.Int (Graph.n_ops (Browser.graph browser)));
            ("hb_edges", Wr_support.Json.Int (Graph.n_edges (Browser.graph browser)));
            ("accesses", Wr_support.Json.Int (Browser.accesses_seen browser));
            ("explored_events", Wr_support.Json.Int explored_events);
          ];
        Log.info "filters.applied"
          (("races", Wr_support.Json.Int (List.length races))
          :: ("kept", Wr_support.Json.Int (List.length filtered))
          :: List.map (fun (f, n) -> (f, Wr_support.Json.Int n)) outcome.Filters.counts)
      end;
      (* Accumulating [incr] rather than gauge overwrites: a telemetry
         context shared across a batch (or across domains) then reads back
         whole-batch totals, and a single run still reads its own values
         exactly. *)
      Telemetry.incr tm ~by:(Graph.n_ops (Browser.graph browser)) "hb.ops";
      Telemetry.incr tm ~by:(Graph.n_edges (Browser.graph browser)) "hb.edges";
      Telemetry.incr tm ~by:(List.length races) "detect.races";
      Telemetry.incr tm ~by:(List.length filtered) "detect.filtered";
      Telemetry.incr tm ~by:explored_events "explore.injected";
      let detector_records =
        match Browser.dedup_stats browser with
        | Some s ->
            Telemetry.incr tm ~by:(Wr_detect.Dedup.swallowed s) "detect.deduped";
            s.Wr_detect.Dedup.forwarded
        | None -> Browser.accesses_seen browser
      in
      {
        races;
        filtered;
        suppressed = outcome.Filters.suppressed;
        filter_counts = outcome.Filters.counts;
        crashes = Browser.crashes browser;
        console = Browser.console browser;
        ops = Graph.n_ops (Browser.graph browser);
        hb_edges = Graph.n_edges (Browser.graph browser);
        accesses = Browser.accesses_seen browser;
        detector_records;
        virtual_ms = Browser.virtual_now browser;
        explored_events;
        wall_clock_s = Wr_support.Clock.now () -. started;
        hb_graph = Browser.graph browser;
        trace = Browser.trace browser;
        metrics = (if Telemetry.enabled tm then Some (Telemetry.metrics_json tm) else None);
      })

type merged_report = {
  runs : report list;
  merged : Race.t list;
  per_run_counts : int list;
  stable : bool;
}

(* Races from different runs live in different graphs, so identity is by
   type plus rendered location (cell numbers are deterministic per seed
   only; the location's *name* parts are stable, so render without cell
   ids by masking digits). *)
let race_key (r : Race.t) =
  let rendered = Wr_mem.Location.to_string r.Race.loc in
  let masked =
    String.map (fun c -> if c >= '0' && c <= '9' then '#' else c) rendered
  in
  (Race.type_name r.Race.race_type, masked)

(* [analyze] shares nothing mutable across calls (each run owns its
   graph, detector and VM; the JS regex cache is domain-local DLS state;
   the logger emits one channel write per line, which the runtime lock
   makes atomic; a shared [Telemetry.t] gives each domain its own sink),
   so a batch of runs spreads over the domain fleet with results kept
   in input order — race aggregation is byte-identical whatever [jobs]
   is, whichever domain ran which run. *)
let analyze_batch ?(jobs = 1) cfgs = Wr_support.Pool.map_jobs ~jobs analyze cfgs

let analyze_many ?(jobs = 1) cfg ~seeds =
  (* The shared telemetry context rides along on every per-seed config:
     each worker domain records into its own sink, so parallel runs are
     no longer a telemetry black box. *)
  let runs =
    analyze_batch ~jobs
      (List.map (fun seed -> { cfg with Config.seed }) seeds)
  in
  let seen = Hashtbl.create 64 in
  let merged =
    List.concat_map (fun r -> r.races) runs
    |> List.filter (fun race ->
           let key = race_key race in
           if Hashtbl.mem seen key then false
           else begin
             Hashtbl.add seen key ();
             true
           end)
  in
  let keys_of r = List.sort_uniq compare (List.map race_key r.races) in
  let stable =
    match runs with
    | [] -> true
    | first :: rest ->
        let reference = keys_of first in
        List.for_all (fun r -> keys_of r = reference) rest
  in
  { runs; merged; per_run_counts = List.map (fun r -> List.length r.races) runs; stable }

let count_by_type races =
  List.fold_left
    (fun (h, f, v, d) (r : Race.t) ->
      match r.Race.race_type with
      | Race.Html -> (h + 1, f, v, d)
      | Race.Function_race -> (h, f + 1, v, d)
      | Race.Variable -> (h, f, v + 1, d)
      | Race.Event_dispatch -> (h, f, v, d + 1))
    (0, 0, 0, 0) races

let pp_report ppf r =
  let h, f, v, d = count_by_type r.races in
  let suppression =
    if List.exists (fun (_, n) -> n > 0) r.filter_counts then
      Printf.sprintf " (suppressed: %s)"
        (String.concat ", "
           (List.map (fun (f, n) -> Printf.sprintf "%s %d" f n) r.filter_counts))
    else ""
  in
  Format.fprintf ppf
    "@[<v>races: %d (html %d, function %d, variable %d, event-dispatch %d)@,\
     after filters: %d%s@,\
     crashes hidden by the browser: %d@,\
     operations: %d  hb-edges: %d  accesses: %d@,\
     virtual time: %.0f ms  wall clock: %.3f s@]"
    (List.length r.races) h f v d (List.length r.filtered) suppression
    (List.length r.crashes) r.ops r.hb_edges r.accesses r.virtual_ms r.wall_clock_s

module Replay = struct
  type observation = {
    seed : int;
    crashes : string list;
    console : string list;
    races : int;
  }

  type verdict = {
    observations : observation list;
    crashing_seeds : int list;
    console_variants : string list list;
  }

  let observation_of_report seed (report : report) =
    {
      seed;
      crashes = List.map (fun (c : Browser.crash) -> c.Browser.message) report.crashes;
      console = report.console;
      races = List.length report.races;
    }

  let explore_schedules ?(jobs = 1) (cfg : Config.t) ~seeds ?(parse_delay = 2.) () =
    (* Same parallel path as [analyze_many]: one config per seed over
       [analyze_batch]; results come back seed-ordered, so the verdict is
       identical whatever [jobs] is. A shared telemetry context records
       per-domain and merges at read time. *)
    let reports =
      analyze_batch ~jobs
        (List.map
           (fun seed -> { cfg with Config.seed; parse_delay })
           seeds)
    in
    let observations = List.map2 observation_of_report seeds reports in
    let crashing_seeds =
      List.filter_map (fun o -> if o.crashes <> [] then Some o.seed else None) observations
    in
    let console_variants =
      List.sort_uniq compare (List.map (fun o -> o.console) observations)
    in
    { observations; crashing_seeds; console_variants }

  let manifests v = v.crashing_seeds <> [] || List.length v.console_variants > 1

  let pp_verdict ppf v =
    Format.fprintf ppf "@[<v>%d schedules tried; %d crashed; %d distinct console outputs@,"
      (List.length v.observations)
      (List.length v.crashing_seeds)
      (List.length v.console_variants);
    List.iter
      (fun o ->
        if o.crashes <> [] then
          Format.fprintf ppf "seed %d crashed: %s@," o.seed (String.concat "; " o.crashes))
      v.observations;
    (match v.console_variants with
    | [ _ ] | [] -> ()
    | variants ->
        List.iteri
          (fun i c ->
            Format.fprintf ppf "console variant %d: [%s]@," i (String.concat " | " c))
          variants);
    Format.fprintf ppf "verdict: %s@]"
      (if manifests v then "the race manifests under alternative schedules"
       else "no divergence observed (may still be harmful under other inputs)")

  let verdict_to_json v =
    let open Wr_support.Json in
    let observation o =
      Obj
        [
          ("seed", Int o.seed);
          ("crashes", List (List.map (fun s -> String s) o.crashes));
          ("console", List (List.map (fun s -> String s) o.console));
          ("races", Int o.races);
        ]
    in
    Obj
      [
        Wr_support.Schema.tag;
        ("schedules", Int (List.length v.observations));
        ("manifests", Bool (manifests v));
        ("crashing_seeds", List (List.map (fun s -> Int s) v.crashing_seeds));
        ( "console_variants",
          List
            (List.map
               (fun variant -> List (List.map (fun s -> String s) variant))
               v.console_variants) );
        ("observations", List (List.map observation v.observations));
      ]

  (* Guided mode: instead of enumerating seeds blindly, run a specific
     list of directed schedules — each a (seed, parse_delay, channel
     bias) triple chosen by the static triage layer to perturb exactly
     the orderings that could realize a predicted race. Traces are
     forced on so the caller can extract refutation certificates from
     the observed accesses. *)
  type directed = {
    label : string;
    dir_seed : int;
    dir_parse_delay : float;
    dir_bias : Wr_scheduler.Event_loop.bias;
  }

  let run_directed ?(jobs = 1) (cfg : Config.t) specs =
    analyze_batch ~jobs
      (List.map
         (fun d ->
           {
             cfg with
             Config.seed = d.dir_seed;
             parse_delay = d.dir_parse_delay;
             trace = true;
             bias = d.dir_bias;
           })
         specs)
end

let by_type_json races =
  let h, f, v, d = count_by_type races in
  Wr_support.Json.Obj
    [
      ("html", Wr_support.Json.Int h);
      ("function", Wr_support.Json.Int f);
      ("variable", Wr_support.Json.Int v);
      ("event_dispatch", Wr_support.Json.Int d);
    ]

let report_to_json r =
  let open Wr_support.Json in
  (* Every race ships with its checkable witness (provenance chains,
     nearest common HB ancestor, no-path frontier, certificate result),
     encoded once per racing pair across both lists. *)
  let witness = Wr_explain.encoder r.hb_graph in
  let race_json race = Race.to_json ~extra:[ ("witness", witness race) ] race in
  let suppressed_json (filter, race) =
    Obj [ ("filter", String filter); ("race", Race.to_json race) ]
  in
  Obj
    ([
      Wr_support.Schema.tag;
      ("races", List (List.map race_json r.races));
      ("filtered", List (List.map race_json r.filtered));
      ("suppressed", List (List.map suppressed_json r.suppressed));
      ( "filter_suppressed",
        Obj (List.map (fun (f, n) -> (f, Int n)) r.filter_counts) );
      ( "crashes",
        List
          (List.map
             (fun (c : Browser.crash) ->
               Obj
                 [
                   ("op", Int c.Browser.op);
                   ("message", String c.Browser.message);
                   ("context", String c.Browser.context);
                 ])
             r.crashes) );
      ("console", List (List.map (fun s -> String s) r.console));
      ("ops", Int r.ops);
      ("hb_edges", Int r.hb_edges);
      ("accesses", Int r.accesses);
      ("detector_records", Int r.detector_records);
      ("virtual_ms", Float r.virtual_ms);
      ("explored_events", Int r.explored_events);
      ("wall_clock_s", Float r.wall_clock_s);
      ("races_total", Int (List.length r.races));
      ("filtered_total", Int (List.length r.filtered));
      ("races_by_type", by_type_json r.races);
      ("filtered_by_type", by_type_json r.filtered);
    ]
    @ (match r.metrics with None -> [] | Some m -> [ ("telemetry", m) ]))
