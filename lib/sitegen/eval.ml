module Race = Wr_detect.Race

type outcome = {
  profile : Profile.t;
  raw : Profile.counts;
  filtered : Profile.counts;
  expected_raw : Profile.counts;
  expected_filtered : Profile.counts;
  harmful : Profile.counts;
  ops : int;
  accesses : int;
  detector_records : int;
  crashes : int;
  wall_clock_s : float;
}

let counts_of races =
  let h, f, v, d = Webracer.count_by_type races in
  { Profile.html = h; func = f; var = v; disp = d }

let run_site ?(seed = 42) ?(dedup = true) ?telemetry profile =
  let site = Gen.generate profile in
  let report =
    Webracer.analyze
      (Webracer.config ~page:site.Gen.page ~resources:site.Gen.resources ~seed ~explore:true
         ~dedup ?telemetry ())
  in
  {
    profile;
    raw = counts_of report.Webracer.races;
    filtered = counts_of report.Webracer.filtered;
    expected_raw = Profile.expected_raw profile;
    expected_filtered = Profile.expected_filtered profile;
    harmful = Profile.expected_harmful profile;
    ops = report.Webracer.ops;
    accesses = report.Webracer.accesses;
    detector_records = report.Webracer.detector_records;
    crashes = List.length report.Webracer.crashes;
    wall_clock_s = report.Webracer.wall_clock_s;
  }

let corpus_profiles limit =
  let profiles = Profile.corpus () in
  match limit with
  | Some n -> List.filteri (fun i _ -> i < n) profiles
  | None -> profiles

(* Per-site seeds are fixed by corpus position before the fan-out, so the
   outcome list is independent of [jobs] (site generation and analysis are
   self-contained per item; the pool returns results in input order). *)
let run_corpus_stats ?(seed = 42) ?limit ?(jobs = 1) ?(dedup = true) ?telemetry
    () =
  let profiles = corpus_profiles limit in
  let pool = Wr_support.Pool.create ~jobs () in
  let outcomes =
    Fun.protect
      ~finally:(fun () -> Wr_support.Pool.close pool)
      (fun () ->
        Wr_support.Pool.map pool
          (fun (i, p) -> run_site ~seed:(seed + i) ~dedup ?telemetry p)
          (List.mapi (fun i p -> (i, p)) profiles))
  in
  (* Read the profile after [close]: joining the workers makes every
     per-domain accumulator exact (a worker charges its idle time only
     when it next wakes, so a pre-close snapshot could miss the tail of
     it). *)
  (outcomes, Wr_support.Pool.stats pool)

let run_corpus ?seed ?limit ?jobs ?dedup () =
  fst (run_corpus_stats ?seed ?limit ?jobs ?dedup ())

let fidelity o = o.filtered = o.expected_filtered

(* Table 1: mean / median / max of raw (unfiltered) counts per type. *)
let render_table1 outcomes =
  let stat f =
    let xs = List.map f outcomes in
    [
      Printf.sprintf "%.1f" (Wr_support.Stats.mean xs);
      Printf.sprintf "%.1f" (Wr_support.Stats.median xs);
      string_of_int (Wr_support.Stats.max xs);
    ]
  in
  let rows =
    [
      "HTML" :: stat (fun o -> o.raw.Profile.html);
      "Function" :: stat (fun o -> o.raw.Profile.func);
      "Variable" :: stat (fun o -> o.raw.Profile.var);
      "Event Dispatch" :: stat (fun o -> o.raw.Profile.disp);
      "All" :: stat (fun o -> Profile.total o.raw);
    ]
  in
  Wr_support.Table.render ~header:[ "Race type"; "Mean"; "Median"; "Max" ] rows

let cell count harmful = if count = 0 then "0" else Printf.sprintf "%d (%d)" count harmful

let render_table2 outcomes =
  let visible = List.filter (fun o -> Profile.total o.filtered > 0) outcomes in
  let row o =
    let f = o.filtered and h = o.harmful in
    let mark = if fidelity o then "" else " !" in
    [
      o.profile.Profile.name ^ mark;
      cell f.Profile.html h.Profile.html;
      cell f.Profile.func h.Profile.func;
      cell f.Profile.var h.Profile.var;
      cell f.Profile.disp h.Profile.disp;
    ]
  in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 visible in
  let totals =
    [
      "Total";
      cell (sum (fun o -> o.filtered.Profile.html)) (sum (fun o -> o.harmful.Profile.html));
      cell (sum (fun o -> o.filtered.Profile.func)) (sum (fun o -> o.harmful.Profile.func));
      cell (sum (fun o -> o.filtered.Profile.var)) (sum (fun o -> o.harmful.Profile.var));
      cell (sum (fun o -> o.filtered.Profile.disp)) (sum (fun o -> o.harmful.Profile.disp));
    ]
  in
  Wr_support.Table.render
    ~header:[ "Website"; "HTML"; "Function"; "Variable"; "EventDisp" ]
    (List.map row visible @ [ totals ])

(* --- static-prediction validation (DESIGN.md §8) ---------------------- *)

type predict_breakdown = {
  conf_harmful : int;
  conf_benign : int;
  conf_filtered : int;
}

let breakdown_zero = { conf_harmful = 0; conf_benign = 0; conf_filtered = 0 }

let breakdown_add a b =
  {
    conf_harmful = a.conf_harmful + b.conf_harmful;
    conf_benign = a.conf_benign + b.conf_benign;
    conf_filtered = a.conf_filtered + b.conf_filtered;
  }

type predict_outcome = {
  p_profile : Profile.t;
  comparison : Wr_static.Compare.comparison;
  breakdown : predict_breakdown;
}

(* Classify each confirmed prediction by the strongest dynamic race it
   covers: harmful (kept by the filters and heuristically harmful),
   benign (kept), or filtered (covers only races the §5.3 filters
   suppressed). The filter keeps the physical race values, so [memq]
   decides membership. *)
let classify_confirmed (result : Wr_static.Predict.result)
    (report : Webracer.report) =
  let kept r = List.memq r report.Webracer.filtered in
  List.fold_left
    (fun acc p ->
      match List.filter (fun r -> Wr_static.Compare.covers p r) report.Webracer.races with
      | [] -> acc
      | covered ->
          if List.exists (fun r -> kept r && Race.heuristic_harmful r) covered then
            { acc with conf_harmful = acc.conf_harmful + 1 }
          else if List.exists kept covered then
            { acc with conf_benign = acc.conf_benign + 1 }
          else { acc with conf_filtered = acc.conf_filtered + 1 })
    breakdown_zero result.Wr_static.Predict.predictions

(* Shared predict-and-score path: the dynamic run uses the same config
   [Wr_static.Compare.run] would (exploration on), reused for both the
   comparison and the per-class breakdown. *)
let predict_page ?(seed = 42) ~name ~page ~resources () =
  let result = Wr_static.Predict.predict ~page ~resources () in
  let report = Webracer.analyze (Webracer.config ~page ~resources ~seed ()) in
  {
    p_profile = Profile.base name;
    comparison = Wr_static.Compare.against_report result report;
    breakdown = classify_confirmed result report;
  }

let predict_site ?(seed = 42) profile =
  let site = Gen.generate profile in
  {
    (predict_page ~seed ~name:profile.Profile.name ~page:site.Gen.page
       ~resources:site.Gen.resources ())
    with
    p_profile = profile;
  }

(* The adversarial pack rides along after the 100 profile sites, with
   position-fixed seeds of its own, so the result is independent of
   [jobs] and [--limit] never hides the precision signal. *)
let predict_corpus ?(seed = 42) ?limit ?(jobs = 1) () =
  let profiles = corpus_profiles limit in
  let work =
    List.mapi (fun i p -> `Site (seed + i, p)) profiles
    @ List.mapi
        (fun i (s : Adversarial.scenario) -> `Adv (seed + 100 + i, s))
        (Adversarial.pack ())
  in
  Wr_support.Pool.map_jobs ~jobs
    (function
      | `Site (seed, p) -> predict_site ~seed p
      | `Adv (seed, s) ->
          predict_page ~seed ~name:s.Adversarial.name ~page:s.Adversarial.page
            ~resources:s.Adversarial.resources ())
    work

(* --- prediction-guided triage over the corpus ------------------------- *)

type triage_outcome = {
  t_name : string;
  t_page : string;
  t_resources : (string * string) list;
  t_report : Wr_static.Triage.t;
}

let triage_page ?(seed = 42) ?budget ~name ~page ~resources () =
  {
    t_name = name;
    t_page = page;
    t_resources = resources;
    t_report = Wr_static.Triage.run ~seed ?budget ~page ~resources ();
  }

(* Same layout as [predict_corpus]: profile sites first, the adversarial
   pack after, position-fixed seeds; per-site triage runs sequentially
   inside its pool slot so the reports are independent of [jobs]. *)
let triage_corpus ?(seed = 42) ?limit ?(jobs = 1) ?budget () =
  let profiles = corpus_profiles limit in
  let work =
    List.mapi (fun i p -> `Site (seed + i, p)) profiles
    @ List.mapi
        (fun i (s : Adversarial.scenario) -> `Adv (seed + 100 + i, s))
        (Adversarial.pack ())
  in
  Wr_support.Pool.map_jobs ~jobs
    (function
      | `Site (seed, p) ->
          let site = Gen.generate p in
          triage_page ~seed ?budget ~name:p.Profile.name ~page:site.Gen.page
            ~resources:site.Gen.resources ()
      | `Adv (seed, s) ->
          triage_page ~seed ?budget ~name:s.Adversarial.name
            ~page:s.Adversarial.page ~resources:s.Adversarial.resources ())
    work

let triage_sound outcomes =
  List.for_all (fun o -> Wr_static.Triage.sound o.t_report) outcomes

let render_triage outcomes =
  let module T = Wr_static.Triage in
  let interesting =
    (* Every row would be 100 lines of "1 prediction, confirmed at
       baseline"; show only sites where the guided search had work to
       do (a refutation, an unconfirmed leftover, or a soundness
       violation). *)
    List.filter
      (fun o ->
        T.count `Refuted o.t_report > 0
        || T.count `Unconfirmed o.t_report > 0
        || not (T.sound o.t_report))
      outcomes
  in
  let row o =
    let r = o.t_report in
    [
      (o.t_name ^ if T.sound r then "" else " !");
      string_of_int (List.length r.T.items);
      string_of_int (T.count `Confirmed r);
      string_of_int (T.count `Refuted r);
      string_of_int (T.count `Unconfirmed r);
      string_of_int r.T.schedules_run;
    ]
  in
  let table =
    if interesting = [] then "every prediction confirmed at baseline\n"
    else
      Wr_support.Table.render
        ~header:[ "Website"; "Pred"; "Conf"; "Ref"; "Unconf"; "Sched" ]
        (List.map row interesting)
  in
  let sum f = List.fold_left (fun acc o -> acc + f o.t_report) 0 outcomes in
  let unsound =
    List.filter (fun o -> not (T.sound o.t_report)) outcomes |> List.length
  in
  Printf.sprintf
    "%ssites: %d  predictions: %d  confirmed: %d  refuted: %d  unconfirmed: \
     %d\nschedules: %d run  soundness violations: %d\n"
    table (List.length outcomes)
    (sum (fun r -> List.length r.T.items))
    (sum (T.count `Confirmed))
    (sum (T.count `Refuted))
    (sum (T.count `Unconfirmed))
    (sum (fun r -> r.T.schedules_run))
    unsound

let render_predict outcomes =
  let sum f = List.fold_left (fun acc o -> acc + f o.comparison) 0 outcomes in
  let dyn = sum (fun c -> c.Wr_static.Compare.dynamic_races) in
  let matched = sum (fun c -> c.Wr_static.Compare.matched_dynamic) in
  let predicted = sum (fun c -> c.Wr_static.Compare.predicted) in
  let confirmed = sum (fun c -> c.Wr_static.Compare.confirmed) in
  let imperfect =
    List.filter
      (fun o ->
        o.comparison.Wr_static.Compare.missed <> []
        || o.comparison.Wr_static.Compare.unconfirmed <> [])
      outcomes
  in
  let row o =
    let c = o.comparison in
    [
      o.p_profile.Profile.name;
      string_of_int c.Wr_static.Compare.dynamic_races;
      string_of_int c.Wr_static.Compare.matched_dynamic;
      string_of_int c.Wr_static.Compare.predicted;
      string_of_int c.Wr_static.Compare.confirmed;
      string_of_int (List.length c.Wr_static.Compare.missed);
    ]
  in
  let table =
    if imperfect = [] then "all sites fully matched\n"
    else
      Wr_support.Table.render
        ~header:[ "Website"; "Dyn"; "Matched"; "Pred"; "Conf"; "Missed" ]
        (List.map row imperfect)
  in
  let pct a b = if b = 0 then 100. else 100. *. float_of_int a /. float_of_int b in
  let bd =
    List.fold_left (fun acc o -> breakdown_add acc o.breakdown) breakdown_zero outcomes
  in
  Printf.sprintf
    "%ssites: %d  dynamic races: %d  predicted: %d\nrecall: %d/%d (%.1f%%)  \
     precision: %d/%d (%.1f%%)\nconfirmed by class: harmful %d  benign %d  \
     filtered-only %d  unconfirmed %d\n"
    table (List.length outcomes) dyn predicted matched dyn (pct matched dyn)
    confirmed predicted
    (pct confirmed predicted)
    bd.conf_harmful bd.conf_benign bd.conf_filtered (predicted - confirmed)
