(* Fidelity tests: every pattern's detected races must match its planted
   ground truth exactly, and the corpus calibration must hit Table 1. *)

module Html = Wr_html.Html
module Race = Wr_detect.Race
open Wr_sitegen

let counts_of races =
  let h, f, v, d = Webracer.count_by_type races in
  (h, f, v, d)

let run_pattern ?(seed = 9) (p : Patterns.t) =
  let page = Html.to_string p.Patterns.nodes in
  let report =
    Webracer.analyze
      (Webracer.config ~page ~resources:p.Patterns.resources ~seed ~explore:true ())
  in
  report

let check_pattern name (p : Patterns.t) =
  let report = run_pattern p in
  let ty, expected_raw = p.Patterns.raw in
  let h, f, v, d = counts_of report.Webracer.races in
  let detected_raw =
    match ty with
    | Race.Html -> h
    | Race.Function_race -> f
    | Race.Variable -> v
    | Race.Event_dispatch -> d
  in
  Alcotest.(check int) (name ^ ": raw count") expected_raw detected_raw;
  let other_raw = h + f + v + d - detected_raw in
  Alcotest.(check int) (name ^ ": no cross-type noise") 0 other_raw;
  let h', f', v', d' = counts_of report.Webracer.filtered in
  Alcotest.(check int)
    (name ^ ": filtered count")
    p.Patterns.filtered
    (match ty with
    | Race.Html -> h'
    | Race.Function_race -> f'
    | Race.Variable -> v'
    | Race.Event_dispatch -> d');
  ignore (h', f', v', d')

let test_html_unguarded () = check_pattern "html_unguarded" (Patterns.html_unguarded ~idx:1)

let test_html_guarded () = check_pattern "html_guarded" (Patterns.html_guarded ~idx:1)

let test_html_polling () = check_pattern "html_polling" (Patterns.html_polling ~idx:1 ~n:7)

let test_function_hover () =
  check_pattern "function_hover harmful" (Patterns.function_hover ~idx:1 ~guarded:false);
  check_pattern "function_hover guarded" (Patterns.function_hover ~idx:2 ~guarded:true)

let test_form_hint () = check_pattern "form_hint" (Patterns.form_hint ~idx:1)

let test_form_checked () = check_pattern "form_checked" (Patterns.form_checked ~idx:1)

let test_form_two_writers () = check_pattern "form_two_writers" (Patterns.form_two_writers ~idx:1)

let test_gomez () = check_pattern "gomez" (Patterns.gomez ~idx:1 ~n:5)

let test_late_load_listener () =
  check_pattern "late_load_listener" (Patterns.late_load_listener ~idx:1)

let test_bulk_variable () = check_pattern "bulk_variable" (Patterns.bulk_variable ~idx:1 ~n:12)

let test_bulk_dispatch () = check_pattern "bulk_dispatch" (Patterns.bulk_dispatch ~idx:1 ~n:6)

let test_ajax_shared () = check_pattern "ajax_shared" (Patterns.ajax_shared ~idx:1)

let test_boilerplate_racefree () =
  let nodes, resources = Patterns.boilerplate ~name:"TestCo" in
  let report =
    Webracer.analyze
      (Webracer.config ~page:(Html.to_string nodes) ~resources ~seed:3 ~explore:true ())
  in
  Alcotest.(check int) "no races in chrome" 0 (List.length report.Webracer.races);
  Alcotest.(check int) "no crashes" 0 (List.length report.Webracer.crashes)

(* --- corpus calibration ------------------------------------------- *)

let test_corpus_shape () =
  let profiles = Profile.corpus () in
  Alcotest.(check int) "100 sites" 100 (List.length profiles);
  let filtered = List.map Profile.expected_filtered profiles in
  let sum f = List.fold_left (fun a c -> a + f c) 0 filtered in
  Alcotest.(check int) "Table 2 html total" 219 (sum (fun c -> c.Profile.html));
  Alcotest.(check int) "Table 2 function total" 37 (sum (fun c -> c.Profile.func));
  Alcotest.(check int) "Table 2 variable total" 8 (sum (fun c -> c.Profile.var));
  Alcotest.(check int) "Table 2 dispatch total" 91 (sum (fun c -> c.Profile.disp));
  let harmful = List.map Profile.expected_harmful profiles in
  let sumh f = List.fold_left (fun a c -> a + f c) 0 harmful in
  Alcotest.(check int) "harmful html" 32 (sumh (fun c -> c.Profile.html));
  Alcotest.(check int) "harmful function" 7 (sumh (fun c -> c.Profile.func));
  Alcotest.(check int) "harmful variable" 5 (sumh (fun c -> c.Profile.var));
  Alcotest.(check int) "harmful dispatch" 83 (sumh (fun c -> c.Profile.disp))

let test_corpus_raw_calibration () =
  (* Planted raw volumes should land on Table 1's statistics. *)
  let profiles = Profile.corpus () in
  let raw = List.map Profile.expected_raw profiles in
  let vars = List.map (fun c -> c.Profile.var) raw in
  let disps = List.map (fun c -> c.Profile.disp) raw in
  Alcotest.(check (float 0.5)) "variable mean ~22.4" 22.4 (Wr_support.Stats.mean vars);
  Alcotest.(check (float 0.6)) "variable median ~5.5" 5.5 (Wr_support.Stats.median vars);
  Alcotest.(check int) "variable max 269" 269 (Wr_support.Stats.max vars);
  Alcotest.(check (float 0.5)) "dispatch mean ~22.3" 22.3 (Wr_support.Stats.mean disps);
  Alcotest.(check (float 0.6)) "dispatch median ~7" 7.0 (Wr_support.Stats.median disps);
  Alcotest.(check int) "dispatch max 198" 198 (Wr_support.Stats.max disps);
  let htmls = List.map (fun c -> c.Profile.html) raw in
  Alcotest.(check int) "html max 112 (Ford)" 112 (Wr_support.Stats.max htmls);
  Alcotest.(check (float 0.3)) "html mean ~2.2" 2.2 (Wr_support.Stats.mean htmls);
  (* The emergent "All" row must land on the paper's 47.3 / 27.0 / 278. *)
  let alls = List.map Profile.total raw in
  Alcotest.(check (float 0.2)) "all mean ~47.3" 47.3 (Wr_support.Stats.mean alls);
  Alcotest.(check (float 0.1)) "all median 27" 27.0 (Wr_support.Stats.median alls);
  Alcotest.(check bool) "all max near 278" true
    (abs (Wr_support.Stats.max alls - 278) <= 10)

let test_corpus_full_fidelity_alt_seed () =
  (* Fidelity must be schedule-independent: a different seed, same truth. *)
  let outcomes = Eval.run_corpus ~seed:1234 () in
  let bad = List.filter (fun o -> not (Eval.fidelity o)) outcomes in
  Alcotest.(check (list string)) "all sites faithful at seed 1234" []
    (List.map (fun o -> o.Eval.profile.Profile.name) bad)

let test_corpus_full_fidelity () =
  (* Every one of the 100 sites: detected counts (raw and filtered) must
     equal the planted ground truth — the end-to-end soundness check that
     replaces the paper's manual inspection. *)
  let outcomes = Eval.run_corpus ~seed:42 () in
  let bad = List.filter (fun o -> not (Eval.fidelity o)) outcomes in
  Alcotest.(check (list string)) "all sites faithful (filtered)" []
    (List.map (fun o -> o.Eval.profile.Profile.name) bad);
  let raw_bad = List.filter (fun o -> o.Eval.raw <> o.Eval.expected_raw) outcomes in
  Alcotest.(check (list string)) "all sites faithful (raw)" []
    (List.map (fun o -> o.Eval.profile.Profile.name) raw_bad)

let test_site_fidelity site_name =
  let profiles = Profile.corpus () in
  let p = List.find (fun p -> p.Profile.name = site_name) profiles in
  let o = Eval.run_site ~seed:11 p in
  Alcotest.(check bool)
    (Printf.sprintf "%s: detected filtered = planted (got %d/%d/%d/%d want %d/%d/%d/%d)"
       site_name o.Eval.filtered.Profile.html o.Eval.filtered.Profile.func
       o.Eval.filtered.Profile.var o.Eval.filtered.Profile.disp
       o.Eval.expected_filtered.Profile.html o.Eval.expected_filtered.Profile.func
       o.Eval.expected_filtered.Profile.var o.Eval.expected_filtered.Profile.disp)
    true (Eval.fidelity o);
  Alcotest.(check bool)
    (Printf.sprintf "%s: detected raw = planted (got %d/%d/%d/%d want %d/%d/%d/%d)" site_name
       o.Eval.raw.Profile.html o.Eval.raw.Profile.func o.Eval.raw.Profile.var
       o.Eval.raw.Profile.disp o.Eval.expected_raw.Profile.html o.Eval.expected_raw.Profile.func
       o.Eval.expected_raw.Profile.var o.Eval.expected_raw.Profile.disp)
    true (o.Eval.raw = o.Eval.expected_raw)

let test_fidelity_allstate () = test_site_fidelity "Allstate"

let test_fidelity_ford () = test_site_fidelity "Ford"

let test_fidelity_metlife () = test_site_fidelity "MetLife"

let test_fidelity_valero () = test_site_fidelity "ValeroEnergy"

let test_fidelity_filler () = test_site_fidelity "Company01"

let outcome_projection (o : Eval.outcome) =
  (* Everything but [wall_clock_s], which legitimately varies run to run. *)
  ( o.Eval.profile.Profile.name,
    o.Eval.raw,
    o.Eval.filtered,
    o.Eval.ops,
    o.Eval.accesses,
    o.Eval.detector_records,
    o.Eval.crashes )

let test_corpus_parallel_deterministic () =
  (* The domain fleet must be invisible in the results: same sites,
     same order, same counts across every jobs value AND across
     repeated runs at the same jobs value (which domain claims which
     site changes from run to run) — only the wall clock may differ. *)
  let run jobs = Eval.run_corpus ~seed:7 ~limit:6 ~jobs () in
  let reference = List.map outcome_projection (run 1) in
  Alcotest.(check int) "same number of sites" 6 (List.length reference);
  List.iter
    (fun jobs ->
      List.iter
        (fun attempt ->
          let again = List.map outcome_projection (run jobs) in
          Alcotest.(check bool)
            (Printf.sprintf "jobs:%d attempt %d outcomes = jobs:1 outcomes" jobs
               attempt)
            true
            (again = reference))
        [ 1; 2 ])
    [ 1; 2; 8 ]

let test_corpus_dedup_invisible () =
  (* Dedup changes detector_records, never verdicts or raw access counts. *)
  let strip (name, raw, filtered, ops, accesses, _records, crashes) =
    (name, raw, filtered, ops, accesses, crashes)
  in
  let on = Eval.run_corpus ~seed:7 ~limit:6 ~dedup:true () in
  let off = Eval.run_corpus ~seed:7 ~limit:6 ~dedup:false () in
  Alcotest.(check bool) "dedup on = dedup off (modulo detector_records)" true
    (List.map (fun o -> strip (outcome_projection o)) on
    = List.map (fun o -> strip (outcome_projection o)) off);
  let records l = List.fold_left (fun acc o -> acc + o.Eval.detector_records) 0 l in
  Alcotest.(check bool) "dedup forwards no more than raw" true (records on <= records off)

let suite =
  [
    Alcotest.test_case "pattern: html unguarded" `Quick test_html_unguarded;
    Alcotest.test_case "pattern: html guarded" `Quick test_html_guarded;
    Alcotest.test_case "pattern: html polling (Ford)" `Quick test_html_polling;
    Alcotest.test_case "pattern: function hover" `Quick test_function_hover;
    Alcotest.test_case "pattern: form hint (Southwest)" `Quick test_form_hint;
    Alcotest.test_case "pattern: form checked" `Quick test_form_checked;
    Alcotest.test_case "pattern: form two writers" `Quick test_form_two_writers;
    Alcotest.test_case "pattern: gomez" `Quick test_gomez;
    Alcotest.test_case "pattern: late load listener" `Quick test_late_load_listener;
    Alcotest.test_case "pattern: bulk variable" `Quick test_bulk_variable;
    Alcotest.test_case "pattern: bulk dispatch" `Quick test_bulk_dispatch;
    Alcotest.test_case "pattern: ajax shared" `Quick test_ajax_shared;
    Alcotest.test_case "boilerplate race-free" `Quick test_boilerplate_racefree;
    Alcotest.test_case "corpus: Table 2 totals" `Quick test_corpus_shape;
    Alcotest.test_case "corpus: Table 1 calibration" `Quick test_corpus_raw_calibration;
    Alcotest.test_case "corpus: full fidelity (100 sites)" `Slow test_corpus_full_fidelity;
    Alcotest.test_case "corpus: fidelity at another seed" `Slow test_corpus_full_fidelity_alt_seed;
    Alcotest.test_case "fidelity: Allstate" `Quick test_fidelity_allstate;
    Alcotest.test_case "fidelity: Ford" `Quick test_fidelity_ford;
    Alcotest.test_case "fidelity: MetLife" `Quick test_fidelity_metlife;
    Alcotest.test_case "fidelity: ValeroEnergy" `Quick test_fidelity_valero;
    Alcotest.test_case "fidelity: filler site" `Quick test_fidelity_filler;
    Alcotest.test_case "corpus: jobs:4 = jobs:1" `Quick test_corpus_parallel_deterministic;
    Alcotest.test_case "corpus: dedup invisible in verdicts" `Quick test_corpus_dedup_invisible;
  ]
