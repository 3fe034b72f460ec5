(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6), plus the performance and ablation experiments indexed
   in DESIGN.md. Run with: dune exec bench/main.exe *)

open Bechamel
open Toolkit
module Profile = Wr_sitegen.Profile
module Eval = Wr_sitegen.Eval
module Gen = Wr_sitegen.Gen
module Graph = Wr_hb.Graph
module Op = Wr_hb.Op
module Table = Wr_support.Table

(* --quick: a CI-sized pass — Tables 1-2 over a truncated corpus and a
   smaller bechamel quota; Perf-4b still runs the full corpus. *)
let quick = Array.exists (( = ) "--quick") Sys.argv
let corpus_limit = if quick then Some 12 else None

let section title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n\n"

(* ------------------------------------------------------------------ *)
(* Machine-readable results (BENCH_results.json)                       *)
(*                                                                     *)
(* Every section also records its numbers here; the file is written    *)
(* next to the stdout tables so the perf trajectory is trackable       *)
(* across PRs. Format (documented in README "Benchmarks"):             *)
(*   { "<section>": { "<benchmark>": <number>, ... }, ... }            *)
(* Bechamel sections are ns/run; *_s entries are wall-clock seconds;   *)
(* *_ratio and *_speedup entries are dimensionless.                    *)
(* ------------------------------------------------------------------ *)

let bench_results : (string * (string * Wr_support.Json.t) list ref) list ref = ref []

let record_result sec name v =
  let entries =
    match List.assoc_opt sec !bench_results with
    | Some r -> r
    | None ->
        let r = ref [] in
        bench_results := !bench_results @ [ (sec, r) ];
        r
  in
  entries := !entries @ [ (name, v) ]

let record_float sec name v = record_result sec name (Wr_support.Json.Float v)

let write_bench_results path =
  let obj =
    Wr_support.Json.Obj
      (List.map (fun (s, entries) -> (s, Wr_support.Json.Obj !entries)) !bench_results)
  in
  let oc = open_out_bin path in
  output_string oc (Wr_support.Json.to_string obj);
  close_out oc;
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing                                                   *)
(* ------------------------------------------------------------------ *)

let run_bench_group ~name tests =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg
      ~limit:(if quick then 50 else 200)
      ~quota:(Time.second (if quick then 0.1 else 0.5))
      ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name tests in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let estimates =
    Hashtbl.fold
      (fun test_name ols acc ->
        match Analyze.OLS.estimates ols with
        | Some (est :: _) -> (test_name, est) :: acc
        | Some [] | None -> acc)
      results []
    |> List.sort compare
  in
  List.iter (fun (test_name, ns) -> record_float name test_name ns) estimates;
  estimates

let pp_ns ns =
  if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let print_bench_results results =
  Table.print ~header:[ "benchmark"; "time/run" ]
    (List.map (fun (name, ns) -> [ name; pp_ns ns ]) results)

(* ------------------------------------------------------------------ *)
(* Tables 1 and 2 (§6.2, §6.3)                                         *)
(* ------------------------------------------------------------------ *)

let paper_table1 =
  (* race type -> (mean, median, max) from the paper *)
  [
    ("HTML", (2.2, 0.0, 112));
    ("Function", (0.4, 0.0, 6));
    ("Variable", (22.4, 5.5, 269));
    ("Event Dispatch", (22.3, 7.0, 198));
    ("All", (47.3, 27.0, 278));
  ]

let table1 outcomes =
  section "Table 1 — raw races per type across 100 sites (paper vs measured)";
  let stat f =
    let xs = List.map f outcomes in
    (Wr_support.Stats.mean xs, Wr_support.Stats.median xs, Wr_support.Stats.max xs)
  in
  let selectors =
    [
      ("HTML", fun (o : Eval.outcome) -> o.Eval.raw.Profile.html);
      ("Function", fun o -> o.Eval.raw.Profile.func);
      ("Variable", fun o -> o.Eval.raw.Profile.var);
      ("Event Dispatch", fun o -> o.Eval.raw.Profile.disp);
      ("All", fun o -> Profile.total o.Eval.raw);
    ]
  in
  let rows =
    List.map
      (fun (name, f) ->
        let mean, median, mx = stat f in
        let pm, pmed, pmax = List.assoc name paper_table1 in
        [
          name;
          Printf.sprintf "%.1f" pm;
          Printf.sprintf "%.1f" mean;
          Printf.sprintf "%.1f" pmed;
          Printf.sprintf "%.1f" median;
          string_of_int pmax;
          string_of_int mx;
        ])
      selectors
  in
  Table.print
    ~header:
      [ "Race type"; "mean(paper)"; "mean(ours)"; "med(paper)"; "med(ours)";
        "max(paper)"; "max(ours)" ]
    rows

let table2 outcomes =
  section "Table 2 — filtered races per site, harmful in parentheses (§6.3)";
  print_string (Eval.render_table2 outcomes);
  let infidels = List.filter (fun o -> not (Eval.fidelity o)) outcomes in
  Printf.printf
    "\nGround-truth fidelity: %d/%d sites match planted races exactly%s\n"
    (List.length outcomes - List.length infidels)
    (List.length outcomes)
    (if infidels = [] then "" else " (! marks mismatches)")

(* ------------------------------------------------------------------ *)
(* Figures 1-5: the motivating examples as detector runs               *)
(* ------------------------------------------------------------------ *)

let figures () =
  section "Figures 1-5 — the paper's motivating races, re-detected";
  let run name page resources expect =
    let r = Webracer.analyze (Webracer.config ~page ~resources ~seed:1 ~explore:true ()) in
    let h, f, v, d = Webracer.count_by_type r.Webracer.races in
    [ name; expect; Printf.sprintf "html %d, function %d, variable %d, dispatch %d" h f v d ]
  in
  let rows =
    [
      run "Fig 1 (iframe variable race)"
        {|<script>x = 1;</script><iframe src="a.html"></iframe><iframe src="b.html"></iframe>|}
        [ ("a.html", "<script>x = 2;</script>"); ("b.html", "<script>alert(x);</script>") ]
        "1 variable";
      run "Fig 2 (Southwest form race)"
        {|<input type="text" id="depart" /><script>document.getElementById("depart").value = "City of Departure";</script>|}
        [] "1 variable (form)";
      run "Fig 3 (Valero HTML race)"
        {|<script>function show() { var v = document.getElementById("dw"); v.style.display = "block"; }</script><a href="javascript:show()">Send Email</a><div id="dw" style="display:none">form</div>|}
        [] "1 html";
      run "Fig 4 (Mozilla function race)"
        {|<iframe id="i" src="sub.html" onload="setTimeout(doNextStep, 20)"></iframe><script>function doNextStep() { return 1; }</script>|}
        [ ("sub.html", "<p>sub</p>") ]
        "1 function";
      run "Fig 5 (event dispatch race)"
        {|<iframe id="i" src="a.html"></iframe><script>document.getElementById("i").onload = function() { return 1; };</script>|}
        [ ("a.html", "<p>nested</p>") ]
        "1 dispatch";
    ]
  in
  Table.print ~header:[ "figure"; "expected"; "detected" ] rows

(* ------------------------------------------------------------------ *)
(* Perf-1: page analysis throughput (§6.3 "tens of thousands of        *)
(* operations in less than a minute")                                  *)
(* ------------------------------------------------------------------ *)

let stress_page n =
  (* n div elements, each parsed as its own operation, plus nav handlers
     and a polling script: a page whose op count is dominated by n. *)
  let buf = Buffer.create (n * 32) in
  for i = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "<div id=\"el%d\" class=\"c\">item</div>" i)
  done;
  Buffer.add_string buf
    "<script>var count = 0; var t = setInterval(function () { count++; if (count > 20) { \
     clearInterval(t); } }, 5);</script>";
  Buffer.contents buf

(* The same elements nested inside one another: per-element work must
   not grow with depth. *)
let nested_page n =
  let buf = Buffer.create (n * 40) in
  for i = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "<div id=\"el%d\" class=\"c\">item" i)
  done;
  for _ = 1 to n do
    Buffer.add_string buf "</div>"
  done;
  Buffer.contents buf

let perf_pages () =
  section "Perf-1 — per-page analysis throughput (paper: 10k+ ops < 1 min)";
  let rows =
    List.map
      (fun (name, key, page) ->
        let started = Wr_support.Clock.now () in
        let r = Webracer.analyze (Webracer.config ~page ~seed:1 ~explore:true ()) in
        let dt = Wr_support.Clock.now () -. started in
        record_float "perf1" key dt;
        [
          name;
          string_of_int r.Webracer.ops;
          string_of_int r.Webracer.accesses;
          Printf.sprintf "%.3f s" dt;
          Printf.sprintf "%.0f ops/s" (float_of_int r.Webracer.ops /. dt);
        ])
      (List.map
         (fun n ->
           (Printf.sprintf "%d elements" n, Printf.sprintf "%d-elements_s" n, stress_page n))
         [ 1_000; 5_000; 20_000 ]
      @ [ ("20000 nested", "20000-nested_s", nested_page 20_000) ])
  in
  Table.print ~header:[ "page"; "operations"; "accesses"; "wall clock"; "throughput" ] rows;
  print_newline ();
  let biggest =
    List.filter
      (fun (p : Profile.t) -> Profile.total (Profile.expected_raw p) > 100)
      (Profile.corpus ())
  in
  let rows =
    List.map
      (fun p ->
        let o = Eval.run_site ~seed:7 p in
        [
          p.Profile.name;
          string_of_int o.Eval.ops;
          string_of_int o.Eval.accesses;
          Printf.sprintf "%.3f s" o.Eval.wall_clock_s;
        ])
      biggest
  in
  Table.print ~header:[ "largest corpus sites"; "operations"; "accesses"; "wall clock" ] rows

(* ------------------------------------------------------------------ *)
(* Perf-2: instrumentation overhead on compute kernels (§6.3: ~500x    *)
(* vs JIT; here: detector on vs off in the same interpreter)           *)
(* ------------------------------------------------------------------ *)

let kernels =
  [
    ( "fib",
      "function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }\n\
       var r = fib(16);" );
    ( "string-ops",
      "var s = \"\"; var i = 0;\n\
       for (i = 0; i < 300; i++) { s = s + \"x\"; }\n\
       var n = 0;\n\
       for (i = 0; i < 100; i++) { n = n + s.indexOf(\"xx\", i) + s.length; }" );
    ( "array-sum",
      "var a = []; var i = 0;\n\
       for (i = 0; i < 500; i++) { a.push(i * 3 % 17); }\n\
       var sum = 0;\n\
       for (i = 0; i < a.length; i++) { sum = sum + a[i]; }" );
    ( "object-churn",
      "var o = {}; var i = 0;\n\
       for (i = 0; i < 400; i++) { o[\"k\" + (i % 40)] = i; }\n\
       var total = 0;\n\
       var k;\n\
       for (k in o) { total = total + o[k]; }" );
  ]

let run_kernel ~detector source =
  let graph = Graph.create () in
  let det : Wr_detect.Detector.t =
    match detector with
    | `Uninstrumented | `Null_sink -> Wr_detect.Detector.null
    | `Last_access -> Wr_detect.Last_access.create graph
    | `Full_track -> Wr_detect.Full_track.create graph
  in
  let vm = Wr_js.Interp.create ~sink:det.Wr_detect.Detector.record () in
  if detector = `Uninstrumented then vm.Wr_js.Value.instrument <- false;
  vm.Wr_js.Value.current_op <- Graph.fresh graph Op.Script ~label:"kernel";
  Wr_js.Interp.run_in_global vm (Wr_js.Parser.parse source)

let perf_overhead () =
  section "Perf-2 — detector overhead on compute kernels (paper: ~500x vs JIT)";
  let tests =
    List.concat_map
      (fun (name, src) ->
        [
          Test.make ~name:(name ^ "/uninstrumented")
            (Staged.stage (fun () -> run_kernel ~detector:`Uninstrumented src));
          Test.make ~name:(name ^ "/null-sink")
            (Staged.stage (fun () -> run_kernel ~detector:`Null_sink src));
          Test.make ~name:(name ^ "/last-access")
            (Staged.stage (fun () -> run_kernel ~detector:`Last_access src));
          Test.make ~name:(name ^ "/full-track")
            (Staged.stage (fun () -> run_kernel ~detector:`Full_track src));
        ])
      kernels
  in
  let results = run_bench_group ~name:"perf2" tests in
  print_bench_results results;
  print_newline ();
  (* Slowdown ratios per kernel. *)
  let find name = List.assoc_opt ("perf2/" ^ name) results in
  let rows =
    List.filter_map
      (fun (name, _) ->
        match
          ( find (name ^ "/uninstrumented"),
            find (name ^ "/null-sink"),
            find (name ^ "/last-access"),
            find (name ^ "/full-track") )
        with
        | Some base, Some sink, Some la, Some ft ->
            Some
              [
                name;
                Printf.sprintf "%.2fx" (sink /. base);
                Printf.sprintf "%.2fx" (la /. base);
                Printf.sprintf "%.2fx" (ft /. base);
              ]
        | _ -> None)
      kernels
  in
  Table.print
    ~header:
      [ "kernel (vs uninstrumented)"; "emission only"; "last-access"; "full-track" ]
    rows;
  print_endline
    "\n(The paper's 500x compares an instrumented interpreter against an\n\
     uninstrumented JIT engine; our baseline is the same interpreter with\n\
     emission disabled, isolating instrumentation and detection costs.)"

(* ------------------------------------------------------------------ *)
(* Perf-3: telemetry overhead — the disabled recorder must be a        *)
(* near-no-op, and the enabled one cheap enough to leave on            *)
(* ------------------------------------------------------------------ *)

let perf_telemetry () =
  section "Perf-3 — telemetry overhead (disabled must be a near-no-op)";
  let ford =
    List.find (fun (p : Profile.t) -> p.Profile.name = "Ford") (Profile.corpus ())
  in
  let site = Gen.generate ford in
  let analyze ~telemetry () =
    ignore
      (Webracer.analyze
         (Webracer.config ~page:site.Gen.page ~resources:site.Gen.resources ~seed:3
            ?telemetry ()))
  in
  let tests =
    [
      Test.make ~name:"analyze-ford/telemetry-off"
        (Staged.stage (analyze ~telemetry:None));
      Test.make ~name:"analyze-ford/telemetry-on"
        (Staged.stage (fun () ->
             analyze ~telemetry:(Some (Wr_telemetry.Telemetry.create ())) ()));
    ]
  in
  let results = run_bench_group ~name:"perf3" tests in
  print_bench_results results;
  (match
     ( List.assoc_opt "perf3/analyze-ford/telemetry-off" results,
       List.assoc_opt "perf3/analyze-ford/telemetry-on" results )
   with
  | Some off, Some on_ ->
      Printf.printf "\ntelemetry-on / telemetry-off: %.3fx\n" (on_ /. off)
  | _ -> ());
  (* One instrumented run's headline numbers go into BENCH_results.json. *)
  let tm = Wr_telemetry.Telemetry.create () in
  ignore
    (Webracer.analyze
       (Webracer.config ~page:site.Gen.page ~resources:site.Gen.resources ~seed:3
          ~telemetry:tm ()));
  record_result "perf3" "instrumented_ford_spans"
    (Wr_support.Json.Int (Wr_telemetry.Telemetry.n_spans tm));
  record_float "perf3" "instrumented_ford_wall_s" (Wr_telemetry.Telemetry.total_wall tm)

(* ------------------------------------------------------------------ *)
(* Perf-4b: domain-parallel corpus analysis                            *)
(* ------------------------------------------------------------------ *)

(* Jobs:4 must beat sequential by at least this factor over the full
   corpus on hardware with 4 or more domains, judged on the median ratio
   of [floor_pairs] alternating jobs:1 / jobs:4 passes: one pair's ratio
   moves with host noise (1.35x to 1.68x over three runs on one box). *)
let speedup_floor = 1.5
let floor_pairs = 3

(* Perf-4b's checks; any entry makes the run exit 1 once every section
   has printed. *)
let failures = ref []

let fail msg =
  Printf.printf "FAIL: %s\n" msg;
  failures := !failures @ [ msg ]

(* Outcomes projected onto their deterministic components: everything but
   the wall clock must be invariant under both [jobs] and [dedup]. *)
let outcome_signature (o : Eval.outcome) =
  (o.Eval.profile.Profile.name, o.Eval.raw, o.Eval.filtered, o.Eval.ops, o.Eval.accesses,
   o.Eval.crashes)

(* Always the full corpus, --quick included: on a dozen sites the pool's
   start-up outweighs the work and the speedup floor measures nothing. *)
let perf_parallel () =
  section "Perf-4b — domain-parallel corpus analysis (domain fleet)";
  let hw = Wr_support.Pool.hardware_domains () in
  Printf.printf "hardware parallelism (Domain.recommended_domain_count): %d\n\n" hw;
  record_result "perf4" "hardware_domains" (Wr_support.Json.Int hw);
  (* Corpus-wide dedup effect and race-count identity, dedup on vs off. *)
  let on = Eval.run_corpus ~seed:42 ~dedup:true () in
  let off = Eval.run_corpus ~seed:42 ~dedup:false () in
  let sum f xs = List.fold_left (fun acc o -> acc + f o) 0 xs in
  let records xs = sum (fun o -> o.Eval.detector_records) xs in
  let identical =
    List.for_all2 (fun a b -> outcome_signature a = outcome_signature b) on off
  in
  let corpus_ratio = float_of_int (records off) /. float_of_int (max 1 (records on)) in
  Printf.printf
    "corpus detector records: %d raw -> %d after dedup (%.2fx); race counts %s\n\n"
    (records off) (records on) corpus_ratio
    (if identical then "identical across all sites" else "DIFFER (fidelity regression!)");
  if not identical then fail "corpus race counts differ with dedup on and off";
  record_float "perf4" "corpus_dedup_ratio" corpus_ratio;
  (* Speedup curve: same corpus, growing worker fleets. *)
  let reference = List.map outcome_signature on in
  (* One timed full-corpus pass: wall seconds, and whether its outcomes
     match the sequential reference. *)
  let pass jobs =
    let started = Wr_support.Clock.now () in
    let outcomes = Eval.run_corpus ~seed:42 ~jobs () in
    (Wr_support.Clock.now () -. started, List.map outcome_signature outcomes = reference)
  in
  let timings =
    List.map
      (fun jobs ->
        let dt, same = pass jobs in
        record_float "perf4" (Printf.sprintf "corpus_jobs%d_s" jobs) dt;
        (jobs, dt, same))
      [ 1; 2; 4; 8 ]
  in
  let base = match timings with (_, dt, _) :: _ -> dt | [] -> 1. in
  Table.print
    ~header:[ "jobs"; "wall clock"; "speedup"; "outcomes vs sequential" ]
    (List.map
       (fun (jobs, dt, same) ->
         record_float "perf4" (Printf.sprintf "corpus_jobs%d_speedup" jobs) (base /. dt);
         [
           string_of_int jobs;
           Printf.sprintf "%.3f s" dt;
           Printf.sprintf "%.2fx" (base /. dt);
           (if same then "identical" else "DIFFER (determinism regression!)");
         ])
       timings);
  List.iter
    (fun (jobs, _, same) ->
      if not same then fail (Printf.sprintf "jobs:%d outcomes differ from sequential" jobs))
    timings;
  print_endline
    "\n(Per-worker graphs, detectors and VMs are domain-local; the fleet\n\
     shares only its task queue and an item cursor, so outcomes are\n\
     input-ordered and identical whatever the job count or which lane ran\n\
     which item. Speedup tracks the hardware's core count — the pool\n\
     spawns no more domains than cores, so oversubscribed job counts\n\
     degrade to the hardware's best.)";
  if hw < 4 then
    Printf.printf "\nspeedup floor skipped: %d hardware domain(s), the %.1fx floor needs 4\n"
      hw speedup_floor
  else begin
    let ratios =
      List.init floor_pairs (fun _ ->
          let dt1, same1 = pass 1 in
          let dt4, same4 = pass 4 in
          if not (same1 && same4) then fail "floor pass outcomes differ from sequential";
          dt1 /. dt4)
    in
    let speedup = Wr_support.Stats.fpercentile ratios 50. in
    record_float "perf4" "corpus_jobs4_speedup_median" speedup;
    Printf.printf "\njobs:4 speedup over %d alternating pairs: %s; median %.2fx\n"
      floor_pairs
      (String.concat ", " (List.map (Printf.sprintf "%.2fx") ratios))
      speedup;
    if speedup < speedup_floor then
      fail
        (Printf.sprintf "median corpus_jobs4_speedup %.2fx is below the %.1fx floor" speedup
           speedup_floor)
    else Printf.printf "meets the %.1fx floor\n" speedup_floor
  end

(* ------------------------------------------------------------------ *)
(* Perf-6: static predictor throughput (DESIGN.md §8)                  *)
(* ------------------------------------------------------------------ *)

(* The ahead-of-time predictor must be cheap enough to run on every
   page save: this group pins effect extraction + MHP construction
   (Model.build) and the full predict pipeline, and reports how many
   dynamic analyses one static pass costs. *)
let perf_static () =
  section "Perf-6 — static predictor: effect extraction + MHP construction";
  let module SModel = Wr_static.Model in
  let module SPredict = Wr_static.Predict in
  let site = Gen.generate (List.nth (Profile.corpus ()) 20) in
  let page = site.Gen.page and resources = site.Gen.resources in
  let m = SModel.build ~page ~resources () in
  Printf.printf "page: %d bytes, %d units, %d docs, %d MHP pairs\n\n"
    (String.length page) (Array.length m.SModel.units) m.SModel.docs
    (SModel.mhp_pairs m);
  let tests =
    [
      Test.make ~name:"model-build"
        (Staged.stage (fun () -> SModel.build ~page ~resources ()));
      Test.make ~name:"predict"
        (Staged.stage (fun () -> SPredict.predict ~page ~resources ()));
    ]
  in
  let results = run_bench_group ~name:"perf6" tests in
  print_bench_results results;
  let t0 = Wr_support.Clock.now () in
  let r =
    Webracer.analyze (Webracer.config ~page ~resources ~seed:42 ~explore:true ())
  in
  let dyn_s = Wr_support.Clock.now () -. t0 in
  record_float "perf6" "dynamic_analyze_s" dyn_s;
  (match List.assoc_opt "perf6/predict" results with
  | Some predict_ns ->
      let ratio = dyn_s *. 1e9 /. predict_ns in
      record_float "perf6" "dynamic_over_predict_ratio" ratio;
      Printf.printf
        "\n(One dynamic analysis (%d ops, %.1f ms) buys ~%.0f static predictions.)\n"
        r.Webracer.ops (dyn_s *. 1e3) ratio
  | None -> ())

(* ------------------------------------------------------------------ *)
(* Perf-8: prediction-guided triage vs blind schedule enumeration      *)
(* ------------------------------------------------------------------ *)

(* The tentpole claim of the triage pipeline: confirming every
   dynamically-realizable prediction with directed schedules must cost
   strictly fewer schedules than blind seed enumeration at the same
   coverage. The metric is schedules-to-confirmation (the index of the
   schedule that produced the last new confirmation); the schedules a
   guided run spends *refuting* false positives buy certificates blind
   enumeration cannot produce at any cost, so they are reported
   alongside. test/test_triage.ml "guided beats blind on the pack"
   holds the claim; this section prints the per-site counts. *)
let perf_triage () =
  section "Perf-8 — guided triage vs blind schedule enumeration";
  let module T = Wr_static.Triage in
  let module Adv = Wr_sitegen.Adversarial in
  (* A few standard sites (these confirm at baseline — guidance must not
     cost anything there) plus the adversarial pack (predictions the
     baseline schedule cannot see — where guidance pays). *)
  let sites =
    List.mapi
      (fun i (p : Profile.t) ->
        let site = Gen.generate p in
        (p.Profile.name, 42 + i, site.Gen.page, site.Gen.resources))
      (List.filteri (fun i _ -> i < 3) (Profile.corpus ()))
    @ List.mapi
        (fun i (s : Adv.scenario) ->
          (s.Adv.name, 142 + i, s.Adv.page, s.Adv.resources))
        (Adv.pack ())
  in
  let rows =
    List.map
      (fun (name, seed, page, resources) ->
        let t = T.run ~seed ~page ~resources () in
        let b = T.blind_equivalent ~seed ~page ~resources t in
        (name, t, b))
      sites
  in
  Table.print
    ~header:
      [ "site"; "pred"; "conf"; "ref"; "guided-to-confirm"; "blind"; "matched" ]
    (List.map
       (fun (name, t, b) ->
         [
           name;
           string_of_int (List.length t.T.items);
           string_of_int (T.count `Confirmed t);
           string_of_int (T.count `Refuted t);
           string_of_int t.T.schedules_to_confirm;
           string_of_int b.T.blind_schedules;
           (if b.T.blind_matched then "yes" else "CAP");
         ])
       rows);
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let guided = sum (fun (_, t, _) -> t.T.schedules_to_confirm) in
  let blind = sum (fun (_, _, b) -> b.T.blind_schedules) in
  let all_matched = List.for_all (fun (_, _, b) -> b.T.blind_matched) rows in
  record_float "perf8" "guided_confirm_schedules" (float_of_int guided);
  record_float "perf8" "blind_schedules" (float_of_int blind);
  record_float "perf8" "blind_over_guided_confirmation_ratio"
    (float_of_int blind /. float_of_int (max 1 guided));
  record_result "perf8" "blind_matched_all" (Wr_support.Json.Bool all_matched);
  record_result "perf8" "triage_refuted"
    (Wr_support.Json.Int (sum (fun (_, t, _) -> T.count `Refuted t)));
  record_result "perf8" "triage_unconfirmed"
    (Wr_support.Json.Int (sum (fun (_, t, _) -> T.count `Unconfirmed t)));
  record_result "perf8" "config_budget" (Wr_support.Json.Int T.default_budget);
  record_result "perf8" "config_sites"
    (Wr_support.Json.Int (List.length sites));
  Printf.printf
    "\n(guided confirmation: %d schedules; blind equivalent: %d%s — \
     %.1fx.\n\
     The guided runs also refuted %d false predictions with certificates,\n\
     which blind enumeration cannot do at any schedule count.)\n"
    guided blind
    (if all_matched then "" else " (cap hit)")
    (float_of_int blind /. float_of_int (max 1 guided))
    (sum (fun (_, t, _) -> T.count `Refuted t))

(* ------------------------------------------------------------------ *)
(* Abl-1: happens-before query strategy (§5.2.1)                       *)
(* ------------------------------------------------------------------ *)

let build_layered_graph ~strategy ~n =
  (* A layered DAG approximating a page's op structure: each op has edges
     from up to two earlier ops. *)
  let g = Graph.create ~strategy () in
  let rng = Wr_support.Rng.of_int 99 in
  for i = 0 to n - 1 do
    let id = Graph.fresh g Op.Script ~label:(string_of_int i) in
    if i > 0 then begin
      Graph.add_edge g (Wr_support.Rng.int rng i) id;
      if i > 4 && Wr_support.Rng.bool rng then Graph.add_edge g (Wr_support.Rng.int rng i) id
    end
  done;
  g

let ablation_hb () =
  section "Abl-1 — CHC query cost: DFS traversal vs chain vector clocks (§5.2.1)";
  let sizes = [ 500; 2_000; 8_000 ] in
  let tests =
    List.concat_map
      (fun n ->
        let dfs = build_layered_graph ~strategy:Graph.Dfs ~n in
        let chain_vc = build_layered_graph ~strategy:Graph.Chain_vc ~n in
        let rng = Wr_support.Rng.of_int 5 in
        let queries =
          Array.init 64 (fun _ -> (Wr_support.Rng.int rng n, Wr_support.Rng.int rng n))
        in
        let query g () = Array.iter (fun (a, b) -> ignore (Graph.chc g a b)) queries in
        [
          Test.make ~name:(Printf.sprintf "chc/dfs/%d-ops" n) (Staged.stage (query dfs));
          Test.make
            ~name:(Printf.sprintf "chc/chain-vc/%d-ops" n)
            (Staged.stage (query chain_vc));
        ])
      sizes
  in
  print_bench_results (run_bench_group ~name:"abl1" tests);
  print_newline ();
  (* End-to-end: analyzing a heavyweight corpus site under each strategy. *)
  let ford =
    List.find (fun (p : Profile.t) -> p.Profile.name = "Ford") (Profile.corpus ())
  in
  let site = Gen.generate ford in
  let run strategy () =
    ignore
      (Webracer.analyze
         (Webracer.config ~page:site.Gen.page ~resources:site.Gen.resources ~seed:3
            ~hb_strategy:strategy ()))
  in
  let tests =
    [
      Test.make ~name:"analyze-ford/dfs" (Staged.stage (run Graph.Dfs));
      Test.make ~name:"analyze-ford/chain-vc" (Staged.stage (run Graph.Chain_vc));
    ]
  in
  print_bench_results (run_bench_group ~name:"abl1-e2e" tests);
  (* How compact are the chain-VC clocks on a real page? *)
  let b = Wr_browser.Browser.create { (Webracer.config ~page:site.Gen.page ~resources:site.Gen.resources ~seed:3 ~hb_strategy:Graph.Chain_vc ()) with Wr_browser.Config.explore = false } in
  Wr_browser.Browser.start b;
  ignore (Wr_browser.Browser.run b);
  let g = Wr_browser.Browser.graph b in
  Printf.printf "\n(chain-vc decomposes the Ford page's %d operations into %d chains;\n\
                \ a sparse clock lists only the chains that reach its operation,\n\
                \ where DFS walks back through the predecessors on every query)\n"
    (Graph.n_ops g) (Graph.n_chains g)

(* ------------------------------------------------------------------ *)
(* Abl-2: single-slot vs full-history detector (§5.1 limitation)       *)
(* ------------------------------------------------------------------ *)

let ablation_detector () =
  section "Abl-2 — single-slot (paper) vs full-history detector";
  (* Recall on the paper's own miss example (schedule 3·1·2 with 1 -> 2). *)
  let recall create =
    let g = Graph.create () in
    let o1 = Graph.fresh g Op.Script ~label:"1" in
    let o2 = Graph.fresh g Op.Script ~label:"2" in
    let o3 = Graph.fresh g Op.Script ~label:"3" in
    Graph.add_edge g o1 o2;
    let d : Wr_detect.Detector.t = create g in
    let loc = Wr_mem.Location.Js_var { cell = 1; name = "e"; key = 0 } in
    let access kind op = { Wr_mem.Access.loc; kind; op; flags = []; context = "" } in
    Wr_detect.Detector.record_access d (access `Read o3);
    Wr_detect.Detector.record_access d (access `Read o1);
    Wr_detect.Detector.record_access d (access `Write o2);
    List.length (d.Wr_detect.Detector.races ())
  in
  Table.print ~header:[ "detector"; "races found on the 3.1.2 schedule" ]
    [
      [ "last-access (paper §5.1)"; string_of_int (recall Wr_detect.Last_access.create) ];
      [ "full-track (extension)"; string_of_int (recall Wr_detect.Full_track.create) ];
    ];
  print_newline ();
  (* Throughput: N accesses over K locations, all concurrent ops. *)
  let mk_access_storm create () =
    let g = Graph.create () in
    let ops = Array.init 64 (fun _ -> Graph.fresh g Op.Script ~label:"op") in
    let d : Wr_detect.Detector.t = create g in
    for i = 0 to 4_999 do
      let loc = Wr_mem.Location.Js_var { cell = i mod 97; name = "v"; key = i mod 97 } in
      let kind = if i mod 3 = 0 then `Write else `Read in
      Wr_detect.Detector.record_access d
        { Wr_mem.Access.loc; kind; op = ops.(i mod 64); flags = []; context = "" }
    done
  in
  let tests =
    [
      Test.make ~name:"5k-accesses/last-access"
        (Staged.stage (mk_access_storm Wr_detect.Last_access.create));
      Test.make ~name:"5k-accesses/full-track"
        (Staged.stage (mk_access_storm Wr_detect.Full_track.create));
    ]
  in
  print_bench_results (run_bench_group ~name:"abl2" tests)

(* ------------------------------------------------------------------ *)
(* Stability across runs (paper footnote 14)                           *)
(* ------------------------------------------------------------------ *)

let stability () =
  section "Stability — race counts across 5 schedules (paper footnote 14)";
  let sites = [ "Allstate"; "Ford"; "MetLife"; "ValeroEnergy"; "Company01" ] in
  let rows =
    List.filter_map
      (fun name ->
        match List.find_opt (fun (p : Profile.t) -> p.Profile.name = name) (Profile.corpus ()) with
        | None -> None
        | Some p ->
            let site = Gen.generate p in
            let cfg =
              Webracer.config ~page:site.Gen.page ~resources:site.Gen.resources ~explore:true ()
            in
            let m = Webracer.analyze_many cfg ~seeds:[ 11; 22; 33; 44; 55 ] in
            Some
              [
                name;
                String.concat " " (List.map string_of_int m.Webracer.per_run_counts);
                (if m.Webracer.stable then "stable" else "VARIES");
              ])
      sites
  in
  Table.print ~header:[ "site"; "raw races per seed"; "verdict" ] rows;
  print_endline
    "\n(The paper: \"races reported across different runs for the same site\n\
     had little variance; our numbers are taken from a typical run.\")"

(* ------------------------------------------------------------------ *)
(* Entry                                                               *)
(* ------------------------------------------------------------------ *)

let () =
  let t0 = Wr_support.Clock.now () in
  print_endline "WebRacer-OCaml benchmark harness (paper: PLDI 2012, WebRacer)";
  let corpus_t0 = Wr_support.Clock.now () in
  let outcomes = Eval.run_corpus ~seed:42 ?limit:corpus_limit () in
  record_float "corpus" "run_corpus_s" (Wr_support.Clock.now () -. corpus_t0);
  record_result "corpus" "fidelity_sites"
    (Wr_support.Json.Int (List.length (List.filter Eval.fidelity outcomes)));
  table1 outcomes;
  table2 outcomes;
  figures ();
  perf_pages ();
  perf_overhead ();
  perf_telemetry ();
  perf_parallel ();
  perf_static ();
  perf_triage ();
  ablation_hb ();
  ablation_detector ();
  stability ();
  Printf.printf "\nTotal bench time: %.1f s\n" (Wr_support.Clock.now () -. t0);
  record_float "total" "bench_s" (Wr_support.Clock.now () -. t0);
  write_bench_results "BENCH_results.json";
  if !failures <> [] then begin
    List.iter (Printf.printf "FAIL: %s\n") !failures;
    exit 1
  end
