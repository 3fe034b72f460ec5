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

(* --quick: a CI-sized pass — truncated corpus and a smaller bechamel
   quota, but the same BENCH_results.json schema, so scripts/bench_trend
   can compare quick runs against each other. *)
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
  (* One instrumented run's headline numbers go into BENCH_results.json
     (which superseded the old free-standing bench_metrics.json dump). *)
  let tm = Wr_telemetry.Telemetry.create () in
  ignore
    (Webracer.analyze
       (Webracer.config ~page:site.Gen.page ~resources:site.Gen.resources ~seed:3
          ~telemetry:tm ()));
  record_result "perf3" "instrumented_ford_spans"
    (Wr_support.Json.Int (Wr_telemetry.Telemetry.n_spans tm));
  record_float "perf3" "instrumented_ford_wall_s" (Wr_telemetry.Telemetry.total_wall tm)

(* ------------------------------------------------------------------ *)
(* Perf-4: access dedup ratio + domain-parallel corpus analysis        *)
(* ------------------------------------------------------------------ *)

(* The §6.3 motivating pattern for dedup: loops that re-touch the *same*
   cells every iteration (polling a flag, re-reading a[0]/a.length, an
   accumulator read-modify-write). Perf-2's kernels mostly touch fresh
   cells; these are the op-granular worst case the front-end targets. *)
let loop_kernels =
  [
    ( "poll-flag",
      "var ready = 0; var ticks = 0; var i = 0;\n\
       for (i = 0; i < 500; i++) { if (ready === 0) { ticks = ticks + 1; } }" );
    ( "hot-read",
      "var a = []; var i = 0;\n\
       for (i = 0; i < 8; i++) { a.push(i); }\n\
       var first = 0; var j = 0;\n\
       for (j = 0; j < 500; j++) { first = first + a[0] + a.length; }" );
  ]

(* Feed a kernel's access stream through last-access twice — raw, and
   behind the dedup front-end — and compare how many records the detector
   processed and what it found. *)
let kernel_dedup (_, source) =
  let run ~dedup =
    let graph = Graph.create () in
    let inner = Wr_detect.Last_access.create graph in
    let det, stats =
      if dedup then Wr_detect.Dedup.wrap inner
      else (inner, fun () -> { Wr_detect.Dedup.seen = 0; forwarded = 0 })
    in
    let vm = Wr_js.Interp.create ~sink:det.Wr_detect.Detector.record () in
    vm.Wr_js.Value.current_op <- Graph.fresh graph Op.Script ~label:"kernel";
    Wr_js.Interp.run_in_global vm (Wr_js.Parser.parse source);
    (inner.Wr_detect.Detector.accesses_seen (), List.length (inner.Wr_detect.Detector.races ()),
     stats ())
  in
  let raw_records, raw_races, _ = run ~dedup:false in
  let fwd_records, dedup_races, stats = run ~dedup:true in
  (raw_records, fwd_records, raw_races, dedup_races, stats)

let perf_dedup () =
  section "Perf-4a — per-operation access dedup on the detector hot path";
  let rows =
    List.map
      (fun (name, src) ->
        let raw, fwd, raw_races, dedup_races, stats = kernel_dedup (name, src) in
        record_float "perf4" (name ^ "_dedup_ratio") (Wr_detect.Dedup.ratio stats);
        [
          name;
          string_of_int raw;
          string_of_int fwd;
          Printf.sprintf "%.1fx" (Wr_detect.Dedup.ratio stats);
          (if raw_races = dedup_races then "identical" else "DIFFERS");
        ])
      (kernels @ loop_kernels)
  in
  Table.print
    ~header:[ "kernel"; "record calls (raw)"; "record calls (dedup)"; "ratio"; "races" ]
    rows;
  print_newline ();
  (* Wall-clock effect on the loop-heavy kernels. *)
  let tests =
    List.concat_map
      (fun (name, src) ->
        let run ~dedup () =
          let graph = Graph.create () in
          let inner = Wr_detect.Last_access.create graph in
          let det = if dedup then fst (Wr_detect.Dedup.wrap inner) else inner in
          let vm = Wr_js.Interp.create ~sink:det.Wr_detect.Detector.record () in
          vm.Wr_js.Value.current_op <- Graph.fresh graph Op.Script ~label:"kernel";
          Wr_js.Interp.run_in_global vm (Wr_js.Parser.parse src)
        in
        [
          Test.make ~name:(name ^ "/raw") (Staged.stage (run ~dedup:false));
          Test.make ~name:(name ^ "/dedup") (Staged.stage (run ~dedup:true));
        ])
      loop_kernels
  in
  print_bench_results (run_bench_group ~name:"perf4-kernels" tests)

(* Outcomes projected onto their deterministic components: everything but
   the wall clock must be invariant under both [jobs] and [dedup]. *)
let outcome_signature (o : Eval.outcome) =
  (o.Eval.profile.Profile.name, o.Eval.raw, o.Eval.filtered, o.Eval.ops, o.Eval.accesses,
   o.Eval.crashes)

let perf_parallel () =
  section "Perf-4b — domain-parallel corpus analysis (domain fleet)";
  let hw = Wr_support.Pool.hardware_domains () in
  Printf.printf "hardware parallelism (Domain.recommended_domain_count): %d\n\n" hw;
  (* The speedup gate in scripts/bench_trend.ml reads this to know
     whether the runner can physically show parallel speedup (the pool
     caps its fleet at the hardware, so jobs:4 on one core is just the
     sequential baseline). *)
  record_result "perf4" "hardware_domains" (Wr_support.Json.Int hw);
  (* Corpus-wide dedup effect and race-count identity, dedup on vs off. *)
  let on = Eval.run_corpus ~seed:42 ?limit:corpus_limit ~dedup:true () in
  let off = Eval.run_corpus ~seed:42 ?limit:corpus_limit ~dedup:false () in
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
  record_float "perf4" "corpus_dedup_ratio" corpus_ratio;
  record_result "perf4" "corpus_races_identical" (Wr_support.Json.Bool identical);
  (* Speedup curve: same corpus, growing worker fleets. *)
  let reference = List.map outcome_signature on in
  let timings =
    List.map
      (fun jobs ->
        let started = Wr_support.Clock.now () in
        let outcomes, fleet =
          Eval.run_corpus_stats ~seed:42 ?limit:corpus_limit ~jobs ()
        in
        let dt = Wr_support.Clock.now () -. started in
        let same = List.map outcome_signature outcomes = reference in
        record_float "perf4" (Printf.sprintf "corpus_jobs%d_s" jobs) dt;
        (* Fleet health behind the speedup number, so the trend gate
           sees queue contention or idle-domain regressions directly. *)
        let fsum f =
          List.fold_left (fun acc d -> acc +. f d) 0. fleet.Wr_support.Pool.per_domain
        in
        record_float "perf4"
          (Printf.sprintf "corpus_jobs%d_queue_wait_s" jobs)
          (fsum (fun d -> d.Wr_support.Pool.queue_wait_s));
        record_float "perf4"
          (Printf.sprintf "corpus_jobs%d_idle_s" jobs)
          (fsum (fun d -> d.Wr_support.Pool.idle_s));
        record_float "perf4"
          (Printf.sprintf "corpus_jobs%d_gc_minor" jobs)
          (fsum (fun d -> float_of_int d.Wr_support.Pool.gc_minor));
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
  print_endline
    "\n(Per-worker graphs, detectors and VMs are domain-local; the fleet\n\
     shares only its task queue and an item cursor, so outcomes are\n\
     input-ordered and identical whatever the job count or which lane ran\n\
     which item. Speedup tracks the hardware's core count — the pool\n\
     spawns no more domains than cores, so oversubscribed job counts\n\
     degrade to the hardware's best.)"

(* ------------------------------------------------------------------ *)
(* Perf-5: the serve API hot path — wire decode, dispatch, cache hit    *)
(* ------------------------------------------------------------------ *)

(* The daemon's per-request cost splits into (a) decoding the wire line
   into a Request.t, (b) hashing the params into a cache key, and (c) on
   a hit, splicing the stored bytes into a response envelope. All three must stay far below a
   page analysis for the service to amortize; this group pins them. *)
let perf_serve () =
  section "Perf-5 — serve API: request decode / cache key / cache-hit service";
  let module Request = Wr_serve.Request in
  let module Api = Wr_serve.Api in
  let module Cache = Wr_serve.Cache in
  let site = Gen.generate (List.nth (Profile.corpus ()) 20) in
  let params =
    Request.analyze_params ~page:site.Gen.page ~resources:site.Gen.resources ()
  in
  let line =
    Request.to_line
      (Request.make ~id:(Wr_support.Json.Int 1) (Request.analyze params))
  in
  (* The cache holds the page's real report, encoded once as a worker
     would, so a hit pays for copying bytes of a realistic size. *)
  let report = Wr_support.Json.to_string (Webracer.report_to_json (Api.analyze params)) in
  Printf.printf
    "wire request: %d bytes (page %d bytes, %d resources); cached report: %d bytes\n\n"
    (String.length line) (String.length site.Gen.page)
    (List.length site.Gen.resources) (String.length report);
  let warm = Cache.create ~cap:8 in
  Cache.store warm (Cache.key params) report;
  let tests =
    [
      Test.make ~name:"decode-analyze-line"
        (Staged.stage (fun () ->
             match Request.of_line line with Ok r -> r | Error _ -> assert false));
      Test.make ~name:"cache-key"
        (Staged.stage (fun () -> Cache.key params));
      Test.make ~name:"cache-hit-service"
        (Staged.stage (fun () ->
             (* what the daemon does per hit: key, find, splice the cached
                bytes into an envelope *)
             match Cache.find warm (Cache.key params) with
             | Some bytes ->
                 Wr_serve.Response.to_line
                   (Wr_serve.Response.ok ~id:(Wr_support.Json.Int 1)
                      (Wr_support.Json.Raw bytes))
             | None -> assert false));
      Test.make ~name:"dispatch-ping"
        (Staged.stage (fun () ->
             Api.dispatch (Request.make ~id:(Wr_support.Json.Int 1) Request.Ping)));
    ]
  in
  let results = run_bench_group ~name:"perf5" tests in
  print_bench_results results;
  (match
     ( List.assoc_opt "perf5/cache-hit-service" results,
       List.assoc_opt "perf5/decode-analyze-line" results )
   with
  | Some hit, Some decode ->
      Printf.printf
        "\n(A cache hit costs decode + %s of service — vs a full re-analysis; the\n\
         daemon answers it on the accept loop without waking a worker.)\n"
        (pp_ns hit);
      record_float "perf5" "hit_over_decode_ratio" (hit /. decode)
  | _ -> ())

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
(* Perf-7: the serve event loop under concurrent load                  *)
(* ------------------------------------------------------------------ *)

(* Boot an in-process daemon (TCP, kernel-chosen port) and blast it with
   the barrier-synchronized load generator in two phases. Cache hits
   never touch a worker, so the hit phase measures the event loop alone;
   the overload phase sheds most requests inline and its p999 is the
   responsiveness of a deliberately saturated daemon. The trend gate
   reads cachehit_rps and the p999 tails. *)
let perf_serve_loop () =
  section "Perf-7 — serve event loop: cache-hit throughput and overload tails";
  let module Daemon = Wr_serve.Daemon in
  let module Request = Wr_serve.Request in
  let module L = Wr_serve.Loadgen in
  let module H = Wr_support.Stats.Histo in
  let tiny_page =
    "<html><body><script>var x = 1; x = x + 1;</script></body></html>"
  in
  let analyze_verb = Request.analyze (Request.analyze_params ~page:tiny_page ()) in
  let with_daemon ~queue_cap ~cache_cap f =
    let stop = Atomic.make false in
    let addr = Atomic.make None in
    let cfg =
      {
        (Daemon.default_config (Daemon.Tcp 0)) with
        Daemon.jobs = 2;
        queue_cap;
        cache_cap;
        wall_limit = 30.;
      }
    in
    let d =
      Domain.spawn (fun () ->
          Daemon.run
            ~stop:(fun () -> Atomic.get stop)
            ~on_ready:(fun a -> Atomic.set addr (Some a))
            cfg)
    in
    let rec wait n =
      match Atomic.get addr with
      | Some a -> a
      | None ->
          if n > 2_000 then failwith "perf7: daemon never came up"
          else begin
            Unix.sleepf 0.005;
            wait (n + 1)
          end
    in
    let bound = wait 0 in
    let r = f bound in
    Atomic.set stop true;
    ignore (Domain.join d);
    r
  in
  let blast addr ~pipeline ~duration =
    L.run
      {
        L.address = addr;
        conns = 4;
        pipeline;
        duration;
        verb = analyze_verb;
        surface = L.Raw;
        schema = 1;
      }
  in
  let p999_ms r = 1000. *. H.percentile r.L.latency 99.9 in
  (* Cache-hit phase: warm once, then every request replays the cached
     document. *)
  let hit =
    with_daemon ~queue_cap:64 ~cache_cap:8 (fun addr ->
        let c = Wr_serve.Client.connect ~retry_for:5. addr in
        (match
           Wr_serve.Client.request c
             (Request.make ~id:(Wr_support.Json.Int 0) analyze_verb)
         with
        | Ok _ -> ()
        | Error msg -> failwith ("perf7 warmup: " ^ msg));
        Wr_serve.Client.close c;
        blast addr ~pipeline:8 ~duration:1.0)
  in
  record_float "perf7" "cachehit_rps" hit.L.throughput_rps;
  record_float "perf7" "cachehit_p999" (p999_ms hit);
  (* Overload phase: no cache, a tiny queue — most requests shed with an
     inline overload error. *)
  let ovl =
    with_daemon ~queue_cap:2 ~cache_cap:0 (fun addr ->
        blast addr ~pipeline:16 ~duration:1.0)
  in
  let shed = Option.value ~default:0 (List.assoc_opt "overload" ovl.L.classes) in
  record_float "perf7" "overload_p999" (p999_ms ovl);
  record_result "perf7" "overload_shed" (Wr_support.Json.Int shed);
  Table.print
    ~header:[ "cache-hit rps"; "hit p999"; "overload p999"; "shed" ]
    [
      [
        Printf.sprintf "%.0f" hit.L.throughput_rps;
        Printf.sprintf "%.2f ms" (p999_ms hit);
        Printf.sprintf "%.2f ms" (p999_ms ovl);
        string_of_int shed;
      ];
    ]

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
   alongside but not gated. The trend gate reads
   blind_over_guided_confirmation_ratio (higher is better) and the two
   raw schedule counts (lower is better); config_budget / config_sites
   are experiment configuration, excluded from trend comparison. *)
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
  perf_dedup ();
  perf_parallel ();
  perf_serve ();
  perf_static ();
  perf_serve_loop ();
  perf_triage ();
  ablation_hb ();
  ablation_detector ();
  stability ();
  Printf.printf "\nTotal bench time: %.1f s\n" (Wr_support.Clock.now () -. t0);
  record_float "total" "bench_s" (Wr_support.Clock.now () -. t0);
  write_bench_results "BENCH_results.json"
