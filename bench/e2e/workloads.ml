(* The four workloads: what each sets up, times and checks.

   Page workloads (corpus, dom-stress, js-compute) time analyze + JSON
   report per page, sequentially, in whole passes over their pages.
   serve-mix drives a fresh daemon with an open loop at 25 req/s.

   A traced run (trace = true) reports the per-layer metrics instead:
   the cost ledger of a sample of the workload's pages, passes on a
   [Wr_support.Pool], the daemon's per-stage view of the workload's
   traffic and the daemon's closed-loop saturation rate. *)

module Json = Wr_support.Json
module Rng = Wr_support.Rng
module Pool = Wr_support.Pool

let now = Wr_support.Clock.now

(* Pool domains, daemon domains and load connections: one per hardware
   thread. *)
let jobs = Sample.nproc ()

type config = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  out : string;
  cli : string;
  smoke : bool;  (** tiny inputs and windows: checks only, no timing value *)
}

type phase = {
  phase : string;
  samples : int;  (** the population the percentiles are taken over *)
  repeats : int;  (** timings behind each sample *)
  percentile : float;
  late_p99_ms : float;  (** open loop only: how far behind schedule requests went out *)
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : Sample.metric list;
  phases : phase list;
  failures : string list;  (** the first few, for the log *)
}

let names = [ "corpus"; "dom-stress"; "js-compute"; "serve-mix" ]

(* An open loop whose sends ran later than this at p99 measured the load
   process rather than the daemon. *)
let late_limit_ms = 5.

(* The tail percentile each workload reports. On the page workloads it
   is taken over pages (100 corpus sites, 50 generated pages): the
   highest with ten pages beyond it. On serve-mix, over about 500
   requests, the slowest 5% are a handful of heavy cache misses and the
   requests queued behind them, so p95 follows coincidences; p90
   repeats. *)
let tail_percentile = function "corpus" | "serve-mix" -> 90. | _ -> 80.

(* --- failures ---------------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failures : string list; mutable n_failed : int }

let tally () = { attempted = 0; failures = []; n_failed = 0 }

let fail t msg =
  t.n_failed <- t.n_failed + 1;
  if t.n_failed <= 20 then t.failures <- msg :: t.failures

let checked t = function None -> () | Some msg -> fail t msg

(* --- inputs ------------------------------------------------------------ *)

let corpus_limit cfg = if cfg.smoke then 12 else 100

let make_pages cfg =
  let rng = Rng.split (Rng.of_int cfg.seed) in
  match cfg.workload with
  | "corpus" -> Inputs.corpus_pages ~limit:(corpus_limit cfg) ()
  | "dom-stress" ->
      if cfg.smoke then Inputs.dom_pages rng ~count:4 ~lo:200 ~hi:600
      else Inputs.dom_pages rng ~count:50 ~lo:1000 ~hi:6000
  | "js-compute" ->
      if cfg.smoke then Inputs.js_pages rng ~count:4 ~lo:0.1 ~hi:0.2
      else Inputs.js_pages rng ~count:50 ~lo:0.6 ~hi:1.4
  | w -> invalid_arg ("unknown workload " ^ w)

let make_mix cfg =
  let rng = Rng.split (Rng.of_int cfg.seed) in
  let limit = corpus_limit cfg in
  let profiles = Array.of_list (List.filteri (fun i _ -> i < limit) (Wr_sitegen.Profile.corpus ())) in
  let pages = Inputs.corpus_pages ~limit () in
  (pages, Serve.serve_mix rng ~pages ~profiles)

let timed f =
  let t0 = now () in
  let x = f () in
  (now () -. t0, x)

(* --- timing one page --------------------------------------------------- *)

(* analyze + JSON report: what [webracer run --json] and a serve cache
   miss pay. *)
let analyze_page ?(spans = Spans.disabled) ?(item = -1) (p : Inputs.page) ~seed =
  let cfg = Webracer.config ~page:p.Inputs.html ~resources:p.Inputs.resources ~seed () in
  let t0 = now () in
  let r = Spans.with_span spans ~item "analyze" (fun () -> Webracer.analyze cfg) in
  let doc = Spans.with_span spans ~item "report_to_json" (fun () -> Webracer.report_to_json r) in
  let text = Spans.with_span spans ~item "json.to_string" (fun () -> Json.to_string doc) in
  let dt = now () -. t0 in
  ignore (Sys.opaque_identity text);
  (dt, r)

(* Whole passes until [budget] seconds are used: every pass visits every
   page once, so each run times the same page mix. *)
let passes ~budget ~min_passes f =
  let t0 = now () in
  let rec go n =
    let elapsed = now () -. t0 in
    if n < min_passes || (n > 0 && elapsed +. (elapsed /. float_of_int n) <= budget) then begin
      f ();
      go (n + 1)
    end
  in
  go 0

(* --- page workloads, untraced ----------------------------------------- *)

(* Sequential passes for the whole budget. A page's latency is its
   fastest pass: on a shared host other tenants only ever slow a pass, a
   fixed loop there ran up to 75% slower for seconds at a time, and the
   fastest of several passes repeats where their median does not. The
   median and the tail are then taken over pages.

   Parallel throughput is no end-to-end metric: on two vCPUs a neighbour
   slowing either one moved a pool's pages/s by 10-28% between runs of
   ten seeds, more than a bound may allow. The traced run reports it. *)
let page_workload cfg =
  let t = tally () in
  let first_setup, pages = timed (fun () -> make_pages cfg) in
  let rng = Rng.of_int (cfg.seed lxor 0x5eed_0001) in
  let run (i, seed) =
    let dt, r = analyze_page pages.(i) ~seed in
    t.attempted <- t.attempted + 1;
    checked t (pages.(i).Inputs.check (Inputs.observe r));
    dt
  in
  (* Warm-up: grow the heap and touch every code path once. *)
  Array.iteri (fun k x -> if k < 8 then ignore (run x)) (Inputs.pass rng pages);
  let fastest = Array.make (Array.length pages) infinity and n_passes = ref 0 in
  passes ~budget:cfg.seconds ~min_passes:1 (fun () ->
      Array.iter
        (fun ((i, _) as x) -> fastest.(i) <- Float.min fastest.(i) (run x))
        (Inputs.pass rng pages);
      incr n_passes);
  let rss = Sample.own_peak_rss_mb () in
  (* Set-up is timed nine times and its median reported, so work moved
     into set-up shows; the repeats come after the RSS reading, whose
     peak their garbage would lift, and each starts from a collected
     heap, as the first did. *)
  let setup_s =
    Sample.median
      (first_setup
      :: List.init 8 (fun _ ->
             Gc.full_major ();
             fst (timed (fun () -> make_pages cfg))))
  in
  let latencies = Array.to_list fastest in
  let p = tail_percentile cfg.workload in
  let m = Sample.metric in
  {
    correct = t.n_failed = 0;
    attempted = t.attempted;
    failed = t.n_failed;
    metrics =
      [
        m "setup_s" "s" setup_s;
        m "latency_p50_ms" "ms" (Sample.ms (Sample.median latencies));
        m "latency_tail_ms" "ms" (Sample.ms (Sample.percentile latencies p));
        m "peak_rss_mb" "MB" rss;
      ];
    phases =
      [
        {
          phase = "sequential";
          samples = Array.length pages;
          repeats = !n_passes;
          percentile = p;
          late_p99_ms = 0.;
        };
      ];
    failures = List.rev t.failures;
  }

(* --- serve-mix, untraced ---------------------------------------------- *)

let low_rate = 25. and high_rate = 50.

(* One phase: set up (inputs + a fresh daemon answering ping), the
   timed window, then the body checks. A fresh daemon per phase: one
   daemon's heap grows with every phase it serves, and a later phase
   would measure that growth rather than its own rate.

   Untraced, an untimed closed-loop warm-up comes first. Traced, there is
   none, and the daemon's [metrics] (counters, means, maxima and the
   queue's high-water mark, all over the daemon's life) are read after
   the window: the daemon has then served only [ping] and the window. *)
type served = {
  setup : float;
  window : Serve.window;
  rss : float;
  daemon : Sample.metric list;  (** traced only: the daemon's view of the window *)
}

let serve_phase cfg t ~tag ~mix ~policy =
  let t0 = now () in
  let mix = mix () in
  let d = Serve.start ~cli:cfg.cli ~out:cfg.out ~tag ~jobs in
  let setup = now () -. t0 in
  Fun.protect
    ~finally:(fun () -> Serve.stop d)
    (fun () ->
      let window policy =
        let w = Serve.run_window ~socket:d.Serve.socket ~conns:jobs ~mix ~policy ~grace:20. in
        t.attempted <- t.attempted + w.Serve.sent;
        List.iter (fail t) w.Serve.errors;
        if w.Serve.unanswered > 0 then
          fail t (Printf.sprintf "%s: %d requests unanswered" tag w.Serve.unanswered);
        List.iter (fail t) (Serve.check_bodies mix w);
        w
      in
      if not cfg.trace then
        ignore
          (window (Serve.Closed { depth = 2; duration = (if cfg.smoke then 0.1 else 1.) }));
      let w = window policy in
      {
        setup;
        window = w;
        rss = Serve.peak_rss_mb d;
        daemon = (if cfg.trace then Serve.daemon_metrics d.Serve.socket else []);
      })

let open_loop cfg ~rate ~share =
  Serve.Open { rate; count = max 10 (int_of_float (rate *. share *. cfg.seconds)) }

(* The open loop at 25 req/s for the whole budget. Saturation throughput
   is no end-to-end metric, for the reason parallel page throughput is
   not: the traced run reports it. *)
let serve_workload cfg =
  let t = tally () in
  let mix () = snd (make_mix cfg) in
  (* Four extra set-ups, so set-up is timed five times. *)
  let extra =
    List.init 4 (fun _ ->
        let t0 = now () in
        ignore (mix ());
        Serve.stop (Serve.start ~cli:cfg.cli ~out:cfg.out ~tag:"setup" ~jobs);
        now () -. t0)
  in
  let s = serve_phase cfg t ~tag:"open" ~mix ~policy:(open_loop cfg ~rate:low_rate ~share:1.) in
  let latencies = s.window.Serve.latencies in
  let p = tail_percentile cfg.workload in
  let m = Sample.metric in
  {
    correct = t.n_failed = 0;
    attempted = t.attempted;
    failed = t.n_failed;
    metrics =
      [
        m "setup_s" "s" (Sample.median (s.setup :: extra));
        m "latency_p50_ms" "ms" (Sample.ms (Sample.median latencies));
        m "latency_tail_ms" "ms" (Sample.ms (Sample.percentile latencies p));
        m "peak_rss_mb" "MB" s.rss;
      ];
    phases =
      [
        {
          phase = Printf.sprintf "open-%g" low_rate;
          samples = List.length latencies;
          repeats = 1;
          percentile = p;
          late_p99_ms = Sample.ms (Sample.percentile s.window.Serve.late 99.);
        };
      ];
    failures = List.rev t.failures;
  }

(* --- traced runs: the per-layer ledger --------------------------------- *)

let pool_metrics (s : Pool.stats) =
  let sum f = List.fold_left (fun acc d -> acc +. f d) 0. s.Pool.per_domain in
  let run = sum (fun d -> d.Pool.run_s) and idle = sum (fun d -> d.Pool.idle_s) in
  let m = Sample.metric in
  [
    m "pool.run_s" "s" run;
    m "pool.queue_wait_s" "s" (sum (fun d -> d.Pool.queue_wait_s));
    m "pool.idle_s" "s" idle;
    m "pool.steals" "count" (float_of_int s.Pool.stolen);
    m "pool.busy_ratio" "ratio" (if run +. idle > 0. then run /. (run +. idle) else 0.);
  ]

let traced_workload cfg =
  let t = tally () in
  let spans = Spans.create ~enabled:true in
  let serving = cfg.workload = "serve-mix" in
  let pages = if serving then fst (make_mix cfg) else make_pages cfg in
  let rng = Rng.of_int (cfg.seed lxor 0x5eed_0002) in
  let order = Inputs.pass rng pages in
  (* Untraced and traced analyze + encode of each sampled page back to
     back, then its ledger. *)
  let untraced = ref 0. and traced = ref 0. and counts = ref [] and sampled = ref [] in
  let minor = ref 0 and major = ref 0 in
  let t0 = now () in
  Array.iteri
    (fun k (i, seed) ->
      if k < 3 || now () -. t0 < 0.5 *. cfg.seconds then begin
        let before = Gc.quick_stat () in
        let dt, r = analyze_page pages.(i) ~seed in
        let after = Gc.quick_stat () in
        minor := !minor + after.Gc.minor_collections - before.Gc.minor_collections;
        major := !major + after.Gc.major_collections - before.Gc.major_collections;
        untraced := !untraced +. dt;
        t.attempted <- t.attempted + 1;
        checked t (pages.(i).Inputs.check (Inputs.observe r));
        let dt', _ = analyze_page ~spans ~item:k pages.(i) ~seed in
        traced := !traced +. dt';
        counts := Layers.decompose spans ~item:k pages.(i) ~seed :: !counts;
        sampled := (i, seed) :: !sampled
      end)
    order;
  let sampled = List.rev !sampled in
  let n = List.length sampled in
  let item_latencies = ref [] and pool_items = ref 0 and pool_wall = ref 0. in
  let pool_stats =
    Spans.with_span spans "pool.pass" (fun () ->
        Pool.with_pool ~jobs (fun pool ->
            passes ~budget:(0.15 *. cfg.seconds) ~min_passes:1 (fun () ->
                let t0 = now () in
                List.iter
                  (fun (dt, verdict) ->
                    item_latencies := dt :: !item_latencies;
                    checked t verdict)
                  (Pool.map pool
                     (fun (i, seed) ->
                       let dt, r = analyze_page pages.(i) ~seed in
                       (dt, pages.(i).Inputs.check (Inputs.observe r)))
                     sampled);
                pool_wall := !pool_wall +. (now () -. t0);
                pool_items := !pool_items + n;
                t.attempted <- t.attempted + n);
            Pool.stats pool))
  in
  (* The daemon's per-stage view: serve-mix at its higher rate, from a
     cold daemon; a page workload's sampled pages replayed twice at
     20 req/s (misses, then cache hits). Then the same traffic in a
     closed loop, each connection keeping four requests outstanding, on
     another fresh daemon. *)
  let traffic, policy =
    if serving then
      ((fun () -> snd (make_mix cfg)), open_loop cfg ~rate:high_rate ~share:0.3)
    else
      let leg = Array.of_list (List.filteri (fun k _ -> k < 32) sampled) in
      ( (fun () -> Serve.replay_mix ~pages:(Array.map (fun (i, _) -> pages.(i)) leg) ~seed:cfg.seed),
        Serve.Open { rate = (if cfg.smoke then 100. else 20.); count = 2 * Array.length leg } )
  in
  let served =
    Spans.with_span spans "serve.window" (fun () ->
        serve_phase cfg t ~tag:"traced" ~mix:traffic ~policy)
  in
  let saturated =
    Spans.with_span spans "serve.saturation" (fun () ->
        serve_phase cfg t ~tag:"saturation" ~mix:traffic
          ~policy:(Serve.Closed { depth = 4; duration = 0.15 *. cfg.seconds }))
  in
  let late = served.window.Serve.late in
  let served_latencies = served.window.Serve.latencies in
  let sat = saturated.window in
  let p = tail_percentile cfg.workload in
  let gc = Gc.quick_stat () in
  let per = float_of_int (max 1 n) in
  let m = Sample.metric in
  let trace_file =
    Filename.concat cfg.out (Printf.sprintf "trace-%s-s%d.json" cfg.workload cfg.seed)
  in
  Out_channel.with_open_text trace_file (fun oc ->
      Out_channel.output_string oc (Json.to_string (Spans.to_chrome_trace spans)));
  {
    correct = t.n_failed = 0;
    attempted = t.attempted;
    failed = t.n_failed;
    metrics =
      Layers.metrics spans ~pages:n ~e2e:!untraced !counts
      @ [
          m "trace.overhead_ratio" "ratio" (if !untraced > 0. then !traced /. !untraced else 0.);
          m "trace.pages" "count" (float_of_int n);
          m "gc.minor" "count" (float_of_int !minor /. per);
          m "gc.major" "count" (float_of_int !major /. per);
          m "gc.top_heap_mb" "MB"
            (float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
        ]
      @ pool_metrics pool_stats
      @ [
          m "pool.pages_per_s" "1/s" (float_of_int !pool_items /. !pool_wall);
          m "pool.item_p50_ms" "ms" (Sample.ms (Sample.median !item_latencies));
          m "pool.item_tail_ms" "ms" (Sample.ms (Sample.percentile !item_latencies p));
        ]
      @ served.daemon
      @ [
          m "serve.max_rps" "1/s"
            (Sample.sustained_rate ~start:sat.Serve.start ~buckets:10 sat.Serve.completions);
          m "serve.window_p50_ms" "ms" (Sample.ms (Sample.median served_latencies));
          m "serve.window_tail_ms" "ms" (Sample.ms (Sample.percentile served_latencies p));
          m "gen.late_p99_ms" "ms" (Sample.ms (Sample.percentile late 99.));
        ];
    phases =
      [
        { phase = "ledger"; samples = n; repeats = 1; percentile = 50.; late_p99_ms = 0. };
        {
          phase = "pool";
          samples = List.length !item_latencies;
          repeats = 1;
          percentile = p;
          late_p99_ms = 0.;
        };
        {
          phase = "serve-window";
          samples = List.length served_latencies;
          repeats = 1;
          percentile = p;
          late_p99_ms = Sample.ms (Sample.percentile late 99.);
        };
        {
          phase = "serve-saturation";
          samples = List.length sat.Serve.completions;
          repeats = 1;
          percentile = 50.;
          late_p99_ms = 0.;
        };
      ];
    failures = List.rev t.failures;
  }

let run cfg =
  if cfg.trace then traced_workload cfg
  else if cfg.workload = "serve-mix" then serve_workload cfg
  else page_workload cfg
