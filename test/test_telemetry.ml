(* Unit tests for Wr_telemetry: span nesting and self-time accounting,
   counters, histograms, and exporter shape. A fake clock makes every
   duration deterministic. *)

module Telemetry = Wr_telemetry.Telemetry
open Wr_support

(* A controllable clock: [tick dt] advances it. Spans then have exact,
   assertable durations. *)
let fake_clock () =
  let now = ref 0. in
  let tick dt = now := !now +. dt in
  (Telemetry.create ~clock:(fun () -> !now) (), tick)

let phase_wall tm cat =
  match List.find_opt (fun (c, _, _) -> c = cat) (Telemetry.phase_totals tm) with
  | Some (_, w, _) -> w
  | None -> 0.

let feq = Alcotest.(check (float 1e-9))

let test_span_nesting_self_time () =
  let tm, tick = fake_clock () in
  Telemetry.with_span tm ~cat:"page" ~name:"root" (fun () ->
      tick 1.;
      Telemetry.with_span tm ~cat:"parse" ~name:"tokenize" (fun () -> tick 2.);
      tick 3.;
      Telemetry.with_span tm ~cat:"js" ~name:"eval" (fun () ->
          tick 4.;
          Telemetry.with_span tm ~cat:"dispatch" ~name:"handler" (fun () -> tick 5.));
      tick 1.);
  feq "total wall = root duration" 16. (Telemetry.total_wall tm);
  (* Self times: root 1+3+1, parse 2, js 4, dispatch 5. *)
  feq "root (page) self" 5. (phase_wall tm "page");
  feq "parse self" 2. (phase_wall tm "parse");
  feq "js self excludes nested dispatch" 4. (phase_wall tm "js");
  feq "dispatch self" 5. (phase_wall tm "dispatch");
  let phase_sum =
    List.fold_left (fun acc (_, w, _) -> acc +. w) 0. (Telemetry.phase_totals tm)
  in
  feq "phases partition the root exactly" (Telemetry.total_wall tm) phase_sum;
  Alcotest.(check int) "span count" 4 (Telemetry.n_spans tm)

let test_account_deducts_from_span () =
  let tm, tick = fake_clock () in
  Telemetry.with_span tm ~cat:"scheduler" ~name:"task" (fun () ->
      tick 1.;
      for _ = 1 to 3 do
        Telemetry.account tm ~cat:"detect" (fun () -> tick 2.)
      done;
      tick 1.);
  feq "accounted time lands in its category" 6. (phase_wall tm "detect");
  feq "enclosing span keeps only its own time" 2. (phase_wall tm "scheduler");
  feq "still partitions the total" 8. (Telemetry.total_wall tm)

let test_span_exception_safety () =
  let tm, tick = fake_clock () in
  (try
     Telemetry.with_span tm ~cat:"page" ~name:"root" (fun () ->
         (try
            Telemetry.with_span tm ~cat:"js" ~name:"eval" (fun () ->
                tick 2.;
                failwith "script crash")
          with Failure _ -> ());
         tick 1.;
         failwith "outer")
   with Failure _ -> ());
  Alcotest.(check int) "both spans closed" 2 (Telemetry.n_spans tm);
  feq "inner duration captured" 2. (phase_wall tm "js");
  feq "outer self time captured" 1. (phase_wall tm "page")

let test_counters () =
  let tm, _ = fake_clock () in
  Telemetry.incr tm "a";
  Telemetry.incr tm ~by:4 "a";
  Telemetry.incr tm "b";
  Telemetry.set_counter tm "c" 42;
  Alcotest.(check int) "incr total" 5 (Telemetry.counter_value tm "a");
  Alcotest.(check int) "absent counter" 0 (Telemetry.counter_value tm "zzz");
  Alcotest.(check (list (pair string int)))
    "sorted listing"
    [ ("a", 5); ("b", 1); ("c", 42) ]
    (Telemetry.counters tm)

let test_histograms () =
  let tm, _ = fake_clock () in
  for i = 1 to 100 do
    Telemetry.observe tm "depth" (float_of_int i)
  done;
  match Telemetry.histogram tm "depth" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "count" 100 (Stats.Histo.count h);
      feq "mean" 50.5 (Stats.Histo.mean h);
      feq "p50" 50.5 (Stats.Histo.percentile h 50.);
      (* The bucket midpoint of [94, 96). *)
      feq "p95" 95.0 (Stats.Histo.percentile h 95.);
      feq "max" 100. (Stats.Histo.maximum h)

let test_disabled_noop () =
  let tm = Telemetry.disabled in
  Alcotest.(check bool) "disabled" false (Telemetry.enabled tm);
  let r = Telemetry.with_span tm ~cat:"x" ~name:"y" (fun () -> 7) in
  Alcotest.(check int) "with_span passes through" 7 r;
  Telemetry.incr tm "a";
  Telemetry.observe tm "h" 1.;
  Telemetry.mark tm ~cat:"x" "m";
  Alcotest.(check int) "records nothing" 0 (Telemetry.n_spans tm);
  Alcotest.(check int) "no counters" 0 (List.length (Telemetry.counters tm))

(* The Chrome trace must round-trip through the repo's own JSON parser and
   contain the right event kinds. *)
let test_chrome_trace_shape () =
  let tm, tick = fake_clock () in
  Telemetry.with_span tm ~cat:"parse" ~name:"tokenize" (fun () -> tick 1.);
  Telemetry.mark tm ~cat:"page" "DOMContentLoaded";
  Telemetry.incr tm "html.tokens";
  let j = Json.of_string (Json.to_string (Telemetry.to_chrome_trace tm)) in
  match j with
  | Json.Obj fields -> (
      (match List.assoc_opt "displayTimeUnit" fields with
      | Some (Json.String "ms") -> ()
      | _ -> Alcotest.fail "displayTimeUnit missing");
      match List.assoc_opt "traceEvents" fields with
      | Some (Json.List events) ->
          let ph e =
            match e with
            | Json.Obj f -> (
                match List.assoc_opt "ph" f with Some (Json.String p) -> p | _ -> "?")
            | _ -> "?"
          in
          let count p = List.length (List.filter (fun e -> ph e = p) events) in
          Alcotest.(check int) "one complete span event" 1 (count "X");
          Alcotest.(check int) "one instant event" 1 (count "i");
          Alcotest.(check int) "one counter event" 1 (count "C");
          Alcotest.(check bool) "metadata present" true (count "M" >= 1);
          let span =
            List.find (fun e -> ph e = "X") events |> function
            | Json.Obj f -> f
            | _ -> assert false
          in
          (match List.assoc_opt "dur" span with
          | Some (Json.Float d) -> feq "dur is 1s in us" 1e6 d
          | _ -> Alcotest.fail "dur missing");
          List.iter
            (fun key ->
              if not (List.mem_assoc key span) then Alcotest.failf "span lacks %S" key)
            [ "name"; "cat"; "ts"; "pid"; "tid" ]
      | _ -> Alcotest.fail "traceEvents missing")
  | _ -> Alcotest.fail "trace is not an object"

let test_metrics_json_shape () =
  let tm, tick = fake_clock () in
  Telemetry.with_span tm ~cat:"parse" ~name:"p" (fun () -> tick 2.);
  Telemetry.incr tm ~by:3 "html.tokens";
  Telemetry.observe tm "lat" 5.;
  match Json.of_string (Json.to_string (Telemetry.metrics_json tm)) with
  | Json.Obj fields ->
      List.iter
        (fun key ->
          if not (List.mem_assoc key fields) then Alcotest.failf "metrics lack %S" key)
        [ "total_wall_s"; "spans"; "phases"; "counters"; "histograms" ]
  | _ -> Alcotest.fail "metrics not an object"

(* End to end through the real pipeline: every acceptance phase shows up
   and the table's phases cover the analyze span. *)
let test_pipeline_phases () =
  let tm = Telemetry.create () in
  let page =
    {|<div id="a">x</div><script>var n = 0; document.getElementById("a").onclick = function () { n = n + 1; };</script>|}
  in
  ignore (Webracer.analyze (Webracer.config ~page ~telemetry:tm ()));
  let cats = List.map (fun (c, _, _) -> c) (Telemetry.phase_totals tm) in
  List.iter
    (fun c ->
      if not (List.mem c cats) then Alcotest.failf "phase %S missing from totals" c)
    [ "parse"; "js"; "dispatch"; "scheduler"; "detect"; "page" ];
  let phase_sum =
    List.fold_left (fun acc (_, w, _) -> acc +. w) 0. (Telemetry.phase_totals tm)
  in
  let total = Telemetry.total_wall tm in
  Alcotest.(check bool) "phases sum to within 10% of total" true
    (Float.abs (phase_sum -. total) <= 0.1 *. total);
  Alcotest.(check bool) "tasks counted" true
    (Telemetry.counter_value tm "scheduler.tasks" > 0);
  Alcotest.(check bool) "accesses counted" true
    (Telemetry.counter_value tm "detect.accesses" > 0);
  Alcotest.(check bool) "tokens counted" true
    (Telemetry.counter_value tm "html.tokens" > 0)

(* Regex-cache lookups count into the analysing VM's context. The memo
   is per domain and outlives one analysis, so a second run of the same
   page compiles nothing. The pattern appears in no other test. *)
let test_regex_cache_counters () =
  let page =
    {|<script>var n = 0; var i = 0; for (i = 0; i < 5; i++) { if (/tm-count-[0-9]+/.test("tm-count-7")) { n = n + 1; } }</script>|}
  in
  let run () =
    let tm = Telemetry.create () in
    ignore (Webracer.analyze (Webracer.config ~page ~telemetry:tm ()));
    (Telemetry.counter_value tm "js.regex_cache_hits",
     Telemetry.counter_value tm "js.regex_cache_misses")
  in
  let hits1, misses1 = run () in
  let hits2, misses2 = run () in
  Alcotest.(check int) "first run compiles the pattern once" 1 misses1;
  Alcotest.(check bool) "every test() looks it up" true (hits1 + misses1 >= 5);
  Alcotest.(check int) "second run compiles nothing" 0 misses2;
  Alcotest.(check int) "same lookups in both runs" (hits1 + misses1) hits2

let suite =
  [
    Alcotest.test_case "span nesting and self time" `Quick test_span_nesting_self_time;
    Alcotest.test_case "account deducts from span" `Quick test_account_deducts_from_span;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safety;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "histograms" `Quick test_histograms;
    Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "chrome trace shape" `Quick test_chrome_trace_shape;
    Alcotest.test_case "metrics json shape" `Quick test_metrics_json_shape;
    Alcotest.test_case "pipeline phase coverage" `Quick test_pipeline_phases;
  ]

(* --- domain safety ------------------------------------------------------ *)

(* Wait until the other task is running too: both are live at once,
   which is only possible on two domains. *)
let rendezvous started =
  Atomic.incr started;
  let deadline = Unix.gettimeofday () +. 5. in
  while Atomic.get started < 2 && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done

(* Two pool tasks rendezvous on an atomic before either returns, forcing
   them onto distinct domains; both record into ONE shared context. The
   old telemetry had to be forced off under jobs > 1 — this pins the
   v2 guarantee instead. *)
let test_multi_domain_spans () =
  let tm = Telemetry.create () in
  let started = Atomic.make 0 in
  let task _ =
    Telemetry.with_span tm ~cat:"parse" ~name:"barrier" (fun () ->
        rendezvous started;
        Telemetry.incr tm "barrier.hits";
        (Domain.self () :> int))
  in
  (* [min_workers] bypasses the hardware cap: this test is *about* two
     domains recording at once, so it needs a real spawned worker even on
     a single-core machine. *)
  let ids =
    Wr_support.Pool.with_pool ~min_workers:1 ~jobs:2 (fun p ->
        Wr_support.Pool.map p task [ 0; 1 ])
  in
  Alcotest.(check int) "both tasks ran" 2 (List.length (List.sort_uniq compare ids));
  Alcotest.(check int) "two recording domains" 2 (Telemetry.domains tm);
  Alcotest.(check int) "spans from both domains" 2 (Telemetry.n_spans tm);
  Alcotest.(check int) "counters merged across domains" 2
    (Telemetry.counter_value tm "barrier.hits");
  (* The Chrome trace names one thread row per recording domain. *)
  match Telemetry.to_chrome_trace tm with
  | Json.Obj fields -> (
      match List.assoc "traceEvents" fields with
      | Json.List events ->
          let tids =
            List.filter_map
              (function
                | Json.Obj e ->
                    (match (List.assoc_opt "ph" e, List.assoc_opt "tid" e) with
                    | Some (Json.String "X"), Some (Json.Int tid) -> Some tid
                    | _ -> None)
                | _ -> None)
              events
          in
          Alcotest.(check int) "span tids span two domains" 2
            (List.length (List.sort_uniq compare tids))
      | _ -> Alcotest.fail "traceEvents missing")
  | _ -> Alcotest.fail "trace is not an object"

(* Satellite of the same fix: analyze_many with jobs > 1 used to
   silently drop telemetry; now a shared context records every run. *)
let test_analyze_many_parallel_telemetry () =
  let tm = Telemetry.create () in
  let page = {|<script>var x = 1;</script>|} in
  let cfg = Webracer.config ~page ~telemetry:tm () in
  let merged = Webracer.analyze_many ~jobs:2 cfg ~seeds:[ 1; 2; 3; 4 ] in
  Alcotest.(check int) "all seeds analyzed" 4 (List.length merged.Webracer.runs);
  Alcotest.(check bool) "spans recorded under jobs:2" true (Telemetry.n_spans tm > 0);
  Alcotest.(check bool) "per-run counters accumulate" true
    (Telemetry.counter_value tm "hb.ops" > 0)

let suite =
  suite
  @ [
      Alcotest.test_case "multi-domain spans" `Quick test_multi_domain_spans;
      Alcotest.test_case "analyze_many keeps telemetry on" `Quick
        test_analyze_many_parallel_telemetry;
    ]

(* --- runtime probe (GC observability) ---------------------------------- *)

module Runtime_probe = Wr_telemetry.Runtime_probe

(* Ordered before any successful [start]: [inject_failure] only takes
   the failure path while no probe is running. *)
let test_probe_graceful_failure () =
  let p = Runtime_probe.start ~inject_failure:true () in
  Alcotest.(check bool) "failed start yields an inert probe" false
    (Runtime_probe.active p);
  Alcotest.(check bool) "inert probe is not the current one" true
    (Runtime_probe.current () = None);
  Alcotest.(check int) "inert probe has no stats" 0
    (List.length (Runtime_probe.stats p));
  (* Stopping an inert probe must be a no-op, not a crash. *)
  Runtime_probe.stop p;
  (match Runtime_probe.stats_json p with
  | Json.Obj fields ->
      Alcotest.(check bool) "stats_json names its source" true
        (List.assoc_opt "source" fields = Some (Json.String "runtime_events"))
  | _ -> Alcotest.fail "stats_json is not an object")

let test_probe_start_stop_idempotent () =
  let p1 = Runtime_probe.start () in
  let p2 = Runtime_probe.start () in
  Alcotest.(check bool) "second start returns the running probe" true (p1 == p2);
  Alcotest.(check bool) "probe is active" true (Runtime_probe.active p1);
  Runtime_probe.stop p1;
  Alcotest.(check bool) "inactive after stop" false (Runtime_probe.active p1);
  Alcotest.(check bool) "no current probe after stop" true
    (Runtime_probe.current () = None);
  Runtime_probe.stop p1;
  (* Restart after stop must work (collection was paused, not torn down). *)
  let p3 = Runtime_probe.start () in
  Alcotest.(check bool) "restart yields a fresh active probe" true
    (Runtime_probe.active p3 && not (p3 == p1));
  Runtime_probe.stop p3

(* Allocation-heavy fan-out over a 4-domain pool: every domain must
   show up in the probe's stats with a non-empty pause histogram, and
   the figures must come from runtime events, not [Gc.quick_stat]. *)
let test_probe_histograms_after_pool_churn () =
  let p = Runtime_probe.start ~interval_s:0.005 () in
  Alcotest.(check bool) "probe started" true (Runtime_probe.active p);
  let churn _ =
    (* Enough short-lived boxed floats to force many minor collections. *)
    let acc = ref [] in
    for i = 0 to 200_000 do
      acc := float_of_int i :: !acc;
      if i mod 10_000 = 0 then acc := []
    done;
    List.length !acc
  in
  let pool = Pool.create ~jobs:4 () in
  let _ =
    Fun.protect
      ~finally:(fun () -> Pool.close pool)
      (fun () -> Pool.map pool churn (List.init 16 Fun.id))
  in
  Runtime_probe.stop p;
  let rows = Runtime_probe.stats p in
  Alcotest.(check bool) "at least one domain recorded GC pauses" true
    (List.length rows > 0);
  List.iter
    (fun (r : Runtime_probe.domain_gc) ->
      Alcotest.(check bool)
        (Printf.sprintf "dom %d: non-empty pause histogram" r.dom)
        true
        (Stats.Histo.count r.pauses > 0);
      Alcotest.(check bool)
        (Printf.sprintf "dom %d: gc time accumulated" r.dom)
        true (r.gc_s > 0.))
    rows;
  let minors = List.fold_left (fun a r -> a + r.Runtime_probe.minor_pauses) 0 rows in
  Alcotest.(check bool) "minor collections observed across the fleet" true
    (minors > 0)

let test_probe_spans_reach_telemetry () =
  let tm = Telemetry.create () in
  let p = Runtime_probe.start ~telemetry:tm ~interval_s:0.005 () in
  let junk = ref [] in
  for i = 0 to 500_000 do
    junk := string_of_int i :: !junk;
    if i mod 10_000 = 0 then junk := []
  done;
  Runtime_probe.stop p;
  Alcotest.(check bool) "gc pause histogram exported" true
    (match Telemetry.metrics_json tm with
    | Json.Obj _ as j ->
        let s = Json.to_string j in
        let rec find i =
          i + 11 <= String.length s
          && (String.sub s i 11 = "gc.minor_pa" || find (i + 1))
        in
        find 0
    | _ -> false)

let probe_suite =
  [
    Alcotest.test_case "runtime probe: graceful failure is inert" `Quick
      test_probe_graceful_failure;
    Alcotest.test_case "runtime probe: start/stop idempotence" `Quick
      test_probe_start_stop_idempotent;
    Alcotest.test_case "runtime probe: histograms after jobs:4 churn" `Quick
      test_probe_histograms_after_pool_churn;
    Alcotest.test_case "runtime probe: pauses reach telemetry" `Quick
      test_probe_spans_reach_telemetry;
  ]

let suite = suite @ probe_suite

(* --- bounded rings and merged histograms -------------------------------- *)

let trace_phs tm =
  match Telemetry.to_chrome_trace tm with
  | Json.Obj fields -> (
      match List.assoc "traceEvents" fields with
      | Json.List events ->
          List.filter_map
            (function
              | Json.Obj e -> (
                  match List.assoc_opt "ph" e with
                  | Some (Json.String ph) -> Some ph
                  | _ -> None)
              | _ -> None)
            events
      | _ -> Alcotest.fail "traceEvents missing")
  | _ -> Alcotest.fail "trace is not an object"

let test_ring_bound () =
  let tm, tick = fake_clock () in
  let cap = Telemetry.ring_capacity in
  (* [record n] completes [n] spans: an outer one around an inner one. *)
  let record n =
    for _ = 1 to n / 2 do
      Telemetry.with_span tm ~cat:"page" ~name:"outer" (fun () ->
          tick 1.;
          Telemetry.with_span tm ~cat:"js" ~name:"inner" (fun () -> tick 1.))
    done
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  Telemetry.mark tm ~cat:"page" "start";
  record (2 * cap);
  let live_2x = live_words () in
  record cap;
  let marks = 10 in
  for _ = 1 to marks do
    Telemetry.mark tm ~cat:"page" "tick"
  done;
  Alcotest.(check int) "n_spans counts every span" (3 * cap) (Telemetry.n_spans tm);
  let phs = trace_phs tm in
  let count p = List.length (List.filter (String.equal p) phs) in
  Alcotest.(check int) "the trace holds exactly one ring" cap (count "X" + count "i");
  Alcotest.(check int) "the newest marks survive" marks (count "i");
  (match Telemetry.metrics_json tm with
  | Json.Obj fields ->
      Alcotest.(check bool) "spans_dropped" true
        (List.assoc_opt "spans_dropped" fields
        = Some (Json.Int ((3 * cap) - (cap - marks))))
  | _ -> Alcotest.fail "metrics not an object");
  feq "total_wall counts dropped spans" (float_of_int (3 * cap)) (Telemetry.total_wall tm);
  let phase_sum =
    List.fold_left (fun acc (_, w, _) -> acc +. w) 0. (Telemetry.phase_totals tm)
  in
  feq "phases still sum to total_wall" (Telemetry.total_wall tm) phase_sum;
  record cap;
  let live_4x = live_words () in
  Alcotest.(check bool)
    (Printf.sprintf "live words flat from 2x to 4x capacity (%d -> %d)" live_2x live_4x)
    true
    (Float.abs (float_of_int (live_4x - live_2x)) < 0.01 *. float_of_int live_2x)

let test_histogram_merge_across_domains () =
  let tm = Telemetry.create () in
  let started = Atomic.make 0 in
  let samples = [| [ 1.; 2.; 3. ]; [ 10.; 20.; 30.; 40. ] |] in
  let task k =
    rendezvous started;
    List.iter (Telemetry.observe tm "lat") samples.(k)
  in
  ignore
    (Wr_support.Pool.with_pool ~min_workers:1 ~jobs:2 (fun p ->
         Wr_support.Pool.map p task [ 0; 1 ]));
  Alcotest.(check int) "two recording domains" 2 (Telemetry.domains tm);
  let union = Array.to_list samples |> List.concat in
  match Telemetry.histogram tm "lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "union count" (List.length union) (Stats.Histo.count h);
      feq "union sum" (List.fold_left ( +. ) 0. union) (Stats.Histo.sum h);
      feq "union max" 40. (Stats.Histo.maximum h)

let suite =
  suite
  @ [
      Alcotest.test_case "ring bound" `Quick test_ring_bound;
      Alcotest.test_case "histograms merge across domains" `Quick
        test_histogram_merge_across_domains;
    ]

(* --- the rings' tail: the daemon's flight recorder ---------------------- *)

(* A deterministic clock: 1., 2., 3., ... *)
let ticker () =
  let n = ref 0. in
  fun () ->
    n := !n +. 1.;
    !n

let tail_lines tm ~tail =
  String.concat "" (List.map (fun ev -> Json.to_string ev ^ "\n") (Telemetry.tail_json tm ~tail))

let int_field name = function
  | Json.Obj f -> ( match List.assoc_opt name f with Some (Json.Int i) -> i | _ -> -1)
  | _ -> -1

let test_tail_newest_per_domain () =
  let tm = Telemetry.create ~clock:(ticker ()) () in
  let marks () =
    for i = 1 to 10 do
      Telemetry.mark tm ~cat:"x" ~fields:[ ("i", Json.Int i) ] "tick"
    done
  in
  (* One domain after the other, so the shared clock stays sequential. *)
  let other = Domain.join (Domain.spawn (fun () -> marks (); (Domain.self () :> int))) in
  marks ();
  let evs = Telemetry.tail_json tm ~tail:4 in
  Alcotest.(check int) "four entries from each domain" 8 (List.length evs);
  let on dom = List.filter (fun ev -> int_field "dom" ev = dom) evs in
  Alcotest.(check (list int)) "the other domain's newest, oldest first" [ 7; 8; 9; 10 ]
    (List.map (int_field "i") (on other));
  Alcotest.(check (list int)) "this domain's newest, oldest first" [ 7; 8; 9; 10 ]
    (List.map (int_field "i") (on (Domain.self () :> int)));
  let ts = function
    | Json.Obj f -> ( match List.assoc_opt "ts" f with Some (Json.Float t) -> t | _ -> nan)
    | _ -> nan
  in
  let stamps = List.map ts evs in
  Alcotest.(check bool) "merged oldest first" true (List.sort compare stamps = stamps)

let test_tail_deterministic () =
  let run () =
    let tm = Telemetry.create ~clock:(ticker ()) () in
    Telemetry.mark tm ~cat:"serve" ~fields:[ ("trace_id", Json.String "t-tail") ] "request.start";
    Telemetry.with_span tm ~cat:"serve" ~name:"analyze [t-tail]" (fun () -> ());
    Telemetry.mark tm ~cat:"serve" ~fields:[ ("outcome", Json.String "ok") ] "request.end";
    tail_lines tm ~tail:256
  in
  let one = run () in
  Alcotest.(check string) "identical dumps under an injected clock" one (run ());
  let dom = (Domain.self () :> int) in
  Alcotest.(check string) "ts since creation, trace id kept, the span in the tail"
    (Printf.sprintf
       {|{"ts":1.0,"dom":%d,"kind":"request.start","trace_id":"t-tail"}
{"ts":2.0,"dom":%d,"kind":"span","cat":"serve","name":"analyze [t-tail]","dur_s":1.0}
{"ts":4.0,"dom":%d,"kind":"request.end","outcome":"ok"}
|}
       dom dom dom)
    one

let test_tail_disabled () =
  let tm = Telemetry.disabled in
  Telemetry.mark tm ~cat:"serve" ~fields:[ ("trace_id", Json.String "t-off") ] "request.start";
  Telemetry.with_span tm ~cat:"serve" ~name:"job" (fun () -> ());
  Alcotest.(check int) "nothing recorded" 0 (List.length (Telemetry.tail_json tm ~tail:256))

let test_tail_log_tee () =
  let tm = Telemetry.create () in
  let record kind fields = Telemetry.mark tm ~cat:"log" ~fields kind in
  let level = Log.current_level () in
  (* Debug is below the live level: the stream drops the line. *)
  Log.set_level (Some Log.Warn);
  Fun.protect
    ~finally:(fun () -> Log.set_level level)
    (fun () ->
      Log.with_recorder record (fun () ->
          Log.with_trace ~trace_id:"t-tee" (fun () ->
              Log.debug "tee.probe" [ ("k", Json.String "v") ]));
      Log.debug "tee.after" []);
  match Telemetry.tail_json tm ~tail:256 with
  | [ Json.Obj (("ts", _) :: rest) ] ->
      Alcotest.(check string) "teed with its ambient trace id, and only while installed"
        (Printf.sprintf
           {|{"dom":%d,"kind":"log.debug","trace_id":"t-tee","event":"tee.probe","k":"v"}|}
           (Domain.self () :> int))
        (Json.to_string (Json.Obj rest))
  | evs -> Alcotest.failf "expected one teed line, got %d entries" (List.length evs)

let test_tail_chrome_instants () =
  let tm = Telemetry.create ~clock:(ticker ()) () in
  for i = 1 to 10 do
    Telemetry.mark tm ~cat:"serve" ~fields:[ ("i", Json.Int i) ] "tick"
  done;
  let instants =
    match Telemetry.to_chrome_trace ~tail:4 tm with
    | Json.Obj f -> (
        match List.assoc_opt "traceEvents" f with
        | Some (Json.List evs) ->
            List.filter_map
              (function
                | Json.Obj e when List.assoc_opt "ph" e = Some (Json.String "i") ->
                    List.assoc_opt "args" e
                | _ -> None)
              evs
        | _ -> Alcotest.fail "traceEvents missing")
    | _ -> Alcotest.fail "trace is not an object"
  in
  Alcotest.(check (list int)) "one instant per mark in the tail, fields in args"
    [ 7; 8; 9; 10 ] (List.map (int_field "i") instants)

(* The GC probe drains every domain's slices on one domain; each slice
   goes to the ring of the domain it happened on, so the draining
   domain's own marks survive a burst of other domains' slices. *)
let test_tail_injected_on_own_ring () =
  let tm = Telemetry.create ~clock:(ticker ()) () in
  let self = (Domain.self () :> int) in
  let other = self + 1 in
  for i = 1 to 4 do
    Telemetry.mark tm ~cat:"serve" ~fields:[ ("i", Json.Int i) ] "request.admit"
  done;
  for k = 1 to 10 do
    Telemetry.inject_span tm ~dom:other ~cat:"gc" ~name:"gc.minor" ~start_s:(float_of_int k)
      ~dur_s:0.5
  done;
  let evs = Telemetry.tail_json tm ~tail:4 in
  let kinds dom =
    List.filter_map
      (fun ev ->
        if int_field "dom" ev <> dom then None
        else match ev with Json.Obj f -> List.assoc_opt "kind" f | _ -> None)
      evs
  in
  Alcotest.(check (list string)) "this domain keeps its marks"
    [ "request.admit"; "request.admit"; "request.admit"; "request.admit" ]
    (List.map Json.to_str (kinds self));
  Alcotest.(check (list string)) "the slices sit on their own domain's ring"
    [ "span"; "span"; "span"; "span" ]
    (List.map Json.to_str (kinds other));
  Alcotest.(check int) "two rings" 2 (Telemetry.domains tm)

(* GC slices on a domain's own ring do not push its marks out of the
   postmortem tail: the budget counts the other entries, and the slices
   kept beside them are bounded too. *)
let test_tail_gc_apart () =
  let tm = Telemetry.create ~clock:(ticker ()) () in
  let self = (Domain.self () :> int) in
  Telemetry.mark tm ~cat:"serve" "request.admit";
  for k = 1 to 1_000 do
    Telemetry.inject_span tm ~dom:self ~cat:"gc" ~name:"gc.minor" ~start_s:(float_of_int k)
      ~dur_s:0.5
  done;
  let kinds =
    List.map
      (fun ev -> match ev with Json.Obj f -> Json.to_str (List.assoc "kind" f) | _ -> "")
      (Telemetry.tail_json tm ~tail:256)
  in
  Alcotest.(check int) "the mark survives" 1
    (List.length (List.filter (String.equal "request.admit") kinds));
  Alcotest.(check int) "gc slices capped at the tail" 256
    (List.length (List.filter (String.equal "span") kinds))

(* The page lifecycle log lines are built only when info logging is on,
   so a daemon's recorder sees none of them on an unlogged analysis. *)
let test_page_log_lines_guarded () =
  let page, resources = List.assoc "example/fig2" (Test_hb.example_pages ()) in
  let kinds = ref [] in
  let level = Log.current_level () in
  Log.set_level None;
  Fun.protect
    ~finally:(fun () -> Log.set_level level)
    (fun () ->
      Log.with_recorder
        (fun kind _ -> kinds := kind :: !kinds)
        (fun () -> ignore (Webracer.analyze (Webracer.config ~page ~resources ~seed:0 ()))));
  Alcotest.(check (list string)) "no log.info marks" []
    (List.filter (String.equal "log.info") !kinds)

(* The detector's counters are published once per analysis, from the
   same figures the report carries. *)
let test_detect_counters_match_report () =
  let pages = List.map snd (Test_hb.example_pages ()) in
  let analyze tm (page, resources) =
    Webracer.analyze (Webracer.config ~page ~resources ~seed:0 ~telemetry:tm ())
  in
  let counts tm = (Telemetry.counter_value tm "detect.races", Telemetry.counter_value tm "detect.accesses") in
  let of_report (r : Webracer.report) = (List.length r.Webracer.races, r.Webracer.accesses) in
  let pair = Alcotest.(pair int int) in
  List.iter
    (fun p ->
      let tm = Telemetry.create () in
      let r = analyze tm p in
      Alcotest.check pair "races and accesses" (of_report r) (counts tm))
    pages;
  match pages with
  | a :: b :: _ ->
      let tm = Telemetry.create () in
      let ra = analyze tm a and rb = analyze tm b in
      let (xa, ya), (xb, yb) = (of_report ra, of_report rb) in
      Alcotest.check pair "a shared context reads the sums" (xa + xb, ya + yb) (counts tm)
  | _ -> Alcotest.fail "fewer than two example pages"

let suite =
  suite
  @ [
      Alcotest.test_case "tail: newest per domain" `Quick test_tail_newest_per_domain;
      Alcotest.test_case "tail: deterministic dump" `Quick test_tail_deterministic;
      Alcotest.test_case "tail: disabled records nothing" `Quick test_tail_disabled;
      Alcotest.test_case "tail: log tee with trace id" `Quick test_tail_log_tee;
      Alcotest.test_case "tail: chrome instants" `Quick test_tail_chrome_instants;
      Alcotest.test_case "tail: gc slices counted apart" `Quick test_tail_gc_apart;
      Alcotest.test_case "tail: injected spans on their own ring" `Quick
        test_tail_injected_on_own_ring;
      Alcotest.test_case "tail: page log lines need info logging" `Quick
        test_page_log_lines_guarded;
      Alcotest.test_case "counters match the report" `Quick
        test_detect_counters_match_report;
      Alcotest.test_case "regex-cache lookups counted" `Quick test_regex_cache_counters;
    ]
