(* Tests for the top-level API: reports, JSON rendering, and the
   adversarial-replay extension. *)

let fig4_page =
  {|<iframe id="i" src="sub.html" onload="doNextStep();"></iframe>
<div>a</div><div>b</div><div>c</div><div>d</div><div>e</div>
<script>function doNextStep() { return 1; }</script>|}

let fig4_resources = [ ("sub.html", "<p>sub</p>") ]

let test_replay_manifests_fig4 () =
  (* Under some schedule with slow parsing, the iframe's load beats the
     script's parse and the hidden ReferenceError becomes observable. *)
  let cfg = Webracer.config ~page:fig4_page ~resources:fig4_resources ~explore:false () in
  let verdict =
    Webracer.Replay.explore_schedules cfg ~seeds:(List.init 30 (fun i -> i)) ~parse_delay:2. ()
  in
  Alcotest.(check bool) "race manifests" true (Webracer.Replay.manifests verdict);
  Alcotest.(check bool) "at least one crashing seed" true
    (verdict.Webracer.Replay.crashing_seeds <> []);
  let crashing = List.hd verdict.Webracer.Replay.crashing_seeds in
  let o =
    List.find
      (fun (o : Webracer.Replay.observation) -> o.Webracer.Replay.seed = crashing)
      verdict.Webracer.Replay.observations
  in
  Alcotest.(check bool) "the crash is the ReferenceError" true
    (List.exists
       (fun m ->
         let has_sub needle hay =
           let n = String.length needle and h = String.length hay in
           let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
           go 0
         in
         has_sub "doNextStep" m)
       o.Webracer.Replay.crashes)

let test_replay_race_free_page_stable () =
  let cfg =
    Webracer.config ~page:{|<script>var x = 1; x = x + 1;</script><div>ok</div>|}
      ~explore:false ()
  in
  let verdict =
    Webracer.Replay.explore_schedules cfg ~seeds:(List.init 10 (fun i -> i)) ()
  in
  Alcotest.(check bool) "no divergence" false (Webracer.Replay.manifests verdict);
  Alcotest.(check int) "no crashes" 0 (List.length verdict.Webracer.Replay.crashing_seeds)

let test_report_json_shape () =
  let report =
    Webracer.analyze
      (Webracer.config ~page:{|<script>missing();</script>|} ~seed:1 ~explore:false ())
  in
  match Webracer.report_to_json report with
  | Wr_support.Json.Obj fields ->
      List.iter
        (fun key ->
          Alcotest.(check bool) ("has " ^ key) true (List.mem_assoc key fields))
        [ "races"; "filtered"; "crashes"; "console"; "ops"; "accesses" ];
      (* The JSON must be serializable and non-empty. *)
      Alcotest.(check bool) "serializes" true
        (String.length (Wr_support.Json.to_string (Wr_support.Json.Obj fields)) > 10)
  | _ -> Alcotest.fail "expected an object"

let test_count_by_type () =
  let report =
    Webracer.analyze
      (Webracer.config
         ~page:
           {|<script>function go() { var v = document.getElementById("late"); v.className = "y"; }</script>
<a href="javascript:go()">x</a>
<div id="late">z</div>|}
         ~seed:2 ~explore:true ())
  in
  let h, f, v, d = Webracer.count_by_type report.Webracer.races in
  Alcotest.(check int) "html" 1 h;
  (* go() is declared before the link parses, so no function race. *)
  Alcotest.(check int) "function" 0 f;
  Alcotest.(check int) "variable" 0 v;
  Alcotest.(check int) "dispatch" 0 d

let test_explored_events_counted () =
  let report =
    Webracer.analyze
      (Webracer.config
         ~page:{|<input type="text" id="t"><div onmouseover="1;" id="m">x</div>|}
         ~seed:1 ~explore:true ())
  in
  (* One typing action + the mouseover dispatched twice. *)
  Alcotest.(check int) "explored events" 3 report.Webracer.explored_events

let test_parse_delay_slows_virtual_time () =
  let run parse_delay =
    (Webracer.analyze
       (Webracer.config ~page:{|<div>a</div><div>b</div><div>c</div>|} ~explore:false
          ~parse_delay ()))
      .Webracer.virtual_ms
  in
  Alcotest.(check bool) "parsing consumes virtual time" true (run 5. > run 0.)

let suite =
  [
    Alcotest.test_case "replay: fig4 crash manifests" `Quick test_replay_manifests_fig4;
    Alcotest.test_case "replay: race-free page stable" `Quick test_replay_race_free_page_stable;
    Alcotest.test_case "report json shape" `Quick test_report_json_shape;
    Alcotest.test_case "count_by_type" `Quick test_count_by_type;
    Alcotest.test_case "explored events counted" `Quick test_explored_events_counted;
    Alcotest.test_case "parse_delay virtual time" `Quick test_parse_delay_slows_virtual_time;
  ]

let test_analyze_many_stable_site () =
  (* A deterministic racy page: the same race set under every seed. *)
  let cfg =
    Webracer.config
      ~page:{|<input type="text" id="q" /><script>document.getElementById("q").value = "hint";</script>|}
      ~explore:true ()
  in
  let m = Webracer.analyze_many cfg ~seeds:[ 1; 2; 3; 4 ] in
  Alcotest.(check bool) "stable across seeds" true m.Webracer.stable;
  Alcotest.(check int) "one merged race" 1 (List.length m.Webracer.merged);
  Alcotest.(check (list int)) "same count each run" [ 1; 1; 1; 1 ] m.Webracer.per_run_counts

let test_analyze_many_merges () =
  let cfg = Webracer.config ~page:{|<div>quiet</div>|} () in
  let m = Webracer.analyze_many cfg ~seeds:[ 7 ] in
  Alcotest.(check int) "no races anywhere" 0 (List.length m.Webracer.merged);
  Alcotest.(check bool) "trivially stable" true m.Webracer.stable

(* Allocation budget of the per-element path. Minor words per element
   on a flat and on a nested page, measured on a second run (the first
   sizes the domain-local tables), for [Html.parse] alone and for a full
   [analyze]. The parse bound sits about a quarter above what the path
   allocates now (60 on both pages; it used to allocate 253 / 263). The
   analyze bound was set about a tenth above 364 flat and 358 nested
   (the interpreter's allocation budget has since brought both lower),
   below the 449 / 443 of a detector that kept its per-location state in
   a hash table (and the 888 / 896 before the lean parse path): a change
   that puts per-element garbage back fails here. *)
let flat_page n =
  let b = Buffer.create (n * 40) in
  for i = 0 to n - 1 do
    Printf.bprintf b {|<div id="e%d" class="row col">text</div>|} i
  done;
  Buffer.contents b

let nested_page n =
  let b = Buffer.create (n * 40) in
  for i = 0 to n - 1 do
    Printf.bprintf b {|<section id="e%d" class="card">text|} i
  done;
  for _ = 1 to n do
    Buffer.add_string b "</section>"
  done;
  Buffer.contents b

let words_per_element ~elements f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  (Gc.minor_words () -. before) /. float_of_int elements

let test_allocation_budget () =
  let n = 2_000 in
  List.iter
    (fun (name, page, parse_bound, analyze_bound) ->
      let parse = words_per_element ~elements:n (fun () -> Wr_html.Html.parse page) in
      let analyze =
        words_per_element ~elements:n (fun () ->
            Webracer.analyze (Webracer.config ~page ~seed:1 ()))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: parse %.0f words/element (bound %.0f)" name parse parse_bound)
        true (parse < parse_bound);
      Alcotest.(check bool)
        (Printf.sprintf "%s: analyze %.0f words/element (bound %.0f)" name analyze analyze_bound)
        true (analyze < analyze_bound))
    [ ("flat", flat_page n, 75., 400.); ("nested", nested_page n, 75., 400.) ]

let more_suite =
  [
    Alcotest.test_case "allocation budget per element" `Quick test_allocation_budget;
    Alcotest.test_case "analyze_many: stability" `Quick test_analyze_many_stable_site;
    Alcotest.test_case "analyze_many: quiet page" `Quick test_analyze_many_merges;
  ]

let suite = suite @ more_suite
