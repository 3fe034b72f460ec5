(* Integration tests: the paper's five motivating examples (Figs. 1-5) and
   the happens-before ordering guarantees that must NOT produce races. *)

module Race = Wr_detect.Race
module Access = Wr_mem.Access
module Location = Wr_mem.Location

let analyze ?(explore = false) ?(resources = []) ?(seed = 1) page =
  Webracer.analyze (Webracer.config ~page ~resources ~seed ~explore ())

let races_of_type ty (r : Webracer.report) =
  List.filter (fun (x : Race.t) -> x.Race.race_type = ty) r.Webracer.races

let variable_races_on name r =
  List.filter
    (fun (x : Race.t) ->
      match x.Race.loc with
      | Location.Js_var { name = n; _ } -> n = name
      | _ -> false)
    (races_of_type Race.Variable r)

(* ------------------------------------------------------------------ *)
(* Fig. 1: variable race between two iframes                           *)
(* ------------------------------------------------------------------ *)

let fig1_page = {|<script>x = 1;</script>
<iframe src="a.html"></iframe>
<iframe src="b.html"></iframe>|}

let fig1_resources =
  [ ("a.html", "<script>x = 2;</script>"); ("b.html", "<script>alert(x);</script>") ]

let test_fig1_variable_race () =
  let r = analyze ~resources:fig1_resources fig1_page in
  match variable_races_on "x" r with
  | [ race ] ->
      (* The race is between the frames, not with the main script: the
         main page's write is ordered before both frames (rules 1b, 6). *)
      Alcotest.(check bool) "one side is a write" true
        (race.Race.first.Access.kind = `Write || race.Race.second.Access.kind = `Write)
  | l -> Alcotest.failf "expected exactly 1 variable race on x, got %d" (List.length l)

let test_fig1_main_script_ordered () =
  (* Without the second frame there is no race: the main write and the
     frame's write are ordered by rules 1b and 6. *)
  let r =
    analyze
      ~resources:[ ("a.html", "<script>x = 2;</script>") ]
      {|<script>x = 1;</script><iframe src="a.html"></iframe>|}
  in
  Alcotest.(check int) "no race" 0 (List.length (variable_races_on "x" r))

(* ------------------------------------------------------------------ *)
(* Fig. 2: Southwest form-field race                                   *)
(* ------------------------------------------------------------------ *)

let fig2_page = {|<input type="text" id="depart" />
<script>document.getElementById("depart").value = "City of Departure";</script>|}

let test_fig2_form_race () =
  let r = analyze ~explore:true fig2_page in
  let form_races =
    List.filter
      (fun (x : Race.t) ->
        Access.has_flag x.Race.first Access.Form_field
        || Access.has_flag x.Race.second Access.Form_field)
      (races_of_type Race.Variable r)
  in
  Alcotest.(check bool) "form-field race found" true (form_races <> []);
  (* It survives the paper's filters and is flagged harmful (lost input). *)
  let surviving =
    List.filter (fun (x : Race.t) -> x.Race.race_type = Race.Variable) r.Webracer.filtered
  in
  Alcotest.(check bool) "survives filters" true (surviving <> []);
  Alcotest.(check bool) "harmful hint" true
    (List.exists Race.heuristic_harmful form_races)

let test_fig2_checked_read_filtered () =
  (* The §5.3 refinement: a script that checks the field before writing is
     filtered out. *)
  let page =
    {|<input type="text" id="depart" />
<script>var el = document.getElementById("depart");
if (el.value === "") { el.value = "City of Departure"; }</script>|}
  in
  let r = analyze ~explore:true page in
  let surviving =
    List.filter (fun (x : Race.t) -> x.Race.race_type = Race.Variable) r.Webracer.filtered
  in
  Alcotest.(check int) "read-before-write race filtered" 0 (List.length surviving)

(* ------------------------------------------------------------------ *)
(* Fig. 3: Valero HTML race                                            *)
(* ------------------------------------------------------------------ *)

let fig3_page = {|<a href="javascript:show()">Send Email</a>
<script>function show() {
  var v = document.getElementById("dw");
  v.style.display = "block";
}</script>
<div id="dw" style="display:none">email form</div>|}

let test_fig3_html_race () =
  let r = analyze ~explore:true fig3_page in
  let html_races =
    List.filter
      (fun (x : Race.t) ->
        match x.Race.loc with
        | Location.Html_elem (Location.Id { id = "dw"; _ }) -> true
        | _ -> false)
      (races_of_type Race.Html r)
  in
  Alcotest.(check int) "html race on #dw" 1 (List.length html_races)

let test_fig3_no_race_when_div_first () =
  (* Moving the div above the link removes the race: parse(div) precedes
     parse(a) = create(a) which precedes the click dispatch (rule 8). *)
  let page =
    {|<div id="dw" style="display:none">email form</div>
<script>function show() {
  var v = document.getElementById("dw");
  v.style.display = "block";
}</script>
<a href="javascript:show()">Send Email</a>|}
  in
  let r = analyze ~explore:true page in
  let html_races =
    List.filter
      (fun (x : Race.t) ->
        match x.Race.loc with
        | Location.Html_elem (Location.Id { id = "dw"; _ }) -> true
        | _ -> false)
      (races_of_type Race.Html r)
  in
  Alcotest.(check int) "ordered, no race" 0 (List.length html_races)

(* ------------------------------------------------------------------ *)
(* Fig. 4: Mozilla function race                                       *)
(* ------------------------------------------------------------------ *)

let fig4_page = {|<iframe id="i" src="sub.html" onload="setTimeout(doNextStep, 20)"></iframe>
<script>function doNextStep() { return 1; }</script>|}

let test_fig4_function_race () =
  let r = analyze ~resources:[ ("sub.html", "<p>sub</p>") ] fig4_page in
  let fraces = races_of_type Race.Function_race r in
  Alcotest.(check bool) "function race on doNextStep" true
    (List.exists
       (fun (x : Race.t) ->
         match x.Race.loc with
         | Location.Js_var { name = "doNextStep"; _ } -> true
         | _ -> false)
       fraces)

let test_fig4_fixed_by_moving_script () =
  (* The paper's fix: the script above the iframe makes the declaration
     parse before the handler can run. *)
  let page =
    {|<script>function doNextStep() { return 1; }</script>
<iframe id="i" src="sub.html" onload="setTimeout(doNextStep, 20)"></iframe>|}
  in
  let r = analyze ~resources:[ ("sub.html", "<p>sub</p>") ] page in
  Alcotest.(check int) "no function race" 0 (List.length (races_of_type Race.Function_race r))

(* ------------------------------------------------------------------ *)
(* Fig. 5: event dispatch race                                         *)
(* ------------------------------------------------------------------ *)

let fig5_page = {|<iframe id="i" src="a.html"></iframe>
<script>document.getElementById("i").onload = function() { return 1; };</script>|}

let test_fig5_dispatch_race () =
  let r = analyze ~resources:[ ("a.html", "<p>nested</p>") ] fig5_page in
  let draces = races_of_type Race.Event_dispatch r in
  Alcotest.(check bool) "event dispatch race" true (draces <> []);
  (* load dispatches once, so the single-dispatch filter keeps it. *)
  let kept =
    List.filter
      (fun (x : Race.t) -> x.Race.race_type = Race.Event_dispatch)
      r.Webracer.filtered
  in
  Alcotest.(check bool) "survives single-dispatch filter" true (kept <> [])

let test_fig5_no_race_with_attribute () =
  (* Setting the handler in the tag itself orders registration (the parse
     op) before the dispatch (rule 8 via create(T)). *)
  let page = {|<iframe id="i" src="a.html" onload="1;"></iframe>|} in
  let r = analyze ~resources:[ ("a.html", "<p>nested</p>") ] page in
  Alcotest.(check int) "no dispatch race" 0
    (List.length (races_of_type Race.Event_dispatch r))

(* ------------------------------------------------------------------ *)
(* Ordering guarantees (no false positives)                            *)
(* ------------------------------------------------------------------ *)

let test_sync_script_blocks_parser () =
  let r =
    analyze
      ~resources:[ ("a.js", "x = 1;") ]
      {|<script src="a.js"></script><script>var y = x;</script>|}
  in
  Alcotest.(check int) "rule 1c orders the scripts" 0
    (List.length (variable_races_on "x" r));
  Alcotest.(check int) "no crash" 0 (List.length r.Webracer.crashes)

let test_async_scripts_race () =
  let r =
    analyze
      ~resources:[ ("a.js", "x = 1;") ]
      {|<script async="true" src="a.js"></script><script>x = 2;</script>|}
  in
  Alcotest.(check int) "async script is unordered" 1
    (List.length (variable_races_on "x" r))

let test_defer_scripts_ordered () =
  let r =
    analyze
      ~resources:[ ("a.js", "x = 1;"); ("b.js", "x = x + 1; result = x;") ]
      {|<script defer="true" src="a.js"></script><script defer="true" src="b.js"></script>|}
  in
  Alcotest.(check int) "rule 5 orders defers" 0 (List.length (variable_races_on "x" r));
  Alcotest.(check int) "no crashes" 0 (List.length r.Webracer.crashes)

let test_dcl_sees_all_parses () =
  let page =
    {|<script>document.addEventListener("DOMContentLoaded", function() {
  var el = document.getElementById("late");
  marker = el;
});</script>
<div id="late">content</div>|}
  in
  let r = analyze page in
  let html_races = races_of_type Race.Html r in
  Alcotest.(check int) "rule 12: parses precede DOMContentLoaded" 0
    (List.length html_races);
  Alcotest.(check int) "no crashes" 0 (List.length r.Webracer.crashes)

let test_window_load_after_image () =
  let page =
    {|<img id="im" src="i.png" onload="shared = 1;">
<script>window.onload = function() { var v = shared; };</script>|}
  in
  let r = analyze ~resources:[ ("i.png", "binary") ] page in
  Alcotest.(check int) "rule 15: image load precedes window load" 0
    (List.length (variable_races_on "shared" r))

let test_settimeout_ordered_with_caller () =
  let page =
    {|<script>var x = 1; setTimeout(function() { var v = x; }, 10);</script>|}
  in
  let r = analyze page in
  Alcotest.(check int) "rule 16" 0 (List.length (variable_races_on "x" r))

let test_interval_iterations_ordered () =
  let page =
    {|<script>var n = 0;
var t = setInterval(function() { n = n + 1; if (n >= 3) { clearInterval(t); } }, 10);</script>|}
  in
  let r = analyze page in
  Alcotest.(check int) "rule 17 orders iterations" 0
    (List.length (variable_races_on "n" r))

let test_xhr_rule10 () =
  let page =
    {|<script>var x = 1;
var req = new XMLHttpRequest();
req.onreadystatechange = function() { if (req.readyState === 4) { got = x + req.responseText.length; } };
req.open("GET", "data.txt");
req.send();</script>|}
  in
  let r = analyze ~resources:[ ("data.txt", "payload") ] page in
  Alcotest.(check int) "rule 10 orders send with handler" 0
    (List.length (variable_races_on "x" r));
  Alcotest.(check int) "no crash" 0 (List.length r.Webracer.crashes)

let test_gomez_pattern () =
  (* §6.3: the Gomez monitor attaches onload to images from a setInterval
     poll; the attach races with the image's load dispatch. *)
  let page =
    {|<img id="banner" src="banner.png">
<script>var t = setInterval(function() {
  var imgs = document.images;
  var i = 0;
  for (i = 0; i < imgs.length; i++) {
    if (!imgs[i].__seen) { imgs[i].__seen = true; imgs[i].onload = function() { return 1; }; }
  }
}, 10);
setTimeout(function() { clearInterval(t); }, 300);</script>|}
  in
  let r = analyze ~resources:[ ("banner.png", "img") ] page in
  let draces = races_of_type Race.Event_dispatch r in
  Alcotest.(check bool) "gomez dispatch race" true (draces <> [])

let test_ford_benign_pattern_filtered () =
  (* §6.3: polling via setTimeout until a sentinel node exists, then
     touching nodes that are guaranteed present. Races on the polled
     variable are benign; the form filter drops plain variable races. *)
  let page =
    {|<script>function addPopUp() {
  if (document.getElementById("last") != null) { found = 1; }
  else { setTimeout(addPopUp, 20); }
}
addPopUp();</script>
<div id="other">x</div>
<div id="last">y</div>|}
  in
  let r = analyze page in
  let kept_variable =
    List.filter (fun (x : Race.t) -> x.Race.race_type = Race.Variable) r.Webracer.filtered
  in
  Alcotest.(check int) "variable noise filtered" 0 (List.length kept_variable)

let test_crash_hidden_and_logged () =
  let page = {|<script>missingFunction();</script><script>after = 1;</script>|} in
  let r = analyze page in
  Alcotest.(check int) "crash recorded" 1 (List.length r.Webracer.crashes);
  (* Execution continues after the crash, like a browser. *)
  Alcotest.(check bool) "second script ran" true (r.Webracer.accesses > 0)

let test_determinism () =
  let run () =
    let r = analyze ~explore:true ~resources:fig1_resources ~seed:7 fig1_page in
    ( List.length r.Webracer.races,
      r.Webracer.ops,
      r.Webracer.accesses,
      List.length r.Webracer.crashes )
  in
  Alcotest.(check bool) "two runs identical" true (run () = run ())

let test_detectors_agree_on_figures () =
  let run detector =
    let cfg =
      Webracer.config ~page:fig3_page ~seed:3 ~explore:true ~detector ()
    in
    let r = Webracer.analyze cfg in
    List.length
      (List.filter (fun (x : Race.t) -> x.Race.race_type = Race.Html) r.Webracer.races)
  in
  Alcotest.(check int) "same html races"
    (run Webracer.Config.Last_access)
    (run Webracer.Config.Full_track)

let test_script_inserted_external () =
  (* Script-inserted external scripts execute whenever fetched — they race
     with later page scripts (§3.3). *)
  let page =
    {|<div id="container"></div>
<script>var s = document.createElement("script");
s.src = "late.js";
document.getElementById("container").appendChild(s);</script>
<script>x = 2;</script>|}
  in
  let r = analyze ~resources:[ ("late.js", "x = 1;") ] page in
  Alcotest.(check int) "inserted script races" 1 (List.length (variable_races_on "x" r))

let test_hb_strategies_agree_end_to_end () =
  let run strategy =
    let cfg =
      Webracer.config ~page:fig1_page ~resources:fig1_resources ~seed:5
        ~hb_strategy:strategy ()
    in
    let r = Webracer.analyze cfg in
    List.map
      (fun (x : Race.t) -> (Race.type_name x.Race.race_type, Location.to_string x.Race.loc))
      r.Webracer.races
  in
  Alcotest.(check bool) "dfs = chain-vc" true
    (run Wr_hb.Graph.Dfs = run Wr_hb.Graph.Chain_vc)

let test_class_list_whitespace () =
  (* HTML splits class lists on any ASCII whitespace, not only spaces. *)
  let page =
    "<div id=\"d\" class=\"card\twide\nhero\"></div>\n\
     <script>\n\
     var names = [\".card\", \".wide\", \".hero\", \"div.wide\", \".car\"];\n\
     for (var i = 0; i < names.length; i++) {\n\
     \  var e = document.querySelector(names[i]);\n\
     \  console.log(names[i] + \" \" + (e === null ? \"null\" : e.id));\n\
     }\n\
     </script>"
  in
  Alcotest.(check (list string)) "every class found"
    [ ".card d"; ".wide d"; ".hero d"; "div.wide d"; ".car null" ]
    (analyze page).Webracer.console

let suite =
  [
    Alcotest.test_case "fig1: iframe variable race" `Quick test_fig1_variable_race;
    Alcotest.test_case "fig1: main script ordered" `Quick test_fig1_main_script_ordered;
    Alcotest.test_case "fig2: form race" `Quick test_fig2_form_race;
    Alcotest.test_case "fig2: checked write filtered" `Quick test_fig2_checked_read_filtered;
    Alcotest.test_case "fig3: html race" `Quick test_fig3_html_race;
    Alcotest.test_case "fig3: fixed order" `Quick test_fig3_no_race_when_div_first;
    Alcotest.test_case "fig4: function race" `Quick test_fig4_function_race;
    Alcotest.test_case "fig4: fixed order" `Quick test_fig4_fixed_by_moving_script;
    Alcotest.test_case "fig5: dispatch race" `Quick test_fig5_dispatch_race;
    Alcotest.test_case "fig5: attribute is safe" `Quick test_fig5_no_race_with_attribute;
    Alcotest.test_case "sync script blocks" `Quick test_sync_script_blocks_parser;
    Alcotest.test_case "async script races" `Quick test_async_scripts_race;
    Alcotest.test_case "defer ordered" `Quick test_defer_scripts_ordered;
    Alcotest.test_case "DOMContentLoaded" `Quick test_dcl_sees_all_parses;
    Alcotest.test_case "window load vs image" `Quick test_window_load_after_image;
    Alcotest.test_case "setTimeout ordered" `Quick test_settimeout_ordered_with_caller;
    Alcotest.test_case "setInterval chain" `Quick test_interval_iterations_ordered;
    Alcotest.test_case "xhr rule 10" `Quick test_xhr_rule10;
    Alcotest.test_case "gomez pattern" `Quick test_gomez_pattern;
    Alcotest.test_case "ford pattern filtered" `Quick test_ford_benign_pattern_filtered;
    Alcotest.test_case "crashes hidden" `Quick test_crash_hidden_and_logged;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "detectors agree" `Quick test_detectors_agree_on_figures;
    Alcotest.test_case "script-inserted external" `Quick test_script_inserted_external;
    Alcotest.test_case "hb strategies agree" `Quick test_hb_strategies_agree_end_to_end;
    Alcotest.test_case "class list splits on whitespace" `Quick test_class_list_whitespace;
  ]
