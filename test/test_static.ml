(* Unit tests for the static predictor (Wr_static): effect extraction
   edge cases, MHP construction over the HB rules, and end-to-end
   prediction/lint on small pages. *)

open Wr_static
module E = Effects

let analyze_src ?(handler = false) src =
  let ctx = E.make_ctx ~doc:0 () in
  let prog = Wr_js.Parser.parse src in
  E.collect_globals ctx prog;
  if handler then E.analyze_handler ctx prog else E.analyze ctx prog

let has_eff (a : E.analysis) pred = List.exists pred a.E.effs

let writes a loc = has_eff a (fun e -> e.E.kind = E.Write && e.E.loc = loc)

let reads a loc = has_eff a (fun e -> e.E.kind = E.Read && e.E.loc = loc)

let check_eff msg b = Alcotest.(check bool) msg true b

let check_no_eff msg b = Alcotest.(check bool) msg false b

(* ------------------------------------------------------------------ *)
(* Effect extraction                                                   *)
(* ------------------------------------------------------------------ *)

let test_global_read_write () =
  let a = analyze_src "x = y;" in
  check_eff "writes x" (writes a (E.S_global (E.Lit "x")));
  check_eff "reads y" (reads a (E.S_global (E.Lit "y")))

let test_var_decl_writes_global () =
  let a = analyze_src "var total = 0;" in
  check_eff "var writes global" (writes a (E.S_global (E.Lit "total")))

let test_function_decl_effect () =
  let a = analyze_src "function f() { g = 1; }" in
  let decl =
    has_eff a (fun e ->
        e.E.kind = E.Write && e.E.loc = E.S_global (E.Lit "f") && e.E.func_decl)
  in
  check_eff "function decl is a func_decl write" decl;
  (* The body only runs when called: no write of g from the declaration. *)
  check_no_eff "body not analyzed until called" (writes a (E.S_global (E.Lit "g")))

let test_aliased_document_lookup () =
  (* The element flows through a local alias; the write is still
     attributed to the looked-up id. *)
  let a = analyze_src "var el = document.getElementById(\"panel\"); el.innerHTML = \"x\";" in
  let lookup =
    has_eff a (fun e ->
        e.E.kind = E.Read && e.E.loc = E.S_id { doc = 0; id = E.Lit "panel" } && e.E.may_miss)
  in
  check_eff "id lookup read, may observe absence" lookup;
  check_eff "innerHTML widens to whole-document write" (writes a (E.S_dom_any 0))

let test_computed_member_forces_unknown () =
  let a = analyze_src "var el = document.getElementById(\"a\"); el[key] = 1;" in
  let target = E.T_elem { doc = 0; id = E.Lit "a" } in
  check_eff "computed prop write widens"
    (writes a (E.S_prop { target; prop = E.Any_str }));
  check_eff "computed prop may be a handler"
    (writes a (E.S_handler { target; event = "*" }))

let test_nested_function_declarations () =
  (* inner is local to outer: calling outer writes g but never a global
     named inner. *)
  let a = analyze_src "function outer() { function inner() { g = 1; } inner(); } outer();" in
  check_eff "inlined nested call writes g" (writes a (E.S_global (E.Lit "g")));
  check_no_eff "inner is not a global" (writes a (E.S_global (E.Lit "inner")))

let test_prefix_concatenation () =
  let a = analyze_src "var el = document.getElementById(\"id_\" + i);" in
  let prefix_read =
    has_eff a (fun e ->
        e.E.kind = E.Read && e.E.loc = E.S_id { doc = 0; id = E.Prefix "id_" })
  in
  check_eff "concatenation yields a prefix pattern" prefix_read;
  Alcotest.(check bool) "prefix matches instance" true
    (E.sstr_matches (E.Prefix "id_") (E.Lit "id_3"));
  Alcotest.(check bool) "prefix rejects others" false
    (E.sstr_matches (E.Prefix "id_") (E.Lit "name_3"))

let test_dynamic_eval_is_top () =
  let a = analyze_src "eval(code);" in
  check_eff "dynamic eval reads top" (reads a E.S_top);
  check_eff "dynamic eval writes top" (writes a E.S_top)

let test_literal_eval_inlined () =
  let a = analyze_src "eval(\"g = 1;\");" in
  check_eff "literal eval is inline code" (writes a (E.S_global (E.Lit "g")));
  check_no_eff "no top effect for literal eval" (writes a E.S_top)

let test_handler_registration_opens_sub () =
  let a = analyze_src "var b = document.getElementById(\"btn\"); b.onclick = function () { n = 1; };" in
  let target = E.T_elem { doc = 0; id = E.Lit "btn" } in
  check_eff "registration writes the handler container"
    (writes a (E.S_handler { target; event = "click" }));
  let sub =
    List.exists
      (fun (k, (body : E.analysis)) ->
        match k with
        | E.K_handler { event = "click"; _ } ->
            List.exists
              (fun e -> e.E.kind = E.Write && e.E.loc = E.S_global (E.Lit "n"))
              body.E.effs
        | _ -> false)
      a.E.subs
  in
  check_eff "handler body is a nested unit writing n" sub

let test_timer_sub_carries_delay () =
  let a = analyze_src "setTimeout(function () { t = 1; }, 50);" in
  let sub =
    List.exists
      (fun (k, _) -> k = E.K_timer { interval = false; delay = Some 50. })
      a.E.subs
  in
  check_eff "timer sub-unit records its delay" sub

let test_xhr_completion_sub () =
  let a =
    analyze_src
      "var x = new XMLHttpRequest(); x.onreadystatechange = function () { r = 1; };"
  in
  let sub =
    List.exists
      (fun (k, (body : E.analysis)) ->
        k = E.K_xhr
        && List.exists
             (fun e -> e.E.kind = E.Write && e.E.loc = E.S_global (E.Lit "r"))
             body.E.effs)
      a.E.subs
  in
  check_eff "XHR completion handler is a nested unit" sub

let test_add_event_listener () =
  let a = analyze_src "document.addEventListener(\"DOMContentLoaded\", function () { d = 1; });" in
  check_eff "listener registration writes the container"
    (writes a (E.S_handler { target = E.T_root 0; event = "DOMContentLoaded" }))

let test_handler_scope_is_local () =
  (* Inline-attribute handler code: var declarations are handler-local,
     bare assignments still hit globals. *)
  let a = analyze_src ~handler:true "var p = 1; q = 2;" in
  check_no_eff "handler var is local" (writes a (E.S_global (E.Lit "p")));
  check_eff "bare assignment is global" (writes a (E.S_global (E.Lit "q")))

let test_conflict_exemptions () =
  let eff kind loc = { E.loc; kind; func_decl = false; call = false; user = false; may_miss = false } in
  let coll = E.S_collection { doc = 0; name = E.Lit "tag:div" } in
  check_no_eff "collection write-write exempt"
    (E.conflicts (eff E.Write coll) (eff E.Write coll));
  check_eff "collection read-write conflicts"
    (E.conflicts (eff E.Read coll) (eff E.Write coll));
  let h = E.S_handler { target = E.T_root 0; event = "load" } in
  check_no_eff "handler container write-write exempt"
    (E.conflicts (eff E.Write h) (eff E.Write h));
  check_no_eff "read-read never conflicts"
    (E.conflicts (eff E.Read coll) (eff E.Read coll))

(* ------------------------------------------------------------------ *)
(* Widening soundness: the recall-oriented widenings (computed member
   names, dynamic eval) must stay on the may-overlap side — a widened
   effect has to conflict with every concrete effect it could denote
   and cover every dynamic cell it could reach. These invariants are
   what the triage pipeline's refutation certificates lean on: a
   certificate is only sound because coverage never under-approximates. *)
(* ------------------------------------------------------------------ *)

let mk_eff kind loc =
  { E.loc; kind; func_decl = false; call = false; user = false; may_miss = false }

let test_computed_member_widening_sound () =
  let a =
    analyze_src "var el = document.getElementById(\"box\"); el[\"tmp_\" + n] = 1;"
  in
  let target = E.T_elem { doc = 0; id = E.Lit "box" } in
  (* The analyzer widens an element member write with a computed key to
     a wildcard prop on that target — never silently narrower. *)
  check_eff "computed member widens to a wildcard prop"
    (writes a (E.S_prop { target; prop = E.Any_str }));
  let w = mk_eff E.Write (E.S_prop { target; prop = E.Any_str }) in
  check_eff "wildcard write conflicts with every prop read on the target"
    (E.conflicts w (mk_eff E.Read (E.S_prop { target; prop = E.Lit "tmp_final" })));
  check_no_eff "widening stays anchored to its target"
    (E.conflicts w
       (mk_eff E.Read
          (E.S_prop
             { target = E.T_elem { doc = 0; id = E.Lit "nav" };
               prop = E.Lit "tmp_final" })));
  (* A prefix-widened sloc (literal head + unknown tail) is the partial
     precision the triage certificates lean on: it must conflict with
     everything sharing the prefix, and nothing else. *)
  let widened = E.S_prop { target; prop = E.Prefix "tmp_" } in
  let pw = mk_eff E.Write widened in
  check_eff "prefix write conflicts with every tmp_* read"
    (E.conflicts pw (mk_eff E.Read (E.S_prop { target; prop = E.Lit "tmp_final" })));
  check_no_eff "prefix write stays precise outside the prefix"
    (E.conflicts pw (mk_eff E.Read (E.S_prop { target; prop = E.Lit "other" })));
  check_eff "prefix covers any concrete tmp_* cell"
    (Compare.loc_covers widened
       (Wr_mem.Location.Js_var { cell = 9; name = "tmp_7"; key = Wr_mem.Location.no_key }));
  check_no_eff "prefix does not cover foreign cells"
    (Compare.loc_covers widened
       (Wr_mem.Location.Js_var { cell = 9; name = "other"; key = Wr_mem.Location.no_key }))

let test_dynamic_eval_widening_sound () =
  let a = analyze_src "var c = \"adv_mark\"; eval(c + \" = 1;\");" in
  check_eff "non-literal eval widens to top write" (writes a E.S_top);
  check_eff "non-literal eval widens to top read" (reads a E.S_top);
  let w = mk_eff E.Write E.S_top in
  check_eff "top write conflicts with any global read"
    (E.conflicts w (mk_eff E.Read (E.S_global (E.Lit "g"))));
  check_eff "top write conflicts with any id read"
    (E.conflicts w (mk_eff E.Read (E.S_id { doc = 0; id = E.Lit "panel" })));
  check_eff "top covers any variable cell"
    (Compare.loc_covers E.S_top
       (Wr_mem.Location.Js_var { cell = 1; name = "x"; key = Wr_mem.Location.no_key }));
  check_eff "top covers any html cell"
    (Compare.loc_covers E.S_top
       (Wr_mem.Location.Html_elem
          (Wr_mem.Location.Id { doc = 0; id = "p"; key = Wr_mem.Location.no_key })));
  check_eff "top covers any handler cell"
    (Compare.loc_covers E.S_top
       (Wr_mem.Location.Event_handler
          {
            target = 3;
            event = "click";
            slot = Wr_mem.Location.Container;
            key = Wr_mem.Location.no_key;
          }))

let test_wildcard_sstr_sound () =
  check_eff "Any_str matches every literal"
    (E.sstr_matches E.Any_str (E.Lit "anything"));
  check_eff "Any_str matches every prefix"
    (E.sstr_matches E.Any_str (E.Prefix "tmp_"));
  check_eff "two prefixes overlap when one extends the other"
    (E.sstr_matches (E.Prefix "tmp_") (E.Prefix "tmp_f"));
  check_no_eff "disjoint prefixes cannot overlap"
    (E.sstr_matches (E.Prefix "tmp_") (E.Prefix "adv_"))

let test_classify_mirrors_dynamic () =
  let eff ?(func_decl = false) kind loc =
    { E.loc; kind; func_decl; call = false; user = false; may_miss = false }
  in
  let module R = Wr_detect.Race in
  Alcotest.(check string) "id pair is html" (R.type_name R.Html)
    (R.type_name
       (E.classify
          (eff E.Read (E.S_id { doc = 0; id = E.Lit "a" }))
          (eff E.Write (E.S_id { doc = 0; id = E.Lit "a" }))));
  Alcotest.(check string) "handler pair is dispatch" (R.type_name R.Event_dispatch)
    (R.type_name
       (E.classify
          (eff E.Write (E.S_handler { target = E.T_root 0; event = "load" }))
          (eff E.Read (E.S_handler { target = E.T_root 0; event = "load" }))));
  Alcotest.(check string) "func decl pair is function race" (R.type_name R.Function_race)
    (R.type_name
       (E.classify
          (eff ~func_decl:true E.Write (E.S_global (E.Lit "f")))
          (eff E.Read (E.S_global (E.Lit "f")))));
  Alcotest.(check string) "plain global pair is variable" (R.type_name R.Variable)
    (R.type_name
       (E.classify
          (eff E.Write (E.S_global (E.Lit "x")))
          (eff E.Read (E.S_global (E.Lit "x")))));
  (* A top effect (dynamic eval) takes its class from the other side. *)
  Alcotest.(check string) "top defers to the other side" (R.type_name R.Event_dispatch)
    (R.type_name
       (E.classify (eff E.Write E.S_top)
          (eff E.Read (E.S_handler { target = E.T_unknown; event = "click" }))))

(* ------------------------------------------------------------------ *)
(* MHP over the HB rules                                               *)
(* ------------------------------------------------------------------ *)

let build page = Model.build ~page ~resources:[] ()

let find_units m pred =
  Array.to_list m.Model.units |> List.filter (fun u -> pred u.Model.kind)

let find_unit m pred =
  match find_units m pred with
  | u :: _ -> u
  | [] -> Alcotest.fail "expected unit not found"

let test_sync_scripts_ordered () =
  let m = build "<html><body><script>a = 1;</script><script>a = 2;</script></body></html>" in
  match find_units m (function Model.U_script `Sync -> true | _ -> false) with
  | [ s1; s2 ] ->
      check_eff "first script HB second" (Model.happens_before m s1.Model.uid s2.Model.uid);
      check_no_eff "not MHP" (Model.mhp m s1.Model.uid s2.Model.uid)
  | us -> Alcotest.failf "expected 2 sync scripts, got %d" (List.length us)

let test_async_script_unordered () =
  let m =
    Model.build
      ~page:
        "<html><body><script src=\"a.js\" async></script><script>b = 1;</script></body></html>"
      ~resources:[ ("a.js", "a = 1;") ]
      ()
  in
  let async = find_unit m (function Model.U_script `Async -> true | _ -> false) in
  let sync = find_unit m (function Model.U_script `Sync -> true | _ -> false) in
  check_eff "async MHP with later sync script" (Model.mhp m async.Model.uid sync.Model.uid);
  (* ...but the async script still happens before window load (rule 13). *)
  let load = find_unit m (function Model.U_load -> true | _ -> false) in
  check_eff "async HB load" (Model.happens_before m async.Model.uid load.Model.uid)

let test_defer_runs_before_dcl () =
  let m =
    Model.build
      ~page:
        "<html><body><script src=\"d.js\" defer></script><div id=\"late\"></div></body></html>"
      ~resources:[ ("d.js", "var el = document.getElementById(\"late\");") ]
      ()
  in
  let defer = find_unit m (function Model.U_script `Defer -> true | _ -> false) in
  let dcl = find_unit m (function Model.U_dcl -> true | _ -> false) in
  let late =
    find_unit m (function
      | Model.U_parse { elem_id = Some "late"; _ } -> true
      | _ -> false)
  in
  check_eff "parsing HB defer" (Model.happens_before m late.Model.uid defer.Model.uid);
  check_eff "defer HB DOMContentLoaded" (Model.happens_before m defer.Model.uid dcl.Model.uid)

let test_timer_delay_ordering () =
  (* Rule 17: same-parent timers are ordered by non-decreasing delay. *)
  let m =
    build
      "<html><body><script>setTimeout(function () { a = 1; }, 10); setTimeout(function () { a = 2; }, 20);</script></body></html>"
  in
  let t10 =
    find_unit m (function Model.U_timer { delay = Some 10.; _ } -> true | _ -> false)
  in
  let t20 =
    find_unit m (function Model.U_timer { delay = Some 20.; _ } -> true | _ -> false)
  in
  check_eff "shorter delay HB longer" (Model.happens_before m t10.Model.uid t20.Model.uid);
  check_no_eff "longer not HB shorter" (Model.happens_before m t20.Model.uid t10.Model.uid)

let test_timer_mhp_with_later_parsing () =
  let m =
    build
      "<html><body><script>setTimeout(function () { a = 1; }, 0);</script><div id=\"x\"></div></body></html>"
  in
  let t = find_unit m (function Model.U_timer _ -> true | _ -> false) in
  let d =
    find_unit m (function
      | Model.U_parse { elem_id = Some "x"; _ } -> true
      | _ -> false)
  in
  check_eff "timer MHP with later parsing" (Model.mhp m t.Model.uid d.Model.uid);
  let s = find_unit m (function Model.U_script `Sync -> true | _ -> false) in
  check_eff "registering script HB its timer" (Model.happens_before m s.Model.uid t.Model.uid)

let test_handler_inside_defer_script () =
  (* A timer registered from a defer script inherits the defer unit as its
     predecessor: it cannot run before parsing finishes. *)
  let m =
    Model.build
      ~page:"<html><body><script src=\"d.js\" defer></script><div id=\"x\"></div></body></html>"
      ~resources:[ ("d.js", "setTimeout(function () { a = 1; }, 5);") ]
      ()
  in
  let defer = find_unit m (function Model.U_script `Defer -> true | _ -> false) in
  let t = find_unit m (function Model.U_timer _ -> true | _ -> false) in
  let d =
    find_unit m (function
      | Model.U_parse { elem_id = Some "x"; _ } -> true
      | _ -> false)
  in
  check_eff "defer HB its timer" (Model.happens_before m defer.Model.uid t.Model.uid);
  check_eff "parsing HB the deferred timer" (Model.happens_before m d.Model.uid t.Model.uid)

(* ------------------------------------------------------------------ *)
(* End-to-end prediction and lint                                      *)
(* ------------------------------------------------------------------ *)

let predict page = Predict.predict ~page ~resources:[] ()

let test_predict_html_race () =
  (* fig3 shape: a javascript: link races the parser to #panel. *)
  let r =
    predict
      "<html><body><script>function open_panel() { var p = document.getElementById(\"panel\"); }</script><a id=\"open\" href=\"javascript:open_panel()\">go</a><div id=\"panel\"></div></body></html>"
  in
  let html =
    List.exists
      (fun (p : Predict.prediction) ->
        p.Predict.race_type = Wr_detect.Race.Html
        && p.Predict.loc = E.S_id { doc = 0; id = E.Lit "panel" })
      r.Predict.predictions
  in
  check_eff "html race on #panel predicted" html

let test_predict_no_race_when_ordered () =
  (* Both accesses in the same sync script: ordered, nothing predicted. *)
  let r = predict "<html><body><script>x = 1; var y = x;</script></body></html>" in
  Alcotest.(check int) "no predictions" 0 (List.length r.Predict.predictions)

let test_lint_duplicate_ids () =
  let r =
    predict "<html><body><div id=\"dup\"></div><div id=\"dup\"></div></body></html>"
  in
  let dup =
    List.exists
      (function Predict.Duplicate_id { id = "dup"; count = 2; _ } -> true | _ -> false)
      r.Predict.lint
  in
  check_eff "duplicate id reported" dup

let test_lint_handler_on_missing_id () =
  let r =
    predict
      "<html><body><script>setTimeout(function () { var el = document.getElementById(\"ghost\"); el.onclick = function () {}; }, 10);</script></body></html>"
  in
  let missing =
    List.exists
      (function
        | Predict.Handler_on_missing_id { id = "ghost"; event = "click"; _ } -> true
        | _ -> false)
      r.Predict.lint
  in
  check_eff "handler on absent id reported" missing

let test_lint_write_only_global () =
  let r = predict "<html><body><script>orphan = 1;</script></body></html>" in
  let wo =
    List.exists
      (function Predict.Write_only_global { name = "orphan"; _ } -> true | _ -> false)
      r.Predict.lint
  in
  check_eff "write-only global reported" wo

(* [mhp_pairs] reads the pairs off the HB graph's chain clocks; a
   brute-force count over [mhp] must agree on the example pages and the
   adversarial pack. *)
let test_mhp_pairs_brute_force () =
  let pack =
    List.map
      (fun (s : Wr_sitegen.Adversarial.scenario) ->
        ("adversarial/" ^ s.name, (s.page, s.resources)))
      (Wr_sitegen.Adversarial.pack ())
  in
  List.iter
    (fun (name, (page, resources)) ->
      let m = Model.build ~page ~resources () in
      let n = Array.length m.Model.units in
      let brute = ref 0 in
      for a = 0 to n - 1 do
        for b = a + 1 to n - 1 do
          if Model.mhp m a b then incr brute
        done
      done;
      Alcotest.(check int) (name ^ ": mhp_pairs") !brute (Model.mhp_pairs m))
    (Test_hb.example_pages () @ pack)

(* [Predict.predict] keeps one witness per (type, location) while the
   conflicts stream past. The reference here materialises every raw
   conflict first and then deduplicates — the predictor's original
   two-pass shape — and both must give the same predictions in the same
   order. *)
let reference_predictions (m : Model.t) =
  let sstr_rank = function E.Lit _ -> 2 | E.Prefix _ -> 1 | E.Any_str -> 0 in
  let loc_rank = function
    | E.S_top -> -2
    | E.S_dom_any _ -> -1
    | E.S_global s | E.S_collection { name = s; _ } -> sstr_rank s
    | E.S_id { id; _ } -> sstr_rank id
    | E.S_prop { prop; _ } -> sstr_rank prop
    | E.S_node _ -> 2
    | E.S_handler { event; _ } -> if event = "*" then 0 else 2
  in
  let raw = ref [] in
  Wr_hb.Graph.iter_chc_pairs m.Model.hb (fun i j ->
      List.iter
        (fun (e1 : E.eff) ->
          List.iter
            (fun (e2 : E.eff) ->
              if E.conflicts e1 e2 then
                raw :=
                  {
                    Predict.race_type = E.classify e1 e2;
                    loc = (if loc_rank e2.E.loc > loc_rank e1.E.loc then e2.E.loc else e1.E.loc);
                    first_unit = i;
                    second_unit = j;
                    first_eff = e1;
                    second_eff = e2;
                  }
                  :: !raw)
            m.Model.units.(j).Model.effs)
        m.Model.units.(i).Model.effs);
  let seen = Hashtbl.create 64 in
  List.rev !raw
  |> List.stable_sort (fun (a : Predict.prediction) (b : Predict.prediction) ->
         compare (loc_rank b.Predict.loc) (loc_rank a.Predict.loc))
  |> List.filter (fun (p : Predict.prediction) ->
         let key =
           Wr_detect.Race.type_name p.Predict.race_type ^ "|" ^ E.sloc_to_string p.Predict.loc
         in
         (not (Hashtbl.mem seen key)) && (Hashtbl.replace seen key (); true))
  |> List.stable_sort (fun (a : Predict.prediction) (b : Predict.prediction) ->
         compare (a.Predict.first_unit, a.Predict.second_unit)
           (b.Predict.first_unit, b.Predict.second_unit))

let test_predict_streaming_dedup () =
  let pack =
    List.map
      (fun (s : Wr_sitegen.Adversarial.scenario) ->
        ("adversarial/" ^ s.name, (s.page, s.resources)))
      (Wr_sitegen.Adversarial.pack ())
  in
  (* Two parallel handlers that each write [x] and run a dynamic eval:
     one unit pair yields witnesses of different location ranks, with
     the vaguer [top] found first. *)
  let eval_pair =
    ( "eval-pair",
      ( "<html><body><div id=\"a\" onmouseover=\"x = 1; eval(s);\">a</div>\
         <div id=\"b\" onmouseover=\"x = 2; eval(s);\">b</div></body></html>",
        [] ) )
  in
  List.iter
    (fun (name, (page, resources)) ->
      let r = Predict.predict ~page ~resources () in
      let expect = reference_predictions r.Predict.model in
      Alcotest.(check int) (name ^ ": prediction count") (List.length expect)
        (List.length r.Predict.predictions);
      check_eff (name ^ ": same predictions, same order") (expect = r.Predict.predictions))
    ((eval_pair :: Test_hb.example_pages ()) @ pack)

let suite =
  [
    Alcotest.test_case "effects: global read/write" `Quick test_global_read_write;
    Alcotest.test_case "effects: var decl writes global" `Quick test_var_decl_writes_global;
    Alcotest.test_case "effects: function decl" `Quick test_function_decl_effect;
    Alcotest.test_case "effects: aliased document lookup" `Quick test_aliased_document_lookup;
    Alcotest.test_case "effects: computed member widens" `Quick
      test_computed_member_forces_unknown;
    Alcotest.test_case "effects: nested function declarations" `Quick
      test_nested_function_declarations;
    Alcotest.test_case "effects: prefix concatenation" `Quick test_prefix_concatenation;
    Alcotest.test_case "effects: dynamic eval is top" `Quick test_dynamic_eval_is_top;
    Alcotest.test_case "effects: literal eval inlined" `Quick test_literal_eval_inlined;
    Alcotest.test_case "effects: handler registration sub-unit" `Quick
      test_handler_registration_opens_sub;
    Alcotest.test_case "effects: timer delay recorded" `Quick test_timer_sub_carries_delay;
    Alcotest.test_case "effects: xhr completion sub-unit" `Quick test_xhr_completion_sub;
    Alcotest.test_case "effects: addEventListener" `Quick test_add_event_listener;
    Alcotest.test_case "effects: handler-local scope" `Quick test_handler_scope_is_local;
    Alcotest.test_case "effects: conflict exemptions" `Quick test_conflict_exemptions;
    Alcotest.test_case "widening: computed member sound" `Quick
      test_computed_member_widening_sound;
    Alcotest.test_case "widening: dynamic eval sound" `Quick
      test_dynamic_eval_widening_sound;
    Alcotest.test_case "widening: wildcard strings sound" `Quick
      test_wildcard_sstr_sound;
    Alcotest.test_case "effects: classification" `Quick test_classify_mirrors_dynamic;
    Alcotest.test_case "mhp: sync scripts ordered" `Quick test_sync_scripts_ordered;
    Alcotest.test_case "mhp: async script unordered" `Quick test_async_script_unordered;
    Alcotest.test_case "mhp: defer before DCL" `Quick test_defer_runs_before_dcl;
    Alcotest.test_case "mhp: timer delay ordering" `Quick test_timer_delay_ordering;
    Alcotest.test_case "mhp: timer vs later parsing" `Quick test_timer_mhp_with_later_parsing;
    Alcotest.test_case "mhp: handler inside defer script" `Quick
      test_handler_inside_defer_script;
    Alcotest.test_case "predict: html race" `Quick test_predict_html_race;
    Alcotest.test_case "predict: ordered page clean" `Quick test_predict_no_race_when_ordered;
    Alcotest.test_case "lint: duplicate ids" `Quick test_lint_duplicate_ids;
    Alcotest.test_case "lint: handler on missing id" `Quick test_lint_handler_on_missing_id;
    Alcotest.test_case "lint: write-only global" `Quick test_lint_write_only_global;
    Alcotest.test_case "mhp: pair count matches brute force" `Quick test_mhp_pairs_brute_force;
    Alcotest.test_case "predict: streaming dedup = find then dedup" `Quick
      test_predict_streaming_dedup;
  ]
