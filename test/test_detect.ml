(* Unit tests for the race detectors and filters. *)

open Wr_hb
open Wr_mem
open Wr_detect

let key = Location.no_key

let var ?(name = "x") cell = Location.Js_var { cell; name; key }

let setup ?(strategy = Graph.Chain_vc) () =
  let g = Graph.create ~strategy () in
  let d = Last_access.create g in
  (g, d)

(* Hand-built locations take their keys as a loaded trace's do. *)
let keys = Location.Keys.create ()

let access ?(flags = []) loc kind op =
  { Access.loc = Location.Keys.intern keys loc; kind; op; flags; context = "test" }

let test_no_race_when_ordered () =
  let g, d = setup () in
  let a = Graph.fresh g Op.Script ~label:"a" and b = Graph.fresh g Op.Script ~label:"b" in
  Graph.add_edge g a b;
  Detector.record_access d (access (var 1) `Write a);
  Detector.record_access d (access (var 1) `Read b);
  Alcotest.(check int) "no race" 0 (List.length (d.Detector.races ()))

let test_write_read_race () =
  let g, d = setup () in
  let a = Graph.fresh g Op.Script ~label:"a" and b = Graph.fresh g Op.Script ~label:"b" in
  Detector.record_access d (access (var 1) `Write a);
  Detector.record_access d (access (var 1) `Read b);
  match d.Detector.races () with
  | [ r ] ->
      Alcotest.(check string) "type" "variable" (Race.type_name r.Race.race_type);
      Alcotest.(check int) "first op" a r.Race.first.Access.op;
      Alcotest.(check int) "second op" b r.Race.second.Access.op
  | rs -> Alcotest.failf "expected 1 race, got %d" (List.length rs)

let test_read_write_race () =
  let g, d = setup () in
  let a = Graph.fresh g Op.Script ~label:"a" and b = Graph.fresh g Op.Script ~label:"b" in
  Detector.record_access d (access (var 1) `Read a);
  Detector.record_access d (access (var 1) `Write b);
  Alcotest.(check int) "one race" 1 (List.length (d.Detector.races ()))

let test_write_write_race () =
  let g, d = setup () in
  let a = Graph.fresh g Op.Script ~label:"a" and b = Graph.fresh g Op.Script ~label:"b" in
  Detector.record_access d (access (var 1) `Write a);
  Detector.record_access d (access (var 1) `Write b);
  Alcotest.(check int) "one race" 1 (List.length (d.Detector.races ()))

let test_read_read_no_race () =
  let g, d = setup () in
  let a = Graph.fresh g Op.Script ~label:"a" and b = Graph.fresh g Op.Script ~label:"b" in
  Detector.record_access d (access (var 1) `Read a);
  Detector.record_access d (access (var 1) `Read b);
  Alcotest.(check int) "no race" 0 (List.length (d.Detector.races ()))

let test_same_op_no_race () =
  let g, d = setup () in
  let a = Graph.fresh g Op.Script ~label:"a" in
  Detector.record_access d (access (var 1) `Write a);
  Detector.record_access d (access (var 1) `Write a);
  Detector.record_access d (access (var 1) `Read a);
  Alcotest.(check int) "no race" 0 (List.length (d.Detector.races ()))

let test_distinct_locations_independent () =
  let g, d = setup () in
  let a = Graph.fresh g Op.Script ~label:"a" and b = Graph.fresh g Op.Script ~label:"b" in
  Detector.record_access d (access (var 1) `Write a);
  Detector.record_access d (access (var 2) `Write b);
  Alcotest.(check int) "no race" 0 (List.length (d.Detector.races ()))

let test_one_report_per_location () =
  let g, d = setup () in
  let a = Graph.fresh g Op.Script ~label:"a" in
  let b = Graph.fresh g Op.Script ~label:"b" in
  let c = Graph.fresh g Op.Script ~label:"c" in
  Detector.record_access d (access (var 1) `Write a);
  Detector.record_access d (access (var 1) `Write b);
  Detector.record_access d (access (var 1) `Write c);
  Alcotest.(check int) "deduplicated" 1 (List.length (d.Detector.races ()))

let test_paper_limitation_example () =
  (* §5.1: ops 1,2,3 all touch e; 1 -> 2; schedule 3 · 1 · 2.
     The single-slot detector misses the 2-3 race; full-track finds it. *)
  let run detector_of =
    let g = Graph.create () in
    let o1 = Graph.fresh g Op.Script ~label:"1" in
    let o2 = Graph.fresh g Op.Script ~label:"2" in
    let o3 = Graph.fresh g Op.Script ~label:"3" in
    Graph.add_edge g o1 o2;
    let d : Detector.t = detector_of g in
    Detector.record_access d (access (var 1) `Read o3);
    Detector.record_access d (access (var 1) `Read o1);
    Detector.record_access d (access (var 1) `Write o2);
    List.length (d.Detector.races ())
  in
  Alcotest.(check int) "single-slot misses" 0 (run Last_access.create);
  Alcotest.(check int) "full-track catches" 1 (run Full_track.create)

let test_container_write_write_suppressed () =
  let g, d = setup () in
  let a = Graph.fresh g Op.Script ~label:"a" and b = Graph.fresh g Op.Script ~label:"b" in
  let container = Location.Event_handler { target = 5; event = "load"; slot = Container; key } in
  Detector.record_access d (access container `Write a);
  Detector.record_access d (access container `Write b);
  Alcotest.(check int) "disjoint registrations do not race" 0
    (List.length (d.Detector.races ()));
  (* But dispatch (read) racing with registration (write) is reported. *)
  let c = Graph.fresh g Op.Script ~label:"c" in
  Detector.record_access d (access container `Read c);
  Alcotest.(check int) "read vs write still races" 1 (List.length (d.Detector.races ()))

let test_checked_read_first_flag () =
  (* An operation that reads a location before writing it gets its write
     annotated, which the form filter later uses (§5.3 refinement). *)
  let g, d = setup () in
  let b = Graph.fresh g Op.Script ~label:"b" in
  Detector.record_access d (access (var 1) `Read b);
  Detector.record_access d (access ~flags:[ Access.Form_field ] (var 1) `Write b);
  let c = Graph.fresh g Op.Script ~label:"c" in
  Detector.record_access d (access (var 1) `Read c);
  match d.Detector.races () with
  | [ r ] ->
      Alcotest.(check bool) "write carries Checked_read_first" true
        (Access.has_flag r.Race.first Access.Checked_read_first)
  | rs -> Alcotest.failf "expected 1 race, got %d" (List.length rs)

let test_race_classification () =
  let mk_race first_flags loc =
    let g = Graph.create () in
    let a = Graph.fresh g Op.Script ~label:"a" and b = Graph.fresh g Op.Script ~label:"b" in
    let d = Last_access.create g in
    Detector.record_access d (access ~flags:first_flags loc `Write a);
    Detector.record_access d (access loc `Read b);
    match d.Detector.races () with
    | [ r ] -> r.Race.race_type
    | _ -> Alcotest.fail "expected a race"
  in
  Alcotest.(check string) "variable" "variable"
    (Race.type_name (mk_race [] (var 1)));
  Alcotest.(check string) "function" "function"
    (Race.type_name (mk_race [ Access.Function_decl ] (var 1)));
  Alcotest.(check string) "html" "html"
    (Race.type_name (mk_race [] (Location.Html_elem (Location.Id { doc = 0; id = "dw"; key }))));
  Alcotest.(check string) "event dispatch" "event-dispatch"
    (Race.type_name
       (mk_race [] (Location.Event_handler { target = 3; event = "load"; slot = Attr; key })))

let make_race ?(first_flags = []) ?(second_flags = []) ?(loc = var 1) ?(first_kind = `Write)
    ?(second_kind = `Read) () =
  let g = Graph.create () in
  let a = Graph.fresh g Op.Script ~label:"a" and b = Graph.fresh g Op.Script ~label:"b" in
  let first = access ~flags:first_flags loc first_kind a in
  let second = access ~flags:second_flags loc second_kind b in
  Race.make ~first ~second

let no_dispatch = { Filters.dispatch_count = (fun ~target:_ ~event:_ -> 0) }

let test_form_filter () =
  let plain_var = make_race () in
  let form =
    make_race ~first_flags:[ Access.Form_field ] ~second_flags:[ Access.Form_field ] ()
  in
  let checked =
    make_race
      ~first_flags:[ Access.Form_field; Access.Checked_read_first ]
      ~second_flags:[ Access.Form_field ] ()
  in
  let html = make_race ~loc:(Location.Html_elem (Location.Node { uid = 3; key })) () in
  let kept = Filters.form_field [ plain_var; form; checked; html ] in
  Alcotest.(check int) "keeps form race and html race" 2 (List.length kept)

let test_single_dispatch_filter () =
  let loc1 = Location.Event_handler { target = 1; event = "load"; slot = Location.Attr; key } in
  let loc2 = Location.Event_handler { target = 2; event = "click"; slot = Location.Attr; key } in
  let r1 = make_race ~loc:loc1 () and r2 = make_race ~loc:loc2 () in
  let info =
    {
      Filters.dispatch_count =
        (fun ~target ~event ->
          match target, event with
          | 1, "load" -> 1
          | 2, "click" -> 5
          | _ -> 0);
    }
  in
  let kept = Filters.single_dispatch info [ r1; r2 ] in
  Alcotest.(check int) "keeps only single-dispatch" 1 (List.length kept);
  Alcotest.(check int) "both pass with zero dispatches" 2
    (List.length (Filters.single_dispatch no_dispatch [ r1; r2 ]))

let test_harmful_heuristic () =
  let miss = make_race ~second_flags:[ Access.Observed_miss ] () in
  Alcotest.(check bool) "miss is harmful" true (Race.heuristic_harmful miss);
  let input =
    make_race ~first_flags:[ Access.User_input; Access.Form_field ]
      ~second_flags:[ Access.Form_field ] ()
  in
  Alcotest.(check bool) "lost input is harmful" true (Race.heuristic_harmful input);
  let benign = make_race () in
  Alcotest.(check bool) "plain race not flagged" false (Race.heuristic_harmful benign)

let test_full_track_agrees_on_simple_cases () =
  let run create =
    let g = Graph.create () in
    let a = Graph.fresh g Op.Script ~label:"a" and b = Graph.fresh g Op.Script ~label:"b" in
    Graph.add_edge g a b;
    let c = Graph.fresh g Op.Script ~label:"c" in
    let d : Detector.t = create g in
    Detector.record_access d (access (var 1) `Write a);
    Detector.record_access d (access (var 1) `Read b);
    Detector.record_access d (access (var 1) `Write c);
    List.length (d.Detector.races ())
  in
  Alcotest.(check int) "same verdict" (run Last_access.create) (run Full_track.create)

let suite =
  [
    Alcotest.test_case "ordered accesses: no race" `Quick test_no_race_when_ordered;
    Alcotest.test_case "write-read race" `Quick test_write_read_race;
    Alcotest.test_case "read-write race" `Quick test_read_write_race;
    Alcotest.test_case "write-write race" `Quick test_write_write_race;
    Alcotest.test_case "read-read: no race" `Quick test_read_read_no_race;
    Alcotest.test_case "same op: no race" `Quick test_same_op_no_race;
    Alcotest.test_case "distinct locations" `Quick test_distinct_locations_independent;
    Alcotest.test_case "one report per location" `Quick test_one_report_per_location;
    Alcotest.test_case "paper 5.1 limitation" `Quick test_paper_limitation_example;
    Alcotest.test_case "container ww suppressed" `Quick test_container_write_write_suppressed;
    Alcotest.test_case "checked-read-first" `Quick test_checked_read_first_flag;
    Alcotest.test_case "race classification" `Quick test_race_classification;
    Alcotest.test_case "form filter" `Quick test_form_filter;
    Alcotest.test_case "single-dispatch filter" `Quick test_single_dispatch_filter;
    Alcotest.test_case "harmful heuristic" `Quick test_harmful_heuristic;
    Alcotest.test_case "full-track parity" `Quick test_full_track_agrees_on_simple_cases;
  ]
