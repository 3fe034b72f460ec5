(* Unit tests for the event registry and dispatch planning. *)

open Wr_events
module Location = Wr_mem.Location
module Access = Wr_mem.Access

let with_registry f =
  let log = ref [] in
  let base = Wr_mem.Instr.null () in
  let instr = { base with Wr_mem.Instr.sink =
        (fun loc kind op flags context ->
          log := { Wr_mem.Access.loc; kind; op; flags; context } :: !log) } in
  let reg : string Events.t = Events.create instr in
  f reg (fun () -> List.rev !log)

let test_inline_slot () =
  with_registry (fun reg log ->
      Events.set_inline reg ~target:1 ~event:"load" (Some "h1");
      Alcotest.(check (option string)) "stored" (Some "h1")
        (Events.inline reg ~target:1 ~event:"load");
      let writes = List.filter (fun (a : Access.t) -> a.Access.kind = `Write) (log ()) in
      Alcotest.(check int) "attr + container writes" 2 (List.length writes))

let test_add_remove_listener () =
  with_registry (fun reg _log ->
      let u1 = Events.add_listener reg ~target:1 ~event:"click" ~capture:false "a" in
      let u2 = Events.add_listener reg ~target:1 ~event:"click" ~capture:false "b" in
      Alcotest.(check bool) "distinct uids" true (u1 <> u2);
      Alcotest.(check int) "two" 2 (List.length (Events.listeners reg ~target:1 ~event:"click"));
      Events.remove_listener reg ~target:1 ~event:"click" ~uid:u1;
      match Events.listeners reg ~target:1 ~event:"click" with
      | [ r ] -> Alcotest.(check string) "kept b" "b" r.Events.handler
      | _ -> Alcotest.fail "remove failed")

let test_disjoint_listener_locations () =
  with_registry (fun reg log ->
      let u1 = Events.add_listener reg ~target:1 ~event:"click" ~capture:false "a" in
      let u2 = Events.add_listener reg ~target:1 ~event:"click" ~capture:false "b" in
      let listener_locs =
        List.filter_map
          (fun (a : Access.t) ->
            match a.Access.loc with
            | Location.Event_handler { slot = Location.Listener u; _ } -> Some u
            | _ -> None)
          (log ())
      in
      Alcotest.(check (list int)) "distinct listener cells" [ u1; u2 ] listener_locs)

let test_plan_phases () =
  with_registry (fun reg _log ->
      (* Path: root(1) -> mid(2) -> target(3). *)
      ignore (Events.add_listener reg ~target:1 ~event:"click" ~capture:true "cap-root");
      ignore (Events.add_listener reg ~target:1 ~event:"click" ~capture:false "bub-root");
      Events.set_inline reg ~target:3 ~event:"click" (Some "inline-target");
      ignore (Events.add_listener reg ~target:3 ~event:"click" ~capture:false "tgt-listener");
      ignore (Events.add_listener reg ~target:2 ~event:"click" ~capture:false "bub-mid");
      let plan = Events.plan reg ~path:[ 1; 2; 3 ] ~event:"click" ~bubbles:true in
      let names = List.map (fun s -> s.Events.callback) plan in
      Alcotest.(check (list string)) "phase order"
        [ "cap-root"; "inline-target"; "tgt-listener"; "bub-mid"; "bub-root" ]
        names;
      let phases = List.map (fun s -> Events.phase_name s.Events.phase) plan in
      Alcotest.(check (list string)) "phases"
        [ "capture"; "target"; "target"; "bubble"; "bubble" ]
        phases)

let test_plan_no_bubble () =
  with_registry (fun reg _log ->
      ignore (Events.add_listener reg ~target:1 ~event:"load" ~capture:false "root");
      Events.set_inline reg ~target:3 ~event:"load" (Some "tgt");
      let plan = Events.plan reg ~path:[ 1; 2; 3 ] ~event:"load" ~bubbles:false in
      Alcotest.(check (list string)) "no bubble steps" [ "tgt" ]
        (List.map (fun s -> s.Events.callback) plan))

let test_plan_empty () =
  with_registry (fun reg _log ->
      Alcotest.(check int) "no handlers, no steps" 0
        (List.length (Events.plan reg ~path:[ 1; 2 ] ~event:"click" ~bubbles:true)))

let test_dispatch_counting () =
  with_registry (fun reg _log ->
      Alcotest.(check int) "first index" 0 (Events.record_dispatch reg ~target:9 ~event:"click");
      Alcotest.(check int) "second index" 1 (Events.record_dispatch reg ~target:9 ~event:"click");
      Alcotest.(check int) "count" 2 (Events.dispatch_count reg ~target:9 ~event:"click");
      Alcotest.(check int) "other target" 0 (Events.dispatch_count reg ~target:8 ~event:"click"))

let test_remove_nonexistent_silent () =
  with_registry (fun reg log ->
      Events.remove_listener reg ~target:1 ~event:"click" ~uid:12345;
      Alcotest.(check int) "no accesses for no-op removal" 0 (List.length (log ())))

let suite =
  [
    Alcotest.test_case "inline slot" `Quick test_inline_slot;
    Alcotest.test_case "add/remove listener" `Quick test_add_remove_listener;
    Alcotest.test_case "disjoint listener locations" `Quick test_disjoint_listener_locations;
    Alcotest.test_case "plan phases" `Quick test_plan_phases;
    Alcotest.test_case "plan without bubbling" `Quick test_plan_no_bubble;
    Alcotest.test_case "plan empty" `Quick test_plan_empty;
    Alcotest.test_case "dispatch counting" `Quick test_dispatch_counting;
    Alcotest.test_case "remove nonexistent" `Quick test_remove_nonexistent_silent;
  ]
