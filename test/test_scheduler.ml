(* Unit tests for the virtual-time event loop and network simulation. *)

open Wr_scheduler

let test_time_order () =
  let loop = Event_loop.create () in
  let order = ref [] in
  let note tag () = order := tag :: !order in
  ignore (Event_loop.schedule loop ~delay:30. (note "c"));
  ignore (Event_loop.schedule loop ~delay:10. (note "a"));
  ignore (Event_loop.schedule loop ~delay:20. (note "b"));
  ignore (Event_loop.run_until loop ~deadline:100.);
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !order)

let test_fifo_at_same_time () =
  let loop = Event_loop.create () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore (Event_loop.schedule loop ~delay:0. (fun () -> order := i :: !order))
  done;
  ignore (Event_loop.run_until loop ~deadline:1.);
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_clock_advances () =
  let loop = Event_loop.create () in
  let seen = ref 0. in
  ignore (Event_loop.schedule loop ~delay:42. (fun () -> seen := Event_loop.now loop));
  ignore (Event_loop.run_until loop ~deadline:100.);
  Alcotest.(check (float 1e-9)) "clock at due time" 42. !seen

let test_nested_scheduling () =
  let loop = Event_loop.create () in
  let order = ref [] in
  ignore
    (Event_loop.schedule loop ~delay:5. (fun () ->
         order := "outer" :: !order;
         ignore (Event_loop.schedule loop ~delay:5. (fun () -> order := "inner" :: !order))));
  ignore (Event_loop.run_until loop ~deadline:100.);
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !order);
  Alcotest.(check (float 1e-9)) "clock" 10. (Event_loop.now loop)

let test_cancel () =
  let loop = Event_loop.create () in
  let ran = ref false in
  let h = Event_loop.schedule loop ~delay:1. (fun () -> ran := true) in
  Event_loop.cancel loop h;
  ignore (Event_loop.run_until loop ~deadline:10.);
  Alcotest.(check bool) "cancelled task did not run" false !ran;
  Alcotest.(check int) "queue drained" 0 (Event_loop.pending loop)

let test_deadline_stops () =
  let loop = Event_loop.create () in
  let count = ref 0 in
  (* A self-rescheduling interval: without the deadline this never ends. *)
  let rec tick () =
    incr count;
    ignore (Event_loop.schedule loop ~delay:10. tick)
  in
  ignore (Event_loop.schedule loop ~delay:10. tick);
  let ran = Event_loop.run_until loop ~deadline:100. in
  Alcotest.(check int) "ten ticks" 10 ran;
  Alcotest.(check int) "next tick still queued" 1 (Event_loop.pending loop)

let test_run_one () =
  let loop = Event_loop.create () in
  Alcotest.(check bool) "empty" false (Event_loop.run_one loop);
  ignore (Event_loop.schedule loop ~delay:1. ignore);
  Alcotest.(check bool) "ran" true (Event_loop.run_one loop)

let mk_network ?(seed = 1) ?mean_latency resources =
  let loop = Event_loop.create () in
  let rng = Wr_support.Rng.of_int seed in
  let resolve url = List.assoc_opt url resources in
  let net = Network.create ~loop ~rng ~resolve ?mean_latency () in
  (loop, net)

let test_network_fetch () =
  let loop, net = mk_network [ ("a.js", "var x = 1;") ] in
  let result = ref None in
  Network.fetch net ~url:"a.js" (fun o -> result := Some o);
  Alcotest.(check bool) "not yet delivered" true (!result = None);
  ignore (Event_loop.run_until loop ~deadline:10_000.);
  (match !result with
  | Some (Network.Fetched body) -> Alcotest.(check string) "body" "var x = 1;" body
  | _ -> Alcotest.fail "fetch failed");
  Alcotest.(check int) "counted" 1 (Network.fetches net)

let test_network_missing () =
  let loop, net = mk_network [] in
  let result = ref None in
  Network.fetch net ~url:"gone.js" (fun o -> result := Some o);
  ignore (Event_loop.run_until loop ~deadline:10_000.);
  match !result with
  | Some Network.Missing -> ()
  | _ -> Alcotest.fail "expected Missing"

let test_network_pinned_latency_orders_fetches () =
  let loop, net = mk_network [ ("fast.js", "f"); ("slow.js", "s") ] in
  Network.set_latency net ~url:"fast.js" 5.;
  Network.set_latency net ~url:"slow.js" 50.;
  let order = ref [] in
  Network.fetch net ~url:"slow.js" (fun _ -> order := "slow" :: !order);
  Network.fetch net ~url:"fast.js" (fun _ -> order := "fast" :: !order);
  ignore (Event_loop.run_until loop ~deadline:1_000.);
  Alcotest.(check (list string)) "pinned order" [ "fast"; "slow" ] (List.rev !order)

let test_network_determinism () =
  let run seed =
    let loop, net = mk_network ~seed [ ("a", "a"); ("b", "b"); ("c", "c") ] in
    let order = ref [] in
    List.iter (fun u -> Network.fetch net ~url:u (fun _ -> order := u :: !order)) [ "a"; "b"; "c" ];
    ignore (Event_loop.run_until loop ~deadline:100_000.);
    List.rev !order
  in
  Alcotest.(check (list string)) "same seed, same order" (run 7) (run 7)

let prop_heap_orders_any_schedule =
  QCheck.Test.make ~name:"event loop pops in (due, seq) order" ~count:200
    QCheck.(list (float_bound_inclusive 100.))
    (fun delays ->
      let loop = Event_loop.create () in
      let out = ref [] in
      List.iteri
        (fun i d -> ignore (Event_loop.schedule loop ~delay:d (fun () -> out := (d, i) :: !out)))
        delays;
      ignore (Event_loop.run_until loop ~deadline:1_000.);
      let result = List.rev !out in
      let sorted = List.stable_sort (fun (d1, _) (d2, _) -> compare d1 d2) result in
      result = sorted && List.length result = List.length delays)

(* A chain of tasks, each scheduling the next from inside the loop, as
   a page's timers and parse steps do: the loop's own bookkeeping
   (queue columns, clock) allocates nothing per task. The chained
   closure is built once, and the constant delay is a shared float. *)
let test_chained_task_allocation () =
  let loop = Event_loop.create () in
  let n = 10_000 in
  let left = ref n in
  let rec step () =
    decr left;
    if !left > 0 then ignore (Event_loop.schedule loop ~delay:1. step)
  in
  ignore (Event_loop.schedule loop ~delay:1. step);
  let before = Gc.minor_words () in
  while Event_loop.run_one loop do
    ()
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all ran" 0 !left;
  Alcotest.(check (float 0.)) "clock" (float_of_int n) (Event_loop.now loop);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for %d chained tasks" words n)
    true
    (words < float_of_int n /. 10.)

let suite =
  [
    Alcotest.test_case "time order" `Quick test_time_order;
    Alcotest.test_case "fifo at same time" `Quick test_fifo_at_same_time;
    Alcotest.test_case "clock advances" `Quick test_clock_advances;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "deadline" `Quick test_deadline_stops;
    Alcotest.test_case "run_one" `Quick test_run_one;
    Alcotest.test_case "network fetch" `Quick test_network_fetch;
    Alcotest.test_case "network missing" `Quick test_network_missing;
    Alcotest.test_case "network pinned latency" `Quick test_network_pinned_latency_orders_fetches;
    Alcotest.test_case "network determinism" `Quick test_network_determinism;
    QCheck_alcotest.to_alcotest prop_heap_orders_any_schedule;
    Alcotest.test_case "chained tasks allocate nothing" `Quick test_chained_task_allocation;
  ]
