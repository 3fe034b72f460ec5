(* Unit tests for the per-operation access-dedup front-end (Wr_detect.Dedup):
   duplicates swallowed, semantics preserved (Checked_read_first, op
   switches, flag/context mismatches), stats faithful. *)

open Wr_hb
open Wr_mem
open Wr_detect

let var ?(name = "x") cell = Location.Js_var { cell; name }

(* A probe detector that remembers every access it is fed, so tests can
   assert exactly what the dedup front-end forwarded. *)
let probe () =
  let log = ref [] in
  ( {
      Detector.name = "probe";
      record = (fun a -> log := a :: !log);
      races = (fun () -> []);
      accesses_seen = (fun () -> List.length !log);
    },
    fun () -> List.rev !log )

let access ?(flags = []) ?(context = "test") loc kind op =
  Access.make ~flags ~context loc kind op

let wrapped () =
  let inner, forwarded = probe () in
  let det, stats = Dedup.wrap inner in
  (det, stats, forwarded)

let test_duplicate_read_swallowed () =
  let det, stats, forwarded = wrapped () in
  for _ = 1 to 500 do
    det.Detector.record (access (var 1) `Read 7)
  done;
  Alcotest.(check int) "forwarded once" 1 (List.length (forwarded ()));
  let s = stats () in
  Alcotest.(check int) "seen" 500 s.Dedup.seen;
  Alcotest.(check int) "forwarded" 1 s.Dedup.forwarded;
  Alcotest.(check int) "swallowed" 499 (Dedup.swallowed s);
  Alcotest.(check int) "raw accesses_seen" 500 (det.Detector.accesses_seen ())

let test_duplicate_write_swallowed () =
  let det, _, forwarded = wrapped () in
  for _ = 1 to 10 do
    det.Detector.record (access (var 1) `Write 7)
  done;
  Alcotest.(check int) "forwarded once" 1 (List.length (forwarded ()))

let test_distinct_locations_all_forwarded () =
  let det, _, forwarded = wrapped () in
  for cell = 1 to 50 do
    det.Detector.record (access (var cell) `Read 7)
  done;
  Alcotest.(check int) "no false sharing" 50 (List.length (forwarded ()))

let test_read_then_write_forwarded () =
  (* The Checked_read_first transition needs the op's first write to reach
     the detector even though the op already accessed the location. *)
  let det, _, forwarded = wrapped () in
  det.Detector.record (access (var 1) `Read 7);
  det.Detector.record (access (var 1) `Read 7);
  det.Detector.record (access (var 1) `Write 7);
  match forwarded () with
  | [ r; w ] ->
      Alcotest.(check bool) "read first" true (r.Access.kind = `Read);
      Alcotest.(check bool) "write second" true (w.Access.kind = `Write)
  | l -> Alcotest.failf "expected [read; write], got %d accesses" (List.length l)

let test_write_read_write_all_forwarded () =
  (* The intervening read invalidates the cached write: the second write
     would acquire Checked_read_first inside the detector, so it must not
     be treated as a duplicate of the first. *)
  let det, _, forwarded = wrapped () in
  det.Detector.record (access (var 1) `Write 7);
  det.Detector.record (access (var 1) `Read 7);
  det.Detector.record (access (var 1) `Write 7);
  Alcotest.(check int) "all three forwarded" 3 (List.length (forwarded ()))

let test_flush_on_op_switch () =
  let det, _, forwarded = wrapped () in
  det.Detector.record (access (var 1) `Read 1);
  det.Detector.record (access (var 1) `Read 2);
  det.Detector.record (access (var 1) `Read 1);
  Alcotest.(check int) "each op switch re-forwards" 3 (List.length (forwarded ()))

let test_interleaved_op_other_location_keeps_cache () =
  (* Per-location epochs: an interleaved op touching a *different*
     location must not force re-forwarding of the outer op's repeats. *)
  let det, _, forwarded = wrapped () in
  det.Detector.record (access (var 1) `Read 1);
  det.Detector.record (access (var 2) `Read 2);
  det.Detector.record (access (var 1) `Read 1);
  Alcotest.(check int) "outer repeat still swallowed" 2 (List.length (forwarded ()))

let test_flag_mismatch_not_swallowed () =
  let det, _, forwarded = wrapped () in
  det.Detector.record (access (var 1) `Read 7);
  det.Detector.record (access ~flags:[ Access.Observed_miss ] (var 1) `Read 7);
  Alcotest.(check int) "differing flags forwarded" 2 (List.length (forwarded ()))

let test_context_mismatch_not_swallowed () =
  let det, _, forwarded = wrapped () in
  det.Detector.record (access ~context:"a" (var 1) `Read 7);
  det.Detector.record (access ~context:"b" (var 1) `Read 7);
  Alcotest.(check int) "differing context forwarded" 2 (List.length (forwarded ()))

(* --- semantics end-to-end against the real detector ------------------- *)

let last_access_with_dedup () =
  let g = Graph.create () in
  let inner = Last_access.create g in
  let det, _ = Dedup.wrap inner in
  (g, det)

let test_checked_read_first_preserved () =
  (* Op [a] reads then writes the location; a concurrent op [b] then reads
     it. The reported race's write must carry Checked_read_first exactly
     as it does without dedup. *)
  let run create =
    let g = Graph.create () in
    let det = create g in
    let a = Graph.fresh g Op.Script ~label:"a" and b = Graph.fresh g Op.Script ~label:"b" in
    let loc = var 1 in
    det.Detector.record (Access.make ~context:"t" loc `Read a);
    det.Detector.record (Access.make ~context:"t" loc `Read a);
    det.Detector.record (Access.make ~context:"t" loc `Write a);
    det.Detector.record (Access.make ~context:"t" loc `Read b);
    List.map
      (fun (r : Race.t) ->
        ( r.Race.first.Access.op,
          r.Race.second.Access.op,
          Access.has_flag r.Race.first Access.Checked_read_first ))
      (det.Detector.races ())
  in
  let plain = run Last_access.create in
  let deduped = run (fun g -> fst (Dedup.wrap (Last_access.create g))) in
  Alcotest.(check bool) "same races, same flags" true (plain = deduped);
  match deduped with
  | [ (_, _, flagged) ] -> Alcotest.(check bool) "write is checked-read-first" true flagged
  | rs -> Alcotest.failf "expected 1 race, got %d" (List.length rs)

let test_race_still_detected_through_dedup () =
  let g, det = last_access_with_dedup () in
  let a = Graph.fresh g Op.Script ~label:"a" and b = Graph.fresh g Op.Script ~label:"b" in
  det.Detector.record (access (var 1) `Write a);
  det.Detector.record (access (var 1) `Write a);
  det.Detector.record (access (var 1) `Read b);
  Alcotest.(check int) "race survives dedup" 1 (List.length (det.Detector.races ()))

let test_full_track_equivalence () =
  (* Same access storm through full-track with and without the front-end:
     identical race reports. *)
  let storm det g =
    let ops = Array.init 8 (fun _ -> Graph.fresh g Op.Script ~label:"op") in
    for i = 0 to 999 do
      let loc = var (i mod 13) in
      let kind = if i mod 3 = 0 then `Write else `Read in
      det.Detector.record (access loc kind ops.(i mod 8))
    done;
    List.map
      (fun (r : Race.t) -> (Race.type_name r.Race.race_type, Location.to_string r.Race.loc))
      (det.Detector.races ())
  in
  let plain =
    let g = Graph.create () in
    storm (Full_track.create g) g
  in
  let deduped =
    let g = Graph.create () in
    storm (fst (Dedup.wrap (Full_track.create g))) g
  in
  Alcotest.(check bool) "identical race lists" true (plain = deduped)

let test_same_shape () =
  let a = access (var 1) `Read 7 in
  Alcotest.(check bool) "reflexive" true (Access.same_shape a (access (var 1) `Read 7));
  Alcotest.(check bool) "kind differs" false (Access.same_shape a (access (var 1) `Write 7));
  Alcotest.(check bool) "op differs" false (Access.same_shape a (access (var 1) `Read 8));
  Alcotest.(check bool) "loc differs" false (Access.same_shape a (access (var 2) `Read 7));
  Alcotest.(check bool) "flags differ" false
    (Access.same_shape a (access ~flags:[ Access.User_input ] (var 1) `Read 7))

(* --- fused dedup equals the wrapper --------------------------------- *)

(* A small location pool with repeats: plain variables, the two locations
   an event handler collapses into one report key, and a collection whose
   write-write pairs are exempt. *)
let pool =
  [|
    var 0;
    var 1;
    var 2;
    Location.Event_handler { target = 1; event = "click"; slot = Location.Attr };
    Location.Event_handler { target = 1; event = "click"; slot = Location.Container };
    Location.Html_elem (Location.Collection { doc = 0; name = "tag:div" });
  |]

(* The third context equals the first but is a distinct string, so the
   dedup rule's physical shortcut does not decide it. *)
let contexts = [| "a"; "b"; String.concat "" [ "a" ] |]

let flag_sets = [| []; [ Access.Observed_miss ]; [ Access.Form_field ] |]

(* Bursts of accesses by one op, bursts from different ops interleaved.
   Flags and contexts mostly take their first value, so repeats are
   common. *)
let stream_gen n =
  QCheck.Gen.(
    let mostly_first = frequencyl [ (6, 0); (1, 1); (1, 2) ] in
    list_size (int_range 1 40)
      (pair (int_bound (n - 1))
         (list_size (int_range 1 8)
            (quad (int_bound (Array.length pool - 1)) bool mostly_first mostly_first))))

let run_stream stream (det, stats) =
  List.iter
    (fun (op, burst) ->
      List.iter
        (fun (l, write, f, c) ->
          det.Detector.record
            (Access.make ~flags:flag_sets.(f) ~context:contexts.(c) pool.(l)
               (if write then `Write else `Read)
               op))
        burst)
    stream;
  let s = stats () in
  (det.Detector.races (), det.Detector.accesses_seen (), s.Dedup.seen, s.Dedup.forwarded)

let prop_fused_equals_wrap =
  let gen =
    QCheck.Gen.(Test_hb.random_dag_gen >>= fun dag -> pair (return dag) (stream_gen (fst dag)))
  in
  QCheck.Test.make ~name:"fused dedup equals Dedup.wrap" ~count:300 (QCheck.make gen)
    (fun (dag, stream) ->
      let agree create create_dedup =
        let wrapped = run_stream stream (Dedup.wrap (create (Test_hb.build Graph.Closure dag))) in
        let fused = run_stream stream (create_dedup (Test_hb.build Graph.Closure dag)) in
        wrapped = fused
      in
      agree Last_access.create Last_access.create_dedup
      && agree Full_track.create Full_track.create_dedup)

let suite =
  [
    Alcotest.test_case "duplicate read swallowed" `Quick test_duplicate_read_swallowed;
    Alcotest.test_case "duplicate write swallowed" `Quick test_duplicate_write_swallowed;
    Alcotest.test_case "distinct locations forwarded" `Quick
      test_distinct_locations_all_forwarded;
    Alcotest.test_case "read-then-write forwarded" `Quick test_read_then_write_forwarded;
    Alcotest.test_case "write-read-write forwarded" `Quick
      test_write_read_write_all_forwarded;
    Alcotest.test_case "flush on op switch" `Quick test_flush_on_op_switch;
    Alcotest.test_case "interleaved op keeps other locations" `Quick
      test_interleaved_op_other_location_keeps_cache;
    Alcotest.test_case "flag mismatch forwarded" `Quick test_flag_mismatch_not_swallowed;
    Alcotest.test_case "context mismatch forwarded" `Quick
      test_context_mismatch_not_swallowed;
    Alcotest.test_case "checked-read-first preserved" `Quick
      test_checked_read_first_preserved;
    Alcotest.test_case "race detected through dedup" `Quick
      test_race_still_detected_through_dedup;
    Alcotest.test_case "full-track equivalence" `Quick test_full_track_equivalence;
    Alcotest.test_case "Access.same_shape" `Quick test_same_shape;
    QCheck_alcotest.to_alcotest prop_fused_equals_wrap;
  ]
