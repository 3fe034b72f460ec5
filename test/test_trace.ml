(* Tests for trace recording/replay and the atomicity checker. *)

module Graph = Wr_hb.Graph
module Op = Wr_hb.Op
module Access = Wr_mem.Access
module Location = Wr_mem.Location
open Wr_detect

let key = Location.no_key

(* Hand-built locations take their keys as a loaded trace's do. *)
let keys = Location.Keys.create ()

let mk_access ?(flags = []) ?(kind = `Read) ~op loc =
  { Access.loc = Location.Keys.intern keys loc; kind; op; flags; context = "t" }

let sample_trace () =
  let g = Graph.create () in
  let a = Graph.fresh g Op.Script ~label:"a" in
  let b = Graph.fresh g Op.Timeout_callback ~label:"b" in
  let c = Graph.fresh g Op.Parse ~label:"c" in
  Graph.add_edge g a b;
  let var = Location.Js_var { cell = 7; name = "x"; key } in
  let elem = Location.Html_elem (Location.Id { doc = 1; id = "dw"; key }) in
  let handler = Location.Event_handler { target = 3; event = "load"; slot = Location.Attr; key } in
  let accesses =
    [
      mk_access ~kind:`Write ~op:a var;
      mk_access ~flags:[ Access.Observed_miss ] ~op:b elem;
      mk_access ~kind:`Write ~flags:[ Access.Function_decl ] ~op:c handler;
    ]
  in
  Trace.capture g ~accesses

let test_json_roundtrip () =
  let t = sample_trace () in
  let t' = Trace.of_json (Trace.to_json t) in
  Alcotest.(check bool) "ops preserved" true (t'.Trace.ops = t.Trace.ops);
  Alcotest.(check bool) "edges preserved" true (t'.Trace.edges = t.Trace.edges);
  Alcotest.(check int) "access count" 3 (List.length t'.Trace.accesses);
  List.iter2
    (fun (x : Access.t) (y : Access.t) ->
      Alcotest.(check bool) "loc" true (Location.equal x.Access.loc y.Access.loc);
      Alcotest.(check bool) "kind" true (x.Access.kind = y.Access.kind);
      Alcotest.(check int) "op" x.Access.op y.Access.op;
      Alcotest.(check bool) "flags" true (x.Access.flags = y.Access.flags))
    t.Trace.accesses t'.Trace.accesses

let test_save_load () =
  let t = sample_trace () in
  let path = Filename.temp_file "wr_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save t path;
      let t' = Trace.load path in
      Alcotest.(check int) "accesses" 3 (List.length t'.Trace.accesses))

let test_rebuild_graph_reachability () =
  let t = sample_trace () in
  let g = Trace.rebuild_graph t in
  Alcotest.(check bool) "a -> b" true (Graph.happens_before g 0 1);
  Alcotest.(check bool) "a, c concurrent" true (Graph.chc g 0 2)

let test_recorder_tees () =
  let g = Graph.create () in
  let inner = Last_access.create g in
  let d, read = Trace.recorder inner in
  let a = Graph.fresh g Op.Script ~label:"a" and b = Graph.fresh g Op.Script ~label:"b" in
  let loc = Location.Js_var { cell = 1; name = "x"; key } in
  Detector.record_access d (mk_access ~kind:`Write ~op:a loc);
  Detector.record_access d (mk_access ~kind:`Write ~op:b loc);
  Alcotest.(check int) "recorded both" 2 (List.length (read ()));
  Alcotest.(check int) "forwarded to detector" 1 (List.length (d.Detector.races ()))

let test_replay_matches_live_run () =
  (* Record a racy page, replay its trace, expect identical race sets. *)
  let page =
    {|<script async="true" src="a.js"></script><script>x = 2; y = 3;</script>|}
  in
  let report =
    Webracer.analyze
      (Webracer.config ~page
         ~resources:[ ("a.js", "x = 1; y = 1;") ]
         ~seed:3 ~explore:false ~trace:true ())
  in
  let trace = Option.get report.Webracer.trace in
  let replayed = Trace.replay trace ~detector:Last_access.create in
  let describe races =
    List.sort compare
      (List.map
         (fun (r : Race.t) ->
           (Race.type_name r.Race.race_type, Location.to_string r.Race.loc))
         races)
  in
  Alcotest.(check bool) "found races" true (report.Webracer.races <> []);
  Alcotest.(check bool) "replay reproduces the live run" true
    (describe replayed = describe report.Webracer.races)

(* --- location keys over whole pages ---------------------------------- *)

(* Equal keys iff equal locations, over an access stream: every key is
   set, a key never names two different locations, and a location never
   carries two keys. *)
let keys_follow_identity (accesses : Access.t list) =
  let by_key = Hashtbl.create 1024 and by_loc = Location.Tbl.create 1024 in
  List.for_all
    (fun (a : Access.t) ->
      let k = Location.key a.loc in
      k >= 0
      && (match Hashtbl.find_opt by_key k with
         | None ->
             Hashtbl.add by_key k a.loc;
             true
         | Some loc -> Location.equal loc a.loc)
      &&
      match Location.Tbl.find_opt by_loc a.loc with
      | None ->
          Location.Tbl.add by_loc a.loc k;
          true
      | Some k' -> k = k')
    accesses

(* A corpus site, or a random profile realized by the site generator. *)
let site_gen =
  let corpus = Array.of_list (Wr_sitegen.Profile.corpus ()) in
  let small = QCheck.Gen.int_bound 2 in
  QCheck.Gen.(
    pair
      (oneof
         [
           map (fun i -> corpus.(i)) (int_bound (Array.length corpus - 1));
           map
             (fun ((hh, hb, fh, fb), (vh, vb, dh, db), (bv, bd, aj)) ->
               {
                 (Wr_sitegen.Profile.base "random") with
                 html_harmful = hh;
                 html_benign = hb;
                 func_harmful = fh;
                 func_benign = fb;
                 var_harmful = vh;
                 var_benign = vb;
                 disp_harmful = dh;
                 disp_benign = db;
                 bulk_var = bv;
                 bulk_disp = bd;
                 ajax = aj;
               })
             (triple (quad small small small small) (quad small small small small)
                (triple small small small));
         ])
      (int_bound 1000))

let describe_races races =
  List.map
    (fun (r : Race.t) ->
      ( Race.type_name r.Race.race_type,
        Location.to_string r.Race.loc,
        r.Race.first.Access.op,
        r.Race.second.Access.op ))
    races

(* Within one analysis the keys follow location identity, and a trace
   saved to disk and loaded back (keys re-minted by the loader) follows
   it too and replays to the live run's races, in order. *)
let prop_keys_and_saved_replay =
  QCheck.Test.make ~name:"trace: keys follow identity; saved trace replays the live run"
    ~count:30
    (QCheck.make
       ~print:(fun (p, seed) -> Printf.sprintf "%s seed %d" p.Wr_sitegen.Profile.name seed)
       site_gen)
    (fun (profile, seed) ->
      let site = Wr_sitegen.Gen.generate profile in
      let report =
        Webracer.analyze
          (Webracer.config ~page:site.Wr_sitegen.Gen.page
             ~resources:site.Wr_sitegen.Gen.resources ~seed ~trace:true ())
      in
      let trace = Option.get report.Webracer.trace in
      let path = Filename.temp_file "webracer_trace" ".json" in
      let loaded =
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Trace.save trace path;
            Trace.load path)
      in
      let replayed =
        Trace.replay loaded ~detector:(fun g -> fst (Last_access.create_dedup g))
      in
      keys_follow_identity trace.Trace.accesses
      && keys_follow_identity loaded.Trace.accesses
      && describe_races replayed = describe_races report.Webracer.races)

(* --- atomicity ----------------------------------------------------- *)

let triple ~k1 ~kc ~k2 ~order_c =
  (* Transaction A -> B accessing loc; C concurrent (or ordered when
     [order_c]). Returns violations. *)
  let g = Graph.create () in
  let a = Graph.fresh g Op.Script ~label:"A" in
  let c = Graph.fresh g Op.Script ~label:"C" in
  let b = Graph.fresh g Op.Script ~label:"B" in
  Graph.add_edge g a b;
  if order_c then Graph.add_edge g a c;
  let loc = Location.Js_var { cell = 5; name = "shared"; key } in
  let accesses =
    [ mk_access ~kind:k1 ~op:a loc; mk_access ~kind:kc ~op:c loc; mk_access ~kind:k2 ~op:b loc ]
  in
  Atomicity.check g accesses

let test_atomicity_patterns () =
  let expect name k1 kc k2 pattern =
    match triple ~k1 ~kc ~k2 ~order_c:false with
    | [ v ] ->
        Alcotest.(check string) name (Atomicity.pattern_name pattern)
          (Atomicity.pattern_name v.Atomicity.pattern)
    | l -> Alcotest.failf "%s: expected 1 violation, got %d" name (List.length l)
  in
  expect "r-w-r" `Read `Write `Read Atomicity.R_w_r;
  expect "w-w-r" `Write `Write `Read Atomicity.W_w_r;
  expect "r-w-w" `Read `Write `Write Atomicity.R_w_w;
  expect "w-r-w" `Write `Read `Write Atomicity.W_r_w

let test_atomicity_serializable_cases () =
  (* R-R-R and W-R-R interleavings are serializable: no report. *)
  Alcotest.(check int) "r-r-r" 0 (List.length (triple ~k1:`Read ~kc:`Read ~k2:`Read ~order_c:false));
  Alcotest.(check int) "w-r-r" 0
    (List.length (triple ~k1:`Write ~kc:`Read ~k2:`Read ~order_c:false));
  (* An ordered C cannot interleave. *)
  Alcotest.(check int) "ordered C" 0
    (List.length (triple ~k1:`Read ~kc:`Write ~k2:`Read ~order_c:true))

let test_atomicity_requires_transaction () =
  (* Without A -> B there is no transaction, just plain races. *)
  let g = Graph.create () in
  let a = Graph.fresh g Op.Script ~label:"A" in
  let c = Graph.fresh g Op.Script ~label:"C" in
  let b = Graph.fresh g Op.Script ~label:"B" in
  let loc = Location.Js_var { cell = 5; name = "shared"; key } in
  let accesses =
    [
      mk_access ~kind:`Read ~op:a loc; mk_access ~kind:`Write ~op:c loc;
      mk_access ~kind:`Read ~op:b loc;
    ]
  in
  Alcotest.(check int) "no transaction, no violation" 0
    (List.length (Atomicity.check g accesses))

let test_atomicity_order () =
  (* Three locations, first accessed in the order z, x, y, each with an
     R-W-R interleaving: violations follow the trace's first-access order,
     not the location table's hash order. *)
  let g = Graph.create () in
  let a = Graph.fresh g Op.Script ~label:"A" in
  let c = Graph.fresh g Op.Script ~label:"C" in
  let b = Graph.fresh g Op.Script ~label:"B" in
  Graph.add_edge g a b;
  let z = Location.Js_var { cell = 30; name = "z"; key } in
  let x = Location.Html_elem (Location.Id { doc = 1; id = "x"; key }) in
  let y = Location.Js_var { cell = 10; name = "y"; key } in
  let rwr loc =
    [ mk_access ~op:a loc; mk_access ~kind:`Write ~op:c loc; mk_access ~op:b loc ]
  in
  let accesses = List.concat_map rwr [ z; x; y ] in
  let names vs = List.map (fun (v : Atomicity.violation) -> Location.to_string v.loc) vs in
  let expected = List.map Location.to_string [ z; x; y ] in
  Alcotest.(check (list string)) "first-access order" expected (names (Atomicity.check g accesses));
  (* Interleaving the streams keeps the order of each location's first
     access. *)
  let interleaved =
    List.concat_map (fun k -> List.map (fun loc -> List.nth (rwr loc) k) [ z; x; y ]) [ 0; 1; 2 ]
  in
  Alcotest.(check (list string)) "interleaved" expected (names (Atomicity.check g interleaved))

let test_atomicity_ford_pattern_end_to_end () =
  (* The Ford polling pattern is a check-act transaction across timer
     callbacks; the parser's sentinel write interleaves (benign by design,
     but exactly the shape the checker must see). *)
  let page =
    {|<div id="host"></div>
<script>function poll() {
  if (document.getElementById("sentinel") != null) { found = 1; }
  else { setTimeout(poll, 20); }
}
setTimeout(poll, 1);
setTimeout(function () {
  var s = document.createElement("div");
  s.id = "sentinel";
  document.getElementById("host").appendChild(s);
}, 50);</script>|}
  in
  let report =
    Webracer.analyze (Webracer.config ~page ~seed:1 ~explore:false ~trace:true ())
  in
  let violations = Atomicity.check_trace (Option.get report.Webracer.trace) in
  Alcotest.(check bool) "sentinel check-act flagged" true
    (List.exists
       (fun (v : Atomicity.violation) ->
         match v.Atomicity.loc with
         | Location.Html_elem (Location.Id { id = "sentinel"; _ }) ->
             v.Atomicity.pattern = Atomicity.R_w_r
         | _ -> false)
       violations)

let suite =
  [
    Alcotest.test_case "trace json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "trace save/load" `Quick test_save_load;
    Alcotest.test_case "trace graph rebuild" `Quick test_rebuild_graph_reachability;
    Alcotest.test_case "recorder tees" `Quick test_recorder_tees;
    Alcotest.test_case "replay = live run" `Quick test_replay_matches_live_run;
    QCheck_alcotest.to_alcotest prop_keys_and_saved_replay;
    Alcotest.test_case "atomicity patterns" `Quick test_atomicity_patterns;
    Alcotest.test_case "atomicity serializable" `Quick test_atomicity_serializable_cases;
    Alcotest.test_case "atomicity needs transaction" `Quick test_atomicity_requires_transaction;
    Alcotest.test_case "atomicity: Ford pattern" `Quick test_atomicity_ford_pattern_end_to_end;
    Alcotest.test_case "atomicity: first-access order" `Quick test_atomicity_order;
  ]
