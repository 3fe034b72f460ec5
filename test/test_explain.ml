(* Tests for the race-witness subsystem: provenance chains, nearest
   common ancestors, the no-path frontier certificate and its verifier,
   DOT subgraph export, and the filter-attribution plumbing. *)

open Wr_hb

let mk () = Graph.create ~strategy:Graph.Chain_vc ()

let op g label = Graph.fresh g Op.Script ~label

let race_between g
    ?(loc = Wr_mem.Location.Js_var { cell = 1; name = "x"; key = Wr_mem.Location.no_key }) a b =
  ignore g;
  Wr_detect.Race.make
    ~first:{ Wr_mem.Access.loc; kind = `Write; op = a; flags = []; context = "w" }
    ~second:{ Wr_mem.Access.loc; kind = `Read; op = b; flags = []; context = "r" }

(* 0 -> 1, 0 -> 2 -> 3: ops 1 and 3 race; backward from 3 pruned below 1
   reaches exactly {2, 3}. *)
let forked_graph () =
  let g = mk () in
  let r = op g "root" in
  let a = op g "left" in
  let b = op g "right" in
  let c = op g "right-child" in
  Graph.add_edge g r a;
  Graph.add_edge g r b;
  Graph.add_edge g b c;
  (g, r, a, b, c)

let test_frontier_minimal () =
  let g, _, a, b, c = forked_graph () in
  Alcotest.(check (list int)) "frontier = backward-reachable set" [ b; c ]
    (Wr_explain.frontier g ~older:a ~newer:c);
  let w = Wr_explain.of_race g (race_between g a c) in
  Alcotest.(check (list int)) "witness carries the minimal frontier" [ b; c ] w.Wr_explain.frontier;
  Alcotest.(check bool) "certificate passes" true (Wr_explain.verify g w)

let test_frontier_detects_order () =
  let g, r, _, _, c = forked_graph () in
  (* r happens-before c, so r itself lands in the pruned backward set. *)
  let f = Wr_explain.frontier g ~older:r ~newer:c in
  Alcotest.(check bool) "ordered pair: older is in its own frontier" true (List.mem r f)

let test_forged_frontier_rejected () =
  let g, _, a, _, c = forked_graph () in
  let w = Wr_explain.of_race g (race_between g a c) in
  (* Dropping any member breaks predecessor closure. *)
  List.iter
    (fun victim ->
      let forged =
        { w with Wr_explain.frontier = List.filter (fun n -> n <> victim) w.Wr_explain.frontier }
      in
      Alcotest.(check bool)
        (Printf.sprintf "frontier without #%d rejected" victim)
        false (Wr_explain.verify g forged))
    w.Wr_explain.frontier;
  (* An empty fabricated frontier is rejected outright. *)
  Alcotest.(check bool) "empty frontier rejected" false
    (Wr_explain.verify g { w with Wr_explain.frontier = [] })

let test_no_certificate_for_ordered_pair () =
  (* For a truly ordered pair no frontier can verify: closure forces the
     older op into the set, and membership checks then fail. *)
  let g, r, _, b, c = forked_graph () in
  let w = Wr_explain.of_race g (race_between g b c) in
  List.iter
    (fun frontier ->
      let forged = { w with Wr_explain.older = r; Wr_explain.frontier } in
      Alcotest.(check bool) "ordered pair never certifies" false (Wr_explain.verify g forged))
    [ [ c ]; [ b; c ]; [ r; b; c ]; [] ]

let test_forged_provenance_rejected () =
  let g, _, a, _, c = forked_graph () in
  let w = Wr_explain.of_race g (race_between g a c) in
  (* Skipping a link (root .. c without b) breaks the direct-edge check. *)
  let skip_middle =
    match w.Wr_explain.newer_provenance with
    | root :: _ :: rest -> root :: rest
    | chain -> chain
  in
  Alcotest.(check bool) "gapped chain rejected" false
    (Wr_explain.verify g { w with Wr_explain.newer_provenance = skip_middle });
  Alcotest.(check bool) "empty chain rejected" false
    (Wr_explain.verify g { w with Wr_explain.newer_provenance = [] });
  (* A chain rooted at a non-root op is rejected. *)
  let headless = List.tl w.Wr_explain.newer_provenance in
  Alcotest.(check bool) "non-root chain rejected" false
    (Wr_explain.verify g { w with Wr_explain.newer_provenance = headless })

let test_nca_diamond () =
  (* 0 -> 1 -> 3, 0 -> 2 -> 4: the fork point 0 is the nearest common
     ancestor of the two branch tips. *)
  let g = mk () in
  let r = op g "root" in
  let a = op g "a" and b = op g "b" in
  let a' = op g "a-child" and b' = op g "b-child" in
  Graph.add_edge g r a;
  Graph.add_edge g r b;
  Graph.add_edge g a a';
  Graph.add_edge g b b';
  Alcotest.(check (option int)) "nca of tips" (Some r)
    (Wr_explain.nearest_common_ancestor g a' b');
  (* A second, later fork dominates: r -> m -> {x, y} makes m nearest. *)
  let m = op g "mid" in
  let x = op g "x" and y = op g "y" in
  Graph.add_edge g r m;
  Graph.add_edge g m x;
  Graph.add_edge g m y;
  Alcotest.(check (option int)) "nearest fork wins" (Some m)
    (Wr_explain.nearest_common_ancestor g x y);
  (* Disconnected roots share no ancestor. *)
  let g2 = mk () in
  let p = op g2 "p" and q = op g2 "q" in
  Alcotest.(check (option int)) "no common ancestor" None
    (Wr_explain.nearest_common_ancestor g2 p q)

let test_forged_ancestor_rejected () =
  let g, _, a, b, c = forked_graph () in
  let w = Wr_explain.of_race g (race_between g a c) in
  Alcotest.(check (option int)) "true ancestor is the root" (Some 0) w.Wr_explain.common_ancestor;
  Alcotest.(check bool) "sibling is not an ancestor" false
    (Wr_explain.verify g { w with Wr_explain.common_ancestor = Some b })

let test_provenance_follows_creation_edges () =
  let g, r, a, b, c = forked_graph () in
  (* A later ordering edge a -> c must not displace c's creation edge b -> c. *)
  Graph.add_edge g a c;
  let ids chain = List.map (fun (i : Op.info) -> i.Op.id) chain in
  Alcotest.(check (list int)) "creation chain kept" [ r; b; c ] (ids (Wr_explain.provenance g c));
  Alcotest.(check (list int)) "chain of a root is itself" [ r ] (ids (Wr_explain.provenance g r))

let test_dot_subgraph_shape () =
  let g, _, a, _, c = forked_graph () in
  let _noise = op g "unrelated" in
  let w = Wr_explain.of_race g (race_between g a c) in
  let dot = Wr_explain.dot g w in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun id ->
      Alcotest.(check bool) (Printf.sprintf "evidence node n%d present" id) true
        (contains (Printf.sprintf "n%d [" id) dot))
    [ 0; a; c ];
  Alcotest.(check bool) "unrelated op excluded" false (contains "n5 [" dot);
  Alcotest.(check bool) "provenance edge bold red" true
    (contains "n0 -> n1 [color=red" dot);
  Alcotest.(check bool) "valid graphviz wrapper" true
    (contains "digraph happens_before" dot)

let test_to_dot_edge_dedupe_and_highlight () =
  let g = mk () in
  let a = op g "a" and b = op g "b" in
  Graph.add_edge g a b;
  Graph.add_edge g a b;
  let dot = Graph.to_dot ~highlight_edges:[ (a, b) ] g in
  let count needle hay =
    let n = String.length needle in
    let rec go i acc =
      if i + n > String.length hay then acc
      else go (i + 1) (if String.sub hay i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check int) "edge printed once, highlighted" 1 (count "n0 -> n1" dot);
  Alcotest.(check int) "highlight attrs present" 1 (count "n0 -> n1 [color=red" dot)

(* --- end to end through the browser ------------------------------------- *)

let fig4_page =
  {|<iframe id="i" src="sub.html" onload="doNextStep();"></iframe>
<div>a</div><div>b</div><div>c</div>
<script>function doNextStep() { return 1; }</script>|}

let test_witness_end_to_end () =
  let report =
    Webracer.analyze
      (Webracer.config ~page:fig4_page ~resources:[ ("sub.html", "<p>sub</p>") ]
         ~explore:false ())
  in
  let g = report.Webracer.hb_graph in
  Alcotest.(check bool) "found a race to explain" true (report.Webracer.races <> []);
  List.iter
    (fun race ->
      let w = Wr_explain.of_race g race in
      Alcotest.(check bool) "certificate passes on a real page" true (Wr_explain.verify g w);
      Alcotest.(check bool) "frontier excludes the older op" false
        (List.mem w.Wr_explain.older w.Wr_explain.frontier);
      Alcotest.(check bool) "frontier includes the newer op" true
        (List.mem w.Wr_explain.newer w.Wr_explain.frontier))
    report.Webracer.races

let test_report_json_carries_witness () =
  let report =
    Webracer.analyze
      (Webracer.config ~page:fig4_page ~resources:[ ("sub.html", "<p>sub</p>") ]
         ~explore:false ())
  in
  let open Wr_support.Json in
  match member "races" (Webracer.report_to_json report) with
  | List (Obj fields :: _) ->
      let witness = List.assoc "witness" fields in
      Alcotest.(check bool) "witness certified in JSON" true
        (match member "certified" witness with Bool b -> b | _ -> false);
      Alcotest.(check bool) "frontier non-empty" true
        (match member "frontier" witness with List (_ :: _) -> true | _ -> false)
  | _ -> Alcotest.fail "expected a non-empty race list"

let test_filter_attribution () =
  let report =
    Webracer.analyze
      (Webracer.config
         ~page:
           {|<input type="text" id="q" /><script>var el = document.getElementById("q");
if (el.value === "") { el.value = "hint"; }</script>|}
         ~explore:true ())
  in
  Alcotest.(check int) "one raw race" 1 (List.length report.Webracer.races);
  Alcotest.(check int) "suppressed by the form-field filter" 1
    (List.assoc Wr_detect.Filters.form_field_name report.Webracer.filter_counts);
  Alcotest.(check int) "single-dispatch untouched" 0
    (List.assoc Wr_detect.Filters.single_dispatch_name report.Webracer.filter_counts);
  match report.Webracer.suppressed with
  | [ (filter, race) ] ->
      Alcotest.(check string) "attributed to form-field" Wr_detect.Filters.form_field_name filter;
      Alcotest.(check bool) "the suppressed race is the raw one" true
        (List.memq race report.Webracer.races)
  | other -> Alcotest.fail (Printf.sprintf "expected 1 attribution, got %d" (List.length other))

let test_log_jsonl_sink () =
  let module L = Wr_support.Log in
  let path = Filename.temp_file "webracer_log" ".jsonl" in
  let saved = L.current_level () in
  L.open_sink_file path;
  L.set_level (Some L.Info);
  L.info "test.event" [ ("n", Wr_support.Json.Int 7) ];
  L.debug "test.hidden" [];
  L.close_sink ();
  L.set_level saved;
  let ic = open_in path in
  let line = input_line ic in
  let rest = try Some (input_line ic) with End_of_file -> None in
  close_in ic;
  Sys.remove path;
  let open Wr_support.Json in
  let obj = of_string line in
  Alcotest.(check string) "event name round-trips" "test.event" (to_str (member "event" obj));
  Alcotest.(check int) "field round-trips" 7 (to_int (member "n" obj));
  Alcotest.(check string) "level recorded" "info" (to_str (member "level" obj));
  Alcotest.(check bool) "debug event below threshold dropped" true (rest = None)

let test_log_level_parsing () =
  let module L = Wr_support.Log in
  Alcotest.(check bool) "warn parses" true (L.level_of_string "WARN" = Some L.Warn);
  Alcotest.(check bool) "off is disabled" true (L.level_of_string "off" = None);
  Alcotest.(check bool) "garbage is disabled" true (L.level_of_string "loud" = None);
  let saved = L.current_level () in
  L.set_level (Some L.Warn);
  Alcotest.(check bool) "error enabled at warn" true (L.enabled L.Error);
  Alcotest.(check bool) "info disabled at warn" false (L.enabled L.Info);
  L.set_level None;
  Alcotest.(check bool) "everything off" false (L.enabled L.Error);
  L.set_level saved

let suite =
  [
    Alcotest.test_case "frontier: minimal + accepted" `Quick test_frontier_minimal;
    Alcotest.test_case "frontier: ordered pair detected" `Quick test_frontier_detects_order;
    Alcotest.test_case "verify: forged frontier rejected" `Quick test_forged_frontier_rejected;
    Alcotest.test_case "verify: ordered pair never certifies" `Quick
      test_no_certificate_for_ordered_pair;
    Alcotest.test_case "verify: forged provenance rejected" `Quick
      test_forged_provenance_rejected;
    Alcotest.test_case "nca: diamond" `Quick test_nca_diamond;
    Alcotest.test_case "verify: forged ancestor rejected" `Quick test_forged_ancestor_rejected;
    Alcotest.test_case "provenance: creation edges" `Quick
      test_provenance_follows_creation_edges;
    Alcotest.test_case "dot: subgraph shape" `Quick test_dot_subgraph_shape;
    Alcotest.test_case "dot: edge dedupe + highlight" `Quick
      test_to_dot_edge_dedupe_and_highlight;
    Alcotest.test_case "witness: end to end" `Quick test_witness_end_to_end;
    Alcotest.test_case "witness: in report JSON" `Quick test_report_json_carries_witness;
    Alcotest.test_case "filters: suppression attribution" `Quick test_filter_attribution;
    Alcotest.test_case "log: jsonl sink" `Quick test_log_jsonl_sink;
    Alcotest.test_case "log: levels" `Quick test_log_level_parsing;
  ]

(* --- Per-report witness encoder ------------------------------------------ *)

(* Two timers and a click handler all write [a] and [b]: the handler
   races a timer on both globals, so two races share one op pair. *)
let shared_pair_page =
  {|<script>setTimeout(function(){ a = 1; b = 1; }, 10); setTimeout(function(){ a = 2; b = 2; }, 5);</script>
<div id="d" onclick="a = 3; b = 3;">x</div>|}

let test_shared_pair_witnesses () =
  let module Json = Wr_support.Json in
  let report = Webracer.analyze (Webracer.config ~page:shared_pair_page ()) in
  let g = report.Webracer.hb_graph in
  let witnesses =
    List.map (Json.member "witness")
      (Json.to_list (Json.member "races" (Webracer.report_to_json report)))
  in
  let pair w = (Json.to_int (Json.member "older_op" w), Json.to_int (Json.member "newer_op" w)) in
  let pairs = List.sort_uniq compare (List.map pair witnesses) in
  Alcotest.(check bool) "some races share an op pair" true
    (List.length pairs < List.length witnesses);
  List.iter
    (fun p ->
      match List.filter (fun w -> pair w = p) witnesses with
      | [] -> assert false
      | first :: rest ->
          List.iter
            (fun w ->
              Alcotest.(check string) "same pair, same witness bytes" (Json.to_string first)
                (Json.to_string w))
            rest)
    pairs;
  List.iter
    (fun w ->
      Alcotest.(check bool) "certified" true (Json.member "certified" w = Json.Bool true))
    witnesses;
  List.iter2
    (fun race w ->
      Alcotest.(check string) "encoder = to_json of_race"
        (Json.to_string (Wr_explain.to_json g (Wr_explain.of_race g race)))
        (Json.to_string w))
    report.Webracer.races witnesses

let test_forged_after_genuine () =
  let module Json = Wr_support.Json in
  let report = Webracer.analyze (Webracer.config ~page:shared_pair_page ()) in
  let g = report.Webracer.hb_graph in
  let race = List.hd report.Webracer.races in
  let encode = Wr_explain.encoder g in
  let genuine = encode race in
  let w = Wr_explain.of_race g race in
  (* Drop the root: same endpoints, a chain the graph does not certify. *)
  let forged = { w with Wr_explain.newer_provenance = List.tl w.Wr_explain.newer_provenance } in
  Alcotest.(check bool) "forged chain is shorter" true (forged.Wr_explain.newer_provenance <> []);
  let j = Wr_explain.to_json g forged in
  let chain_ids j =
    List.map
      (fun o -> Json.to_int (Json.member "id" o))
      (Json.to_list (Json.of_string (Json.to_string (Json.member "newer_provenance" j))))
  in
  Alcotest.(check (list int)) "forged witness prints its own chain"
    (List.map (fun (i : Op.info) -> i.Op.id) forged.Wr_explain.newer_provenance)
    (chain_ids j);
  Alcotest.(check bool) "forged witness not certified" true
    (Json.member "certified" j = Json.Bool false);
  Alcotest.(check bool) "genuine witness still certified" true
    (Json.member "certified" (encode race) = Json.Bool true);
  Alcotest.(check string) "genuine bytes unchanged" (Json.to_string genuine)
    (Json.to_string (encode race))

(* Every pair of ops, in both orders (so the per-pair cache is hit), over
   random DAGs: the encoder agrees with [to_json g (of_race g r)]. *)
let prop_encoder_matches_to_json =
  QCheck.Test.make ~name:"encoder = to_json (of_race) on random DAGs" ~count:100
    (QCheck.make Test_hb.random_dag_gen) (fun (n, edges) ->
      let g = Test_hb.build Graph.Chain_vc (n, edges) in
      let encode = Wr_explain.encoder g in
      let ops = List.init n Fun.id in
      let races =
        List.concat_map
          (fun a -> List.filter_map (fun b -> if a = b then None else Some (race_between g a b)) ops)
          ops
      in
      List.for_all
        (fun race ->
          Wr_support.Json.to_string (encode race)
          = Wr_support.Json.to_string (Wr_explain.to_json g (Wr_explain.of_race g race)))
        races)

(* Appended last so the numbering of the cases above stays stable. *)
let suite =
  suite
  @ [
      Alcotest.test_case "encoder: shared pairs, one witness" `Quick test_shared_pair_witnesses;
      Alcotest.test_case "encoder: forged after genuine" `Quick test_forged_after_genuine;
      QCheck_alcotest.to_alcotest prop_encoder_matches_to_json;
    ]
