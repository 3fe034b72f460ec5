(* Unit and property tests for the happens-before graph. *)

open Wr_hb

let mk ?(strategy = Graph.Closure) () = Graph.create ~strategy ()

let op g label = Graph.fresh g Op.Script ~label

let test_empty_graph () =
  let g = mk () in
  let a = op g "a" and b = op g "b" in
  Alcotest.(check bool) "no hb" false (Graph.happens_before g a b);
  Alcotest.(check bool) "chc" true (Graph.chc g a b);
  Alcotest.(check bool) "chc self" false (Graph.chc g a a)

let test_direct_edge () =
  let g = mk () in
  let a = op g "a" and b = op g "b" in
  Graph.add_edge g a b;
  Alcotest.(check bool) "a -> b" true (Graph.happens_before g a b);
  Alcotest.(check bool) "not b -> a" false (Graph.happens_before g b a);
  Alcotest.(check bool) "not concurrent" false (Graph.chc g a b)

let test_transitivity () =
  let g = mk () in
  let a = op g "a" and b = op g "b" and c = op g "c" and d = op g "d" in
  Graph.add_edge g a b;
  Graph.add_edge g b c;
  Graph.add_edge g c d;
  Alcotest.(check bool) "a -> d" true (Graph.happens_before g a d);
  Alcotest.(check bool) "a -> c" true (Graph.happens_before g a c);
  Alcotest.(check bool) "not d -> a" false (Graph.happens_before g d a)

let test_diamond () =
  let g = mk () in
  let a = op g "a" and b = op g "b" and c = op g "c" and d = op g "d" in
  Graph.add_edge g a b;
  Graph.add_edge g a c;
  Graph.add_edge g b d;
  Graph.add_edge g c d;
  Alcotest.(check bool) "a -> d" true (Graph.happens_before g a d);
  Alcotest.(check bool) "b, c concurrent" true (Graph.chc g b c)

let test_late_edge_propagation () =
  (* An edge added after the target already has successors must propagate
     through the closure. *)
  let g = mk () in
  let a = op g "a" and b = op g "b" and c = op g "c" in
  Graph.add_edge g b c;
  Graph.add_edge g a b;
  Alcotest.(check bool) "a -> c via late edge" true (Graph.happens_before g a c)

let test_self_and_backward_edges_rejected () =
  let g = mk () in
  let a = op g "a" and b = op g "b" in
  Graph.add_edge g a b;
  (match Graph.add_edge g a a with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "self edge accepted");
  match Graph.add_edge g b a with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "backward edge accepted"

let test_duplicate_edges_ignored () =
  let g = mk () in
  let a = op g "a" and b = op g "b" in
  Graph.add_edge g a b;
  Graph.add_edge g a b;
  Alcotest.(check int) "one edge" 1 (Graph.n_edges g)

let test_info () =
  let g = mk () in
  let a = Graph.fresh g Op.Parse ~label:"div#x" in
  let info = Graph.info g a in
  Alcotest.(check string) "label" "div#x" info.Op.label;
  Alcotest.(check string) "kind" "parse" (Op.kind_name info.Op.kind);
  match Graph.info g 99 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown id accepted"

(* Random DAG generator for property tests: edges only i -> j with i < j. *)
let random_dag_gen =
  QCheck.Gen.(
    int_range 2 40 >>= fun n ->
    let all_pairs =
      List.concat (List.init n (fun i -> List.init (n - i - 1) (fun k -> (i, i + k + 1))))
    in
    let m = List.length all_pairs in
    list_size (int_bound (min m (3 * n))) (int_bound (max 0 (m - 1))) >>= fun picks ->
    return (n, List.map (List.nth all_pairs) picks))

let build strategy (n, edges) =
  let g = Graph.create ~strategy () in
  for i = 0 to n - 1 do
    ignore (Graph.fresh g Op.Script ~label:(string_of_int i))
  done;
  List.iter (fun (a, b) -> Graph.add_edge g a b) edges;
  g

let strategies_agree (n, edges) =
  let dfs = build Graph.Dfs (n, edges) in
  let closure = build Graph.Closure (n, edges) in
  let chain_vc = build Graph.Chain_vc (n, edges) in
  let ok = ref true in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      let reference = Graph.happens_before dfs a b in
      if Graph.happens_before closure a b <> reference then ok := false;
      if Graph.happens_before chain_vc a b <> reference then ok := false;
      if Graph.chc closure a b <> Graph.chc dfs a b then ok := false;
      if Graph.chc chain_vc a b <> Graph.chc dfs a b then ok := false
    done
  done;
  !ok

let prop_strategies_agree =
  QCheck.Test.make ~name:"dfs, closure and chain-vc strategies agree" ~count:100
    (QCheck.make random_dag_gen) strategies_agree

let prop_chc_symmetric =
  QCheck.Test.make ~name:"chc is symmetric and irreflexive" ~count:100
    (QCheck.make random_dag_gen) (fun (n, edges) ->
      let g = build Graph.Closure (n, edges) in
      let ok = ref true in
      for a = 0 to n - 1 do
        if Graph.chc g a a then ok := false;
        for b = 0 to n - 1 do
          if Graph.chc g a b <> Graph.chc g b a then ok := false
        done
      done;
      !ok)

let prop_hb_transitive =
  QCheck.Test.make ~name:"happens-before is transitive" ~count:60
    (QCheck.make random_dag_gen) (fun (n, edges) ->
      let g = build Graph.Closure (n, edges) in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if Graph.happens_before g a b then
            for c = 0 to n - 1 do
              if Graph.happens_before g b c && not (Graph.happens_before g a c) then ok := false
            done
        done
      done;
      !ok)

let test_chain_vc_chain_count () =
  (* A pure chain stays one chain; a fan-out of k leaves needs k chains. *)
  let g = Graph.create ~strategy:Graph.Chain_vc () in
  let a = op g "a" in
  let b = op g "b" in
  let c = op g "c" in
  Graph.add_edge g a b;
  Graph.add_edge g b c;
  Alcotest.(check bool) "a -> c" true (Graph.happens_before g a c);
  Alcotest.(check int) "one chain for a path" 1 (Graph.n_chains g);
  let g2 = Graph.create ~strategy:Graph.Chain_vc () in
  let root = op g2 "root" in
  let leaves = List.init 4 (fun i -> op g2 (Printf.sprintf "leaf%d" i)) in
  List.iter (fun l -> Graph.add_edge g2 root l) leaves;
  List.iter
    (fun l -> Alcotest.(check bool) "root -> leaf" true (Graph.happens_before g2 root l))
    leaves;
  Alcotest.(check bool) "leaves concurrent" true
    (Graph.chc g2 (List.nth leaves 0) (List.nth leaves 3))

let suite =
  [
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "chain-vc chains" `Quick test_chain_vc_chain_count;
    Alcotest.test_case "direct edge" `Quick test_direct_edge;
    Alcotest.test_case "transitivity" `Quick test_transitivity;
    Alcotest.test_case "diamond" `Quick test_diamond;
    Alcotest.test_case "late edge propagation" `Quick test_late_edge_propagation;
    Alcotest.test_case "bad edges rejected" `Quick test_self_and_backward_edges_rejected;
    Alcotest.test_case "duplicate edges" `Quick test_duplicate_edges_ignored;
    Alcotest.test_case "op info" `Quick test_info;
    QCheck_alcotest.to_alcotest prop_strategies_agree;
    QCheck_alcotest.to_alcotest prop_chc_symmetric;
    QCheck_alcotest.to_alcotest prop_hb_transitive;
  ]

let test_to_dot () =
  let g = mk () in
  let a = op g "alpha" and b = op g "beta" in
  Graph.add_edge g a b;
  let dot = Graph.to_dot ~highlight:[ b ] g in
  let has needle =
    let n = String.length needle and h = String.length dot in
    let rec go i = i + n <= h && (String.sub dot i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "digraph" true (has "digraph happens_before");
  Alcotest.(check bool) "node labels" true (has "alpha" && has "beta");
  Alcotest.(check bool) "edge" true (has (Printf.sprintf "n%d -> n%d;" a b));
  Alcotest.(check bool) "highlight" true (has "color=red");
  (* Labels with quotes must be escaped. *)
  let g2 = mk () in
  ignore (Graph.fresh g2 Op.Parse ~label:{|parse <div id="x">|});
  Alcotest.(check bool) "escaped quotes" true
    (let d = Graph.to_dot g2 in
     let rec go i =
       i + 2 <= String.length d && (String.sub d i 2 = {|\"|} || go (i + 1))
     in
     go 0)

(* The shape where sparse and dense clocks differ: one long chain (a big
   page's parse chain) with many short branches hanging off its middle
   ops (handlers that exploration fires), some joining the chain again
   later. Each branch starts a chain, so chain ids grow large while each
   op is reached by few chains. *)
let fan_gen =
  QCheck.Gen.(
    int_range 20 150 >>= fun n ->
    list_repeat (n - 1) (triple (int_bound 99) nat nat) >>= fun steps ->
    let chain = Array.make n 0 and len = ref 1 and branch_ops = ref [] and edges = ref [] in
    List.iteri
      (fun i (roll, x, y) ->
        let id = i + 1 in
        if roll < 50 then begin
          edges := (chain.(!len - 1), id) :: !edges;
          (match !branch_ops with
          | _ :: _ as bs when roll < 12 -> edges := (List.nth bs (x mod List.length bs), id) :: !edges
          | _ -> ());
          chain.(!len) <- id;
          incr len
        end
        else begin
          let from =
            match !branch_ops with
            | newest :: _ when roll >= 85 -> newest
            | _ -> chain.((!len / 4) + (y mod max 1 (!len / 2)))
          in
          edges := (from, id) :: !edges;
          branch_ops := id :: !branch_ops
        end)
      steps;
    return (n, List.rev !edges))

let prop_strategies_agree_on_fans =
  QCheck.Test.make ~name:"dfs, closure and chain-vc strategies agree on fans" ~count:100
    (QCheck.make fan_gen) strategies_agree

(* Whole reports, not just HB queries: the example pages and the ten
   corpus sites with the most races give the same report bytes under
   every strategy. *)
let test_reports_agree () =
  let report hb (page, resources) =
    let r = Webracer.analyze (Webracer.config ~page ~resources ~seed:0 ~hb_strategy:hb ()) in
    let without_wall_clock = function
      | Wr_support.Json.Obj fields ->
          Wr_support.Json.Obj (List.remove_assoc "wall_clock_s" fields)
      | j -> j
    in
    (List.length r.Webracer.races, Wr_support.Json.to_string (without_wall_clock (Webracer.report_to_json r)))
  in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  (* [dune test] runs in the build's test directory, [dune exec] in the
     project root. *)
  let examples_dir =
    if Sys.file_exists "../examples/pages" then "../examples/pages" else "examples/pages"
  in
  let examples =
    Sys.readdir examples_dir |> Array.to_list |> List.sort compare
    |> List.map (fun d ->
           let dir = Filename.concat examples_dir d in
           let files = Sys.readdir dir |> Array.to_list |> List.sort compare in
           ( "example/" ^ d,
             ( read (Filename.concat dir "page.html"),
               List.filter_map
                 (fun f -> if f = "page.html" then None else Some (f, read (Filename.concat dir f)))
                 files ) ))
  in
  let corpus =
    List.mapi
      (fun i (p : Wr_sitegen.Profile.t) ->
        let site = Wr_sitegen.Gen.generate p in
        let input = (site.Wr_sitegen.Gen.page, site.Wr_sitegen.Gen.resources) in
        (fst (report Graph.default_strategy input), i, p.Wr_sitegen.Profile.name, input))
      (Wr_sitegen.Profile.corpus ())
    |> List.sort (fun (ra, ia, _, _) (rb, ib, _, _) -> compare (rb, ia) (ra, ib))
    |> List.filteri (fun k _ -> k < 10)
    |> List.map (fun (_, _, name, input) -> ("corpus/" ^ name, input))
  in
  Alcotest.(check int) "four example pages" 4 (List.length examples);
  List.iter
    (fun (name, input) ->
      let closure = snd (report Graph.Closure input) in
      Alcotest.(check string) (name ^ ": chain-vc = closure") closure
        (snd (report Graph.Chain_vc input));
      Alcotest.(check string) (name ^ ": dfs = closure") closure (snd (report Graph.Dfs input)))
    (examples @ corpus)

let suite =
  suite
  @ [
      Alcotest.test_case "to_dot rendering" `Quick test_to_dot;
      QCheck_alcotest.to_alcotest prop_strategies_agree_on_fans;
      Alcotest.test_case "reports agree across strategies" `Quick test_reports_agree;
    ]
