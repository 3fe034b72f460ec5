(* Property-based tests across the stack:

   - MiniJS printer/parser round-trip on generated ASTs;
   - interpreter arithmetic vs a reference evaluator;
   - detector soundness (every reported pair really is CHC) and the
     full-track ⊇ last-access recall relation on random schedules;
   - event-plan phase ordering on random registrations. *)

open Wr_js
module Graph = Wr_hb.Graph
module Op = Wr_hb.Op
module Location = Wr_mem.Location
module Access = Wr_mem.Access

(* ------------------------------------------------------------------ *)
(* AST generator                                                       *)
(* ------------------------------------------------------------------ *)

let gen_ident =
  QCheck.Gen.(oneofl [ "a"; "b"; "foo"; "bar_1"; "x$"; "_tmp"; "value9" ])

let gen_number = QCheck.Gen.(map float_of_int (int_bound 10_000))

let gen_string_lit =
  QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'z'; ' '; '\''; '"'; '\\'; '\n'; '<' ]) (int_bound 6))

let gen_binop =
  QCheck.Gen.oneofl
    Ast.[ Add; Sub; Mul; Div; Mod; Eq; Neq; Strict_eq; Strict_neq; Lt; Le; Gt; Ge; And; Or;
          Bit_and; Bit_or; Bit_xor; Shl; Shr; Ushr ]

let gen_unop = QCheck.Gen.oneofl Ast.[ Neg; Plus; Not; Bit_not; Typeof; Void ]

let rec gen_expr depth =
  let open QCheck.Gen in
  let atom =
    oneof
      [
        map (fun n -> Ast.Number n) gen_number;
        map (fun s -> Ast.String s) gen_string_lit;
        map (fun b -> Ast.Bool b) bool;
        return Ast.Null;
        return Ast.This;
        map (fun v -> Ast.Ident v) gen_ident;
      ]
  in
  if depth = 0 then atom
  else
    let sub = gen_expr (depth - 1) in
    let lv = gen_lvalue (depth - 1) in
    frequency
      [
        (3, atom);
        (2, map3 (fun op a b -> Ast.Binop (op, a, b)) gen_binop sub sub);
        (1, map2 (fun op a -> Ast.Unop (op, a)) gen_unop sub);
        (1, map2 (fun a n -> Ast.Member (a, n)) sub gen_ident);
        (1, map2 (fun a k -> Ast.Index (a, k)) sub sub);
        (1, map2 (fun f args -> Ast.Call (f, args)) sub (list_size (int_bound 2) sub));
        (1, map2 (fun f args -> Ast.New (f, args)) sub (list_size (int_bound 2) sub));
        (1, map3 (fun c t f -> Ast.Cond (c, t, f)) sub sub sub);
        (1, map2 (fun l e -> Ast.Assign (l, e)) lv sub);
        (1, map2 (fun a b -> Ast.Comma (a, b)) sub sub);
        (1, map (fun es -> Ast.Array_lit es) (list_size (int_bound 3) sub));
        ( 1,
          map
            (fun kvs -> Ast.Object_lit kvs)
            (list_size (int_bound 2) (pair gen_ident sub)) );
        ( 1,
          map2
            (fun params body -> Ast.Func { fname = None; params; body })
            (list_size (int_bound 2) gen_ident)
            (gen_stmts (depth - 1)) );
        ( 1,
          map3
            (fun l op pos -> Ast.Update (l, op, pos))
            lv
            (oneofl Ast.[ Incr; Decr ])
            (oneofl Ast.[ Prefix; Postfix ]) );
      ]

and gen_lvalue depth =
  let open QCheck.Gen in
  if depth = 0 then map (fun v -> Ast.L_var v) gen_ident
  else
    oneof
      [
        map (fun v -> Ast.L_var v) gen_ident;
        map2 (fun e n -> Ast.L_member (e, n)) (gen_expr (depth - 1)) gen_ident;
        map2 (fun e k -> Ast.L_index (e, k)) (gen_expr (depth - 1)) (gen_expr (depth - 1));
      ]

and gen_stmt depth =
  let open QCheck.Gen in
  let sub_e = gen_expr depth in
  if depth = 0 then map (fun e -> Ast.Expr_stmt e) sub_e
  else
    (* Construct recursive sub-generators only on this branch: building
       them before the depth check would recurse forever. *)
    let body = gen_stmts (depth - 1) in
    frequency
      [
        (3, map (fun e -> Ast.Expr_stmt e) sub_e);
        ( 2,
          map
            (fun decls -> Ast.Var_decl decls)
            (list_size (int_range 1 2) (pair gen_ident (opt sub_e))) );
        (1, map3 (fun c t f -> Ast.If (c, t, f)) sub_e body body);
        (1, map2 (fun c b -> Ast.While (c, b)) sub_e body);
        (1, map2 (fun b c -> Ast.Do_while (b, c)) body sub_e);
        (1, map (fun e -> Ast.Return e) (opt sub_e));
        (1, return Ast.Break);
        (1, return Ast.Continue);
        (1, map (fun e -> Ast.Throw e) sub_e);
        (1, map (fun b -> Ast.Block b) body);
        ( 1,
          map3
            (fun name params b -> Ast.Func_decl { fname = Some name; params; body = b })
            gen_ident
            (list_size (int_bound 2) gen_ident)
            body );
        ( 1,
          map2
            (fun (name, cb) b -> Ast.Try (b, Some (name, cb), None))
            (pair gen_ident body) body );
        (1, map2 (fun (k, e) b -> Ast.For_in (k, e, b)) (pair gen_ident sub_e) body);
      ]

and gen_stmts depth = QCheck.Gen.(list_size (int_bound 3) (gen_stmt depth))

let gen_program = QCheck.Gen.(list_size (int_range 1 5) (gen_stmt 3))

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"minijs: parse (print ast) = ast" ~count:500
    (QCheck.make ~print:Pretty.program_to_string gen_program) (fun prog ->
      let printed = Pretty.program_to_string prog in
      match Parser.parse printed with
      | reparsed -> reparsed = prog
      | exception _ -> false)

(* ------------------------------------------------------------------ *)
(* Arithmetic vs reference evaluator                                   *)
(* ------------------------------------------------------------------ *)

type arith = Num of float | Bin of Ast.binop * arith * arith | Neg_a of arith

let rec arith_to_expr = function
  | Num n -> Ast.Number n
  | Bin (op, a, b) -> Ast.Binop (op, arith_to_expr a, arith_to_expr b)
  | Neg_a a -> Ast.Unop (Ast.Neg, arith_to_expr a)

let rec arith_eval = function
  | Num n -> n
  | Neg_a a -> -.arith_eval a
  | Bin (op, a, b) -> (
      let x = arith_eval a and y = arith_eval b in
      match op with
      | Ast.Add -> x +. y
      | Ast.Sub -> x -. y
      | Ast.Mul -> x *. y
      | Ast.Div -> x /. y
      | Ast.Mod -> Float.rem x y
      | _ -> assert false)

let gen_arith =
  let open QCheck.Gen in
  let rec go depth =
    if depth = 0 then map (fun n -> Num (float_of_int n)) (int_range (-50) 50)
    else
      frequency
        [
          (2, map (fun n -> Num (float_of_int n)) (int_range (-50) 50));
          ( 3,
            map3
              (fun op a b -> Bin (op, a, b))
              (oneofl Ast.[ Add; Sub; Mul; Div; Mod ])
              (go (depth - 1)) (go (depth - 1)) );
          (1, map (fun a -> Neg_a a) (go (depth - 1)));
        ]
  in
  go 4

let prop_arithmetic_reference =
  QCheck.Test.make ~name:"minijs: arithmetic matches reference" ~count:500
    (QCheck.make gen_arith) (fun a ->
      let vm = Interp.create ~sink:Wr_mem.Access.discard () in
      let prog = [ Ast.Var_decl [ ("r", Some (arith_to_expr a)) ] ] in
      Interp.run_in_global vm prog;
      match Hashtbl.find_opt vm.Value.global.Value.vars "r" with
      | Some { contents = Value.Number got } ->
          let expected = arith_eval a in
          (Float.is_nan got && Float.is_nan expected) || got = expected
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Detector properties on random schedules                             *)
(* ------------------------------------------------------------------ *)

(* A random "execution": a DAG over n ops plus a sequence of accesses in
   op-id order (accesses by an op happen when it runs; running order is a
   topological order, and ascending op id is one). *)
let gen_execution =
  let open QCheck.Gen in
  int_range 3 12 >>= fun n ->
  list_size (int_bound (2 * n)) (pair (int_bound (n - 1)) (int_bound (n - 1))) >>= fun edges ->
  list_size (int_range 1 25)
    (triple (int_bound (n - 1)) (int_bound 4) bool)
  >|= fun accesses -> (n, edges, accesses)

let build_execution (n, edges, accesses) =
  let g = Graph.create () in
  for i = 0 to n - 1 do
    ignore (Graph.fresh g Op.Script ~label:(string_of_int i))
  done;
  List.iter (fun (a, b) -> if a < b then Graph.add_edge g a b else if b < a then Graph.add_edge g b a) edges;
  (* Deliver accesses in ascending op order (a valid schedule). *)
  let sorted = List.stable_sort (fun (o1, _, _) (o2, _, _) -> compare o1 o2) accesses in
  let feed (d : Wr_detect.Detector.t) =
    List.iter
      (fun (op, cell, is_write) ->
        let loc = Location.Js_var { cell; name = "v" ^ string_of_int cell; key = cell } in
        Wr_detect.Detector.record_access d
          { Access.loc; kind = (if is_write then `Write else `Read); op; flags = []; context = "" })
      sorted
  in
  (g, feed)

let prop_reported_races_are_chc =
  QCheck.Test.make ~name:"detector: reported pairs are concurrent" ~count:300
    (QCheck.make gen_execution) (fun exec ->
      let g, feed = build_execution exec in
      let d = Wr_detect.Last_access.create g in
      feed d;
      List.for_all
        (fun (r : Wr_detect.Race.t) ->
          Graph.chc g r.Wr_detect.Race.first.Access.op r.Wr_detect.Race.second.Access.op)
        (d.Wr_detect.Detector.races ()))

let prop_full_track_recall =
  QCheck.Test.make ~name:"detector: full-track finds >= last-access" ~count:300
    (QCheck.make gen_execution) (fun exec ->
      let g1, feed1 = build_execution exec in
      let d1 = Wr_detect.Last_access.create g1 in
      feed1 d1;
      let g2, feed2 = build_execution exec in
      let d2 = Wr_detect.Full_track.create g2 in
      feed2 d2;
      List.length (d2.Wr_detect.Detector.races ())
      >= List.length (d1.Wr_detect.Detector.races ()))

(* ------------------------------------------------------------------ *)
(* Event plan phase ordering                                           *)
(* ------------------------------------------------------------------ *)

let phase_rank = function
  | Wr_events.Events.Capture -> 0
  | Wr_events.Events.At_target -> 1
  | Wr_events.Events.Bubble -> 2

let gen_registrations =
  (* Registrations over a 3-node path: (node in 0..2, capture?). *)
  QCheck.Gen.(list_size (int_bound 8) (pair (int_bound 2) bool))

let prop_plan_phase_order =
  QCheck.Test.make ~name:"events: plan is capture, target, bubble" ~count:300
    (QCheck.make gen_registrations) (fun regs ->
      let reg : int Wr_events.Events.t = Wr_events.Events.create (Wr_mem.Instr.null ()) in
      List.iteri
        (fun i (node, capture) ->
          ignore (Wr_events.Events.add_listener reg ~target:node ~event:"click" ~capture i))
        regs;
      let plan = Wr_events.Events.plan reg ~path:[ 0; 1; 2 ] ~event:"click" ~bubbles:true in
      let ranks = List.map (fun s -> phase_rank s.Wr_events.Events.phase) plan in
      List.sort compare ranks = ranks
      &&
      (* Capture walks down (0 then 1), bubble walks up (1 then 0). *)
      let capture_nodes =
        List.filter_map
          (fun (s : int Wr_events.Events.step) ->
            if s.Wr_events.Events.phase = Wr_events.Events.Capture then
              Some s.Wr_events.Events.current_target
            else None)
          plan
      in
      let bubble_nodes =
        List.filter_map
          (fun (s : int Wr_events.Events.step) ->
            if s.Wr_events.Events.phase = Wr_events.Events.Bubble then
              Some s.Wr_events.Events.current_target
            else None)
          plan
      in
      List.sort compare capture_nodes = capture_nodes
      && List.sort (fun a b -> compare b a) bubble_nodes = bubble_nodes)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
    QCheck_alcotest.to_alcotest prop_arithmetic_reference;
    QCheck_alcotest.to_alcotest prop_reported_races_are_chc;
    QCheck_alcotest.to_alcotest prop_full_track_recall;
    QCheck_alcotest.to_alcotest prop_plan_phase_order;
  ]

(* ------------------------------------------------------------------ *)
(* Robustness fuzz: malformed input must never escape as exceptions    *)
(* ------------------------------------------------------------------ *)

let gen_tag_soup =
  (* Strings biased toward markup characters to stress the HTML parser. *)
  QCheck.Gen.(
    string_size ~gen:(oneofl [ '<'; '>'; '/'; '"'; '\''; '='; '!'; '-'; 'a'; 'b'; ' '; '\n' ])
      (int_bound 60))

let prop_html_parse_total =
  QCheck.Test.make ~name:"html: parse is total on tag soup" ~count:500
    (QCheck.make ~print:(Printf.sprintf "%S") gen_tag_soup) (fun soup ->
      match Wr_html.Html.parse soup with
      | _ -> true
      | exception _ -> false)

let prop_analyze_total_on_soup =
  QCheck.Test.make ~name:"webracer: analyze is total on tag soup" ~count:60
    (QCheck.make ~print:(Printf.sprintf "%S") gen_tag_soup) (fun soup ->
      match Webracer.analyze (Webracer.config ~page:soup ~explore:true ()) with
      | _ -> true
      | exception _ -> false)

let gen_script_soup =
  (* Script bodies built from JS-ish fragments: crashes must be swallowed
     by the browser, never escape the analyzer. *)
  QCheck.Gen.(
    list_size (int_bound 6)
      (oneofl
         [
           "x = x + 1;"; "var y = missing();"; "document.getElementById(\"nope\").value = 1;";
           "setTimeout(function () { z = 1; }, 5);"; "throw new Error(\"boom\");";
           "for (;;) { break; }"; "({)"; "if (x"; "document.write(\"<p>w</p>\");";
           "JSON.parse(\"{bad\");"; "new XMLHttpRequest().send();";
         ])
    >|= String.concat "\n")

let prop_analyze_total_on_script_soup =
  QCheck.Test.make ~name:"webracer: analyze survives crashing scripts" ~count:80
    (QCheck.make ~print:(Printf.sprintf "%S") gen_script_soup) (fun body ->
      let page = "<div id=\"d\">x</div><script>" ^ body ^ "</script>" in
      match Webracer.analyze (Webracer.config ~page ~explore:true ()) with
      | _ -> true
      | exception _ -> false)

let fuzz_suite =
  [
    QCheck_alcotest.to_alcotest prop_html_parse_total;
    QCheck_alcotest.to_alcotest prop_analyze_total_on_soup;
    QCheck_alcotest.to_alcotest prop_analyze_total_on_script_soup;
  ]

let suite = suite @ fuzz_suite

let prop_analyze_total_on_generated_programs =
  QCheck.Test.make ~name:"webracer: analyze survives arbitrary generated programs" ~count:60
    (QCheck.make ~print:Pretty.program_to_string gen_program) (fun prog ->
      (* Whatever a syntactically valid program does — throw, loop into the
         fuel limit, mangle the DOM — analysis completes and reports. *)
      let page = "<div id=\"host\">x</div><script>" ^ Pretty.program_to_string prog ^ "</script>" in
      let cfg =
        { (Webracer.config ~page ~explore:true ()) with Webracer.Config.fuel = 100_000 }
      in
      match Webracer.analyze cfg with
      | report -> report.Webracer.ops > 0
      | exception _ -> false)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_analyze_total_on_generated_programs ]
