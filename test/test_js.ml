(* Unit tests for the MiniJS lexer, parser, and interpreter. *)

open Wr_js

let run_and_read src name =
  let vm = Interp.create ~sink:Wr_mem.Access.discard () in
  Interp.run_in_global vm (Parser.parse src);
  match Hashtbl.find_opt vm.Value.global.Value.vars name with
  | Some cell -> !cell
  | None -> Alcotest.failf "global %s not defined after running %s" name src

let check_number src name expected =
  match run_and_read src name with
  | Value.Number n -> Alcotest.(check (float 1e-9)) (src ^ " -> " ^ name) expected n
  | v -> Alcotest.failf "%s: expected number, got %s" src (Value.describe v)

let check_string src name expected =
  match run_and_read src name with
  | Value.String s -> Alcotest.(check string) (src ^ " -> " ^ name) expected s
  | v -> Alcotest.failf "%s: expected string, got %s" src (Value.describe v)

let check_bool src name expected =
  match run_and_read src name with
  | Value.Bool b -> Alcotest.(check bool) (src ^ " -> " ^ name) expected b
  | v -> Alcotest.failf "%s: expected bool, got %s" src (Value.describe v)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let test_lexer_numbers () =
  let toks = Lexer.tokenize "42 3.14 0x10 1e3 .5" in
  let nums =
    Array.to_list toks
    |> List.filter_map (fun { Lexer.tok; _ } ->
           match tok with Lexer.T_number n -> Some n | _ -> None)
  in
  Alcotest.(check (list (float 1e-9))) "numbers" [ 42.; 3.14; 16.; 1000.; 0.5 ] nums

let test_lexer_strings () =
  let toks = Lexer.tokenize {|'a' "b\n" "\x41" 'it\'s'|} in
  let strs =
    Array.to_list toks
    |> List.filter_map (fun { Lexer.tok; _ } ->
           match tok with Lexer.T_string s -> Some s | _ -> None)
  in
  Alcotest.(check (list string)) "strings" [ "a"; "b\n"; "A"; "it's" ] strs

let test_lexer_comments () =
  let toks = Lexer.tokenize "a // line\n b /* block\n more */ c" in
  let idents =
    Array.to_list toks
    |> List.filter_map (fun { Lexer.tok; _ } ->
           match tok with Lexer.T_ident s -> Some s | _ -> None)
  in
  Alcotest.(check (list string)) "idents" [ "a"; "b"; "c" ] idents

let test_lexer_punct_longest_match () =
  let toks = Lexer.tokenize "a >>>= b === c >>> d" in
  let puncts =
    Array.to_list toks
    |> List.filter_map (fun { Lexer.tok; _ } ->
           match tok with Lexer.T_punct s -> Some s | _ -> None)
  in
  Alcotest.(check (list string)) "puncts" [ ">>>="; "==="; ">>>" ] puncts

let test_lexer_errors () =
  Alcotest.check_raises "unterminated string"
    (Lexer.Lex_error ("unterminated string literal", 1, 6))
    (fun () -> ignore (Lexer.tokenize "\"oops"));
  (match Lexer.tokenize "@" with
  | exception Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "expected lex error on @")

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parser_precedence () =
  let e = Parser.parse_expression "1 + 2 * 3" in
  (match e with
  | Ast.Binop (Ast.Add, Ast.Number 1., Ast.Binop (Ast.Mul, Ast.Number 2., Ast.Number 3.)) -> ()
  | _ -> Alcotest.failf "wrong tree: %s" (Pretty.expr_to_string e));
  let e = Parser.parse_expression "a || b && c" in
  match e with
  | Ast.Binop (Ast.Or, Ast.Ident "a", Ast.Binop (Ast.And, Ast.Ident "b", Ast.Ident "c")) -> ()
  | _ -> Alcotest.failf "wrong tree: %s" (Pretty.expr_to_string e)

let test_parser_assoc () =
  (* Left associativity of -, right associativity of assignment. *)
  (match Parser.parse_expression "10 - 3 - 2" with
  | Ast.Binop (Ast.Sub, Ast.Binop (Ast.Sub, _, _), Ast.Number 2.) -> ()
  | e -> Alcotest.failf "wrong tree: %s" (Pretty.expr_to_string e));
  match Parser.parse_expression "a = b = 1" with
  | Ast.Assign (Ast.L_var "a", Ast.Assign (Ast.L_var "b", Ast.Number 1.)) -> ()
  | e -> Alcotest.failf "wrong tree: %s" (Pretty.expr_to_string e)

let test_parser_member_chain () =
  match Parser.parse_expression "a.b[0].c(1)(2)" with
  | Ast.Call (Ast.Call (Ast.Member (Ast.Index (Ast.Member (Ast.Ident "a", "b"), Ast.Number 0.), "c"), [ Ast.Number 1. ]), [ Ast.Number 2. ]) ->
      ()
  | e -> Alcotest.failf "wrong tree: %s" (Pretty.expr_to_string e)

let test_parser_statements () =
  let prog =
    Parser.parse
      "function f(a) { if (a) { return 1; } else { return 2; } }\n\
       var x = f(1), y;\n\
       for (var i = 0; i < 3; i++) { x = x + i; }\n\
       try { throw x; } catch (e) { y = e; } finally { }\n"
  in
  Alcotest.(check int) "statement count" 4 (List.length prog)

let test_parser_asi () =
  (* Newline-terminated statements without semicolons. *)
  let prog = Parser.parse "var a = 1\nvar b = 2\nb = a + b" in
  Alcotest.(check int) "three statements" 3 (List.length prog)

let test_parser_for_in () =
  match Parser.parse "for (var k in obj) { touch(k); }" with
  | [ Ast.For_in ("k", Ast.Ident "obj", _) ] -> ()
  | _ -> Alcotest.fail "for-in did not parse"

let test_parser_new () =
  match Parser.parse_expression "new Foo(1).bar" with
  | Ast.Member (Ast.New (Ast.Ident "Foo", [ Ast.Number 1. ]), "bar") -> ()
  | e -> Alcotest.failf "wrong tree: %s" (Pretty.expr_to_string e)

let test_parse_error_position () =
  match Parser.parse "var = 3;" with
  | exception Parser.Parse_error (_, 1, col) -> Alcotest.(check int) "column" 5 col
  | _ -> Alcotest.fail "expected parse error"

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

let test_arith () =
  check_number "var r = 1 + 2 * 3 - 4 / 2;" "r" 5.;
  check_number "var r = 10 % 3;" "r" 1.;
  check_string "var r = 'a' + 1;" "r" "a1";
  check_number "var r = '5' * '2';" "r" 10.;
  check_number "var r = (1 << 4) | 3;" "r" 19.

let test_truthiness_and_equality () =
  check_bool "var r = ('' == false);" "r" true;
  check_bool "var r = (null == undefined);" "r" true;
  check_bool "var r = (null === undefined);" "r" false;
  check_bool "var r = (1 == '1');" "r" true;
  check_bool "var r = (1 === '1');" "r" false;
  check_bool "var r = (NaN == NaN);" "r" false

let test_closures () =
  check_number
    "function counter() { var n = 0; return function() { n = n + 1; return n; }; }\n\
     var c = counter(); c(); c(); var r = c();"
    "r" 3.

let test_objects_and_prototypes () =
  check_number
    "function Point(x, y) { this.x = x; this.y = y; }\n\
     Point.prototype.norm1 = function() { return Math.abs(this.x) + Math.abs(this.y); };\n\
     var p = new Point(3, -4); var r = p.norm1();"
    "r" 7.;
  check_bool "function A() {} var a = new A(); var r = (a instanceof A);" "r" true

let test_arrays () =
  check_number "var a = [1, 2, 3]; a.push(4); var r = a.length;" "r" 4.;
  check_string "var a = [1, 2, 3]; var r = a.join('-');" "r" "1-2-3";
  check_number "var a = [5, 6]; var r = a.pop() + a.length;" "r" 7.;
  check_number "var a = []; a[5] = 1; var r = a.length;" "r" 6.;
  check_number "var a = [1,2,3].map(function(x) { return x * 2; }); var r = a[2];" "r" 6.

let test_string_methods () =
  check_number "var r = 'hello'.length;" "r" 5.;
  check_string "var r = 'hello world'.substring(6, 11);" "r" "world";
  check_string "var r = 'a,b,c'.split(',')[1];" "r" "b";
  check_string "var r = 'aXbXc'.replace('X', '-');" "r" "a-bXc";
  check_number "var r = 'abcabc'.indexOf('c', 3);" "r" 5.

let test_control_flow () =
  check_number
    "var r = 0; for (var i = 0; i < 10; i++) { if (i % 2 === 0) { continue; } if (i > 7) { break; } r = r + i; }"
    "r" 16.;
  check_number "var r = 0; var i = 0; while (i < 5) { r += i; i++; }" "r" 10.;
  check_number "var r = 0; var i = 0; do { r++; i++; } while (i < 3);" "r" 3.;
  check_string
    "var r = ''; switch (2) { case 1: r += 'a'; case 2: r += 'b'; case 3: r += 'c'; break; case 4: r += 'd'; }"
    "r" "bc";
  check_string
    "var r = ''; switch (9) { case 1: r += 'a'; break; default: r += 'z'; }" "r" "z"

let test_exceptions () =
  check_string
    "var r; try { throw new TypeError('boom'); } catch (e) { r = e.name + ':' + e.message; }"
    "r" "TypeError:boom";
  check_string "var r = ''; try { r += 'a'; } finally { r += 'f'; }" "r" "af";
  (* The finally clause runs before the call returns, but the outer read of
     r in "r + f()" already happened: JS evaluates left-to-right. *)
  check_string
    "var r = ''; function f() { try { return 'x'; } finally { r = r + 'fin'; } }\n\
     r = r + f();"
    "r" "x";
  check_string
    "var log = ''; function f() { try { return 'x'; } finally { log += 'fin'; } }\n\
     var r = f() + log;"
    "r" "xfin";
  check_string
    "var r; try { undefinedFn(); } catch (e) { r = e.name; }" "r" "ReferenceError";
  check_string "var r; try { var o; o.x = 1; } catch (e) { r = e.name; }" "r" "TypeError"

let test_hoisting () =
  (* Function declarations are usable before their textual position. *)
  check_number "var r = f(); function f() { return 42; }" "r" 42.;
  (* var hoisting: assignment before declaration still targets the local. *)
  check_string "var r = typeof x; var x = 1;" "r" "undefined"

let test_typeof_undeclared () =
  check_string "var r = typeof nothingHere;" "r" "undefined"

let test_for_in () =
  check_string
    "var o = { a: 1, b: 2 }; var keys = []; for (var k in o) { keys.push(k); } var r = keys.join(',');"
    "r" "a,b"

let test_function_call_apply () =
  check_number
    "function add(a, b) { return this.base + a + b; }\n\
     var r = add.call({ base: 100 }, 1, 2) + add.apply({ base: 10 }, [3, 4]);"
    "r" 120.

let test_fuel_exhaustion () =
  let vm = Interp.create ~fuel:10_000 ~sink:Wr_mem.Access.discard () in
  match Interp.run_in_global vm (Parser.parse "while (true) {}") with
  | exception Value.Fuel_exhausted -> ()
  | () -> Alcotest.fail "expected fuel exhaustion"

let test_math_random_seeded () =
  let sample seed =
    let vm = Interp.create ~seed ~sink:Wr_mem.Access.discard () in
    Interp.run_in_global vm (Parser.parse "var r = Math.random();");
    match Hashtbl.find_opt vm.Value.global.Value.vars "r" with
    | Some { contents = Value.Number n } -> n
    | _ -> Alcotest.fail "no r"
  in
  Alcotest.(check (float 0.)) "same seed same stream" (sample 7) (sample 7);
  if sample 7 = sample 8 then Alcotest.fail "different seeds should differ"

let test_date_virtual_clock () =
  let vm = Interp.create ~sink:Wr_mem.Access.discard () in
  vm.Value.now <- (fun () -> 12345.);
  Interp.run_in_global vm (Parser.parse "var r = Date.now() + (new Date()).getTime();");
  match Hashtbl.find_opt vm.Value.global.Value.vars "r" with
  | Some { contents = Value.Number n } -> Alcotest.(check (float 0.)) "virtual time" 24690. n
  | _ -> Alcotest.fail "no r"

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

let accesses_of src =
  let log = ref [] in
  let vm = Interp.create
      ~sink:(fun loc kind op flags context ->
        log := { Wr_mem.Access.loc; kind; op; flags; context } :: !log)
      () in
  (try Interp.run_in_global vm (Parser.parse src) with Value.Js_throw _ -> ());
  List.rev !log

let test_instrument_variable_accesses () =
  let acc = accesses_of "var x = 1; var y = x + 1;" in
  let writes =
    List.filter
      (fun (a : Wr_mem.Access.t) ->
        a.kind = `Write
        && match a.loc with Wr_mem.Location.Js_var { name; _ } -> name = "x" | _ -> false)
      acc
  in
  Alcotest.(check int) "one write to x" 1 (List.length writes);
  let reads =
    List.filter
      (fun (a : Wr_mem.Access.t) ->
        a.kind = `Read
        && match a.loc with Wr_mem.Location.Js_var { name; _ } -> name = "x" | _ -> false)
      acc
  in
  Alcotest.(check int) "one read of x" 1 (List.length reads)

(* Locations are interned: a frame slot caches its location and a
   property or global resolves through the VM's cell table, so a second
   read yields the very same location value. *)
let test_instrument_locations_interned () =
  let acc =
    accesses_of
      "var o = {p: 1}; function f() { var x = 1; var y = x + x; return o.p + o.p; } f();"
  in
  let reads name =
    List.filter_map
      (fun (a : Wr_mem.Access.t) ->
        match a.loc, a.kind with
        | Wr_mem.Location.Js_var { name = n; _ }, `Read when n = name -> Some a.loc
        | _ -> None)
      acc
  in
  List.iter
    (fun (what, name) ->
      match reads name with
      | [ l1; l2 ] -> Alcotest.(check bool) (what ^ ": physically equal") true (l1 == l2)
      | ls -> Alcotest.failf "%s: expected two reads of %s, got %d" what name (List.length ls))
    [ ("local", "x"); ("property", "p"); ("global", "o") ]

let test_instrument_function_decl_flag () =
  let acc = accesses_of "function g() { return 1; }" in
  let decl_writes =
    List.filter (fun a -> Wr_mem.Access.has_flag a Wr_mem.Access.Function_decl) acc
  in
  Alcotest.(check int) "hoisted declaration write" 1 (List.length decl_writes)

let test_instrument_call_miss () =
  let acc = accesses_of "missingFn();" in
  let miss_calls =
    List.filter
      (fun a ->
        Wr_mem.Access.has_flag a Wr_mem.Access.Observed_miss
        && Wr_mem.Access.has_flag a Wr_mem.Access.Call_position)
      acc
  in
  Alcotest.(check int) "call-position miss" 1 (List.length miss_calls)

let test_instrument_property_miss_identity () =
  (* A property read miss and the later write must land on the same cell. *)
  let acc = accesses_of "var o = {}; var v = o.f; o.f = 1;" in
  let cells_f =
    List.filter_map
      (fun (a : Wr_mem.Access.t) ->
        match a.loc with
        | Wr_mem.Location.Js_var { cell; name = "f"; _ } -> Some (cell, a.kind)
        | _ -> None)
      acc
  in
  match cells_f with
  | [ (c1, `Read); (c2, `Write) ] -> Alcotest.(check int) "same cell" c1 c2
  | _ -> Alcotest.failf "unexpected accesses on f (%d)" (List.length cells_f)

let test_closure_shared_cell_identity () =
  (* Two closures over the same local share one logical cell. *)
  let acc =
    accesses_of
      "function mk() { var shared = 0; return [function() { shared = 1; }, function() { return shared; }]; }\n\
       var fs = mk(); fs[0](); fs[1]();"
  in
  let cells =
    List.filter_map
      (fun (a : Wr_mem.Access.t) ->
        match a.loc with
        | Wr_mem.Location.Js_var { cell; name = "shared"; _ } -> Some cell
        | _ -> None)
      acc
  in
  match List.sort_uniq compare cells with
  | [ _ ] -> ()
  | l -> Alcotest.failf "expected one shared cell, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Scope edge cases (expected values from ES5 §10.5 and §12.14)       *)
(* ------------------------------------------------------------------ *)

let test_scope_duplicate_params () =
  (* The last of two same-named parameters wins, even when it is unbound. *)
  check_number "function f(a, a) { return a; } var r = f(1, 2);" "r" 2.;
  check_string "function f(a, a) { return typeof a; } var r = f(1);" "r" "undefined"

let test_scope_param_named_arguments () =
  (* A parameter named [arguments] suppresses the arguments object. *)
  check_string "function f(arguments) { return typeof arguments; } var r = f(5);" "r" "number";
  check_number "function f(arguments) { return arguments; } var r = f(5);" "r" 5.

let test_scope_var_redeclares_param () =
  check_number "function f(p) { var p; return p; } var r = f(7);" "r" 7.;
  check_number "function f(p) { var p = p + 1; return p; } var r = f(7);" "r" 8.

let test_scope_func_decl_shadows_param () =
  check_string "function f(p) { function p() {} return typeof p; } var r = f(7);" "r"
    "function"

let test_scope_var_in_catch () =
  (* [var e] hoists to the function, but its initializer assigns the catch
     parameter, the innermost binding. *)
  check_string
    "function f() { try { throw 1; } catch (e) { var e = 2; } return typeof e; } var r = f();"
    "r" "undefined";
  check_number
    "function f() { var seen; try { throw 1; } catch (e) { var e = 2; seen = e; } return seen; }
     var r = f();"
    "r" 2.

let test_scope_func_decl_in_catch () =
  (* A declaration in a catch block hoists to the function and closes over
     the function scope; an expression there closes over the catch scope. *)
  check_string
    "function f() { try { throw 1; } catch (e) { function g() { return typeof e; } } return g(); }
     var r = f();"
    "r" "undefined";
  check_number
    "function f() { var h; try { throw 3; } catch (e) { h = function () { return e; }; } return h(); }
     var r = f();"
    "r" 3.

let test_scope_loop_closures_share_var () =
  check_string
    "var fs = []; for (var i = 0; i < 3; i++) { fs.push(function () { return i; }); }
     var r = fs[0]() + ',' + fs[1]() + ',' + fs[2]();"
    "r" "3,3,3";
  check_string
    "function mk() { var fs = []; for (var i = 0; i < 3; i++) { fs.push(function () { return i; }); } return fs; }
     var fs = mk(); var r = fs[0]() + ',' + fs[2]();"
    "r" "3,3"

let test_scope_inner_arguments () =
  check_number
    "function outer() { function inner() { return arguments.length; } return inner(1, 2, 3); }
     var r = outer(9);"
    "r" 3.;
  check_number
    "function outer(a) { var inner = function () { return arguments[0]; }; return inner(a + 1) + arguments[0]; }
     var r = outer(10);"
    "r" 21.

let test_scope_typeof_undeclared_in_function () =
  check_string "function f() { return typeof nowhere; } var r = f();" "r" "undefined";
  check_string "function f() { function g() { return typeof nowhere; } return g(); } var r = f();"
    "r" "undefined"

let test_scope_implicit_global_from_nested () =
  check_number "function f() { function g() { leaked = 5; } g(); } f(); var r = leaked;" "r" 5.;
  check_number
    "function f() { var local = 1; function g() { local = 2; shadowless = local + 1; } g(); return local; }
     var r = f() + shadowless;"
    "r" 5.

let suite =
  [
    Alcotest.test_case "lexer: numbers" `Quick test_lexer_numbers;
    Alcotest.test_case "lexer: strings" `Quick test_lexer_strings;
    Alcotest.test_case "lexer: comments" `Quick test_lexer_comments;
    Alcotest.test_case "lexer: longest-match puncts" `Quick test_lexer_punct_longest_match;
    Alcotest.test_case "lexer: errors" `Quick test_lexer_errors;
    Alcotest.test_case "parser: precedence" `Quick test_parser_precedence;
    Alcotest.test_case "parser: associativity" `Quick test_parser_assoc;
    Alcotest.test_case "parser: member chains" `Quick test_parser_member_chain;
    Alcotest.test_case "parser: statements" `Quick test_parser_statements;
    Alcotest.test_case "parser: semicolon insertion" `Quick test_parser_asi;
    Alcotest.test_case "parser: for-in" `Quick test_parser_for_in;
    Alcotest.test_case "parser: new expressions" `Quick test_parser_new;
    Alcotest.test_case "parser: error positions" `Quick test_parse_error_position;
    Alcotest.test_case "interp: arithmetic" `Quick test_arith;
    Alcotest.test_case "interp: equality" `Quick test_truthiness_and_equality;
    Alcotest.test_case "interp: closures" `Quick test_closures;
    Alcotest.test_case "interp: objects/prototypes" `Quick test_objects_and_prototypes;
    Alcotest.test_case "interp: arrays" `Quick test_arrays;
    Alcotest.test_case "interp: string methods" `Quick test_string_methods;
    Alcotest.test_case "interp: control flow" `Quick test_control_flow;
    Alcotest.test_case "interp: exceptions" `Quick test_exceptions;
    Alcotest.test_case "interp: hoisting" `Quick test_hoisting;
    Alcotest.test_case "interp: typeof undeclared" `Quick test_typeof_undeclared;
    Alcotest.test_case "interp: for-in" `Quick test_for_in;
    Alcotest.test_case "interp: call/apply" `Quick test_function_call_apply;
    Alcotest.test_case "interp: fuel exhaustion" `Quick test_fuel_exhaustion;
    Alcotest.test_case "interp: seeded Math.random" `Quick test_math_random_seeded;
    Alcotest.test_case "interp: virtual Date" `Quick test_date_virtual_clock;
    Alcotest.test_case "instr: variable accesses" `Quick test_instrument_variable_accesses;
    Alcotest.test_case "instr: function-decl flag" `Quick test_instrument_function_decl_flag;
    Alcotest.test_case "instr: locations interned" `Quick test_instrument_locations_interned;
    Alcotest.test_case "instr: call miss" `Quick test_instrument_call_miss;
    Alcotest.test_case "instr: property miss identity" `Quick test_instrument_property_miss_identity;
    Alcotest.test_case "instr: closure shared cell" `Quick test_closure_shared_cell_identity;
  ]

(* --- stdlib extensions ------------------------------------------------ *)

let test_json_stringify () =
  check_string
    {|var r = JSON.stringify({ b: [1, 2, "x"], a: true, n: null });|} "r"
    {|{"a":true,"b":[1,2,"x"],"n":null}|};
  check_string {|var r = JSON.stringify("a\"b\n");|} "r" {|"a\"b\n"|};
  check_string {|var r = JSON.stringify(42.5);|} "r" "42.5";
  check_string
    {|var r; try { var o = {}; o.self = o; JSON.stringify(o); } catch (e) { r = e.name; }|}
    "r" "TypeError"

let test_json_parse () =
  check_number {|var r = JSON.parse("[1, 2, 3]")[1];|} "r" 2.;
  check_string {|var r = JSON.parse("{\"k\": \"v\"}").k;|} "r" "v";
  check_bool {|var r = JSON.parse("true");|} "r" true;
  check_number {|var r = JSON.parse("-1.5e2");|} "r" (-150.);
  check_string
    {|var r; try { JSON.parse("{oops}"); } catch (e) { r = e.name; }|} "r" "SyntaxError"

let test_json_roundtrip () =
  check_string
    {|var o = { list: [1, "two", false], nested: { k: 3 } };
var r = JSON.stringify(JSON.parse(JSON.stringify(o)));|}
    "r" {|{"list":[1,"two",false],"nested":{"k":3}}|}

let test_array_sort () =
  check_string {|var r = [3, 1, 10, 2].sort().join(",");|} "r" "1,10,2,3";
  check_string
    {|var r = [3, 1, 10, 2].sort(function (a, b) { return a - b; }).join(",");|} "r"
    "1,2,3,10";
  check_string {|var r = [1, 2, 3].reverse().join(",");|} "r" "3,2,1"

let test_string_from_char_code () =
  check_string {|var r = String.fromCharCode(72, 105);|} "r" "Hi"

let extra_suite =
  [
    Alcotest.test_case "stdlib: JSON.stringify" `Quick test_json_stringify;
    Alcotest.test_case "stdlib: JSON.parse" `Quick test_json_parse;
    Alcotest.test_case "stdlib: JSON roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "stdlib: Array.sort/reverse" `Quick test_array_sort;
    Alcotest.test_case "stdlib: String.fromCharCode" `Quick test_string_from_char_code;
  ]

let suite = suite @ extra_suite

let test_number_to_string_boundaries () =
  let cases =
    [
      (0., "0"); (3., "3"); (-3., "-3"); (3.5, "3.5"); (1e21, "1e+21");
      (0.1, "0.1"); (Float.nan, "NaN"); (Float.infinity, "Infinity");
      (Float.neg_infinity, "-Infinity");
    ]
  in
  List.iter
    (fun (n, expected) ->
      Alcotest.(check string) (Printf.sprintf "%f" n) expected (Pretty.number_to_string n))
    cases

(* Expected values are what node prints for the same expressions. *)
let test_split_limit () =
  check_string "var r = 'a-b-c'.split('-', 2).join('|');" "r" "a|b";
  check_string "var r = 'a-b-c'.split(/-/, 2).join('|');" "r" "a|b";
  check_number "var r = 'a-b-c'.split('-', 0).length;" "r" 0.;
  check_string "var r = 'a-b-c'.split('-', -1).join('|');" "r" "a|b|c";
  check_string "var r = 'abc'.split('', 2).join('|');" "r" "a|b"

let test_array_index_of_from () =
  check_number "var r = [1, 2, 3].indexOf(2, 5);" "r" (-1.);
  check_number "var r = [1, 2, 3].indexOf(2, -2);" "r" 1.;
  check_number "var r = [1, 2, 3].indexOf(1, -2);" "r" (-1.);
  check_number "var r = [1, 2, 3].indexOf(3, -10);" "r" 2.;
  check_number "var r = [1, 2, 3].indexOf(2, 1);" "r" 1.;
  check_number "var r = [1, 2, 3].indexOf(2, 2);" "r" (-1.)

let test_parse_int_hex_prefix () =
  check_number "var r = parseInt('0x1f');" "r" 31.;
  check_number "var r = parseInt('0X1F', 0);" "r" 31.;
  check_number "var r = parseInt('0x1f', 16);" "r" 31.;
  check_number "var r = parseInt('0x1f', 10);" "r" 0.;
  check_number "var r = parseInt('-0x1f');" "r" (-31.);
  check_bool "var r = isNaN(parseInt('0x'));" "r" true

(* ES5 §9.5 ToInt32 and §9.6 ToUint32, as node evaluates them. *)
let test_int32_conversions () =
  check_number "var r = -1 >>> 0;" "r" 4294967295.;
  check_number "var r = -1 >>> 1;" "r" 2147483647.;
  check_number "var r = 5 >>> 33;" "r" 2.;
  check_number "var r = 4294967297 >>> 0;" "r" 1.;
  check_number "var r = 1e20 >>> 0;" "r" 1661992960.;
  check_number "var r = -1e20 | 0;" "r" (-1661992960.)

(* Allocation table: minor words per loop iteration of one construct,
   run inside a function so its variables are frame slots. Each page is
   analyzed twice and the second run measured, as in the webracer
   suite's per-element budget; the difference between two iteration
   counts leaves the cost of one iteration. Each bound is about 1.15x
   what the interpreter reads. What is left: the [i++] result (a
   [Number] and its float, 4 words), one [Hashtbl.find_opt] option per
   global write and property read, and per call the argument list, the
   frame with its two arrays, the locations of the callee's slots and
   the return completion. *)
let construct_page ~setup ~body n =
  Printf.sprintf
    "<html><body><script>var g = 0; function f() { %s for (var i = 0; i < %d; i++) { %s } } \
     f();</script></body></html>"
    setup n body

let words_per_iteration ~setup ~body =
  let words n =
    let page = construct_page ~setup ~body n in
    let run () = Webracer.analyze (Webracer.config ~page ~seed:1 ~explore:false ()) in
    ignore (Sys.opaque_identity (run ()));
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (run ()));
    Gc.minor_words () -. before
  in
  let lo = 500 and hi = 2_500 in
  (words hi -. words lo) /. float_of_int (hi - lo)

let test_construct_allocation_table () =
  List.iter
    (fun (name, setup, body, bound) ->
      let w = words_per_iteration ~setup ~body in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f words/iteration (bound %.1f)" name w bound)
        true (w < bound))
    [
      ("empty for", "", "", 4.6);
      ("s=s+i", "var s = 0;", "s = s + i;", 9.2);
      ("i===5", "", "i === 5;", 4.6);
      ("global write", "", "g = i;", 6.9);
      ("o.a", "var o = {a: 1};", "o.a;", 6.9);
      ("a[1]", "var a = [1, 2];", "a[1];", 6.9);
      ("s=f(s,i)", "var s = 0; function h(x, y) { return x + y; }", "s = h(s, i);", 42.5);
      ("a.push(i)", "var a = [];", "a.push(i);", 30.5);
      ( "replace(/[0-9]+/g) on 30 chars",
        "var t = 'abc123def456ghi789jkl012mno345';",
        "t.replace(/[0-9]+/g, 'x');",
        1715. );
    ]

(* Appended last so the indices of the earlier cases stay put. *)
let suite =
  suite
  @ [
      Alcotest.test_case "number rendering" `Quick test_number_to_string_boundaries;
      Alcotest.test_case "scope: duplicate params" `Quick test_scope_duplicate_params;
      Alcotest.test_case "scope: param named arguments" `Quick test_scope_param_named_arguments;
      Alcotest.test_case "scope: var redeclares param" `Quick test_scope_var_redeclares_param;
      Alcotest.test_case "scope: function decl shadows param" `Quick
        test_scope_func_decl_shadows_param;
      Alcotest.test_case "scope: var inside catch" `Quick test_scope_var_in_catch;
      Alcotest.test_case "scope: function decl inside catch" `Quick test_scope_func_decl_in_catch;
      Alcotest.test_case "scope: loop closures share a var" `Quick
        test_scope_loop_closures_share_var;
      Alcotest.test_case "scope: inner function arguments" `Quick test_scope_inner_arguments;
      Alcotest.test_case "scope: typeof undeclared in function" `Quick
        test_scope_typeof_undeclared_in_function;
      Alcotest.test_case "scope: implicit global from nested" `Quick
        test_scope_implicit_global_from_nested;
      Alcotest.test_case "String.prototype.split limit" `Quick test_split_limit;
      Alcotest.test_case "Array.prototype.indexOf fromIndex" `Quick test_array_index_of_from;
      Alcotest.test_case "parseInt hex prefix" `Quick test_parse_int_hex_prefix;
      Alcotest.test_case "bitwise ToInt32/ToUint32" `Quick test_int32_conversions;
      Alcotest.test_case "allocation per construct" `Quick test_construct_allocation_table;
    ]
