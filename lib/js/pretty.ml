open Ast

(* Integers print without a format string: small non-negative ones
   (array indices, counters) come from a shared table, the others are
   written digit by digit. *)
let small_ints = Array.init 1024 string_of_int

let rec put_digits b n k =
  Bytes.unsafe_set b k (Char.unsafe_chr (48 + (n mod 10)));
  if n >= 10 then put_digits b (n / 10) (k - 1)

let rec count_digits n acc = if n < 10 then acc else count_digits (n / 10) (acc + 1)

let int_to_string i =
  if i >= 0 && i < Array.length small_ints then Array.unsafe_get small_ints i
  else if i = min_int then string_of_int i
  else begin
    let a = abs i in
    let len = count_digits a 1 + Bool.to_int (i < 0) in
    let b = Bytes.create len in
    if i < 0 then Bytes.unsafe_set b 0 '-';
    put_digits b a (len - 1);
    Bytes.unsafe_to_string b
  end

let number_to_string n =
  if Float.is_integer n && Float.abs n < 1e15 && not (Float.sign_bit n && n = 0.) then
    (* Array indices and counters: exact in an int, no format string. -0.
       takes the general path, which renders it "-0". *)
    int_to_string (int_of_float n)
  else if Float.is_nan n then "NaN"
  else if n = Float.infinity then "Infinity"
  else if n = Float.neg_infinity then "-Infinity"
  else if Float.is_integer n && Float.abs n < 1e21 then Printf.sprintf "%.0f" n
  else
    (* Shortest decimal that round-trips. *)
    let s = Printf.sprintf "%.12g" n in
    if float_of_string s = n then s else Printf.sprintf "%.17g" n

let string_literal s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\x%02x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* Everything non-atomic is wrapped in parentheses, so operator precedence
   never needs reconstructing and expression statements can never be
   mistaken for blocks or function declarations. *)
let rec expr buf e =
  match e with
  | Number n -> Buffer.add_string buf (number_to_string n)
  | String s -> Buffer.add_string buf (string_literal s)
  | Regex_lit (body, fl) ->
      Buffer.add_char buf '/';
      Buffer.add_string buf body;
      Buffer.add_char buf '/';
      Buffer.add_string buf fl
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Null -> Buffer.add_string buf "null"
  | Ident name -> Buffer.add_string buf name
  | This -> Buffer.add_string buf "this"
  | _ ->
      Buffer.add_char buf '(';
      compound buf e;
      Buffer.add_char buf ')'

and compound buf e =
  match e with
  | Number _ | String _ | Regex_lit _ | Bool _ | Null | Ident _ | This -> expr buf e
  | Func { fname; params; body } ->
      Buffer.add_string buf "function";
      (match fname with
      | Some name ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf name
      | None -> ());
      Buffer.add_char buf '(';
      Buffer.add_string buf (String.concat ", " params);
      Buffer.add_string buf ") ";
      block buf body
  | Object_lit props ->
      Buffer.add_string buf "{ ";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (string_literal k);
          Buffer.add_string buf ": ";
          expr buf v)
        props;
      Buffer.add_string buf " }"
  | Array_lit elems ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          expr buf v)
        elems;
      Buffer.add_char buf ']'
  | Member (e, name) ->
      (* A numeric base must be parenthesized: "7.x" would lex "7." as the
         number and strand the property name. *)
      (match e with
      | Number _ ->
          Buffer.add_char buf '(';
          expr buf e;
          Buffer.add_char buf ')'
      | _ -> expr buf e);
      Buffer.add_char buf '.';
      Buffer.add_string buf name
  | Index (e, k) ->
      expr buf e;
      Buffer.add_char buf '[';
      expr buf k;
      Buffer.add_char buf ']'
  | Call (f, args) ->
      expr buf f;
      arg_list buf args
  | New (f, args) ->
      Buffer.add_string buf "new ";
      expr buf f;
      arg_list buf args
  | Assign (lv, e) ->
      lvalue buf lv;
      Buffer.add_string buf " = ";
      expr buf e
  | Op_assign (lv, op, e) ->
      lvalue buf lv;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (binop_name op);
      Buffer.add_string buf "= ";
      expr buf e
  | Update (lv, op, pos) ->
      let sym = match op with Incr -> "++" | Decr -> "--" in
      (match pos with
      | Prefix ->
          Buffer.add_string buf sym;
          lvalue buf lv
      | Postfix ->
          lvalue buf lv;
          Buffer.add_string buf sym)
  | Binop (op, a, b) ->
      expr buf a;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (binop_name op);
      Buffer.add_char buf ' ';
      expr buf b
  | Unop (op, a) ->
      Buffer.add_string buf (unop_name op);
      expr buf a
  | Cond (c, t, f) ->
      expr buf c;
      Buffer.add_string buf " ? ";
      expr buf t;
      Buffer.add_string buf " : ";
      expr buf f
  | Comma (a, b) ->
      expr buf a;
      Buffer.add_string buf ", ";
      expr buf b

(* An assignment target prints exactly like its expression form at
   compound level: bare identifier, or the [Member]/[Index] cases above
   (including the numeric-base parenthesization). *)
and lvalue buf lv = compound buf (expr_of_lvalue lv)

and arg_list buf args =
  Buffer.add_char buf '(';
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_string buf ", ";
      expr buf a)
    args;
  Buffer.add_char buf ')'

and block buf stmts =
  Buffer.add_string buf "{ ";
  List.iter
    (fun s ->
      stmt buf s;
      Buffer.add_char buf ' ')
    stmts;
  Buffer.add_char buf '}'

and var_decls buf decls =
  Buffer.add_string buf "var ";
  List.iteri
    (fun i (name, init) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf name;
      match init with
      | Some e ->
          Buffer.add_string buf " = ";
          expr buf e
      | None -> ())
    decls

and stmt buf s =
  match s with
  | Expr_stmt e ->
      expr buf e;
      Buffer.add_char buf ';'
  | Var_decl decls ->
      var_decls buf decls;
      Buffer.add_char buf ';'
  | Func_decl { fname; params; body } ->
      Buffer.add_string buf "function ";
      Buffer.add_string buf (Option.value fname ~default:"_anonymous");
      Buffer.add_char buf '(';
      Buffer.add_string buf (String.concat ", " params);
      Buffer.add_string buf ") ";
      block buf body
  | If (cond, then_, else_) ->
      Buffer.add_string buf "if (";
      compound buf cond;
      Buffer.add_string buf ") ";
      block buf then_;
      if else_ <> [] then begin
        Buffer.add_string buf " else ";
        block buf else_
      end
  | While (cond, body) ->
      Buffer.add_string buf "while (";
      compound buf cond;
      Buffer.add_string buf ") ";
      block buf body
  | Do_while (body, cond) ->
      Buffer.add_string buf "do ";
      block buf body;
      Buffer.add_string buf " while (";
      compound buf cond;
      Buffer.add_string buf ");"
  | For (init, cond, step, body) ->
      Buffer.add_string buf "for (";
      (match init with
      | Some (Init_decl decls) -> var_decls buf decls
      | Some (Init_expr e) -> expr buf e
      | None -> ());
      Buffer.add_string buf "; ";
      (match cond with Some e -> expr buf e | None -> ());
      Buffer.add_string buf "; ";
      (match step with Some e -> expr buf e | None -> ());
      Buffer.add_string buf ") ";
      block buf body
  | For_in (name, obj, body) ->
      Buffer.add_string buf "for (var ";
      Buffer.add_string buf name;
      Buffer.add_string buf " in ";
      expr buf obj;
      Buffer.add_string buf ") ";
      block buf body
  | Return None -> Buffer.add_string buf "return;"
  | Return (Some e) ->
      Buffer.add_string buf "return ";
      expr buf e;
      Buffer.add_char buf ';'
  | Break -> Buffer.add_string buf "break;"
  | Continue -> Buffer.add_string buf "continue;"
  | Throw e ->
      Buffer.add_string buf "throw ";
      expr buf e;
      Buffer.add_char buf ';'
  | Try (body, catch, finally) ->
      Buffer.add_string buf "try ";
      block buf body;
      (match catch with
      | Some (name, cbody) ->
          Buffer.add_string buf " catch (";
          Buffer.add_string buf name;
          Buffer.add_string buf ") ";
          block buf cbody
      | None -> ());
      (match finally with
      | Some fbody ->
          Buffer.add_string buf " finally ";
          block buf fbody
      | None -> ())
  | Switch (scrutinee, cases) ->
      Buffer.add_string buf "switch (";
      compound buf scrutinee;
      Buffer.add_string buf ") { ";
      List.iter
        (fun (guard, body) ->
          (match guard with
          | Some g ->
              Buffer.add_string buf "case ";
              expr buf g;
              Buffer.add_string buf ": "
          | None -> Buffer.add_string buf "default: ");
          List.iter
            (fun s ->
              stmt buf s;
              Buffer.add_char buf ' ')
            body)
        cases;
      Buffer.add_char buf '}'
  | Block stmts ->
      Buffer.add_string buf "{ ";
      List.iter
        (fun s ->
          stmt buf s;
          Buffer.add_char buf ' ')
        stmts;
      Buffer.add_char buf '}'
  | Empty -> Buffer.add_char buf ';'

let expr_to_string e =
  let buf = Buffer.create 64 in
  expr buf e;
  Buffer.contents buf

let program_to_string p =
  let buf = Buffer.create 256 in
  List.iter
    (fun s ->
      stmt buf s;
      Buffer.add_char buf '\n')
    p;
  Buffer.contents buf
