open Value
module Access = Wr_mem.Access
module Location = Wr_mem.Location

type completion = C_normal | C_break | C_continue | C_return of Value.t

(* The access goes to the sink as its fields: no record is built. *)
let emit vm ~flags loc kind =
  if vm.instrument then vm.sink loc kind vm.current_op flags vm.context

let tick vm =
  vm.fuel <- vm.fuel - 1;
  if vm.fuel <= 0 then raise Fuel_exhausted

let refuel vm = vm.fuel <- vm.fuel_limit

let call_flags = [ Access.Call_position ]

let decl_flags = [ Access.Function_decl ]

(* A miss adds [Observed_miss] to its site's flags. Sites pass [[]] or
   [call_flags], so both miss lists are built once: a shared list costs
   nothing per miss and lets the detector's dedup check decide on
   physical equality. *)
let miss_flags = [ Access.Observed_miss ]

let call_miss_flags = Access.Observed_miss :: call_flags

let with_miss flags =
  if flags == [] then miss_flags
  else if flags == call_flags then call_miss_flags
  else Access.Observed_miss :: flags

(* Computed booleans come from the two constant values. *)
let of_bool b = if b then Bool true else Bool false

(* ------------------------------------------------------------------ *)
(* Variable access                                                     *)
(* ------------------------------------------------------------------ *)

(* Globals live in a table, interned on (global scope, name). A read of an
   unbound name is a miss on the global cell; [strict] reads then throw
   the ReferenceError, the others ([typeof], the read half of [x += e])
   yield undefined. *)
let read_global_var vm ~flags ~strict name =
  let loc = cell_loc vm ~owner:vm.global.scope_id name in
  match Hashtbl.find_opt vm.global.vars name with
  | Some cell ->
      emit vm ~flags loc `Read;
      !cell
  | None ->
      emit vm ~flags:(with_miss flags) loc `Read;
      if strict then throw_error vm "ReferenceError" (name ^ " is not defined") else Undefined

let write_global_var vm ~flags name v =
  let cell = Hashtbl.find_opt vm.global.vars name in
  emit vm ~flags (cell_loc vm ~owner:vm.global.scope_id name) `Write;
  match cell with
  | Some cell -> cell := v
  | None -> (* Sloppy-mode implicit global. *) Hashtbl.replace vm.global.vars name (ref v)

let declare_global vm name =
  if not (Hashtbl.mem vm.global.vars name) then Hashtbl.add vm.global.vars name (ref Undefined)

(* A slot's location is built on the slot's first access, minting its
   cell id and key as [cell_loc] mints a property's, and cached in the
   frame. *)
let emit_slot vm ~flags env slot name kind =
  let loc =
    let loc = env.cells.(slot) in
    if loc != unset_cell then loc
    else begin
      let loc = Location.Js_var { cell = fresh_id vm; name; key = fresh_key vm } in
      env.cells.(slot) <- loc;
      loc
    end
  in
  emit vm ~flags loc kind

let rec frame_at env depth =
  if depth = 0 then env
  else frame_at env.parent (depth - 1)

(* Compile-time scopes mirror the runtime frames: a function scope holds
   its parameters, [arguments], hoisted vars and function declarations; a
   catch scope its one parameter. [None] is the global scope. *)
type scope = { names : (string, int) Hashtbl.t; outer : scope option }

type binding = Local of int * int  (** frames up, slot *) | Global

let resolve sc name =
  let rec go sc depth =
    match sc with
    | None -> Global
    | Some { names; outer } -> (
        match Hashtbl.find_opt names name with
        | Some slot -> Local (depth, slot)
        | None -> go outer (depth + 1))
  in
  go sc 0

let compile_read vm sc ~flags ~strict name =
  match resolve sc name with
  | Global -> fun _ -> read_global_var vm ~flags ~strict name
  | Local (0, slot) ->
      fun env ->
        emit_slot vm ~flags env slot name `Read;
        env.slots.(slot)
  | Local (depth, slot) ->
      fun env ->
        let f = frame_at env depth in
        emit_slot vm ~flags f slot name `Read;
        f.slots.(slot)

let compile_write vm sc ~flags name =
  match resolve sc name with
  | Global -> fun _ v -> write_global_var vm ~flags name v
  | Local (0, slot) ->
      fun env v ->
        emit_slot vm ~flags env slot name `Write;
        env.slots.(slot) <- v
  | Local (depth, slot) ->
      fun env v ->
        let f = frame_at env depth in
        emit_slot vm ~flags f slot name `Write;
        f.slots.(slot) <- v

(* ------------------------------------------------------------------ *)
(* Property access                                                     *)
(* ------------------------------------------------------------------ *)

(* A read walks [obj]'s prototype chain from [o] to the owner of [name]
   and reports the owner's cell; a miss reports the base object's. The
   walk takes its state as arguments, so it builds no closure. *)
let rec get_prop_from vm ~flags obj o name =
  match Hashtbl.find_opt o.props name with
  | Some cell ->
      emit vm ~flags (cell_loc vm ~owner:o.oid name) `Read;
      !cell
  | None -> (
      match o.proto with
      | Some p -> get_prop_from vm ~flags obj p name
      | None ->
          emit vm ~flags:(with_miss flags) (cell_loc vm ~owner:obj.oid name) `Read;
          Undefined)

let get_prop vm ~flags obj name =
  match obj.host with
  | Some h -> (
      match h.host_get vm obj name with
      | Some v -> v
      | None -> get_prop_from vm ~flags obj obj name)
  | None -> get_prop_from vm ~flags obj obj name

let is_array_index name =
  name <> "" && String.for_all (fun c -> c >= '0' && c <= '9') name

let set_prop_plain vm obj name v =
  emit vm ~flags:[] (cell_loc vm ~owner:obj.oid name) `Write;
  (* Array length bookkeeping: implicit engine writes stay raw. *)
  if obj.class_name = "Array" then begin
    if is_array_index name then begin
      let idx = int_of_string name in
      let len =
        match get_prop_raw obj "length" with Some (Number n) -> int_of_float n | _ -> 0
      in
      if idx >= len then set_prop_raw obj "length" (Number (float_of_int (idx + 1)))
    end
    else if name = "length" then begin
      let new_len = int_of_float (to_number v) in
      let old_len =
        match get_prop_raw obj "length" with Some (Number n) -> int_of_float n | _ -> 0
      in
      for i = new_len to old_len - 1 do
        Hashtbl.remove obj.props (Pretty.int_to_string i)
      done
    end
  end;
  set_prop_raw obj name v

let set_prop vm obj name v =
  match obj.host with
  | Some h when h.host_set vm obj name v -> ()
  | Some _ | None -> set_prop_plain vm obj name v

let member vm ~flags base name =
  match base with
  | Object obj -> get_prop vm ~flags obj name
  | String s -> (
      match Builtins.string_member vm s name with
      | Some v -> v
      | None -> Undefined)
  | Number n -> (
      match Builtins.number_member vm n name with
      | Some v -> v
      | None -> Undefined)
  | Bool _ -> Undefined
  | Undefined | Null ->
      throw_error vm "TypeError"
        (Printf.sprintf "Cannot read property '%s' of %s" name (describe base))

(* ------------------------------------------------------------------ *)
(* Calls and operators                                                 *)
(* ------------------------------------------------------------------ *)

let call_function vm f ~this argv ~what =
  match f with
  | Object { call = Some (Builtin (_, fn)); _ } -> fn vm ~this argv
  | Object { call = Some (Closure cl); _ } -> cl.code.enter cl.env ~this argv
  | _ -> throw_error vm "TypeError" (Printf.sprintf "%s is not a function" what)

let construct vm f argv =
  match f with
  | Object fobj when fobj.call <> None ->
      let proto =
        match get_prop_raw fobj "prototype" with
        | Some (Object p) -> p
        | Some _ | None -> vm.object_proto
      in
      let class_name =
        match fobj.call with
        | Some (Builtin (("Array" | "Date" | "Error" | "TypeError" | "ReferenceError" | "RangeError") as n, _)) ->
            if n = "Array" then "Array" else if n = "Date" then "Date" else "Error"
        | _ -> "Object"
      in
      let obj = new_object vm ~proto ~class_name () in
      let result = call_function vm f ~this:(Object obj) argv ~what:"constructor" in
      (match result with Object _ -> result | _ -> Object obj)
  | _ -> throw_error vm "TypeError" (describe f ^ " is not a constructor")

(* The comparison is chosen by a match, not passed as a closure, so the
   operands are compared unboxed. *)
let compare_op vm op a b =
  let pa = to_primitive vm a and pb = to_primitive vm b in
  match pa, pb with
  | String x, String y ->
      let c = String.compare x y in
      of_bool
        (match op with
        | Ast.Lt -> c < 0
        | Ast.Le -> c <= 0
        | Ast.Gt -> c > 0
        | _ -> c >= 0)
  | _ ->
      let x = to_number pa and y = to_number pb in
      if Float.is_nan x || Float.is_nan y then Bool false
      else
        of_bool
          (match op with
          | Ast.Lt -> x < y
          | Ast.Le -> x <= y
          | Ast.Gt -> x > y
          | _ -> x >= y)

(* [key in obj]: the read of [get_prop_from], without the value. *)
let rec has_prop_from vm obj o key =
  if Hashtbl.mem o.props key then begin
    emit vm ~flags:[] (cell_loc vm ~owner:o.oid key) `Read;
    Bool true
  end
  else
    match o.proto with
    | Some p -> has_prop_from vm obj p key
    | None ->
        emit vm ~flags:miss_flags (cell_loc vm ~owner:obj.oid key) `Read;
        Bool false

let binop vm op a b =
  match op with
  | Ast.Add -> (
      let pa = to_primitive vm a and pb = to_primitive vm b in
      match pa, pb with
      | String _, _ | _, String _ -> String (to_string vm pa ^ to_string vm pb)
      | _ -> Number (to_number pa +. to_number pb))
  | Ast.Sub -> Number (to_number a -. to_number b)
  | Ast.Mul -> Number (to_number a *. to_number b)
  | Ast.Div -> Number (to_number a /. to_number b)
  | Ast.Mod -> Number (Float.rem (to_number a) (to_number b))
  | Ast.Eq -> of_bool (loose_equals vm a b)
  | Ast.Neq -> of_bool (not (loose_equals vm a b))
  | Ast.Strict_eq -> of_bool (strict_equals a b)
  | Ast.Strict_neq -> of_bool (not (strict_equals a b))
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> compare_op vm op a b
  | Ast.And | Ast.Or -> assert false (* short-circuited by the compiler *)
  | Ast.Bit_and -> Number (Int32.to_float (Int32.logand (to_int32 a) (to_int32 b)))
  | Ast.Bit_or -> Number (Int32.to_float (Int32.logor (to_int32 a) (to_int32 b)))
  | Ast.Bit_xor -> Number (Int32.to_float (Int32.logxor (to_int32 a) (to_int32 b)))
  | Ast.Shl ->
      Number (Int32.to_float (Int32.shift_left (to_int32 a) (Int32.to_int (to_int32 b) land 31)))
  | Ast.Shr ->
      Number (Int32.to_float (Int32.shift_right (to_int32 a) (Int32.to_int (to_int32 b) land 31)))
  | Ast.Ushr -> Number (float_of_int (to_uint32 a lsr (to_uint32 b land 31)))
  | Ast.Instanceof -> (
      match b with
      | Object fobj when fobj.call <> None -> (
          match get_prop_raw fobj "prototype" with
          | Some (Object proto) ->
              let rec walk = function
                | Some p -> if p == proto then true else walk p.proto
                | None -> false
              in
              (match a with Object o -> of_bool (walk o.proto) | _ -> Bool false)
          | Some _ | None -> Bool false)
      | _ -> throw_error vm "TypeError" "right-hand side of instanceof is not callable")
  | Ast.In -> (
      let key = to_string vm a in
      match b with
      | Object obj -> has_prop_from vm obj obj key
      | _ -> throw_error vm "TypeError" "right-hand side of 'in' is not an object")

let unop op v =
  match op with
  | Ast.Neg -> Number (-.to_number v)
  | Ast.Plus -> Number (to_number v)
  | Ast.Not -> of_bool (not (to_boolean v))
  | Ast.Bit_not -> Number (Int32.to_float (Int32.lognot (to_int32 v)))
  | Ast.Typeof -> String (type_of v)
  | Ast.Void -> Undefined
  | Ast.Delete -> Bool true

let set_member vm base name v =
  match base with
  | Object obj -> set_prop vm obj name v
  | Undefined | Null ->
      throw_error vm "TypeError"
        (Printf.sprintf "Cannot set property '%s' of %s" name (describe base))
  | Bool _ | Number _ | String _ -> ()

(* ------------------------------------------------------------------ *)
(* Hoisting (paper §4.1 "Functions")                                   *)
(* ------------------------------------------------------------------ *)

(* Collect var-declared names and function declarations in a function
   body, not descending into nested function bodies. Runs once per
   function, when it is compiled. *)
let rec hoist_stmts acc stmts = List.fold_left hoist_stmt acc stmts

and hoist_stmt (vars, funcs) stmt =
  match stmt with
  | Ast.Var_decl decls -> (List.rev_append (List.map fst decls) vars, funcs)
  | Ast.Func_decl f -> (vars, f :: funcs)
  | Ast.If (_, a, b) -> hoist_stmts (hoist_stmts (vars, funcs) a) b
  | Ast.While (_, body) | Ast.Do_while (body, _) -> hoist_stmts (vars, funcs) body
  | Ast.For (init, _, _, body) ->
      let vars =
        match init with
        | Some (Ast.Init_decl decls) -> List.rev_append (List.map fst decls) vars
        | Some (Ast.Init_expr _) | None -> vars
      in
      hoist_stmts (vars, funcs) body
  | Ast.For_in (name, _, body) -> hoist_stmts (name :: vars, funcs) body
  | Ast.Try (body, catch, finally) ->
      let acc = hoist_stmts (vars, funcs) body in
      let acc = match catch with Some (_, c) -> hoist_stmts acc c | None -> acc in
      ( match finally with Some f -> hoist_stmts acc f | None -> acc)
  | Ast.Switch (_, cases) ->
      List.fold_left (fun acc (_, body) -> hoist_stmts acc body) (vars, funcs) cases
  | Ast.Block body -> hoist_stmts (vars, funcs) body
  | Ast.Expr_stmt _ | Ast.Return _ | Ast.Break | Ast.Continue | Ast.Throw _ | Ast.Empty ->
      (vars, funcs)

(* Whether a function body (not its nested functions) can read its
   [arguments] binding; only then is the object worth building. *)
let rec expr_reads_arguments acc (e : Ast.expr) =
  acc
  ||
  match e with
  | Ast.Ident "arguments"
  | Ast.Assign (Ast.L_var "arguments", _)
  | Ast.Op_assign (Ast.L_var "arguments", _, _)
  | Ast.Update (Ast.L_var "arguments", _, _) ->
      true
  | Ast.Func _ -> false
  | _ -> Ast.fold_expr_children expr_reads_arguments stmt_reads_arguments false e

and stmt_reads_arguments acc (s : Ast.stmt) =
  acc
  ||
  match s with
  | Ast.Func_decl _ -> false
  | _ -> Ast.fold_stmt_children expr_reads_arguments stmt_reads_arguments false s

(* ------------------------------------------------------------------ *)
(* The compiler                                                        *)
(* ------------------------------------------------------------------ *)

(* Each AST node compiles once into an OCaml closure over its compiled
   children, with every variable resolved to a frame slot or the global
   table. Fuel: one tick per expression node evaluated, per statement
   executed and per closure call; a [Member]/[Ident] callee and the
   operand of [typeof x] are part of their parent node. *)

let constant vm v =
 fun _ ->
  tick vm;
  v

let rec run_seq ss n env i =
  if i = n then C_normal
  else match ss.(i) env with C_normal -> run_seq ss n env (i + 1) | c -> c

(* Left to right, so the last of two same-named parameters wins, even
   when it has no argument. *)
let rec bind_params slots params argv =
  match params, argv with
  | [], _ -> ()
  | p :: params, v :: argv ->
      slots.(p) <- v;
      bind_params slots params argv
  | p :: params, [] ->
      slots.(p) <- Undefined;
      bind_params slots params []

(* A frame's two arrays are built inline up to eight slots, which covers
   nearly every function: [Array.make] is a C call, and an array literal
   of more than four constants is a copied constant, so the fill value
   comes in as an argument. *)
let new_slots n (u : Value.t) =
  match n with
  | 0 -> [||]
  | 1 -> [| u |]
  | 2 -> [| u; u |]
  | 3 -> [| u; u; u |]
  | 4 -> [| u; u; u; u |]
  | 5 -> [| u; u; u; u; u |]
  | 6 -> [| u; u; u; u; u; u |]
  | 7 -> [| u; u; u; u; u; u; u |]
  | 8 -> [| u; u; u; u; u; u; u; u |]
  | n -> Array.make n u

let new_cells n (c : Location.t) =
  match n with
  | 0 -> [||]
  | 1 -> [| c |]
  | 2 -> [| c; c |]
  | 3 -> [| c; c; c |]
  | 4 -> [| c; c; c; c |]
  | 5 -> [| c; c; c; c; c |]
  | 6 -> [| c; c; c; c; c; c |]
  | 7 -> [| c; c; c; c; c; c; c |]
  | 8 -> [| c; c; c; c; c; c; c; c |]
  | n -> Array.make n c

(* Function declarations are installed at frame entry, in order. *)
let rec install_hoisted frame = function
  | [] -> ()
  | (make, write) :: rest ->
      let v = make frame in
      write frame v;
      install_hoisted frame rest

let rec do_while_loop body cond env =
  match body env with
  | C_normal | C_continue -> if to_boolean (cond env) then do_while_loop body cond env else C_normal
  | C_break -> C_normal
  | C_return _ as r -> r

let rec for_loop cond step body env =
  if cond env then
    match body env with
    | C_normal | C_continue ->
        step env;
        for_loop cond step body env
    | C_break -> C_normal
    | C_return _ as r -> r
  else C_normal

let rec compile_expr vm sc (e : Ast.expr) : env -> t =
  match e with
  | Ast.Number n -> constant vm (Number n)
  | Ast.String s -> constant vm (String s)
  | Ast.Regex_lit (pattern, flags) ->
      fun _ ->
        tick vm;
        Builtins.make_regexp vm ~pattern ~flags
  | Ast.Bool b -> constant vm (Bool b)
  | Ast.Null -> constant vm Null
  | Ast.This ->
      fun env ->
        tick vm;
        env.this
  | Ast.Ident "undefined" -> constant vm Undefined
  | Ast.Ident "NaN" -> constant vm (Number Float.nan)
  | Ast.Ident "Infinity" -> constant vm (Number Float.infinity)
  | Ast.Ident name ->
      let read = compile_read vm sc ~flags:[] ~strict:true name in
      fun env ->
        tick vm;
        read env
  | Ast.Func f ->
      let make = compile_closure vm sc f in
      fun env ->
        tick vm;
        make env
  | Ast.Object_lit props ->
      let props = List.map (fun (k, ve) -> (k, compile_expr vm sc ve)) props in
      fun env ->
        tick vm;
        let obj = new_object vm () in
        List.iter (fun (k, ve) -> set_prop vm obj k (ve env)) props;
        Object obj
  | Ast.Array_lit elems ->
      let elems = compile_args vm sc elems in
      fun env ->
        tick vm;
        Object (new_array vm (elems env))
  | Ast.Member (be, name) ->
      let base = compile_expr vm sc be in
      fun env ->
        tick vm;
        member vm ~flags:[] (base env) name
  | Ast.Index (be, ke) ->
      let base = compile_expr vm sc be and key = compile_expr vm sc ke in
      fun env ->
        tick vm;
        let b = base env in
        let k = to_string vm (key env) in
        member vm ~flags:[] b k
  | Ast.Call (callee, args) -> compile_call vm sc callee (compile_args vm sc args)
  | Ast.New (fe, args) ->
      let f = compile_expr vm sc fe and args = compile_args vm sc args in
      fun env ->
        tick vm;
        let fv = f env in
        let argv = args env in
        construct vm fv argv
  | Ast.Assign (lv, re) -> compile_assign vm sc lv (compile_expr vm sc re)
  | Ast.Op_assign (lv, op, re) -> compile_op_assign vm sc lv op (compile_expr vm sc re)
  | Ast.Update (lv, op, pos) -> compile_update vm sc lv op pos
  | Ast.Binop (Ast.And, a, b) ->
      let a = compile_expr vm sc a and b = compile_expr vm sc b in
      fun env ->
        tick vm;
        let va = a env in
        if to_boolean va then b env else va
  | Ast.Binop (Ast.Or, a, b) ->
      let a = compile_expr vm sc a and b = compile_expr vm sc b in
      fun env ->
        tick vm;
        let va = a env in
        if to_boolean va then va else b env
  | Ast.Binop (op, a, b) ->
      let a = compile_expr vm sc a and b = compile_expr vm sc b in
      fun env ->
        tick vm;
        (* JS evaluates left to right; OCaml's argument order is
           unspecified, so sequence explicitly. *)
        let va = a env in
        let vb = b env in
        binop vm op va vb
  | Ast.Unop (Ast.Typeof, Ast.Ident name) ->
      (* typeof never throws on undeclared names. *)
      let read = compile_read vm sc ~flags:[] ~strict:false name in
      fun env ->
        tick vm;
        String (type_of (read env))
  | Ast.Unop (Ast.Delete, e) -> compile_delete vm sc e
  | Ast.Unop (op, e) ->
      let e = compile_expr vm sc e in
      fun env ->
        tick vm;
        unop op (e env)
  | Ast.Cond (c, t, f) ->
      let c = compile_expr vm sc c and t = compile_expr vm sc t and f = compile_expr vm sc f in
      fun env ->
        tick vm;
        if to_boolean (c env) then t env else f env
  | Ast.Comma (a, b) ->
      let a = compile_expr vm sc a and b = compile_expr vm sc b in
      fun env ->
        tick vm;
        ignore (a env);
        b env

(* Argument lists evaluate left to right. *)
and compile_args vm sc args : env -> t list =
  match List.map (compile_expr vm sc) args with
  | [] -> fun _ -> []
  | [ a ] -> fun env -> [ a env ]
  | [ a; b ] ->
      fun env ->
        let va = a env in
        [ va; b env ]
  | args -> fun env -> List.map (fun a -> a env) args

and compile_call vm sc callee args =
  match callee with
  | Ast.Member (be, name) ->
      let base = compile_expr vm sc be in
      fun env ->
        tick vm;
        let b = base env in
        let f = member vm ~flags:call_flags b name in
        let argv = args env in
        call_function vm f ~this:b argv ~what:name
  | Ast.Index (be, ke) ->
      let base = compile_expr vm sc be and key = compile_expr vm sc ke in
      fun env ->
        tick vm;
        let b = base env in
        let k = to_string vm (key env) in
        let f = member vm ~flags:call_flags b k in
        let argv = args env in
        call_function vm f ~this:b argv ~what:k
  | Ast.Ident name ->
      let read = compile_read vm sc ~flags:call_flags ~strict:true name in
      fun env ->
        tick vm;
        let f = read env in
        let argv = args env in
        call_function vm f ~this:vm.global_this argv ~what:name
  | _ ->
      let callee = compile_expr vm sc callee in
      fun env ->
        tick vm;
        let f = callee env in
        let argv = args env in
        call_function vm f ~this:vm.global_this argv ~what:"(expression)"

and compile_assign vm sc lv rhs =
  match lv with
  | Ast.L_var name ->
      let write = compile_write vm sc ~flags:[] name in
      fun env ->
        tick vm;
        let v = rhs env in
        write env v;
        v
  | Ast.L_member (be, name) ->
      let base = compile_expr vm sc be in
      fun env ->
        tick vm;
        let b = base env in
        let v = rhs env in
        set_member vm b name v;
        v
  | Ast.L_index (be, ke) ->
      let base = compile_expr vm sc be and key = compile_expr vm sc ke in
      fun env ->
        tick vm;
        let b = base env in
        let k = to_string vm (key env) in
        let v = rhs env in
        set_member vm b k v;
        v

(* [o.x op= e] evaluates [o] twice: once for the target, once for the
   read of the current value. An unbound [x] in [x op= e] reads as
   undefined (a recorded miss) and then becomes an implicit global. *)
and compile_op_assign vm sc lv op rhs =
  match lv with
  | Ast.L_var name ->
      let read = compile_read vm sc ~flags:[] ~strict:false name
      and write = compile_write vm sc ~flags:[] name in
      fun env ->
        tick vm;
        let cur = read env in
        let v = binop vm op cur (rhs env) in
        write env v;
        v
  | Ast.L_member (be, name) ->
      let base = compile_expr vm sc be in
      fun env ->
        tick vm;
        let b = base env in
        let cur = member vm ~flags:[] (base env) name in
        let v = binop vm op cur (rhs env) in
        set_member vm b name v;
        v
  | Ast.L_index (be, ke) ->
      let base = compile_expr vm sc be and key = compile_expr vm sc ke in
      fun env ->
        tick vm;
        let b = base env in
        let k = to_string vm (key env) in
        let cur =
          let b' = base env in
          let k' = to_string vm (key env) in
          member vm ~flags:[] b' k'
        in
        let v = binop vm op cur (rhs env) in
        set_member vm b k v;
        v

(* [x++] and friends: the current value is read first, then the target
   is evaluated again for the write. *)
and compile_update vm sc lv op pos =
  let is_incr = op = Ast.Incr and prefix = pos = Ast.Prefix in
  (* The new value is built once and is also a prefix update's result; a
     postfix update returns the old value as a number, reusing it when it
     is one. Neither passes a float through a closure. *)
  let next old =
    let x = to_number old in
    Number (if is_incr then x +. 1. else x -. 1.)
  in
  let result old next =
    if prefix then next else match old with Number _ -> old | _ -> Number (to_number old)
  in
  match lv with
  | Ast.L_var name ->
      let read = compile_read vm sc ~flags:[] ~strict:false name
      and write = compile_write vm sc ~flags:[] name in
      fun env ->
        tick vm;
        let old = read env in
        let nv = next old in
        write env nv;
        result old nv
  | Ast.L_member (be, name) ->
      let base = compile_expr vm sc be in
      fun env ->
        tick vm;
        let old = member vm ~flags:[] (base env) name in
        let nv = next old in
        let b = base env in
        set_member vm b name nv;
        result old nv
  | Ast.L_index (be, ke) ->
      let base = compile_expr vm sc be and key = compile_expr vm sc ke in
      fun env ->
        tick vm;
        let old =
          let b = base env in
          let k = to_string vm (key env) in
          member vm ~flags:[] b k
        in
        let nv = next old in
        let b = base env in
        let k = to_string vm (key env) in
        set_member vm b k nv;
        result old nv

and compile_delete vm sc (e : Ast.expr) =
  let remove obj name =
    emit vm ~flags:[] (cell_loc vm ~owner:obj.oid name) `Write;
    Hashtbl.remove obj.props name
  in
  match e with
  | Ast.Member (be, name) ->
      let base = compile_expr vm sc be in
      fun env ->
        tick vm;
        (match base env with Object obj -> remove obj name | _ -> ());
        Bool true
  | Ast.Index (be, ke) ->
      let base = compile_expr vm sc be and key = compile_expr vm sc ke in
      fun env ->
        tick vm;
        let b = base env in
        let k = to_string vm (key env) in
        (match b with Object obj -> remove obj k | _ -> ());
        Bool true
  | _ -> constant vm (Bool true)

(* A function literal evaluates to a fresh closure over the current frame;
   all closures of one literal share its lazily compiled [code]. *)
and compile_closure vm sc (f : Ast.func) =
  let code = lazy_code vm sc f in
  let func_name = Option.value f.fname ~default:"" in
  fun env -> Object (new_closure vm { params = f.params; env; func_name; code })

(* Most page code runs once, so a body is compiled on its first call, not
   when its enclosing code is. *)
and lazy_code vm sc f =
  let code = { enter = (fun _ ~this:_ _ -> Undefined) } in
  code.enter <-
    (fun env ~this argv ->
      let enter = compile_function vm sc f in
      code.enter <- enter;
      enter env ~this argv);
  code

and compile_function vm sc (f : Ast.func) =
  let vars, funcs = hoist_stmts ([], []) f.body in
  let funcs = List.rev funcs in
  let names = Hashtbl.create 16 in
  let declare name =
    if not (Hashtbl.mem names name) then Hashtbl.add names name (Hashtbl.length names)
  in
  List.iter declare f.params;
  declare "arguments";
  List.iter declare (List.rev vars);
  List.iter (fun (d : Ast.func) -> declare (Option.get d.fname)) funcs;
  let size = Hashtbl.length names in
  let fsc = Some { names; outer = sc } in
  let param_slots = List.map (Hashtbl.find names) f.params in
  (* A parameter named [arguments] suppresses the object (ES5 §10.5). *)
  let arguments_slot =
    if List.mem "arguments" f.params || not (List.fold_left stmt_reads_arguments false f.body)
    then None
    else Some (Hashtbl.find names "arguments")
  in
  (* Function declarations are writes at the beginning of the scope,
     flagged so races on them classify as function races. *)
  let hoisted =
    List.map
      (fun (d : Ast.func) ->
        let name = Option.get d.fname in
        (compile_closure vm fsc d, compile_write vm fsc ~flags:decl_flags name))
      funcs
  in
  let body = compile_block vm fsc f.body in
  fun env ~this argv ->
    tick vm;
    (* Objects, frames and cells draw ids from one counter, and reports
       print them, so a frame takes an id and so does the arguments
       object, built or not. *)
    ignore (fresh_id vm);
    let frame =
      { slots = new_slots size Undefined; cells = new_cells size unset_cell; this; parent = env }
    in
    bind_params frame.slots param_slots argv;
    (match arguments_slot with
    | Some s -> frame.slots.(s) <- Object (new_array vm argv)
    | None -> ignore (fresh_id vm));
    install_hoisted frame hoisted;
    match body frame with C_return v -> v | C_normal | C_break | C_continue -> Undefined

and compile_block vm sc stmts : env -> completion =
  match List.map (compile_stmt vm sc) stmts with
  | [] -> fun _ -> C_normal
  | [ s ] -> s
  | ss ->
      let ss = Array.of_list ss in
      let n = Array.length ss in
      fun env -> run_seq ss n env 0

(* Bindings were created by hoisting (function scope, not block or catch
   scope); only the initializers execute here, resolved from the current
   scope so [var e = 1] inside [catch (e)] assigns the catch parameter. *)
and compile_decls vm sc decls =
  let inits =
    List.filter_map
      (fun (name, init) ->
        Option.map (fun e -> (compile_write vm sc ~flags:[] name, compile_expr vm sc e)) init)
      decls
  in
  fun env -> List.iter (fun (write, e) -> write env (e env)) inits

and compile_stmt vm sc (s : Ast.stmt) : env -> completion =
  match s with
  | Ast.Expr_stmt e ->
      let e = compile_expr vm sc e in
      fun env ->
        tick vm;
        ignore (e env);
        C_normal
  | Ast.Var_decl decls ->
      let decls = compile_decls vm sc decls in
      fun env ->
        tick vm;
        decls env;
        C_normal
  | Ast.Func_decl _ -> constant vm C_normal (* installed at function entry *)
  | Ast.If (cond, then_, else_) ->
      let cond = compile_expr vm sc cond
      and then_ = compile_block vm sc then_
      and else_ = compile_block vm sc else_ in
      fun env ->
        tick vm;
        if to_boolean (cond env) then then_ env else else_ env
  | Ast.While (cond, body) ->
      let cond = compile_expr vm sc cond and body = compile_block vm sc body in
      let cond env = to_boolean (cond env) in
      fun env ->
        tick vm;
        for_loop cond ignore body env
  | Ast.Do_while (body, cond) ->
      let body = compile_block vm sc body and cond = compile_expr vm sc cond in
      fun env ->
        tick vm;
        do_while_loop body cond env
  | Ast.For (init, cond, step, body) ->
      let init =
        match init with
        | Some (Ast.Init_decl decls) -> compile_decls vm sc decls
        | Some (Ast.Init_expr e) ->
            let e = compile_expr vm sc e in
            fun env -> ignore (e env)
        | None -> ignore
      in
      let cond =
        match cond with
        | Some e ->
            let e = compile_expr vm sc e in
            fun env -> to_boolean (e env)
        | None -> fun _ -> true
      in
      let step =
        match step with
        | Some e ->
            let e = compile_expr vm sc e in
            fun env -> ignore (e env)
        | None -> ignore
      in
      let body = compile_block vm sc body in
      fun env ->
        tick vm;
        init env;
        for_loop cond step body env
  | Ast.For_in (name, obj_e, body) ->
      let obj_e = compile_expr vm sc obj_e
      and write = compile_write vm sc ~flags:[] name
      and body = compile_block vm sc body in
      fun env -> (
        tick vm;
        match obj_e env with
        | Object obj ->
            let keys = Hashtbl.fold (fun k _ acc -> k :: acc) obj.props [] in
            let keys =
              if obj.class_name = "Array" then List.filter (fun k -> k <> "length") keys
              else keys
            in
            let rec loop = function
              | [] -> C_normal
              | k :: rest -> (
                  if not (Hashtbl.mem obj.props k) then loop rest
                  else begin
                    write env (String k);
                    match body env with
                    | C_normal | C_continue -> loop rest
                    | C_break -> C_normal
                    | C_return _ as r -> r
                  end)
            in
            loop (List.sort compare keys)
        | _ -> C_normal)
  | Ast.Return None -> constant vm (C_return Undefined)
  | Ast.Return (Some e) ->
      let e = compile_expr vm sc e in
      fun env ->
        tick vm;
        C_return (e env)
  | Ast.Break -> constant vm C_break
  | Ast.Continue -> constant vm C_continue
  | Ast.Throw e ->
      let e = compile_expr vm sc e in
      fun env ->
        tick vm;
        throw (e env)
  | Ast.Try (body, catch, finally) -> (
      let body = compile_block vm sc body in
      let catch =
        Option.map
          (fun (name, cbody) ->
            let names = Hashtbl.create 1 in
            Hashtbl.add names name 0;
            compile_block vm (Some { names; outer = sc }) cbody)
          catch
      in
      let finally = Option.map (compile_block vm sc) finally in
      let run_finally env completion =
        match finally with
        | None -> completion
        | Some f -> ( match f env with C_normal -> completion | c -> c)
      in
      (* Only JS exceptions are caught; [Fuel_exhausted] unwinds past
         [finally], ending the operation. *)
      fun env ->
        tick vm;
        match body env with
        | c -> run_finally env c
        | exception Js_throw v -> (
            match catch with
            | Some cbody -> (
                ignore (fresh_id vm);
                let cenv =
                  { slots = [| v |]; cells = [| unset_cell |]; this = env.this; parent = env }
                in
                match cbody cenv with
                | c -> run_finally env c
                | exception Js_throw v' -> (
                    match run_finally env C_normal with C_normal -> throw v' | c -> c))
            | None -> ( match run_finally env C_normal with C_normal -> throw v | c -> c)))
  | Ast.Switch (scrut_e, cases) ->
      let scrut_e = compile_expr vm sc scrut_e in
      let cases =
        Array.of_list
          (List.map
             (fun (guard, body) ->
               (Option.map (compile_expr vm sc) guard, compile_block vm sc body))
             cases)
      in
      let n = Array.length cases in
      let default =
        let rec find i =
          if i = n then None else if fst cases.(i) = None then Some i else find (i + 1)
        in
        find 0
      in
      let rec first_match env scrutinee i =
        if i = n then default
        else
          match fst cases.(i) with
          | Some g when strict_equals (g env) scrutinee -> Some i
          | Some _ | None -> first_match env scrutinee (i + 1)
      in
      let rec run env i =
        if i = n then C_normal
        else
          match snd cases.(i) env with
          | C_normal -> run env (i + 1)
          | C_break -> C_normal
          | (C_continue | C_return _) as c -> c
      in
      fun env ->
        tick vm;
        let scrutinee = scrut_e env in
        (match first_match env scrutinee 0 with None -> C_normal | Some start -> run env start)
  | Ast.Block body ->
      let body = compile_block vm sc body in
      fun env ->
        tick vm;
        body env
  | Ast.Empty -> constant vm C_normal

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let call vm f ~this args = call_function vm f ~this args ~what:"(value)"

(* The frame top-level code runs in: no slots, the global [this]. *)
let top_frame this =
  let rec frame = { slots = [||]; cells = [||]; this; parent = frame } in
  frame

let run_in_global vm prog =
  let body () =
    let vars, funcs = hoist_stmts ([], []) prog in
    let funcs = List.rev funcs in
    List.iter (declare_global vm) (List.rev vars);
    List.iter (fun (f : Ast.func) -> declare_global vm (Option.get f.fname)) funcs;
    let env = top_frame vm.global_this in
    List.iter
      (fun (f : Ast.func) ->
        let v = compile_closure vm None f env in
        write_global_var vm ~flags:decl_flags (Option.get f.fname) v)
      funcs;
    ignore (compile_block vm None prog env)
  in
  if Wr_telemetry.Telemetry.enabled vm.tm then
    Wr_telemetry.Telemetry.with_span vm.tm ~cat:"js" ~name:"eval" body
  else body ()

let global_function vm ~name ~params body =
  let code = lazy_code vm None { Ast.fname = None; params; body } in
  Object (new_closure vm { params; env = top_frame Undefined; func_name = name; code })

let read_global vm name =
  let loc = cell_loc vm ~owner:vm.global.scope_id name in
  match Hashtbl.find_opt vm.global.vars name with
  | Some cell ->
      emit vm ~flags:[] loc `Read;
      Some !cell
  | None ->
      emit vm ~flags:miss_flags loc `Read;
      None

let write_global vm name v = write_global_var vm ~flags:[] name v

let create ?seed ?fuel ~sink () =
  let vm = create_vm ?seed ?fuel ~sink () in
  vm.call_value <- (fun f ~this args -> call vm f ~this args);
  Builtins.install vm;
  (* Sloppy-mode global [this]: an object whose properties unify with the
     global scope, so bare calls reading [this.x] behave like real engines.
     The browser replaces it with the window object. *)
  let global_obj = new_object vm ~class_name:"Global" () in
  global_obj.host <-
    Some
      {
        host_id = vm.global.scope_id;
        host_kind = "global";
        host_get =
          (fun vm _obj name ->
            match read_global vm name with Some _ as r -> r | None -> Some Undefined);
        host_set =
          (fun vm _obj name v ->
            write_global vm name v;
            true);
      };
  vm.global_this <- Object global_obj;
  vm
