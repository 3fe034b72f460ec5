type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Neq
  | Strict_eq | Strict_neq
  | Lt | Le | Gt | Ge
  | And | Or
  | Bit_and | Bit_or | Bit_xor | Shl | Shr | Ushr
  | Instanceof | In

type unop = Neg | Plus | Not | Bit_not | Typeof | Void | Delete

type update_op = Incr | Decr

type update_pos = Prefix | Postfix

type expr =
  | Number of float
  | String of string
  | Regex_lit of string * string
  | Bool of bool
  | Null
  | Ident of string
  | This
  | Func of func
  | Object_lit of (string * expr) list
  | Array_lit of expr list
  | Member of expr * string
  | Index of expr * expr
  | Call of expr * expr list
  | New of expr * expr list
  | Assign of lvalue * expr
  | Op_assign of lvalue * binop * expr
  | Update of lvalue * update_op * update_pos
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Cond of expr * expr * expr
  | Comma of expr * expr

and lvalue = L_var of string | L_member of expr * string | L_index of expr * expr

and func = { fname : string option; params : string list; body : stmt list }

and stmt =
  | Expr_stmt of expr
  | Var_decl of (string * expr option) list
  | Func_decl of func
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Do_while of stmt list * expr
  | For of for_init option * expr option * expr option * stmt list
  | For_in of string * expr * stmt list
  | Return of expr option
  | Break
  | Continue
  | Throw of expr
  | Try of stmt list * (string * stmt list) option * stmt list option
  | Switch of expr * (expr option * stmt list) list
  | Block of stmt list
  | Empty

and for_init = Init_expr of expr | Init_decl of (string * expr option) list

type program = stmt list

(* ------------------------------------------------------------------ *)
(* Shared structural traversal                                         *)
(*                                                                     *)
(* One-level folds over the immediate children of a node: the visitor  *)
(* decides where to recurse, so the same helpers serve both shallow    *)
(* walks (collecting hoisted declarations without entering nested      *)
(* functions) and deep ones (the static effect analyzer).              *)
(* ------------------------------------------------------------------ *)

let expr_of_lvalue = function
  | L_var name -> Ident name
  | L_member (e, name) -> Member (e, name)
  | L_index (e, k) -> Index (e, k)

let fold_lvalue_children fe acc = function
  | L_var _ -> acc
  | L_member (e, _) -> fe acc e
  | L_index (e, k) -> fe (fe acc e) k

let fold_decls fe acc decls =
  List.fold_left
    (fun acc (_, init) -> match init with Some e -> fe acc e | None -> acc)
    acc decls

let fold_expr_children fe fs acc e =
  match e with
  | Number _ | String _ | Regex_lit _ | Bool _ | Null | Ident _ | This -> acc
  | Func { body; _ } -> List.fold_left fs acc body
  | Object_lit props -> List.fold_left (fun acc (_, v) -> fe acc v) acc props
  | Array_lit elems -> List.fold_left fe acc elems
  | Member (e, _) -> fe acc e
  | Index (e, k) -> fe (fe acc e) k
  | Call (f, args) | New (f, args) -> List.fold_left fe (fe acc f) args
  | Assign (lv, e) | Op_assign (lv, _, e) -> fe (fold_lvalue_children fe acc lv) e
  | Update (lv, _, _) -> fold_lvalue_children fe acc lv
  | Binop (_, a, b) | Comma (a, b) -> fe (fe acc a) b
  | Unop (_, a) -> fe acc a
  | Cond (c, t, f) -> fe (fe (fe acc c) t) f

let fold_stmt_children fe fs acc s =
  match s with
  | Expr_stmt e | Throw e | Return (Some e) -> fe acc e
  | Var_decl decls -> fold_decls fe acc decls
  | Func_decl { body; _ } -> List.fold_left fs acc body
  | If (c, t, e) -> List.fold_left fs (List.fold_left fs (fe acc c) t) e
  | While (c, b) -> List.fold_left fs (fe acc c) b
  | Do_while (b, c) -> fe (List.fold_left fs acc b) c
  | For (init, cond, step, b) ->
      let acc =
        match init with
        | Some (Init_expr e) -> fe acc e
        | Some (Init_decl decls) -> fold_decls fe acc decls
        | None -> acc
      in
      let acc = match cond with Some e -> fe acc e | None -> acc in
      let acc = match step with Some e -> fe acc e | None -> acc in
      List.fold_left fs acc b
  | For_in (_, obj, b) -> List.fold_left fs (fe acc obj) b
  | Try (b, catch, fin) ->
      let acc = List.fold_left fs acc b in
      let acc =
        match catch with Some (_, cb) -> List.fold_left fs acc cb | None -> acc
      in
      (match fin with Some fb -> List.fold_left fs acc fb | None -> acc)
  | Switch (scrut, cases) ->
      List.fold_left
        (fun acc (guard, body) ->
          let acc = match guard with Some g -> fe acc g | None -> acc in
          List.fold_left fs acc body)
        (fe acc scrut) cases
  | Block b -> List.fold_left fs acc b
  | Return None | Break | Continue | Empty -> acc

let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Eq -> "==" | Neq -> "!="
  | Strict_eq -> "===" | Strict_neq -> "!=="
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | And -> "&&" | Or -> "||"
  | Bit_and -> "&" | Bit_or -> "|" | Bit_xor -> "^"
  | Shl -> "<<" | Shr -> ">>" | Ushr -> ">>>"
  | Instanceof -> "instanceof" | In -> "in"

let unop_name = function
  | Neg -> "-" | Plus -> "+" | Not -> "!" | Bit_not -> "~"
  | Typeof -> "typeof " | Void -> "void " | Delete -> "delete "
