(** Abstract syntax of MiniJS.

    MiniJS is the JavaScript subset the simulated browser executes: enough
    of ES5 to express every pattern the paper's evaluation encountered —
    closures, objects with prototypes, arrays, exceptions, timers, DOM
    calls, handler registration — while staying small enough to interpret
    with full instrumentation. Notable omissions (documented in DESIGN.md):
    regular-expression literals, [with], getters/setters, generators.
    [let]/[const] parse as [var]. *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Neq  (** loose [==] / [!=] *)
  | Strict_eq | Strict_neq
  | Lt | Le | Gt | Ge
  | And | Or  (** short-circuiting *)
  | Bit_and | Bit_or | Bit_xor | Shl | Shr | Ushr
  | Instanceof | In

type unop = Neg | Plus | Not | Bit_not | Typeof | Void | Delete

type update_op = Incr | Decr

type update_pos = Prefix | Postfix

type expr =
  | Number of float
  | String of string
  | Regex_lit of string * string  (** regex literal: body, flags *)
  | Bool of bool
  | Null
  | Ident of string  (** variable reference (includes [undefined]) *)
  | This
  | Func of func
  | Object_lit of (string * expr) list
  | Array_lit of expr list
  | Member of expr * string  (** [e.name] *)
  | Index of expr * expr  (** [e\[k\]] *)
  | Call of expr * expr list
  | New of expr * expr list
  | Assign of lvalue * expr
  | Op_assign of lvalue * binop * expr  (** [+=], [-=], ... *)
  | Update of lvalue * update_op * update_pos  (** [++x], [x--], ... *)
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Cond of expr * expr * expr
  | Comma of expr * expr

and lvalue = L_var of string | L_member of expr * string | L_index of expr * expr

and func = {
  fname : string option;  (** None for anonymous function expressions *)
  params : string list;
  body : stmt list;
}

and stmt =
  | Expr_stmt of expr
  | Var_decl of (string * expr option) list
  | Func_decl of func  (** [fname] is always [Some _] here *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Do_while of stmt list * expr
  | For of for_init option * expr option * expr option * stmt list
  | For_in of string * expr * stmt list  (** [for (var k in e)] *)
  | Return of expr option
  | Break
  | Continue
  | Throw of expr
  | Try of stmt list * (string * stmt list) option * stmt list option
  | Switch of expr * (expr option * stmt list) list
      (** cases in order; [None] is [default] *)
  | Block of stmt list
  | Empty

and for_init = Init_expr of expr | Init_decl of (string * expr option) list

type program = stmt list

(** [expr_of_lvalue lv] is the expression form of an assignment target —
    [L_var x] is [Ident x], [L_member (e, n)] is [Member (e, n)], and so
    on. Lets consumers (the pretty-printer, the static effect analyzer)
    treat lvalues through the expression traversal instead of duplicating
    the [Member]/[Index] cases. *)
val expr_of_lvalue : lvalue -> expr

(** [fold_expr_children fe fs acc e] folds over the {e immediate} children
    of [e]: [fe] on child expressions, [fs] on child statements (function
    bodies), in source order. The node itself is not visited and no
    recursion happens beyond one level — the visitor decides where to
    descend, so the same helper serves shallow walks (hoisted-declaration
    collection that must stop at nested functions) and deep ones. *)
val fold_expr_children :
  ('a -> expr -> 'a) -> ('a -> stmt -> 'a) -> 'a -> expr -> 'a

(** [fold_stmt_children fe fs acc s] — the statement analogue of
    {!fold_expr_children}. *)
val fold_stmt_children :
  ('a -> expr -> 'a) -> ('a -> stmt -> 'a) -> 'a -> stmt -> 'a

(** [binop_name op] is the operator's surface syntax ("+", "===", ...). *)
val binop_name : binop -> string

(** [unop_name op] is the operator's surface syntax ("!", "typeof ", ...). *)
val unop_name : unop -> string
