(* Static read/write effect extraction over the MiniJS AST.

   Each code unit (script, timer callback, event handler, ...) is folded
   into a set of abstract effects over the same logical memory model the
   dynamic detector instruments (Wr_mem.Location): global variables,
   form-field properties, per-document id/collection lookup cells, element
   presence, and event-handler containers. The abstraction is deliberately
   recall-oriented: dynamic property names and eval-like constructs widen
   to wildcard ("Any") or top effects rather than being dropped, so a race
   the dynamic detector can observe always has a conflicting static effect
   pair (soundness caveats are listed in DESIGN.md §8). *)

module Ast = Wr_js.Ast

(* ------------------------------------------------------------------ *)
(* Abstract strings, targets, locations                                *)
(* ------------------------------------------------------------------ *)

(* Constant propagation keeps three precision levels for strings: fully
   known, known prefix (the ubiquitous ["id_" + i] idiom), or unknown. *)
type sstr = Lit of string | Prefix of string | Any_str

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let sstr_matches a b =
  match (a, b) with
  | Any_str, _ | _, Any_str -> true
  | Lit a, Lit b -> String.equal a b
  | Lit l, Prefix p | Prefix p, Lit l -> starts_with ~prefix:p l
  | Prefix a, Prefix b -> starts_with ~prefix:a b || starts_with ~prefix:b a

let sstr_to_string = function Lit s -> s | Prefix p -> p ^ "*" | Any_str -> "*"

(* Who an effect touches: a statically named element (by id pattern), a
   concrete parsed element (by per-document pre-order index), the document
   root (#document — on every dispatch path), the window, or unknown. *)
type target =
  | T_elem of { doc : int; id : sstr }
  | T_node of { doc : int; node : int }
  | T_root of int
  | T_window of int
  | T_unknown

let target_matches a b =
  match (a, b) with
  | T_unknown, _ | _, T_unknown -> true
  | T_elem { doc = d; id = a }, T_elem { doc = d'; id = b } ->
      d = d' && sstr_matches a b
  | T_node { doc = d; node = n }, T_node { doc = d'; node = n' } -> d = d' && n = n'
  | T_root d, T_root d' | T_window d, T_window d' -> d = d'
  | _ -> false

let target_to_string = function
  | T_elem { doc; id } -> Printf.sprintf "doc%d#%s" doc (sstr_to_string id)
  | T_node { doc; node } -> Printf.sprintf "doc%d/node%d" doc node
  | T_root doc -> Printf.sprintf "doc%d" doc
  | T_window doc -> Printf.sprintf "window%d" doc
  | T_unknown -> "?"

(* Static analogue of Wr_mem.Location.t. [S_top] is the sound fallback for
   eval-like constructs: it conflicts with every location. *)
type sloc =
  | S_global of sstr
  | S_prop of { target : target; prop : sstr }
  | S_id of { doc : int; id : sstr }
  | S_node of { doc : int; node : int }
  | S_collection of { doc : int; name : sstr }
  | S_handler of { target : target; event : string }  (** event ["*"] = any *)
  | S_dom_any of int
  | S_top

let sloc_to_string = function
  | S_global s -> Printf.sprintf "var %s" (sstr_to_string s)
  | S_prop { target; prop } ->
      Printf.sprintf "var %s@%s" (sstr_to_string prop) (target_to_string target)
  | S_id { doc; id } -> Printf.sprintf "elem doc%d#%s" doc (sstr_to_string id)
  | S_node { doc; node } -> Printf.sprintf "elem doc%d/node%d" doc node
  | S_collection { doc; name } ->
      Printf.sprintf "elem doc%d[%s]" doc (sstr_to_string name)
  | S_handler { target; event } ->
      Printf.sprintf "handler (%s, %s)" (target_to_string target) event
  | S_dom_any doc -> Printf.sprintf "elem doc%d[any]" doc
  | S_top -> "top"

let event_matches a b = a = "*" || b = "*" || a = b

let html_sloc = function
  | S_id _ | S_node _ | S_collection _ | S_dom_any _ -> true
  | _ -> false

let sloc_doc = function
  | S_id { doc; _ } | S_node { doc; _ } | S_collection { doc; _ } | S_dom_any doc ->
      Some doc
  | _ -> None

(* Location overlap, ignoring access kinds. *)
let sloc_conflicts a b =
  match (a, b) with
  | S_top, _ | _, S_top -> true
  | S_dom_any d, other when html_sloc other -> sloc_doc other = Some d
  | other, S_dom_any d when html_sloc other -> sloc_doc other = Some d
  | S_global a, S_global b -> sstr_matches a b
  | S_prop { target = t; prop = p }, S_prop { target = t'; prop = p' } ->
      target_matches t t' && sstr_matches p p'
  | S_id { doc; id }, S_id { doc = d'; id = i' } -> doc = d' && sstr_matches id i'
  | S_node { doc; node }, S_node { doc = d'; node = n' } -> doc = d' && node = n'
  | S_collection { doc; name }, S_collection { doc = d'; name = n' } ->
      doc = d' && sstr_matches name n'
  | S_handler { target = t; event = e }, S_handler { target = t'; event = e' } ->
      target_matches t t' && event_matches e e'
  | _ -> false

type kind = Read | Write

let kind_name = function Read -> "read" | Write -> "write"

type eff = {
  loc : sloc;
  kind : kind;
  func_decl : bool;  (** write is a hoisted function declaration *)
  call : bool;  (** read in call position *)
  user : bool;  (** write models user input *)
  may_miss : bool;  (** lookup may observe absence *)
}

(* Mirrors Wr_mem.Location.conflict_relevant: write-write pairs on
   collection and handler-container cells are exempt (disjoint handler
   registrations / unrelated insertions must not interfere). *)
let conflicts a b =
  (a.kind = Write || b.kind = Write)
  && (not
        (a.kind = Write && b.kind = Write
        && match a.loc with S_collection _ | S_handler _ -> true | _ -> false))
  && sloc_conflicts a.loc b.loc

(* Mirrors Wr_detect.Race.classify. *)
(* Wildcard locations (S_top, an eval) defer to the other side's class:
   the pair's concrete cell, when one side names it, decides the type. *)
let classify a b =
  let loc =
    match (a.loc, b.loc) with S_top, l -> l | l, _ -> l
  in
  match loc with
  | S_handler _ -> Wr_detect.Race.Event_dispatch
  | S_id _ | S_node _ | S_collection _ | S_dom_any _ -> Wr_detect.Race.Html
  | S_global _ | S_prop _ | S_top ->
      if (a.kind = Write && a.func_decl) || (b.kind = Write && b.func_decl) then
        Wr_detect.Race.Function_race
      else Wr_detect.Race.Variable

(* ------------------------------------------------------------------ *)
(* Analysis results                                                    *)
(* ------------------------------------------------------------------ *)

(* Analyzing one unit body may discover nested units: timer callbacks, XHR
   completion handlers, event-handler bodies. Each gets its own effect
   set; the happens-before edge from the registering unit is the model's
   concern. *)
type sub_kind =
  | K_timer of { interval : bool; delay : float option }
  | K_xhr
  | K_handler of { target : target; event : string }

type analysis = {
  mutable effs : eff list;  (** reverse discovery order, deduplicated *)
  mutable subs : (sub_kind * analysis) list;
}

(* Static DOM knowledge the analyzer needs to resolve collection queries
   to concrete parsed elements (supplied by Model). *)
type dom_info = {
  nodes_by_tag : int -> string -> int list;
  nodes_by_class : int -> string -> int list;
}

let no_dom = { nodes_by_tag = (fun _ _ -> []); nodes_by_class = (fun _ _ -> []) }

type ctx = {
  doc : int;
  dom : dom_info;
  funcs : (string, Ast.func) Hashtbl.t;  (** page-wide global function table *)
  declared : (string, unit) Hashtbl.t;  (** page-wide declared globals *)
}

let make_ctx ?(dom = no_dom) ~doc () =
  { doc; dom; funcs = Hashtbl.create 16; declared = Hashtbl.create 16 }

(* Pre-pass: harvest top-level function declarations (and function-valued
   top-level vars/assignments) from a unit so cross-unit calls can be
   resolved interprocedurally, plus the set of declared global names. *)
let collect_globals ctx (prog : Ast.program) =
  List.iter
    (fun s ->
      match s with
      | Ast.Func_decl ({ Ast.fname = Some n; _ } as f) ->
          Hashtbl.replace ctx.funcs n f;
          Hashtbl.replace ctx.declared n ()
      | Ast.Var_decl ds ->
          List.iter
            (fun (n, init) ->
              Hashtbl.replace ctx.declared n ();
              match init with
              | Some (Ast.Func f) -> Hashtbl.replace ctx.funcs n f
              | _ -> ())
            ds
      | Ast.Expr_stmt (Ast.Assign (Ast.L_var n, Ast.Func f)) ->
          Hashtbl.replace ctx.funcs n f;
          Hashtbl.replace ctx.declared n ()
      | Ast.Expr_stmt (Ast.Assign (Ast.L_var n, _)) -> Hashtbl.replace ctx.declared n ()
      | _ -> ())
    prog

(* ------------------------------------------------------------------ *)
(* Abstract values                                                     *)
(* ------------------------------------------------------------------ *)

type aval =
  | V_unknown
  | V_num
  | V_bool
  | V_str of sstr
  | V_document
  | V_window
  | V_elem of target
  | V_func of Ast.func
  | V_xhr
  | V_pure  (** effect-free builtin namespace: Math, Date, JSON, console *)
  | V_ignore  (** style objects: accesses beneath them are uninstrumented *)

let join_aval a b = if a = b then a else V_unknown

let pure_namespaces = [ "Math"; "Date"; "JSON"; "console" ]

(* Builtin globals whose reads touch no page-observable cell. *)
let builtin_globals =
  [
    "undefined"; "NaN"; "Infinity"; "Array"; "Object"; "String"; "Number";
    "Boolean"; "RegExp"; "Error"; "TypeError"; "parseInt"; "parseFloat"; "isNaN";
    "isFinite"; "encodeURIComponent"; "decodeURIComponent"; "alert"; "confirm";
    "prompt"; "setTimeout"; "setInterval"; "clearTimeout"; "clearInterval";
    "XMLHttpRequest"; "Image"; "eval"; "Function";
  ]

(* ------------------------------------------------------------------ *)
(* Analyzer state                                                      *)
(* ------------------------------------------------------------------ *)

type st = {
  ctx : ctx;
  gvals : (string, aval) Hashtbl.t;  (** global value map, unit-scoped *)
  mutable acc : analysis;
  mutable scopes : (string, aval) Hashtbl.t list;  (** innermost first *)
  mutable inl : Ast.func list;  (** inline-expansion stack (physical eq) *)
  mutable anc : Ast.func list;  (** sub-unit ancestry: cuts poll_N-style
                                    self-rescheduling timer chains *)
}

let emit st ?(func_decl = false) ?(call = false) ?(user = false) ?(may_miss = false)
    kind loc =
  let e = { loc; kind; func_decl; call; user; may_miss } in
  if not (List.mem e st.acc.effs) then st.acc.effs <- e :: st.acc.effs

let lookup_local st name =
  let rec go = function
    | [] -> None
    | tbl :: rest -> ( match Hashtbl.find_opt tbl name with Some v -> Some v | None -> go rest)
  in
  go st.scopes

let bind_local st name v =
  match st.scopes with
  | tbl :: _ -> Hashtbl.replace tbl name v
  | [] -> Hashtbl.replace st.gvals name v (* unit top level: caller emitted the write *)

let rebind st name v =
  let rec go = function
    | [] -> Hashtbl.replace st.gvals name v
    | tbl :: rest -> if Hashtbl.mem tbl name then Hashtbl.replace tbl name v else go rest
  in
  go st.scopes

let at_toplevel st = st.scopes = []

(* Shallow hoisted-declaration collection: stops at nested functions. *)
let rec collect_decls acc s =
  match s with
  | Ast.Var_decl ds -> List.fold_left (fun a (n, _) -> n :: a) acc ds
  | Ast.Func_decl { Ast.fname = Some n; _ } -> n :: acc
  | Ast.Func_decl _ -> acc
  | Ast.For_in (n, _, body) -> List.fold_left collect_decls (n :: acc) body
  | Ast.For (Some (Ast.Init_decl ds), _, _, body) ->
      List.fold_left collect_decls
        (List.fold_left (fun a (n, _) -> n :: a) acc ds)
        body
  | Ast.Try (body, catch, fin) ->
      let acc = List.fold_left collect_decls acc body in
      let acc =
        match catch with
        | Some (n, cb) -> List.fold_left collect_decls (n :: acc) cb
        | None -> acc
      in
      (match fin with Some fb -> List.fold_left collect_decls acc fb | None -> acc)
  | _ -> Ast.fold_stmt_children (fun a _ -> a) collect_decls acc s

(* A scope binding [params] and the hoisted declarations of [body], all
   to unknown values. *)
let fresh_scope params body =
  let scope = Hashtbl.create 8 in
  List.iter
    (fun n -> Hashtbl.replace scope n V_unknown)
    (params @ List.fold_left collect_decls [] body);
  scope

let event_of_prop name =
  if String.length name > 2 && starts_with ~prefix:"on" name then
    Some (String.sub name 2 (String.length name - 2))
  else None

let elem_target st = function
  | V_elem t -> t
  | V_document -> T_root st.ctx.doc
  | V_window -> T_window st.ctx.doc
  | _ -> T_unknown

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)
(* ------------------------------------------------------------------ *)

let rec eval_expr st (e : Ast.expr) : aval =
  match e with
  | Ast.Number _ -> V_num
  | Ast.String s -> V_str (Lit s)
  | Ast.Regex_lit _ -> V_unknown
  | Ast.Bool _ -> V_bool
  | Ast.Null -> V_unknown
  | Ast.This -> if at_toplevel st then V_window else V_unknown
  | Ast.Ident name -> read_ident st name ~call:false
  | Ast.Func f -> V_func f
  | Ast.Object_lit props ->
      List.iter (fun (_, v) -> ignore (eval_expr st v)) props;
      V_unknown
  | Ast.Array_lit elems ->
      List.iter (fun v -> ignore (eval_expr st v)) elems;
      V_unknown
  | Ast.Member (base, name) -> member_read st (eval_expr st base) (Lit name)
  | Ast.Index (base, key) ->
      let b = eval_expr st base in
      let k = eval_expr st key in
      member_read st b (match k with V_str s -> s | _ -> Any_str)
  | Ast.Call (f, args) -> eval_call st f args
  | Ast.New (f, args) -> eval_new st f args
  | Ast.Assign (lv, rhs) ->
      let v = eval_expr st rhs in
      assign st lv v;
      v
  | Ast.Op_assign (lv, _, rhs) ->
      ignore (eval_expr st (Ast.expr_of_lvalue lv));
      ignore (eval_expr st rhs);
      assign st lv V_unknown;
      V_unknown
  | Ast.Update (lv, _, _) ->
      ignore (eval_expr st (Ast.expr_of_lvalue lv));
      assign st lv V_num;
      V_num
  | Ast.Binop (Ast.Add, a, b) -> (
      let va = eval_expr st a in
      let vb = eval_expr st b in
      match (va, vb) with
      | V_str (Lit x), V_str (Lit y) -> V_str (Lit (x ^ y))
      | V_str (Lit x), _ -> V_str (Prefix x)
      | V_str (Prefix x), _ -> V_str (Prefix x)
      | V_num, V_num -> V_num
      | _, V_str _ -> V_str Any_str
      | _ -> V_unknown)
  | Ast.Binop ((Ast.And | Ast.Or), a, b) ->
      let va = eval_expr st a in
      let vb = eval_expr st b in
      join_aval va vb
  | Ast.Binop (op, a, b) ->
      ignore (eval_expr st a);
      ignore (eval_expr st b);
      (match op with
      | Ast.Eq | Ast.Neq | Ast.Strict_eq | Ast.Strict_neq | Ast.Lt | Ast.Le
      | Ast.Gt | Ast.Ge | Ast.Instanceof | Ast.In ->
          V_bool
      | _ -> V_num)
  | Ast.Unop (Ast.Typeof, Ast.Ident name) ->
      (* typeof reads the cell but tolerates absence. *)
      ignore (read_ident st name ~call:false);
      V_str Any_str
  | Ast.Unop (Ast.Delete, e) ->
      (match e with
      | Ast.Member (base, name) ->
          member_write st (eval_expr st base) (Lit name) V_unknown
      | Ast.Index (base, key) ->
          let b = eval_expr st base in
          let k = eval_expr st key in
          member_write st b (match k with V_str s -> s | _ -> Any_str) V_unknown
      | _ -> ignore (eval_expr st e));
      V_bool
  | Ast.Unop (op, a) -> (
      ignore (eval_expr st a);
      match op with Ast.Not -> V_bool | Ast.Void -> V_unknown | _ -> V_num)
  | Ast.Cond (c, t, f) ->
      ignore (eval_expr st c);
      let vt = eval_expr st t in
      let vf = eval_expr st f in
      join_aval vt vf
  | Ast.Comma (a, b) ->
      ignore (eval_expr st a);
      eval_expr st b

and read_ident st name ~call =
  match lookup_local st name with
  | Some v -> v
  | None ->
      if name = "document" then V_document
      else if name = "window" || name = "self" then V_window
      else if List.mem name pure_namespaces then V_pure
      else if List.mem name builtin_globals then V_pure
      else begin
        let declared = Hashtbl.mem st.ctx.declared name in
        emit st ~call ~may_miss:(not declared) Read (S_global (Lit name));
        match Hashtbl.find_opt st.gvals name with
        | Some v -> v
        | None -> (
            match Hashtbl.find_opt st.ctx.funcs name with
            | Some f -> V_func f
            | None -> V_unknown)
      end

and assign st lv v =
  match lv with
  | Ast.L_var name ->
      if lookup_local st name <> None then rebind st name v
      else begin
        emit st Write (S_global (Lit name));
        Hashtbl.replace st.gvals name v
      end
  | Ast.L_member (base, name) -> member_write st (eval_expr st base) (Lit name) v
  | Ast.L_index (base, key) ->
      let b = eval_expr st base in
      let k = eval_expr st key in
      member_write st b (match k with V_str s -> s | _ -> Any_str) v

and member_read st base name : aval =
  match (base, name) with
  | (V_ignore | V_pure), _ -> base
  | V_elem _, Lit "style" -> V_ignore
  | V_elem t, Lit n -> (
      match event_of_prop n with
      | Some event ->
          emit st Read (S_handler { target = t; event });
          V_unknown
      | None -> (
          match n with
          | "id" | "tagName" | "className" | "nodeName" | "parentNode"
          | "children" | "firstChild" | "nextSibling" ->
              V_unknown
          | _ ->
              emit st Read (S_prop { target = t; prop = Lit n });
              V_unknown))
  | (V_elem _ | V_unknown), (Prefix _ | Any_str) ->
      (* Computed member name: widen to any property of the target. *)
      emit st Read (S_prop { target = elem_target st base; prop = Any_str });
      V_unknown
  | V_document, Lit ("body" | "documentElement") -> V_elem (T_root st.ctx.doc)
  | V_document, Lit n -> (
      match event_of_prop n with
      | Some event ->
          emit st Read (S_handler { target = T_root st.ctx.doc; event });
          V_unknown
      | None -> V_unknown)
  | V_window, Lit "document" -> V_document
  | V_window, Lit n -> (
      match event_of_prop n with
      | Some event ->
          emit st Read (S_handler { target = T_window st.ctx.doc; event });
          V_unknown
      | None ->
          (* window.x is the global x. *)
          read_ident st n ~call:false)
  | V_window, (Prefix _ | Any_str) ->
      emit st Read (S_global Any_str);
      V_unknown
  | V_xhr, _ -> V_unknown
  | (V_str _ | V_num | V_bool | V_func _), _ -> V_unknown
  | V_unknown, Lit n -> (
      match event_of_prop n with
      | Some event ->
          emit st Read (S_handler { target = T_unknown; event });
          V_unknown
      | None ->
          emit st Read (S_prop { target = T_unknown; prop = Lit n });
          V_unknown)
  | V_document, (Prefix _ | Any_str) -> V_unknown

and member_write st base name v =
  match base with
  | V_ignore | V_pure | V_str _ | V_num | V_bool | V_func _ -> ()
  | V_xhr -> (
      match name with
      | Lit n when event_of_prop n = Some "readystatechange" || n = "onload" ->
          enter_sub st K_xhr v
      | _ -> ())
  | V_window -> (
      match name with
      | Lit n -> (
          match event_of_prop n with
          | Some event -> register st (T_window st.ctx.doc) event v
          | None ->
              emit st Write (S_global (Lit n));
              Hashtbl.replace st.gvals n v)
      | Prefix _ | Any_str -> emit st Write (S_global Any_str))
  | V_document -> (
      match name with
      | Lit n -> (
          match event_of_prop n with
          | Some event -> register st (T_root st.ctx.doc) event v
          | None -> ())
      | _ -> ())
  | V_elem t -> elem_member_write st t name v
  | V_unknown -> elem_member_write st T_unknown name v

and elem_member_write st t name v =
  match name with
  | Lit "style" -> ()
  | Lit n -> (
      match event_of_prop n with
      | Some event -> register st t event v
      | None -> (
          match n with
          | "value" | "checked" -> emit st Write (S_prop { target = t; prop = Lit n })
          | "id" -> id_write st v
          | "className" -> class_write st v
          | "innerHTML" | "outerHTML" ->
              emit st Write (S_dom_any st.ctx.doc);
              html_fragment_writes st v
          | "src" | "href" | "alt" | "title" -> ()
          | _ -> emit st Write (S_prop { target = t; prop = Lit n })))
  | Prefix _ | Any_str ->
      emit st Write (S_prop { target = t; prop = Any_str });
      emit st Write (S_handler { target = t; event = "*" })

(* Setting an element's id writes its id lookup cell; setting its class
   writes the class collection it joins. *)
and id_write st v =
  emit st Write (S_id { doc = st.ctx.doc; id = (match v with V_str s -> s | _ -> Any_str) })

and class_write st v =
  let name = match v with V_str (Lit c) -> Lit ("class:" ^ c) | _ -> Prefix "class:" in
  emit st Write (S_collection { doc = st.ctx.doc; name })

(* Handler registration: writes the (target, event) container cell and, if
   the value is a function, opens a nested unit for its body. *)
and register st target event v =
  emit st Write (S_handler { target; event });
  match v with
  | V_func _ -> enter_sub st (K_handler { target; event }) v
  | _ -> ()

(* A literal HTML fragment written via document.write/innerHTML plants the
   same presence cells the parser would. *)
and html_fragment_writes st v =
  match v with
  | V_str (Lit html) ->
      let nodes = Wr_html.Html.parse html in
      let rec walk (n : Wr_html.Html.node) =
        match n with
        | Wr_html.Html.Text _ -> ()
        | Wr_html.Html.Element el ->
            (match Wr_html.Html.attr el "id" with
            | Some id -> emit st Write (S_id { doc = st.ctx.doc; id = Lit id })
            | None -> ());
            emit st Write
              (S_collection { doc = st.ctx.doc; name = Lit ("tag:" ^ el.Wr_html.Html.tag) });
            List.iter walk el.Wr_html.Html.children
      in
      List.iter walk nodes
  | V_str _ -> emit st Write (S_dom_any st.ctx.doc)
  | _ -> ()

and eval_call st f args =
  match f with
  | Ast.Ident ("setTimeout" | "setInterval") ->
      let interval = f = Ast.Ident "setInterval" in
      let cb = match args with a :: _ -> Some (eval_expr st a) | [] -> None in
      let delay =
        match args with
        | _ :: Ast.Number n :: _ -> Some n
        | _ :: _ :: _ -> None
        | _ -> Some 0.
      in
      List.iteri (fun i a -> if i > 0 then ignore (eval_expr st a)) args;
      (match cb with
      | Some (V_func _ as v) -> enter_sub st (K_timer { interval; delay }) v
      | Some (V_str (Lit code)) -> (
          match Wr_js.Parser.parse code with
          | prog -> run_sub st (K_timer { interval; delay }) ~anc:st.anc [] prog
          | exception _ -> ())
      | _ -> ());
      V_num
  | Ast.Ident ("clearTimeout" | "clearInterval") ->
      List.iter (fun a -> ignore (eval_expr st a)) args;
      V_unknown
  | Ast.Ident ("eval" | "Function") -> (
      List.iter (fun a -> ignore (eval_expr st a)) args;
      match args with
      | [ Ast.String code ] -> (
          (* A fully literal eval is just inline code. *)
          match Wr_js.Parser.parse code with
          | prog -> (
              List.iter (analyze_stmt st) prog;
              V_unknown)
          | exception _ -> V_unknown)
      | _ ->
          (* Dynamic code: sound top effect. *)
          emit st Read S_top;
          emit st Write S_top;
          V_unknown)
  | Ast.Ident name -> (
      match lookup_local st name with
      | Some v ->
          let argv = List.map (eval_expr st) args in
          apply st v argv
      | None ->
          if List.mem name pure_namespaces || List.mem name builtin_globals then begin
            List.iter (fun a -> ignore (eval_expr st a)) args;
            V_unknown
          end
          else begin
            let v = read_ident st name ~call:true in
            let argv = List.map (eval_expr st) args in
            apply st v argv
          end)
  | Ast.Member (base_e, m) -> method_call st (eval_expr st base_e) m args
  | Ast.Index (base_e, Ast.String m) -> method_call st (eval_expr st base_e) m args
  | _ ->
      let v = eval_expr st f in
      let argv = List.map (eval_expr st) args in
      apply st v argv

and eval_new st f args =
  match f with
  | Ast.Ident "XMLHttpRequest" ->
      List.iter (fun a -> ignore (eval_expr st a)) args;
      V_xhr
  | Ast.Ident "Image" ->
      List.iter (fun a -> ignore (eval_expr st a)) args;
      V_elem T_unknown
  | Ast.Ident ("Date" | "Array" | "Object" | "RegExp" | "Error" | "String" | "Number"
              | "Boolean") ->
      List.iter (fun a -> ignore (eval_expr st a)) args;
      V_pure
  | _ ->
      let v = eval_expr st f in
      let argv = List.map (eval_expr st) args in
      ignore (apply st v argv);
      V_unknown

(* Calling an abstract value: known functions are inlined (their effects
   happen in the calling unit), with a physical-identity cycle guard and a
   depth cap. *)
and apply st v argv =
  match v with
  | V_func fn -> inline_call st fn argv
  | _ -> V_unknown

and inline_call st fn argv =
  if List.memq fn st.inl || List.length st.inl > 12 then V_unknown
  else begin
    let scope = fresh_scope [] fn.Ast.body in
    List.iteri
      (fun i p -> Hashtbl.replace scope p (Option.value ~default:V_unknown (List.nth_opt argv i)))
      fn.Ast.params;
    let saved_scopes = st.scopes in
    st.scopes <- scope :: st.scopes;
    st.inl <- fn :: st.inl;
    List.iter (analyze_stmt st) fn.Ast.body;
    st.inl <- List.tl st.inl;
    st.scopes <- saved_scopes;
    V_unknown
  end

and method_call st base m args =
  let eval_args () = List.map (eval_expr st) args in
  match (base, m) with
  | V_document, "getElementById" -> (
      match eval_args () with
      | [ V_str s ] | V_str s :: _ ->
          emit st ~may_miss:true Read (S_id { doc = st.ctx.doc; id = s });
          V_elem (T_elem { doc = st.ctx.doc; id = s })
      | _ ->
          emit st ~may_miss:true Read (S_id { doc = st.ctx.doc; id = Any_str });
          V_elem (T_elem { doc = st.ctx.doc; id = Any_str }))
  | V_document, "getElementsByTagName" -> (
      match eval_args () with
      | [ V_str (Lit tag) ] ->
          collection_read st ("tag:" ^ String.lowercase_ascii tag)
            (st.ctx.dom.nodes_by_tag st.ctx.doc (String.lowercase_ascii tag));
          V_unknown
      | _ ->
          emit st Read (S_collection { doc = st.ctx.doc; name = Any_str });
          V_unknown)
  | V_document, "getElementsByClassName" -> (
      match eval_args () with
      | [ V_str (Lit c) ] ->
          collection_read st ("class:" ^ c) (st.ctx.dom.nodes_by_class st.ctx.doc c);
          V_unknown
      | _ ->
          emit st Read (S_collection { doc = st.ctx.doc; name = Any_str });
          V_unknown)
  | V_document, ("querySelector" | "querySelectorAll") -> (
      match eval_args () with
      | [ V_str (Lit sel) ] when String.length sel > 1 && sel.[0] = '#' ->
          let id = String.sub sel 1 (String.length sel - 1) in
          emit st ~may_miss:true Read (S_id { doc = st.ctx.doc; id = Lit id });
          if m = "querySelector" then V_elem (T_elem { doc = st.ctx.doc; id = Lit id })
          else V_unknown
      | [ V_str (Lit sel) ] when String.length sel > 1 && sel.[0] = '.' ->
          let c = String.sub sel 1 (String.length sel - 1) in
          collection_read st ("class:" ^ c) (st.ctx.dom.nodes_by_class st.ctx.doc c);
          V_unknown
      | [ V_str (Lit sel) ] ->
          collection_read st
            ("tag:" ^ String.lowercase_ascii sel)
            (st.ctx.dom.nodes_by_tag st.ctx.doc (String.lowercase_ascii sel));
          V_unknown
      | _ ->
          emit st Read (S_collection { doc = st.ctx.doc; name = Any_str });
          emit st ~may_miss:true Read (S_id { doc = st.ctx.doc; id = Any_str });
          V_unknown)
  | V_document, ("write" | "writeln") -> (
      match eval_args () with
      | [ (V_str (Lit _) as v) ] -> html_fragment_writes st v; V_unknown
      | _ ->
          emit st Write (S_dom_any st.ctx.doc);
          V_unknown)
  | V_document, "createElement" ->
      ignore (eval_args ());
      V_elem T_unknown
  | (V_document | V_window | V_elem _ | V_unknown), "addEventListener" -> (
      let t = elem_target st base in
      match args with
      | ev :: rest -> (
          let evv = eval_expr st ev in
          let handler = match rest with h :: _ -> Some (eval_expr st h) | [] -> None in
          List.iteri (fun i a -> if i > 0 then ignore (eval_expr st a)) rest;
          let event = match evv with V_str (Lit e) -> e | _ -> "*" in
          (match handler with
          | Some (V_func _ as hv) -> register st t event hv
          | _ -> emit st Write (S_handler { target = t; event }));
          V_unknown)
      | [] -> V_unknown)
  | (V_document | V_window | V_elem _ | V_unknown), "removeEventListener" ->
      let t = elem_target st base in
      let event =
        match eval_args () with V_str (Lit e) :: _ -> e | _ -> "*"
      in
      emit st Write (S_handler { target = t; event });
      V_unknown
  | (V_elem _ | V_unknown), "setAttribute" -> (
      let t = elem_target st base in
      match eval_args () with
      | [ V_str (Lit n); v ] -> (
          match event_of_prop n with
          | Some event -> (
              emit st Write (S_handler { target = t; event });
              match v with
              | V_str (Lit code) -> (
                  match Wr_js.Parser.parse code with
                  | prog -> run_sub st (K_handler { target = t; event }) ~anc:st.anc [] prog
                  | exception _ -> ())
              | _ -> ())
          | None -> (
              match n with
              | "id" -> id_write st v
              | "class" -> class_write st v
              | "value" | "checked" -> emit st Write (S_prop { target = t; prop = Lit n })
              | _ -> ()))
      | _ ->
          (* Dynamic attribute name: any property or handler of the target. *)
          emit st Write (S_prop { target = t; prop = Any_str });
          emit st Write (S_handler { target = t; event = "*" }));
      V_unknown
  | (V_elem _ | V_unknown | V_document), ("appendChild" | "insertBefore" | "removeChild"
                                         | "replaceChild") ->
      ignore (eval_args ());
      emit st Write (S_dom_any st.ctx.doc);
      V_unknown
  | (V_elem _ | V_unknown), (("click" | "focus" | "blur") as ev) ->
      ignore (eval_args ());
      emit st Read (S_handler { target = elem_target st base; event = ev });
      V_unknown
  | (V_elem _ | V_unknown), "dispatchEvent" ->
      ignore (eval_args ());
      emit st Read (S_handler { target = elem_target st base; event = "*" });
      V_unknown
  | (V_elem _ | V_unknown), "getAttribute" | (V_xhr | V_pure | V_ignore), _ ->
      ignore (eval_args ());
      V_unknown
  | _, _ ->
      let argv = eval_args () in
      let mv = member_read st base (Lit m) in
      ignore (apply st mv argv);
      V_unknown

and collection_read st name nodes =
  emit st Read (S_collection { doc = st.ctx.doc; name = Lit name });
  List.iter (fun n -> emit st Read (S_node { doc = st.ctx.doc; node = n })) nodes

(* Open a nested unit for a callback/handler body. Bodies captured by the
   same function already on the sub-unit ancestry (a timer rescheduling
   itself) are cut: the new unit's effects would duplicate the existing
   one's, and its happens-before successors are the same. *)
and enter_sub st kind v =
  match v with
  | V_func fn when List.memq fn st.anc -> ()
  | V_func fn -> run_sub st kind ~anc:(fn :: st.anc) fn.Ast.params fn.Ast.body
  | _ -> ()

(* Analyze [body] as a new nested unit under the current one, with
   [params] and its hoisted declarations as fresh locals. *)
and run_sub st kind ~anc params body =
  let sub = { effs = []; subs = [] } in
  st.acc.subs <- (kind, sub) :: st.acc.subs;
  let saved_acc = st.acc and saved_scopes = st.scopes and saved_inl = st.inl in
  let saved_anc = st.anc in
  st.acc <- sub;
  st.anc <- anc;
  st.inl <- [];
  st.scopes <- fresh_scope params body :: st.scopes;
  List.iter (analyze_stmt st) body;
  st.acc <- saved_acc;
  st.scopes <- saved_scopes;
  st.inl <- saved_inl;
  st.anc <- saved_anc

and analyze_stmt st (s : Ast.stmt) =
  match s with
  | Ast.Expr_stmt e -> ignore (eval_expr st e)
  | Ast.Var_decl ds ->
      List.iter
        (fun (n, init) ->
          let v = match init with Some e -> eval_expr st e | None -> V_unknown in
          if at_toplevel st then begin
            emit st Write (S_global (Lit n));
            Hashtbl.replace st.gvals n v
          end
          else bind_local st n v)
        ds
  | Ast.Func_decl ({ Ast.fname; _ } as f) -> (
      match fname with
      | Some n ->
          if at_toplevel st then begin
            emit st ~func_decl:true Write (S_global (Lit n));
            Hashtbl.replace st.gvals n (V_func f)
          end
          else bind_local st n (V_func f)
      | None -> ())
  | Ast.If (c, t, e) ->
      ignore (eval_expr st c);
      List.iter (analyze_stmt st) t;
      List.iter (analyze_stmt st) e
  | Ast.While (c, b) ->
      ignore (eval_expr st c);
      List.iter (analyze_stmt st) b
  | Ast.Do_while (b, c) ->
      List.iter (analyze_stmt st) b;
      ignore (eval_expr st c)
  | Ast.For (init, cond, step, b) ->
      (match init with
      | Some (Ast.Init_expr e) -> ignore (eval_expr st e)
      | Some (Ast.Init_decl ds) -> analyze_stmt st (Ast.Var_decl ds)
      | None -> ());
      (match cond with Some e -> ignore (eval_expr st e) | None -> ());
      List.iter (analyze_stmt st) b;
      (match step with Some e -> ignore (eval_expr st e) | None -> ())
  | Ast.For_in (n, obj, b) ->
      ignore (eval_expr st obj);
      if at_toplevel st then emit st Write (S_global (Lit n))
      else bind_local st n (V_str Any_str);
      List.iter (analyze_stmt st) b
  | Ast.Return (Some e) -> ignore (eval_expr st e)
  | Ast.Return None | Ast.Break | Ast.Continue | Ast.Empty -> ()
  | Ast.Throw e -> ignore (eval_expr st e)
  | Ast.Try (b, catch, fin) ->
      List.iter (analyze_stmt st) b;
      (match catch with
      | Some (n, cb) ->
          let scope = Hashtbl.create 1 in
          Hashtbl.replace scope n V_unknown;
          let saved = st.scopes in
          st.scopes <- scope :: st.scopes;
          List.iter (analyze_stmt st) cb;
          st.scopes <- saved
      | None -> ());
      (match fin with Some fb -> List.iter (analyze_stmt st) fb | None -> ())
  | Ast.Switch (scrut, cases) ->
      ignore (eval_expr st scrut);
      List.iter
        (fun (guard, body) ->
          (match guard with Some g -> ignore (eval_expr st g) | None -> ());
          List.iter (analyze_stmt st) body)
        cases
  | Ast.Block b -> List.iter (analyze_stmt st) b

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let fresh_st ctx = { ctx; gvals = Hashtbl.create 16; acc = { effs = []; subs = [] };
                     scopes = []; inl = []; anc = [] }

(* [analyze ctx prog] — effects of a top-level script unit: [var] and
   function declarations at the outermost level write globals. *)
let analyze ctx prog =
  let st = fresh_st ctx in
  List.iter (analyze_stmt st) prog;
  st.acc

(* [analyze_handler ctx prog] — effects of inline-attribute handler code or
   a [javascript:] URL body: declarations are handler-local. *)
let analyze_handler ctx prog =
  let st = fresh_st ctx in
  st.scopes <- [ fresh_scope [] prog ];
  List.iter (analyze_stmt st) prog;
  st.acc
