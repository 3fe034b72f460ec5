(** Static read/write effect extraction over the MiniJS AST (DESIGN.md §8).

    Folds each code unit into a set of abstract effects over the same
    logical memory model the dynamic detector instruments
    ([Wr_mem.Location]): global variables, form-field properties,
    per-document id/collection lookup cells, element presence, and
    event-handler containers. Recall-oriented: dynamic property names and
    eval-like constructs widen to wildcard or top effects rather than
    being dropped. *)

(** Abstract strings: fully known, known prefix (the ["id_" + i] idiom),
    or unknown. *)
type sstr = Lit of string | Prefix of string | Any_str

(** [sstr_matches a b] — may the two abstract strings denote the same
    concrete string? *)
val sstr_matches : sstr -> sstr -> bool

(** Who an effect touches: an element named by id pattern, a concrete
    parsed element (per-document pre-order index), the document root
    (#document, on every dispatch path), the window, or unknown (matches
    everything). *)
type target =
  | T_elem of { doc : int; id : sstr }
  | T_node of { doc : int; node : int }
  | T_root of int
  | T_window of int
  | T_unknown

val target_to_string : target -> string

(** Static analogue of [Wr_mem.Location.t]; [S_top] (eval-like constructs)
    conflicts with every location, [S_dom_any] with every HTML cell of its
    document, and the handler event ["*"] with every event. *)
type sloc =
  | S_global of sstr
  | S_prop of { target : target; prop : sstr }
  | S_id of { doc : int; id : sstr }
  | S_node of { doc : int; node : int }
  | S_collection of { doc : int; name : sstr }
  | S_handler of { target : target; event : string }
  | S_dom_any of int
  | S_top

val sloc_to_string : sloc -> string

type kind = Read | Write

val kind_name : kind -> string

type eff = {
  loc : sloc;
  kind : kind;
  func_decl : bool;  (** write is a hoisted function declaration *)
  call : bool;  (** read in call position *)
  user : bool;  (** write models user input *)
  may_miss : bool;  (** lookup may observe absence *)
}

(** [conflicts a b] — do the two effects form a candidate race pair?
    Mirrors [Wr_mem.Location.conflict_relevant]: at least one write, and
    write-write pairs on collection/handler-container cells are exempt. *)
val conflicts : eff -> eff -> bool

(** [classify a b] mirrors [Wr_detect.Race.classify] on abstract
    locations. *)
val classify : eff -> eff -> Wr_detect.Race.race_type

(** Nested units discovered while analyzing a body: timer callbacks, XHR
    completion handlers, event-handler bodies. *)
type sub_kind =
  | K_timer of { interval : bool; delay : float option }
  | K_xhr
  | K_handler of { target : target; event : string }

type analysis = {
  mutable effs : eff list;  (** deduplicated, reverse discovery order *)
  mutable subs : (sub_kind * analysis) list;
}

(** Static DOM knowledge used to resolve collection queries to concrete
    parsed elements (supplied by {!Model}). *)
type dom_info = {
  nodes_by_tag : int -> string -> int list;
  nodes_by_class : int -> string -> int list;
}

type ctx = {
  doc : int;
  dom : dom_info;
  funcs : (string, Wr_js.Ast.func) Hashtbl.t;
  declared : (string, unit) Hashtbl.t;
}

val make_ctx : ?dom:dom_info -> doc:int -> unit -> ctx

(** [collect_globals ctx prog] (pre-pass, run over every unit first)
    harvests top-level function declarations into [ctx.funcs] — cross-unit
    calls are inlined through this table — and declared global names into
    [ctx.declared]. *)
val collect_globals : ctx -> Wr_js.Ast.program -> unit

(** [analyze ctx prog] — effects of a top-level script unit: [var] and
    function declarations at the outermost level write globals. *)
val analyze : ctx -> Wr_js.Ast.program -> analysis

(** [analyze_handler ctx prog] — effects of inline-attribute handler code
    or a [javascript:] URL body: declarations are handler-local. *)
val analyze_handler : ctx -> Wr_js.Ast.program -> analysis
