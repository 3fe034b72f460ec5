(** The MiniJS interpreter, instrumented for race detection.

    Code runs compiled: each function body is translated once, on its
    first call, into OCaml closures, and a script's top level when it is
    run. The compiler resolves every variable to a slot in an array-backed
    frame ([Value.env]) at a static depth, or to the global table, and
    collects hoisted declarations then, so a call allocates one frame and
    does no name lookups. MiniJS has no [with] and no dynamic [eval], so
    the resolution is exact. A function builds its [arguments] object only
    if its own body reads [arguments].

    Every variable and property access is routed through the VM's sink as a
    logical access on a [Wr_mem.Location.Js_var] cell (paper §4.1):

    - variable reads/writes report the cell of the binding's owner frame
      (interned on first access and cached in the frame), so
      closure-shared locals get one stable identity across operations;
    - property reads report the cell of the prototype-chain owner; misses
      report the base object's cell with [Observed_miss], so a read of a
      not-yet-created property races with its later creation;
    - hoisted function declarations are writes at scope entry carrying
      [Function_decl] (the paper's function-race write, §4.1 "Functions");
    - reads in call position carry [Call_position].

    Host objects (DOM nodes, document, window, timers, XHR) intercept
    property access via [Value.host]; the browser's bindings emit
    HTML-element and event-handler accesses there.

    Uncaught JavaScript exceptions surface as [Value.Js_throw]; runaway
    scripts raise [Value.Fuel_exhausted]. The browser catches both at
    operation boundaries — crashes are logged and the page carries on,
    mirroring how browsers hide script failures (§2.3). *)

(** [create ?seed ?fuel ~sink ()] builds a VM with builtins installed and
    the call hook tied. [fuel] bounds evaluation steps per {!refuel}. *)
val create : ?seed:int -> ?fuel:int -> sink:Wr_mem.Access.sink -> unit -> Value.vm

(** [refuel vm] resets the step budget; the browser calls it at the start
    of every operation. *)
val refuel : Value.vm -> unit

(** [run_in_global vm program] hoists [program]'s declarations into the
    global scope and executes it (the execution of a script element's
    source). May raise [Value.Js_throw] / [Value.Fuel_exhausted]. *)
val run_in_global : Value.vm -> Ast.program -> unit

(** [global_function vm ~name ~params body] is a function object over the
    global scope with the given parameters and body — how the browser turns
    an [onclick="..."] attribute into a handler. *)
val global_function :
  Value.vm -> name:string -> params:string list -> Ast.program -> Value.t

(** [call vm f ~this args] invokes a function value, raising a [TypeError]
    ([Value.Js_throw]) if [f] is not callable. *)
val call : Value.vm -> Value.t -> this:Value.t -> Value.t list -> Value.t

(** [read_global vm name] reads a global binding with instrumentation,
    [None] when unbound (a miss read is still emitted). Used by the
    browser's window object to unify [window.x] with the global scope. *)
val read_global : Value.vm -> string -> Value.t option

(** [write_global vm name v] writes (creating if needed) a global binding
    with instrumentation. *)
val write_global : Value.vm -> string -> Value.t -> unit
