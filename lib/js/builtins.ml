open Value

let arg n args = match List.nth_opt args n with Some v -> v | None -> Undefined

let number_arg n args = to_number (arg n args)

let string_arg vm n args = to_string vm (arg n args)

let int_arg n args =
  let f = number_arg n args in
  if Float.is_nan f then 0 else int_of_float f

let define_global vm name v = Hashtbl.replace vm.global.vars name (ref v)

let builtin vm name fn = Object (new_builtin vm name fn)

let method_ vm obj name fn = set_prop_raw obj name (Object (new_builtin vm name fn))

(* ------------------------------------------------------------------ *)
(* Math                                                                *)
(* ------------------------------------------------------------------ *)

let install_math vm =
  let math = new_object vm ~class_name:"Math" () in
  set_prop_raw math "PI" (Number Float.pi);
  set_prop_raw math "E" (Number (Float.exp 1.));
  let unary name f = method_ vm math name (fun _ ~this:_ args -> Number (f (number_arg 0 args))) in
  unary "floor" Float.floor;
  unary "ceil" Float.ceil;
  unary "abs" Float.abs;
  unary "sqrt" Float.sqrt;
  unary "sin" sin;
  unary "cos" cos;
  unary "log" log;
  unary "exp" exp;
  unary "round" (fun f -> Float.floor (f +. 0.5));
  method_ vm math "pow" (fun _ ~this:_ args ->
      Number (Float.pow (number_arg 0 args) (number_arg 1 args)));
  method_ vm math "min" (fun _ ~this:_ args ->
      match args with
      | [] -> Number Float.infinity
      | _ -> Number (List.fold_left (fun acc v -> Float.min acc (to_number v)) Float.infinity args));
  method_ vm math "max" (fun _ ~this:_ args ->
      match args with
      | [] -> Number Float.neg_infinity
      | _ ->
          Number
            (List.fold_left (fun acc v -> Float.max acc (to_number v)) Float.neg_infinity args));
  method_ vm math "random" (fun vm ~this:_ _ -> Number (Wr_support.Rng.float vm.rng 1.0));
  define_global vm "Math" (Object math)

(* ------------------------------------------------------------------ *)
(* RegExp                                                              *)
(* ------------------------------------------------------------------ *)

(* Compiled patterns are memoized by (pattern, flags): RegExp objects only
   carry strings, so they serialize and compare like plain data. The
   cache used to be one process-global Hashtbl behind a mutex — the only
   shared lock on the parallel analysis path. It is now [Domain.DLS]
   state: each domain memoizes independently, so lookups are plain
   un-locked Hashtbl operations. Corpus sites repeat the same handful of
   patterns, so the per-domain duplication costs a few recompilations per
   domain lifetime in exchange for a lock-free hot path. *)
let regex_cache : (string * string, Regex.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

(* Lookups count into the VM's telemetry context, so the fleet profile
   reads them beside the run's other counters. *)
let compile_regex vm ~pattern ~flags =
  let key = (pattern, flags) in
  let cache = Domain.DLS.get regex_cache in
  match Hashtbl.find_opt cache key with
  | Some t ->
      Wr_telemetry.Telemetry.incr vm.tm "js.regex_cache_hits";
      t
  | None -> (
      Wr_telemetry.Telemetry.incr vm.tm "js.regex_cache_misses";
      match Regex.compile ~pattern ~flags with
      | Ok t ->
          Hashtbl.add cache key t;
          t
      | Error msg -> throw_error vm "SyntaxError" ("Invalid regular expression: " ^ msg))

let regex_of_value vm v =
  match v with
  | Object o when o.class_name = "RegExp" ->
      let str name = match get_prop_raw o name with Some (String s) -> s | _ -> "" in
      Some (compile_regex vm ~pattern:(str "source") ~flags:(str "flags"))
  | _ -> None

let match_array vm s (r : Regex.match_result) =
  let t_groups = Array.to_list r.Regex.groups in
  let items =
    List.map
      (function
        | Some (a, b) -> String (String.sub s a (b - a))
        | None -> Undefined)
      t_groups
  in
  let arr = new_array vm items in
  set_prop_raw arr "index" (Number (float_of_int r.Regex.start));
  set_prop_raw arr "input" (String s);
  arr

let make_regexp vm ~pattern ~flags =
  let compiled = compile_regex vm ~pattern ~flags in
  let obj = new_object vm ~class_name:"RegExp" () in
  set_prop_raw obj "source" (String pattern);
  set_prop_raw obj "flags" (String flags);
  set_prop_raw obj "global" (Bool (Regex.global compiled));
  set_prop_raw obj "lastIndex" (Number 0.);
  method_ vm obj "test" (fun vm ~this:_ args -> Bool (Regex.test compiled (string_arg vm 0 args)));
  method_ vm obj "exec" (fun vm ~this:_ args ->
      let s = string_arg vm 0 args in
      let start =
        if Regex.global compiled then
          match get_prop_raw obj "lastIndex" with
          | Some (Number n) -> int_of_float n
          | _ -> 0
        else 0
      in
      match Regex.exec compiled s ~start with
      | Some r ->
          if Regex.global compiled then begin
            let next = if r.Regex.stop = r.Regex.start then r.Regex.stop + 1 else r.Regex.stop in
            set_prop_raw obj "lastIndex" (Number (float_of_int next))
          end;
          Object (match_array vm s r)
      | None ->
          if Regex.global compiled then set_prop_raw obj "lastIndex" (Number 0.);
          Null);
  method_ vm obj "toString" (fun _vm ~this:_ _ ->
      String (Printf.sprintf "/%s/%s" pattern flags));
  Object obj

(* Replace with a function replacer: called per match with the matched
   text, the captures, and the match offset. *)
let regex_replace_with_function vm compiled s f =
  let matches =
    if Regex.global compiled then Regex.match_all compiled s
    else match Regex.exec compiled s ~start:0 with Some r -> [ r ] | None -> []
  in
  let buf = Buffer.create (String.length s) in
  let cursor = ref 0 in
  List.iter
    (fun (r : Regex.match_result) ->
      if r.Regex.start >= !cursor then begin
        Buffer.add_string buf (String.sub s !cursor (r.Regex.start - !cursor));
        let args =
          Array.to_list r.Regex.groups
          |> List.map (function
               | Some (a, b) -> String (String.sub s a (b - a))
               | None -> Undefined)
        in
        let args = args @ [ Number (float_of_int r.Regex.start); String s ] in
        Buffer.add_string buf (to_string vm (vm.call_value f ~this:Undefined args));
        cursor := r.Regex.stop
      end)
    matches;
  Buffer.add_string buf (String.sub s !cursor (String.length s - !cursor));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* String methods on primitives                                        *)
(* ------------------------------------------------------------------ *)

let substring s a b =
  let n = String.length s in
  let clamp x = max 0 (min n x) in
  let a = clamp a and b = clamp b in
  let a, b = if a <= b then a, b else b, a in
  String.sub s a (b - a)

let js_slice_bounds len a b =
  let resolve x = if x < 0 then max 0 (len + x) else min x len in
  let a = resolve a and b = resolve b in
  if a >= b then None else Some (a, b - a)

let string_index_of ~from hay needle =
  let hn = String.length hay and nn = String.length needle in
  let rec search i =
    if i + nn > hn then -1
    else if String.sub hay i nn = needle then i
    else search (i + 1)
  in
  search (max 0 from)

let string_last_index_of hay needle =
  let hn = String.length hay and nn = String.length needle in
  let rec search i = if i < 0 then -1 else if String.sub hay i nn = needle then i else search (i - 1) in
  search (hn - nn)

let string_split s sep =
  if sep = "" then List.init (String.length s) (fun i -> String.make 1 s.[i])
  else begin
    let parts = ref [] in
    let rec loop start =
      match string_index_of ~from:start s sep with
      | -1 -> parts := String.sub s start (String.length s - start) :: !parts
      | i ->
          parts := String.sub s start (i - start) :: !parts;
          loop (i + String.length sep)
    in
    loop 0;
    List.rev !parts
  end

let string_replace_first s pat repl =
  if pat = "" then repl ^ s
  else
    match string_index_of ~from:0 s pat with
    | -1 -> s
    | i ->
        String.sub s 0 i ^ repl ^ String.sub s (i + String.length pat)
          (String.length s - i - String.length pat)

let string_member vm s name =
  let m fn = Some (builtin vm name (fun vm ~this:_ args -> fn vm args)) in
  match name with
  | "length" -> Some (Number (float_of_int (String.length s)))
  | "charAt" ->
      m (fun _vm args ->
          let i = int_arg 0 args in
          if i >= 0 && i < String.length s then String (String.make 1 s.[i]) else String "")
  | "charCodeAt" ->
      m (fun _vm args ->
          let i = int_arg 0 args in
          if i >= 0 && i < String.length s then Number (float_of_int (Char.code s.[i]))
          else Number Float.nan)
  | "indexOf" ->
      m (fun vm args -> Number (float_of_int (string_index_of ~from:(int_arg 1 args) s (string_arg vm 0 args))))
  | "lastIndexOf" ->
      m (fun vm args -> Number (float_of_int (string_last_index_of s (string_arg vm 0 args))))
  | "substring" ->
      m (fun _vm args ->
          let b = match arg 1 args with Undefined -> String.length s | v -> int_of_float (to_number v) in
          String (substring s (int_arg 0 args) b))
  | "substr" ->
      m (fun _vm args ->
          let start = int_arg 0 args in
          let start = if start < 0 then max 0 (String.length s + start) else min start (String.length s) in
          let len =
            match arg 1 args with
            | Undefined -> String.length s - start
            | v -> max 0 (min (int_of_float (to_number v)) (String.length s - start))
          in
          String (String.sub s start len))
  | "slice" ->
      m (fun _vm args ->
          let b = match arg 1 args with Undefined -> String.length s | v -> int_of_float (to_number v) in
          match js_slice_bounds (String.length s) (int_arg 0 args) b with
          | None -> String ""
          | Some (off, len) -> String (String.sub s off len))
  | "split" ->
      m (fun vm args ->
          let parts =
            match regex_of_value vm (arg 0 args) with
            | Some compiled -> Regex.split compiled s
            | None -> string_split s (string_arg vm 0 args)
          in
          (* ES5 §15.5.4.14: at most ToUint32(limit) parts. *)
          let limit =
            match arg 1 args with
            | Undefined -> max_int
            | v -> to_uint32 v
          in
          Object (new_array vm (List.filteri (fun i _ -> i < limit) (List.map (fun p -> String p) parts))))
  | "toUpperCase" -> m (fun _vm _ -> String (String.uppercase_ascii s))
  | "toLowerCase" -> m (fun _vm _ -> String (String.lowercase_ascii s))
  | "replace" ->
      m (fun vm args ->
          match regex_of_value vm (arg 0 args) with
          | Some compiled ->
              let by = arg 1 args in
              if is_callable by then String (regex_replace_with_function vm compiled s by)
              else String (Regex.replace compiled s ~by:(to_string vm by))
          | None ->
              String (string_replace_first s (string_arg vm 0 args) (string_arg vm 1 args)))
  | "concat" ->
      m (fun vm args -> String (List.fold_left (fun acc v -> acc ^ to_string vm v) s args))
  | "match" ->
      m (fun vm args ->
          match regex_of_value vm (arg 0 args) with
          | None -> Null
          | Some compiled ->
              if Regex.global compiled then begin
                match Regex.match_all compiled s with
                | [] -> Null
                | matches ->
                    Object
                      (new_array vm
                         (List.map
                            (fun (r : Regex.match_result) ->
                              String (String.sub s r.Regex.start (r.Regex.stop - r.Regex.start)))
                            matches))
              end
              else
                (match Regex.exec compiled s ~start:0 with
                | Some r -> Object (match_array vm s r)
                | None -> Null))
  | "search" ->
      m (fun vm args ->
          match regex_of_value vm (arg 0 args) with
          | None -> Number (-1.)
          | Some compiled -> (
              match Regex.exec compiled s ~start:0 with
              | Some r -> Number (float_of_int r.Regex.start)
              | None -> Number (-1.)))
  | "trim" -> m (fun _vm _ -> String (String.trim s))
  | "toString" -> m (fun _vm _ -> String s)
  | _ -> None

let number_member vm n name =
  let m fn = Some (builtin vm name (fun vm ~this:_ args -> fn vm args)) in
  match name with
  | "toFixed" ->
      m (fun _vm args ->
          let digits = int_arg 0 args in
          String (Printf.sprintf "%.*f" (max 0 (min 20 digits)) n))
  | "toString" -> m (fun _vm _ -> String (Pretty.number_to_string n))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Array.prototype                                                     *)
(* ------------------------------------------------------------------ *)

let this_obj vm this =
  match this with
  | Object o -> o
  | _ -> throw_error vm "TypeError" "method called on non-object"

let array_set_length obj n = set_prop_raw obj "length" (Number (float_of_int n))

let array_get obj i =
  match Hashtbl.find_opt obj.props (Pretty.int_to_string i) with Some c -> !c | None -> Undefined

let rec append obj len = function
  | [] -> len
  | v :: rest ->
      set_prop_raw obj (Pretty.int_to_string len) v;
      append obj (len + 1) rest

let install_array_proto vm =
  let proto = vm.array_proto in
  method_ vm proto "push" (fun vm ~this args ->
      let o = this_obj vm this in
      (* Append at the stored length, as [pop] reads it: constant time per
         element, and a sparse array keeps its holes. The new length is
         both stored and returned. *)
      let len = match get_prop_raw o "length" with Some (Number n) -> int_of_float n | _ -> 0 in
      let len = Number (float_of_int (append o len args)) in
      set_prop_raw o "length" len;
      len);
  method_ vm proto "pop" (fun vm ~this _ ->
      let o = this_obj vm this in
      let len = match get_prop_raw o "length" with Some (Number n) -> int_of_float n | _ -> 0 in
      if len = 0 then Undefined
      else begin
        let v = array_get o (len - 1) in
        Hashtbl.remove o.props (Pretty.int_to_string (len - 1));
        array_set_length o (len - 1);
        v
      end);
  method_ vm proto "shift" (fun vm ~this _ ->
      let o = this_obj vm this in
      let len = match get_prop_raw o "length" with Some (Number n) -> int_of_float n | _ -> 0 in
      if len = 0 then Undefined
      else begin
        let v = array_get o 0 in
        for i = 1 to len - 1 do
          set_prop_raw o (Pretty.int_to_string (i - 1)) (array_get o i)
        done;
        Hashtbl.remove o.props (Pretty.int_to_string (len - 1));
        array_set_length o (len - 1);
        v
      end);
  method_ vm proto "join" (fun vm ~this args ->
      let o = this_obj vm this in
      let sep = match arg 0 args with Undefined -> "," | v -> to_string vm v in
      String (String.concat sep (List.map (to_string vm) (array_elements o))));
  method_ vm proto "indexOf" (fun vm ~this args ->
      let o = this_obj vm this in
      let target = arg 0 args in
      let elems = array_elements o in
      (* ES5 §15.4.4.14: a negative fromIndex counts from the end. *)
      let from = Float.trunc (number_arg 1 args) in
      let from =
        if Float.is_nan from then 0.
        else if from < 0. then Float.max 0. (float_of_int (List.length elems) +. from)
        else from
      in
      let rec find i = function
        | [] -> -1
        | v :: rest ->
            if float_of_int i >= from && strict_equals v target then i else find (i + 1) rest
      in
      Number (float_of_int (find 0 elems)));
  method_ vm proto "slice" (fun vm ~this args ->
      let o = this_obj vm this in
      let elems = array_elements o in
      let len = List.length elems in
      let b = match arg 1 args with Undefined -> len | v -> int_of_float (to_number v) in
      (match js_slice_bounds len (int_arg 0 args) b with
      | None -> Object (new_array vm [])
      | Some (off, n) -> Object (new_array vm (List.filteri (fun i _ -> i >= off && i < off + n) elems))));
  method_ vm proto "concat" (fun vm ~this args ->
      let o = this_obj vm this in
      let extra =
        List.concat_map
          (fun v ->
            match v with
            | Object a when a.class_name = "Array" -> array_elements a
            | v -> [ v ])
          args
      in
      Object (new_array vm (array_elements o @ extra)));
  method_ vm proto "forEach" (fun vm ~this args ->
      let o = this_obj vm this in
      let f = arg 0 args in
      List.iteri
        (fun i v -> ignore (vm.call_value f ~this:Undefined [ v; Number (float_of_int i); this ]))
        (array_elements o);
      Undefined);
  method_ vm proto "map" (fun vm ~this args ->
      let o = this_obj vm this in
      let f = arg 0 args in
      let results =
        List.mapi
          (fun i v -> vm.call_value f ~this:Undefined [ v; Number (float_of_int i); this ])
          (array_elements o)
      in
      Object (new_array vm results));
  method_ vm proto "filter" (fun vm ~this args ->
      let o = this_obj vm this in
      let f = arg 0 args in
      let results =
        List.filteri
          (fun i v ->
            ignore i;
            to_boolean (vm.call_value f ~this:Undefined [ v; Number (float_of_int i); this ]))
          (array_elements o)
      in
      Object (new_array vm results));
  method_ vm proto "sort" (fun vm ~this args ->
      let o = this_obj vm this in
      let elems = array_elements o in
      let compare_js a b =
        match arg 0 args with
        | Undefined ->
            (* Default sort compares string representations. *)
            compare (to_string vm a) (to_string vm b)
        | f ->
            let r = to_number (vm.call_value f ~this:Undefined [ a; b ]) in
            if r < 0. then -1 else if r > 0. then 1 else 0
      in
      let sorted = List.stable_sort compare_js elems in
      List.iteri (fun i v -> set_prop_raw o (Pretty.int_to_string i) v) sorted;
      this);
  method_ vm proto "reverse" (fun vm ~this _ ->
      let o = this_obj vm this in
      let elems = List.rev (array_elements o) in
      List.iteri (fun i v -> set_prop_raw o (Pretty.int_to_string i) v) elems;
      this);
  method_ vm proto "toString" (fun vm ~this _ ->
      let o = this_obj vm this in
      String (String.concat "," (List.map (to_string vm) (array_elements o))))

(* ------------------------------------------------------------------ *)
(* Function.prototype, Object, constructors                            *)
(* ------------------------------------------------------------------ *)

let install_function_proto vm =
  method_ vm vm.function_proto "call" (fun vm ~this args ->
      match args with
      | [] -> vm.call_value this ~this:Undefined []
      | this' :: rest -> vm.call_value this ~this:this' rest);
  method_ vm vm.function_proto "apply" (fun vm ~this args ->
      let this' = arg 0 args in
      let rest = match arg 1 args with Object a when a.class_name = "Array" -> array_elements a | _ -> [] in
      vm.call_value this ~this:this' rest)

let install_constructors vm =
  (* Object *)
  let object_ctor =
    new_builtin vm "Object" (fun vm ~this:_ args ->
        match arg 0 args with
        | Object _ as v -> v
        | _ -> Object (new_object vm ()))
  in
  set_prop_raw object_ctor "prototype" (Object vm.object_proto);
  method_ vm object_ctor "keys" (fun vm ~this:_ args ->
      match arg 0 args with
      | Object o ->
          let keys = Hashtbl.fold (fun k _ acc -> k :: acc) o.props [] in
          let keys = List.filter (fun k -> not (o.class_name = "Array" && k = "length")) keys in
          Object (new_array vm (List.map (fun k -> String k) (List.sort compare keys)))
      | _ -> Object (new_array vm []));
  define_global vm "Object" (Object object_ctor);
  method_ vm vm.object_proto "hasOwnProperty" (fun vm ~this args ->
      let o = this_obj vm this in
      Bool (Hashtbl.mem o.props (string_arg vm 0 args)));
  method_ vm vm.object_proto "toString" (fun vm ~this _ ->
      match this with
      | Object o -> String (Printf.sprintf "[object %s]" o.class_name)
      | v -> String (to_string vm v));

  (* Array *)
  let array_ctor =
    new_builtin vm "Array" (fun vm ~this:_ args ->
        match args with
        | [ Number n ] when Float.is_integer n && n >= 0. ->
            let a = new_array vm [] in
            array_set_length a (int_of_float n);
            Object a
        | args -> Object (new_array vm args))
  in
  set_prop_raw array_ctor "prototype" (Object vm.array_proto);
  method_ vm array_ctor "isArray" (fun _vm ~this:_ args ->
      match arg 0 args with
      | Object o -> Bool (o.class_name = "Array")
      | _ -> Bool false);
  define_global vm "Array" (Object array_ctor);

  (* Errors *)
  let error_ctor kind =
    let ctor =
      new_builtin vm kind (fun vm ~this args ->
          let msg = match arg 0 args with Undefined -> "" | v -> to_string vm v in
          let obj =
            match this with
            | Object o when o.class_name = "Error" -> o
            | _ -> (
                match make_error vm kind msg with
                | Object o -> o
                | _ -> assert false)
          in
          set_prop_raw obj "name" (String kind);
          set_prop_raw obj "message" (String msg);
          Object obj)
    in
    set_prop_raw ctor "prototype" (Object vm.error_proto);
    define_global vm kind (Object ctor)
  in
  List.iter error_ctor [ "Error"; "TypeError"; "ReferenceError"; "RangeError" ];
  method_ vm vm.error_proto "toString" (fun vm ~this _ ->
      match this with
      | Object o ->
          let name = match get_prop_raw o "name" with Some v -> to_string vm v | None -> "Error" in
          let msg = match get_prop_raw o "message" with Some v -> to_string vm v | None -> "" in
          String (if msg = "" then name else name ^ ": " ^ msg)
      | v -> String (to_string vm v));

  (* String / Number / Boolean as conversion functions *)
  let string_ctor =
    new_builtin vm "String" (fun vm ~this:_ args ->
        match args with [] -> String "" | v :: _ -> String (to_string vm v))
  in
  method_ vm string_ctor "fromCharCode" (fun _vm ~this:_ args ->
      let chars =
        List.map
          (fun v ->
            let c = int_of_float (to_number v) land 0xff in
            String.make 1 (Char.chr c))
          args
      in
      String (String.concat "" chars));
  define_global vm "String" (Object string_ctor);
  define_global vm "Number"
    (builtin vm "Number" (fun _vm ~this:_ args ->
         match args with [] -> Number 0. | v :: _ -> Number (to_number v)));
  define_global vm "Boolean"
    (builtin vm "Boolean" (fun _vm ~this:_ args -> Bool (to_boolean (arg 0 args))));

  (* RegExp constructor: new RegExp(pattern, flags). *)
  define_global vm "RegExp"
    (builtin vm "RegExp" (fun vm ~this:_ args ->
         let pattern =
           match arg 0 args with
           | Object o when o.class_name = "RegExp" -> (
               match get_prop_raw o "source" with Some (String s) -> s | _ -> "")
           | Undefined -> ""
           | v -> to_string vm v
         in
         let flags = match arg 1 args with Undefined -> "" | v -> to_string vm v in
         make_regexp vm ~pattern ~flags));

  (* Date: backed by the virtual clock so [new Date().getTime()] is
     deterministic simulated time. *)
  let date_ctor =
    new_builtin vm "Date" (fun vm ~this args ->
        ignore args;
        let obj =
          match this with
          | Object o -> o
          | _ -> new_object vm ~class_name:"Date" ()
        in
        let t = vm.now () in
        set_prop_raw obj "_time" (Number t);
        method_ vm obj "getTime" (fun _vm ~this:_ _ -> Number t);
        method_ vm obj "valueOf" (fun _vm ~this:_ _ -> Number t);
        Object obj)
  in
  method_ vm date_ctor "now" (fun vm ~this:_ _ -> Number (vm.now ()));
  define_global vm "Date" (Object date_ctor)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let rec json_stringify vm ~seen v =
  match v with
  | Null -> Some "null"
  | Bool b -> Some (if b then "true" else "false")
  | Number n ->
      if Float.is_nan n || n = Float.infinity || n = Float.neg_infinity then Some "null"
      else Some (Pretty.number_to_string n)
  | String s ->
      let buf = Buffer.create (String.length s + 2) in
      Buffer.add_char buf '"';
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | '\r' -> Buffer.add_string buf "\\r"
          | '\t' -> Buffer.add_string buf "\\t"
          | c when Char.code c < 0x20 ->
              Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char buf c)
        s;
      Buffer.add_char buf '"';
      Some (Buffer.contents buf)
  | Undefined -> None
  | Object obj when obj.call <> None -> None
  | Object obj ->
      if List.memq obj seen then throw_error vm "TypeError" "Converting circular structure to JSON";
      let seen = obj :: seen in
      if obj.class_name = "Array" then
        Some
          (Printf.sprintf "[%s]"
             (String.concat ","
                (List.map
                   (fun e ->
                     match json_stringify vm ~seen e with Some s -> s | None -> "null")
                   (array_elements obj))))
      else begin
        let fields =
          Hashtbl.fold
            (fun k cell acc ->
              match json_stringify vm ~seen !cell with
              | Some s -> (k, s) :: acc
              | None -> acc)
            obj.props []
          |> List.sort compare
        in
        let field (k, s) =
          match json_stringify vm ~seen (String k) with
          | Some key -> key ^ ":" ^ s
          | None -> assert false
        in
        Some (Printf.sprintf "{%s}" (String.concat "," (List.map field fields)))
      end

(* A small strict JSON parser producing JS values. *)
let json_parse vm text =
  let n = String.length text in
  let pos = ref 0 in
  let error () = throw_error vm "SyntaxError" "Unexpected token in JSON" in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | Some _ | None -> ()
  in
  let expect c = if peek () = Some c then advance () else error () in
  let literal word v =
    if !pos + String.length word <= n && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else error ()
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> error ()
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char buf '"'; advance (); loop ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance (); loop ()
          | Some '/' -> Buffer.add_char buf '/'; advance (); loop ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance (); loop ()
          | Some 't' -> Buffer.add_char buf '\t'; advance (); loop ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance (); loop ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance (); loop ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then error ();
              let hex = String.sub text !pos 4 in
              (match int_of_string_opt ("0x" ^ hex) with
              | Some code when code < 128 -> Buffer.add_char buf (Char.chr code)
              | Some _ -> Buffer.add_char buf '?'
              | None -> error ());
              pos := !pos + 4;
              loop ()
          | _ -> error ())
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let rec digits () =
      match peek () with
      | Some c when c >= '0' && c <= '9' ->
          advance ();
          digits ()
      | _ -> ()
    in
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    match float_of_string_opt (String.sub text start (!pos - start)) with
    | Some f -> f
    | None -> error ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '{' ->
        advance ();
        let obj = new_object vm () in
        skip_ws ();
        if peek () = Some '}' then advance ()
        else begin
          let rec fields () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            set_prop_raw obj key v;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ()
            | Some '}' -> advance ()
            | _ -> error ()
          in
          fields ()
        end;
        Object obj
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Object (new_array vm [])
        end
        else begin
          let elems = ref [] in
          let rec items () =
            let v = parse_value () in
            elems := v :: !elems;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items ()
            | Some ']' -> advance ()
            | _ -> error ()
          in
          items ();
          Object (new_array vm (List.rev !elems))
        end
    | Some c when c = '-' || (c >= '0' && c <= '9') -> Number (parse_number ())
    | _ -> error ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then error ();
  v

let install_json vm =
  let json = new_object vm ~class_name:"JSON" () in
  method_ vm json "stringify" (fun vm ~this:_ args ->
      match json_stringify vm ~seen:[] (arg 0 args) with
      | Some s -> String s
      | None -> Undefined);
  method_ vm json "parse" (fun vm ~this:_ args -> json_parse vm (string_arg vm 0 args));
  define_global vm "JSON" (Object json)

let install_misc vm =
  define_global vm "parseInt"
    (builtin vm "parseInt" (fun vm ~this:_ args ->
         let s = String.trim (string_arg vm 0 args) in
         let radix = int_arg 1 args in
         (* Parse the longest valid prefix, JS-style. *)
         let digit c =
           if c >= '0' && c <= '9' then Char.code c - Char.code '0'
           else if c >= 'a' && c <= 'z' then Char.code c - Char.code 'a' + 10
           else if c >= 'A' && c <= 'Z' then Char.code c - Char.code 'A' + 10
           else 99
         in
         let sign, start =
           if s = "" then 1., 0
           else if s.[0] = '-' then -1., 1
           else if s.[0] = '+' then 1., 1
           else 1., 0
         in
         (* ES5 §15.1.2.2: a 0x prefix selects hex when the radix is 16,
            absent or 0; an absent or 0 radix is otherwise 10. *)
         let start, radix =
           if (radix = 16 || radix = 0) && String.length s >= start + 2 && s.[start] = '0'
              && (s.[start + 1] = 'x' || s.[start + 1] = 'X')
           then start + 2, 16
           else start, if radix = 0 then 10 else radix
         in
         let rec loop i acc seen =
           if i >= String.length s then (acc, seen)
           else
             let d = digit s.[i] in
             if d >= radix then (acc, seen) else loop (i + 1) ((acc *. float_of_int radix) +. float_of_int d) true
         in
         let value, seen = loop start 0. false in
         if seen then Number (sign *. value) else Number Float.nan));
  define_global vm "parseFloat"
    (builtin vm "parseFloat" (fun vm ~this:_ args ->
         let s = String.trim (string_arg vm 0 args) in
         (* Longest numeric prefix. *)
         let n = String.length s in
         let rec best i =
           if i > n then None
           else
             match float_of_string_opt (String.sub s 0 i) with
             | Some f -> ( match best (i + 1) with Some f' -> Some f' | None -> Some f)
             | None -> best (i + 1)
         in
         match best 1 with Some f -> Number f | None -> Number Float.nan));
  define_global vm "isNaN"
    (builtin vm "isNaN" (fun _vm ~this:_ args -> Bool (Float.is_nan (number_arg 0 args))));
  define_global vm "isFinite"
    (builtin vm "isFinite" (fun _vm ~this:_ args ->
         let n = number_arg 0 args in
         Bool (not (Float.is_nan n) && n <> Float.infinity && n <> Float.neg_infinity)));
  let uri_unreserved c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || String.contains "-_.!~*'()" c
  in
  define_global vm "encodeURIComponent"
    (builtin vm "encodeURIComponent" (fun vm ~this:_ args ->
         let s = string_arg vm 0 args in
         let buf = Buffer.create (String.length s) in
         String.iter
           (fun c ->
             if uri_unreserved c then Buffer.add_char buf c
             else Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
           s;
         String (Buffer.contents buf)));
  define_global vm "decodeURIComponent"
    (builtin vm "decodeURIComponent" (fun vm ~this:_ args ->
         let s = string_arg vm 0 args in
         let buf = Buffer.create (String.length s) in
         let n = String.length s in
         let rec go i =
           if i < n then
             if s.[i] = '%' && i + 2 < n then begin
               match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
               | Some code ->
                   Buffer.add_char buf (Char.chr (code land 0xff));
                   go (i + 3)
               | None ->
                   Buffer.add_char buf s.[i];
                   go (i + 1)
             end
             else begin
               Buffer.add_char buf s.[i];
               go (i + 1)
             end
         in
         go 0;
         String (Buffer.contents buf)));
  let console = new_object vm ~class_name:"Console" () in
  method_ vm console "log" (fun vm ~this:_ args ->
      let line = String.concat " " (List.map (to_string vm) args) in
      vm.console := line :: !(vm.console);
      Undefined);
  method_ vm console "error" (fun vm ~this:_ args ->
      let line = String.concat " " (List.map (to_string vm) args) in
      vm.console := ("[error] " ^ line) :: !(vm.console);
      Undefined);
  define_global vm "console" (Object console);
  define_global vm "undefined" Undefined;
  define_global vm "NaN" (Number Float.nan);
  define_global vm "Infinity" (Number Float.infinity)

let install vm =
  install_math vm;
  install_array_proto vm;
  install_function_proto vm;
  install_constructors vm;
  install_json vm;
  install_misc vm
