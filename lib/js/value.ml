type t =
  | Undefined
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Object of obj

and obj = {
  oid : int;
  class_name : string;
  mutable proto : obj option;
  props : (string, t ref) Hashtbl.t;
  mutable call : callable option;
  mutable host : host option;
}

and callable =
  | Closure of closure
  | Builtin of string * (vm -> this:t -> t list -> t)

and closure = { params : string list; env : env; func_name : string; code : code }

and code = { mutable enter : env -> this:t -> t list -> t }

and env = { slots : t array; cells : Wr_mem.Location.t array; this : t; parent : env }

and global_scope = { scope_id : int; vars : (string, t ref) Hashtbl.t }

and host = {
  host_id : int;
  host_kind : string;
  host_get : vm -> obj -> string -> t option;
  host_set : vm -> obj -> string -> t -> bool;
}

and vm = {
  mutable sink : Wr_mem.Access.sink;
  mutable instrument : bool;
  mutable current_op : Wr_hb.Op.id;
  mutable context : string;
  mutable fuel : int;
  fuel_limit : int;
  rng : Wr_support.Rng.t;
  cell_ids : Wr_mem.Location.Cells.t;
  mutable next_id : int;
  mutable next_key : int;
  global : global_scope;
  object_proto : obj;
  array_proto : obj;
  function_proto : obj;
  error_proto : obj;
  mutable global_this : t;
  mutable now : unit -> float;
  mutable call_value : t -> this:t -> t list -> t;
  console : string list ref;
  mutable tm : Wr_telemetry.Telemetry.t;
}

exception Js_throw of t

exception Fuel_exhausted

let fresh_id vm =
  let id = vm.next_id in
  vm.next_id <- id + 1;
  id

let fresh_key vm =
  let k = vm.next_key in
  vm.next_key <- k + 1;
  k

let cell_loc vm ~owner name =
  match Wr_mem.Location.Cells.find vm.cell_ids ~owner name with
  | loc -> loc
  | exception Not_found ->
      let loc = Wr_mem.Location.Js_var { cell = fresh_id vm; name; key = fresh_key vm } in
      Wr_mem.Location.Cells.add vm.cell_ids ~owner name loc;
      loc

let unset_cell = Wr_mem.Location.Js_var { cell = -1; name = ""; key = Wr_mem.Location.no_key }

let mk_obj ~oid ?proto ?(class_name = "Object") () =
  { oid; class_name; proto; props = Hashtbl.create 8; call = None; host = None }

let create_vm ?(seed = 0) ?(fuel = 50_000_000) ~sink () =
  (* Bootstrap: prototypes and the global scope need ids before the vm
     record exists, so mint them from a local counter continued by vm. *)
  let counter = ref 0 in
  let next () =
    let id = !counter in
    incr counter;
    id
  in
  let object_proto = mk_obj ~oid:(next ()) () in
  let array_proto = mk_obj ~oid:(next ()) ~proto:object_proto () in
  let function_proto = mk_obj ~oid:(next ()) ~proto:object_proto () in
  let error_proto = mk_obj ~oid:(next ()) ~proto:object_proto ~class_name:"Error" () in
  let global = { scope_id = next (); vars = Hashtbl.create 64 } in
  {
    sink;
    instrument = true;
    current_op = 0;
    context = "";
    fuel;
    fuel_limit = fuel;
    rng = Wr_support.Rng.of_int seed;
    cell_ids = Wr_mem.Location.Cells.create 1024;
    next_id = !counter;
    next_key = 0;
    global;
    object_proto;
    array_proto;
    function_proto;
    error_proto;
    global_this = Undefined;
    now = (fun () -> 0.);
    call_value =
      (fun _ ~this:_ _ -> failwith "Value.call_value: interpreter not initialized");
    console = ref [];
    tm = Wr_telemetry.Telemetry.disabled;
  }

let new_object vm ?proto ?(class_name = "Object") () =
  let proto = match proto with Some p -> p | None -> vm.object_proto in
  mk_obj ~oid:(fresh_id vm) ~proto ~class_name ()

let set_prop_raw obj name v =
  match Hashtbl.find_opt obj.props name with
  | Some cell -> cell := v
  | None -> Hashtbl.add obj.props name (ref v)

let rec get_prop_raw obj name =
  match Hashtbl.find_opt obj.props name with
  | Some cell -> Some !cell
  | None -> ( match obj.proto with Some p -> get_prop_raw p name | None -> None)

let new_closure vm closure =
  let obj = new_object vm ~proto:vm.function_proto ~class_name:"Function" () in
  obj.call <- Some (Closure closure);
  let prototype = new_object vm () in
  set_prop_raw prototype "constructor" (Object obj);
  set_prop_raw obj "prototype" (Object prototype);
  set_prop_raw obj "length" (Number (float_of_int (List.length closure.params)));
  set_prop_raw obj "name" (String closure.func_name);
  obj

let new_builtin vm name fn =
  let obj = new_object vm ~proto:vm.function_proto ~class_name:"Function" () in
  obj.call <- Some (Builtin (name, fn));
  set_prop_raw obj "name" (String name);
  obj

let new_array vm elems =
  let obj = new_object vm ~proto:vm.array_proto ~class_name:"Array" () in
  List.iteri (fun i v -> set_prop_raw obj (Pretty.int_to_string i) v) elems;
  set_prop_raw obj "length" (Number (float_of_int (List.length elems)));
  obj

let array_length obj =
  match get_prop_raw obj "length" with
  | Some (Number n) when n >= 0. -> int_of_float n
  | Some _ | None -> 0

let array_elements obj =
  List.init (array_length obj) (fun i ->
      match Hashtbl.find_opt obj.props (Pretty.int_to_string i) with
      | Some cell -> !cell
      | None -> Undefined)

let throw v = raise (Js_throw v)

let make_error vm kind msg =
  let obj = new_object vm ~proto:vm.error_proto ~class_name:"Error" () in
  set_prop_raw obj "name" (String kind);
  set_prop_raw obj "message" (String msg);
  Object obj

let throw_error vm kind msg = throw (make_error vm kind msg)

let to_boolean = function
  | Undefined | Null -> false
  | Bool b -> b
  | Number n -> n <> 0. && not (Float.is_nan n)
  | String s -> s <> ""
  | Object _ -> true

let number_of_string s =
  let s = String.trim s in
  if s = "" then 0.
  else
    match float_of_string_opt s with
    | Some f -> f
    | None -> Float.nan

let to_number = function
  | Undefined -> Float.nan
  | Null -> 0.
  | Bool true -> 1.
  | Bool false -> 0.
  | Number n -> n
  | String s -> number_of_string s
  | Object _ -> Float.nan

let is_array obj = obj.class_name = "Array"

let rec to_string vm v =
  match v with
  | Undefined -> "undefined"
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Number n -> Pretty.number_to_string n
  | String s -> s
  | Object obj -> (
      match get_prop_raw obj "toString" with
      | Some (Object f as fv) when f.call <> None ->
          to_string vm (vm.call_value fv ~this:v [])
      | Some _ | None ->
          if is_array obj then
            String.concat "," (List.map (to_string vm) (array_elements obj))
          else if obj.call <> None then "function () { [code] }"
          else Printf.sprintf "[object %s]" obj.class_name)

let to_primitive vm v =
  match v with Object _ -> String (to_string vm v) | _ -> v

let to_int32 v =
  let n = to_number v in
  if Float.is_nan n || n = Float.infinity || n = Float.neg_infinity then 0l
  else
    (* [Int64.of_float] is unspecified from 2^63 on; floats that large are
       integers, so reducing them modulo 2^32 first is exact. *)
    let n = if Float.abs n < 0x1p63 then n else Float.rem n 0x1p32 in
    Int64.to_int32 (Int64.of_float n)

let to_uint32 v = Int32.to_int (to_int32 v) land 0xFFFF_FFFF

let strict_equals a b =
  match a, b with
  | Undefined, Undefined | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Number x, Number y -> x = y  (* NaN <> NaN, +0 = -0: float equality *)
  | String x, String y -> String.equal x y
  | Object x, Object y -> x == y
  | (Undefined | Null | Bool _ | Number _ | String _ | Object _), _ -> false

let rec loose_equals vm a b =
  match a, b with
  | Undefined, Null | Null, Undefined -> true
  | Number _, String _ -> loose_equals vm a (Number (to_number b))
  | String _, Number _ -> loose_equals vm (Number (to_number a)) b
  | Bool _, _ -> loose_equals vm (Number (to_number a)) b
  | _, Bool _ -> loose_equals vm a (Number (to_number b))
  | Object _, (Number _ | String _) -> loose_equals vm (to_primitive vm a) b
  | (Number _ | String _), Object _ -> loose_equals vm a (to_primitive vm b)
  | _ -> strict_equals a b

let type_of = function
  | Undefined -> "undefined"
  | Null -> "object"
  | Bool _ -> "boolean"
  | Number _ -> "number"
  | String _ -> "string"
  | Object obj -> if obj.call <> None then "function" else "object"

let is_callable = function Object obj -> obj.call <> None | _ -> false

let describe = function
  | Undefined -> "undefined"
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Number n -> Pretty.number_to_string n
  | String s -> Printf.sprintf "%S" s
  | Object obj ->
      if obj.call <> None then Printf.sprintf "<function:%d>" obj.oid
      else Printf.sprintf "<%s:%d>" obj.class_name obj.oid
