module Graph = Wr_hb.Graph
module Op = Wr_hb.Op
module Access = Wr_mem.Access
module Location = Wr_mem.Location
module Json = Wr_support.Json

type op_record = { op_id : Op.id; kind : string; label : string }

type t = {
  ops : op_record list;
  edges : (Op.id * Op.id) list;
  accesses : Access.t list;
}

let capture graph ~accesses =
  let ops = ref [] in
  Graph.iter_ops
    (fun info ->
      ops :=
        { op_id = info.Op.id; kind = Op.kind_name info.Op.kind; label = info.Op.label }
        :: !ops)
    graph;
  let edges = ref [] in
  Graph.iter_ops
    (fun info ->
      List.iter (fun s -> edges := (info.Op.id, s) :: !edges) (Graph.succs graph info.Op.id))
    graph;
  { ops = List.rev !ops; edges = List.sort compare !edges; accesses }

let recorder (inner : Detector.t) =
  let log = ref [] in
  let d =
    {
      Detector.name = inner.Detector.name ^ "+recorder";
      record =
        (fun loc kind op flags context ->
          log := { Access.loc; kind; op; flags; context } :: !log;
          inner.Detector.record loc kind op flags context);
      races = inner.Detector.races;
      accesses_seen = inner.Detector.accesses_seen;
    }
  in
  (d, fun () -> List.rev !log)

let rebuild_graph ?strategy t =
  let g = Graph.create ?strategy () in
  List.iter
    (fun { op_id; kind; label } ->
      let id = Graph.fresh g Op.Script ~label:(Printf.sprintf "%s: %s" kind label) in
      if id <> op_id then invalid_arg "Trace.rebuild_graph: non-dense op ids")
    t.ops;
  List.iter (fun (a, b) -> Graph.add_edge g a b) t.edges;
  g

let replay ?strategy t ~detector =
  let g = rebuild_graph ?strategy t in
  let d = detector g in
  List.iter (Detector.record_access d) t.accesses;
  d.Detector.races ()

(* --- serialization ------------------------------------------------- *)

let slot_to_json = function
  | Location.Attr -> Json.String "attr"
  | Location.Container -> Json.String "container"
  | Location.Listener uid -> Json.Int uid

let slot_of_json = function
  | Json.String "attr" -> Location.Attr
  | Json.String "container" -> Location.Container
  | Json.Int uid -> Location.Listener uid
  | _ -> raise (Json.Parse_error "bad handler slot")

let loc_to_json = function
  | Location.Js_var { cell; name; _ } ->
      Json.Obj [ ("t", Json.String "var"); ("cell", Json.Int cell); ("name", Json.String name) ]
  | Location.Html_elem (Location.Node { uid; _ }) ->
      Json.Obj [ ("t", Json.String "node"); ("uid", Json.Int uid) ]
  | Location.Html_elem (Location.Id { doc; id; _ }) ->
      Json.Obj [ ("t", Json.String "id"); ("doc", Json.Int doc); ("id", Json.String id) ]
  | Location.Html_elem (Location.Collection { doc; name; _ }) ->
      Json.Obj
        [ ("t", Json.String "collection"); ("doc", Json.Int doc); ("name", Json.String name) ]
  | Location.Event_handler { target; event; slot; _ } ->
      Json.Obj
        [
          ("t", Json.String "handler");
          ("target", Json.Int target);
          ("event", Json.String event);
          ("slot", slot_to_json slot);
        ]

(* Keys are per analysis and never serialized: a loaded location is
   built without one and re-keyed through the loader's [keys] table. *)
let loc_of_json keys j =
  let key = Location.no_key in
  let loc =
    match Json.to_str (Json.member "t" j) with
    | "var" ->
        Location.Js_var
          {
            cell = Json.to_int (Json.member "cell" j);
            name = Json.to_str (Json.member "name" j);
            key;
          }
    | "node" -> Location.Html_elem (Location.Node { uid = Json.to_int (Json.member "uid" j); key })
    | "id" ->
        Location.Html_elem
          (Location.Id
             {
               doc = Json.to_int (Json.member "doc" j);
               id = Json.to_str (Json.member "id" j);
               key;
             })
    | "collection" ->
        Location.Html_elem
          (Location.Collection
             {
               doc = Json.to_int (Json.member "doc" j);
               name = Json.to_str (Json.member "name" j);
               key;
             })
    | "handler" ->
        Location.Event_handler
          {
            target = Json.to_int (Json.member "target" j);
            event = Json.to_str (Json.member "event" j);
            slot = slot_of_json (Json.member "slot" j);
            key;
          }
    | other -> raise (Json.Parse_error ("unknown location tag " ^ other))
  in
  Location.Keys.intern keys loc

let flag_names =
  [
    (Access.Function_decl, "function-decl");
    (Access.Call_position, "call");
    (Access.Form_field, "form-field");
    (Access.Observed_miss, "miss");
    (Access.User_input, "user-input");
    (Access.Checked_read_first, "checked-read-first");
  ]

let flag_to_json f = Json.String (List.assoc f flag_names)

let flag_of_json j =
  let name = Json.to_str j in
  match List.find_opt (fun (_, n) -> n = name) flag_names with
  | Some (f, _) -> f
  | None -> raise (Json.Parse_error ("unknown access flag " ^ name))

let access_to_json (a : Access.t) =
  Json.Obj
    [
      ("loc", loc_to_json a.Access.loc);
      ("kind", Json.String (match a.Access.kind with `Read -> "r" | `Write -> "w"));
      ("op", Json.Int a.Access.op);
      ("flags", Json.List (List.map flag_to_json a.Access.flags));
      ("ctx", Json.String a.Access.context);
    ]

let access_of_json keys j =
  let kind =
    match Json.to_str (Json.member "kind" j) with
    | "r" -> `Read
    | "w" -> `Write
    | _ -> raise (Json.Parse_error "bad access kind")
  in
  let op = Json.to_int (Json.member "op" j) in
  let loc = loc_of_json keys (Json.member "loc" j) in
  let context = Json.to_str (Json.member "ctx" j) in
  let flags = List.map flag_of_json (Json.to_list (Json.member "flags" j)) in
  { Access.loc; kind; op; flags; context }

let to_json t =
  Json.Obj
    [
      ( "ops",
        Json.List
          (List.map
             (fun { op_id; kind; label } ->
               Json.Obj
                 [
                   ("id", Json.Int op_id); ("kind", Json.String kind);
                   ("label", Json.String label);
                 ])
             t.ops) );
      ( "edges",
        Json.List (List.map (fun (a, b) -> Json.List [ Json.Int a; Json.Int b ]) t.edges) );
      ("accesses", Json.List (List.map access_to_json t.accesses));
    ]

let of_json j =
  let ops =
    List.map
      (fun o ->
        {
          op_id = Json.to_int (Json.member "id" o);
          kind = Json.to_str (Json.member "kind" o);
          label = Json.to_str (Json.member "label" o);
        })
      (Json.to_list (Json.member "ops" j))
  in
  let edges =
    List.map
      (fun e ->
        match Json.to_list e with
        | [ a; b ] -> (Json.to_int a, Json.to_int b)
        | _ -> raise (Json.Parse_error "bad edge"))
      (Json.to_list (Json.member "edges" j))
  in
  let keys = Location.Keys.create () in
  let accesses = List.map (access_of_json keys) (Json.to_list (Json.member "accesses" j)) in
  { ops; edges; accesses }

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string (to_json t)))

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_json (Json.of_string (really_input_string ic (in_channel_length ic))))
