module Graph = Wr_hb.Graph
module Op = Wr_hb.Op
module Access = Wr_mem.Access
module Location = Wr_mem.Location
module Instr = Wr_mem.Instr
module Detector = Wr_detect.Detector
module Html = Wr_html.Html
module Dom = Wr_dom.Dom
module Events = Wr_events.Events
module Event_loop = Wr_scheduler.Event_loop
module Network = Wr_scheduler.Network
module Value = Wr_js.Value
module Interp = Wr_js.Interp
module Parser = Wr_js.Parser
module Lexer = Wr_js.Lexer
module Telemetry = Wr_telemetry.Telemetry

type crash = { op : Op.id; message : string; context : string }

type fetch_state = Fetch_pending | Fetch_arrived of string | Fetch_failed

type window = {
  win_uid : int;
  doc : Dom.document;
  frame : frame option;
  mutable win_obj : Value.obj;
  mutable doc_obj : Value.obj;
  mutable parse_items : item list;
  mutable parse_preds : Op.id list;
  mutable parsing_done : bool;
  mutable blocked_on_script : bool;
  mutable deferred : defer list;  (* syntactic order *)
  mutable dcl_done : bool;
  mutable dcl_ops : Op.id list;
  mutable load_fired : bool;
  mutable pending_loads : int;
  mutable load_preds : Op.id list;
  mutable defer_ld_ops : Op.id list;
}

and frame = { parent : window; iframe_node : Dom.node }

and item =
  | I_elem of { elem : Html.element; item_parent : Dom.node }
  | I_text of { content : string; item_parent : Dom.node }

and defer = {
  defer_node : Dom.node;
  defer_parse_op : Op.id;
  defer_url : string;
  mutable defer_state : fetch_state;
}

type interval_state = {
  mutable iter : int;
  mutable last_op : Op.id;
  mutable active : bool;
  mutable pending : Event_loop.handle option;
}

type t = {
  config : Config.t;
  graph : Graph.t;
  det : Detector.t;
  vm : Value.vm;
  instr : Instr.t;
  loop : Event_loop.t;
  net : Network.t;
  registry : Value.t Events.t;
  init_op : Op.id;
  mutable main : window option;
  mutable windows : window list;
  mutable current_window : window option;
  node_objs : (int, Value.obj) Hashtbl.t;
  nodes : (int, Dom.node * window) Hashtbl.t;
  create_ops : (int, Op.id) Hashtbl.t;
  dispatch_ops : (int * string * int, Op.id list) Hashtbl.t;
  counted_loadables : (int, unit) Hashtbl.t;
  load_started : (int, unit) Hashtbl.t;
  timeouts : (int, Event_loop.handle) Hashtbl.t;  (* timer uid -> loop handle *)
  intervals : (int, interval_state) Hashtbl.t;
  mutable crashes : crash list;
  mutable segment_counter : int;
  recorded_accesses : (unit -> Access.t list) option;
  dedup_stats : (unit -> Wr_detect.Dedup.stats) option;
  mutable doc_write : (window * Dom.node * Buffer.t) option;
      (* accumulates document.write output while a parser-driven script
         runs; flushed into the parse stream when the script completes *)
}

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let graph t = t.graph

let detector t = t.det

let crashes t = List.rev t.crashes

let console t = List.rev !(t.vm.Value.console)

let virtual_now t = Event_loop.now t.loop

let accesses_seen t = t.det.Detector.accesses_seen ()

let dedup_stats t = match t.dedup_stats with Some read -> Some (read ()) | None -> None

let trace t =
  match t.recorded_accesses with
  | Some read -> Some (Wr_detect.Trace.capture t.graph ~accesses:(read ()))
  | None -> None

let run_info t =
  {
    Wr_detect.Filters.dispatch_count =
      (fun ~target ~event -> Events.dispatch_count t.registry ~target ~event);
  }

let main_window t = match t.main with Some w -> w | None -> failwith "Browser: not started"

let main_document t = (main_window t).doc

let window_load_fired t = (main_window t).load_fired

(* ------------------------------------------------------------------ *)
(* Operation plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let set_op t op ~label =
  t.instr.Instr.op <- op;
  t.instr.Instr.context <- label;
  t.vm.Value.current_op <- op;
  t.vm.Value.context <- label

let current_op t = t.instr.Instr.op

let fresh_op t kind ~label ~preds =
  let op = Graph.fresh t.graph kind ~label in
  List.iter (fun p -> if p < op then Graph.add_edge t.graph p op) (List.sort_uniq compare preds);
  op

let describe_throw t v =
  match v with
  | Value.Object o -> (
      match Value.get_prop_raw o "name", Value.get_prop_raw o "message" with
      | Some n, Some m -> Value.to_string t.vm n ^ ": " ^ Value.to_string t.vm m
      | _ -> Value.describe v)
  | _ -> Value.describe v

let tel t = t.config.Config.telemetry

(* Guarded span: the disabled path must not even allocate the closure's
   span bookkeeping, so hot callers stay at seed-baseline cost. *)
let span t ~cat ~name f =
  let tm = tel t in
  if Telemetry.enabled tm then Telemetry.with_span tm ~cat ~name f else f ()

let record_crash t message =
  Wr_support.Log.warn "browser.crash"
    [
      ("op", Wr_support.Json.Int (current_op t));
      ("message", Wr_support.Json.String message);
      ("context", Wr_support.Json.String t.instr.Instr.context);
    ];
  t.crashes <- { op = current_op t; message; context = t.instr.Instr.context } :: t.crashes

(* Run [f] as operation [op]; swallow script crashes like a browser (§2.3).
   Returns the final segment id (inline dispatch may have split the op). *)
let within_op t op ~label f =
  let saved_op = t.instr.Instr.op and saved_ctx = t.instr.Instr.context in
  set_op t op ~label;
  Interp.refuel t.vm;
  (try f () with
  | Value.Js_throw v -> record_crash t ("uncaught exception: " ^ describe_throw t v)
  | Value.Fuel_exhausted -> record_crash t "script exceeded step budget");
  let final = current_op t in
  set_op t saved_op ~label:saved_ctx;
  final

let enter_window t w =
  t.current_window <- Some w;
  Hashtbl.replace t.vm.Value.global.Value.vars "document" (ref (Value.Object w.doc_obj));
  Hashtbl.replace t.vm.Value.global.Value.vars "window" (ref (Value.Object w.win_obj))

(* ------------------------------------------------------------------ *)
(* Event dispatch (rules 8, 9; Appendix A)                             *)
(* ------------------------------------------------------------------ *)

let node_path (node : Dom.node) =
  let rec up acc (n : Dom.node) =
    match n.Dom.parent with Some p -> up (n.Dom.uid :: acc) p | None -> n.Dom.uid :: acc
  in
  up [] node

(* The event object handlers receive: [stopPropagation] suppresses the
   remaining handler steps, [preventDefault] cancels the default action. *)
let make_event_object t ~event ~target_value =
  let obj = Value.new_object t.vm ~class_name:"Event" () in
  let stopped = ref false in
  let default_prevented = ref false in
  Value.set_prop_raw obj "type" (Value.String event);
  Value.set_prop_raw obj "target" target_value;
  Value.set_prop_raw obj "stopPropagation"
    (Value.Object
       (Value.new_builtin t.vm "stopPropagation" (fun _vm ~this:_ _ ->
            stopped := true;
            Value.Undefined)));
  Value.set_prop_raw obj "preventDefault"
    (Value.Object
       (Value.new_builtin t.vm "preventDefault" (fun _vm ~this:_ _ ->
            default_prevented := true;
            Value.Undefined)));
  (obj, stopped, default_prevented)

let rec dispatch t ?win ~target ~path ~event ~bubbles ~preds ?(target_value = Value.Undefined)
    ?default_action () =
  span t ~cat:"dispatch" ~name:("dispatch " ^ event) (fun () ->
      dispatch_body t ?win ~target ~path ~event ~bubbles ~preds ~target_value ?default_action
        ())

and dispatch_body t ?win ~target ~path ~event ~bubbles ~preds ~target_value ?default_action ()
    =
  let index = Events.record_dispatch t.registry ~target ~event in
  let preds =
    let create_pred =
      match Hashtbl.find_opt t.create_ops target with Some op -> [ op ] | None -> []
    in
    let rule9_preds =
      if index > 0 then
        match Hashtbl.find_opt t.dispatch_ops (target, event, index - 1) with
        | Some ops -> ops
        | None -> []
      else []
    in
    preds @ create_pred @ rule9_preds
  in
  (match win with Some w -> enter_window t w | None -> ());
  let label = Printf.sprintf "dispatch %s[%d] @node#%d" event index target in
  let anchor = fresh_op t (Op.Dispatch_anchor { event; index }) ~label ~preds in
  (* The browser's own read of handler containers along the path (the
     event-dispatch-race read of Fig. 5). *)
  let anchor_final =
    within_op t anchor ~label (fun () ->
        List.iter
          (fun uid -> Instr.emit t.instr (Events.container_location ~target:uid ~event) `Read)
          path)
  in
  let plan = Events.plan t.registry ~path ~event ~bubbles in
  let target_value =
    match target_value with
    | Value.Undefined -> (
        match Hashtbl.find_opt t.node_objs target with
        | Some o -> Value.Object o
        | None -> Value.Undefined)
    | v -> v
  in
  let event_obj, stopped, default_prevented = make_event_object t ~event ~target_value in
  (* Appendix A phasing: ops of earlier (phase, current-target) groups
     precede ops of later groups; ops within a group stay unordered. *)
  let all_ops = ref [ anchor_final ] in
  let prior_ops = ref [ anchor_final ] in
  let group = ref [] in
  let group_key = ref None in
  let flush_group () =
    prior_ops := !group @ !prior_ops;
    group := []
  in
  List.iter
    (fun (step : Value.t Events.step) ->
      if not !stopped then begin
      let key = (step.Events.phase, step.Events.current_target) in
      if !group_key <> Some key then begin
        flush_group ();
        group_key := Some key
      end;
      let hlabel =
        Printf.sprintf "%s handler (%s) @node#%d" event
          (Events.phase_name step.Events.phase)
          step.Events.current_target
      in
      let op =
        fresh_op t
          (Op.Handler { event; index; phase = Events.phase_name step.Events.phase })
          ~label:hlabel ~preds:!prior_ops
      in
      let final =
        span t ~cat:"dispatch" ~name:hlabel (fun () ->
            within_op t op ~label:hlabel (fun () ->
                Instr.emit t.instr
                  (Location.Event_handler
                     { target = step.Events.current_target; event; slot = step.Events.slot })
                  `Read;
                ignore
                  (Interp.call t.vm step.Events.callback ~this:target_value
                     [ Value.Object event_obj ])))
      in
      group := final :: !group;
      all_ops := final :: !all_ops
      end)
    plan;
  flush_group ();
  (match default_action with
  | Some _ when !default_prevented -> ()
  | Some f ->
      let dlabel = Printf.sprintf "%s default action @node#%d" event target in
      let op =
        fresh_op t (Op.Handler { event; index; phase = "default" }) ~label:dlabel
          ~preds:!prior_ops
      in
      let final = span t ~cat:"dispatch" ~name:dlabel (fun () -> within_op t op ~label:dlabel f) in
      all_ops := final :: !all_ops
  | None -> ());
  let ops = List.rev !all_ops in
  Hashtbl.replace t.dispatch_ops (target, event, index) ops;
  ops

(* Inline (programmatic) dispatch: split the interrupted operation
   (Appendix A "splitting happens-before"). *)
and dispatch_inline t ?win ~target ~path ~event ~bubbles ?default_action () =
  let interrupted = current_op t in
  let interrupted_label = t.instr.Instr.context in
  let ops =
    dispatch t ?win ~target ~path ~event ~bubbles ~preds:[ interrupted ] ?default_action ()
  in
  t.segment_counter <- t.segment_counter + 1;
  let label = Printf.sprintf "%s [segment %d]" interrupted_label t.segment_counter in
  let segment =
    fresh_op t
      (Op.Segment { parent = interrupted; part = t.segment_counter })
      ~label
      ~preds:(interrupted :: ops)
  in
  set_op t segment ~label

(* ------------------------------------------------------------------ *)
(* load / DOMContentLoaded bookkeeping (rules 7, 11-15)                *)
(* ------------------------------------------------------------------ *)

let rec maybe_fire_window_load t w =
  if w.parsing_done && w.dcl_done && w.pending_loads = 0 && not w.load_fired then begin
    w.load_fired <- true;
    if w.frame = None then Telemetry.mark (tel t) ~cat:"page" "load";
    if w.frame = None then
      Wr_support.Log.info "page.load"
        [ ("virtual_ms", Wr_support.Json.Float (Event_loop.now t.loop)) ];
    let preds = w.dcl_ops @ w.load_preds in
    let ops =
      dispatch t ~win:w ~target:w.win_uid ~path:[ w.win_uid ] ~event:"load" ~bubbles:false
        ~preds ~target_value:(Value.Object w.win_obj) ()
    in
    match w.frame with
    | None -> ()
    | Some { parent; iframe_node } ->
        ignore (element_load t parent iframe_node ~event:"load" ~preds:ops)
  end

(* Dispatch load/error on an element; returns the dispatch ops and keeps
   the owning window's rule-15 state. *)
and element_load t w node ~event ~preds =
  let ops =
    dispatch t ~win:w ~target:node.Dom.uid ~path:(node_path node) ~event ~bubbles:false ~preds
      ()
  in
  if Hashtbl.mem t.counted_loadables node.Dom.uid then begin
    Hashtbl.remove t.counted_loadables node.Dom.uid;
    w.pending_loads <- w.pending_loads - 1;
    w.load_preds <- ops @ w.load_preds;
    maybe_fire_window_load t w
  end;
  ops

let fire_dcl t w =
  if not w.dcl_done then begin
    w.dcl_done <- true;
    if w.frame = None then Telemetry.mark (tel t) ~cat:"page" "DOMContentLoaded";
    if w.frame = None then
      Wr_support.Log.info "page.DOMContentLoaded"
        [ ("virtual_ms", Wr_support.Json.Float (Event_loop.now t.loop)) ];
    let root = Dom.root w.doc in
    let preds = w.parse_preds @ w.defer_ld_ops in
    let ops =
      dispatch t ~win:w ~target:root.Dom.uid ~path:[ root.Dom.uid ] ~event:"DOMContentLoaded"
        ~bubbles:false ~preds ~target_value:(Value.Object w.doc_obj) ()
    in
    w.dcl_ops <- ops;
    maybe_fire_window_load t w
  end

(* ------------------------------------------------------------------ *)
(* Script execution                                                    *)
(* ------------------------------------------------------------------ *)

let run_script_source t w ~source ~label =
  enter_window t w;
  match Parser.parse ~tm:(tel t) source with
  | exception Parser.Parse_error (msg, line, col) ->
      record_crash t (Printf.sprintf "%s: syntax error at %d:%d: %s" label line col msg)
  | exception Lexer.Lex_error (msg, line, col) ->
      record_crash t (Printf.sprintf "%s: lex error at %d:%d: %s" label line col msg)
  | prog -> Interp.run_in_global t.vm prog

let exec_script_op t w ~source ~preds ~label =
  let op = fresh_op t Op.Script ~label ~preds in
  within_op t op ~label (fun () -> run_script_source t w ~source ~label)

(* ------------------------------------------------------------------ *)
(* Loadable resources                                                  *)
(* ------------------------------------------------------------------ *)

let count_loadable t w node =
  if not w.load_fired then begin
    Hashtbl.replace t.counted_loadables node.Dom.uid ();
    w.pending_loads <- w.pending_loads + 1
  end

let start_image_load t w node ~url =
  Hashtbl.replace t.load_started node.Dom.uid ();
  count_loadable t w node;
  Network.fetch t.net ~url (fun outcome ->
      let event = match outcome with Network.Fetched _ -> "load" | Network.Missing -> "error" in
      ignore (element_load t w node ~event ~preds:[]))

(* Async and script-inserted external scripts: execute on fetch arrival
   (create(E) -> exe(E) is the only ordering, rule 2). *)
let start_external_script t w node ~url =
  Hashtbl.replace t.load_started node.Dom.uid ();
  count_loadable t w node;
  Network.fetch t.net ~url (fun outcome ->
      match outcome with
      | Network.Fetched source ->
          let preds =
            match Hashtbl.find_opt t.create_ops node.Dom.uid with Some op -> [ op ] | None -> []
          in
          let final = exec_script_op t w ~source ~preds ~label:("script " ^ url) in
          ignore (element_load t w node ~event:"load" ~preds:[ final ])
      | Network.Missing -> ignore (element_load t w node ~event:"error" ~preds:[]))

(* ------------------------------------------------------------------ *)
(* Handler content attributes                                          *)
(* ------------------------------------------------------------------ *)

let compile_handler_code t ~code ~label =
  match Parser.parse ~tm:(tel t) code with
  | exception _ ->
      record_crash t (Printf.sprintf "bad handler code on %s" label);
      None
  | body -> Some (Interp.global_function t.vm ~name:label ~params:[ "event" ] body)

let register_handler_attrs t (node : Dom.node) =
  Hashtbl.iter
    (fun name code ->
      if String.length name > 2 && String.sub name 0 2 = "on" then begin
        let event = String.sub name 2 (String.length name - 2) in
        match compile_handler_code t ~code ~label:(node.Dom.tag ^ "." ^ name) with
        | Some h -> Events.set_inline t.registry ~target:node.Dom.uid ~event (Some h)
        | None -> ()
      end)
    node.Dom.attrs

let html_attrs (e : Html.element) =
  List.map (fun { Html.name; value } -> (name, value)) e.Html.attrs

(* ==================================================================== *)
(* The big recursive knot: parsing, dynamic insertion, JS bindings.     *)
(* ==================================================================== *)

let rec schedule_parse t w =
  ignore
    (Event_loop.schedule ~cls:Event_loop.Parse t.loop ~delay:t.config.Config.parse_delay
       (fun () -> parse_step t w))

(* One parse(E) operation per static element (§3.2), chained in syntactic
   order (rule 1a) with inline-script and sync-script chaining (1b, 1c). *)
and parse_step t w = span t ~cat:"parse" ~name:"parse-step" (fun () -> parse_step_inner t w)

and parse_step_inner t w =
  match w.parse_items with
  | [] -> if not w.parsing_done then finish_parsing t w
  | I_text { content; item_parent } :: rest ->
      (* Text is not an operation of its own (§3.2); it attaches as a
         continuation of the preceding parse-chain operation, keeping
         document order for mixed content. *)
      w.parse_items <- rest;
      let op = match w.parse_preds with p :: _ -> p | [] -> t.init_op in
      ignore
        (within_op t op ~label:"parse #text" (fun () ->
             Dom.append w.doc ~parent:item_parent ~child:(Dom.create_text w.doc content)));
      if not w.blocked_on_script then schedule_parse t w
  | I_elem { elem; item_parent } :: rest -> (
      w.parse_items <- rest;
      let label = Printf.sprintf "parse <%s>" elem.Html.tag in
      let op = fresh_op t Op.Parse ~label ~preds:w.parse_preds in
      let node_ref = ref None in
      let final =
        within_op t op ~label (fun () ->
            let n = Dom.create_element w.doc ~tag:elem.Html.tag ~attrs:(html_attrs elem) in
            node_ref := Some n;
            Hashtbl.replace t.nodes n.Dom.uid (n, w);
            Hashtbl.replace t.create_ops n.Dom.uid op;
            Dom.append w.doc ~parent:item_parent ~child:n;
            register_handler_attrs t n;
            if elem.Html.tag = "script" then
              List.iter
                (function
                  | Html.Text s -> n.Dom.text <- n.Dom.text ^ s
                  | Html.Element _ -> ())
                elem.Html.children)
      in
      match !node_ref with
      | None -> schedule_parse t w
      | Some node ->
          let child_items =
            if elem.Html.tag = "script" then []
            else
              List.map
                (function
                  | Html.Element child -> I_elem { elem = child; item_parent = node }
                  | Html.Text s -> I_text { content = s; item_parent = node })
                elem.Html.children
          in
          w.parse_items <- child_items @ w.parse_items;
          w.parse_preds <- [ final ];
          (match elem.Html.tag with
          | "script" -> handle_static_script t w node ~parse_op:final
          | "iframe" -> handle_static_iframe t w node
          | "img" -> (
              match Dom.get_attr node "src" with
              | Some url when url <> "" -> start_image_load t w node ~url
              | Some _ | None -> ())
          | _ -> ());
          if not w.blocked_on_script then schedule_parse t w)

(* Run a parser-blocking script with document.write capture: writes buffer
   up during execution and flush into the parse stream right after the
   script element (so the written markup parses next, ordered after the
   execution — browsers tokenize eagerly, buffering to script end is an
   order-preserving approximation, see DESIGN.md). *)
and exec_parser_script t w node ~source ~preds ~label =
  let buf = Buffer.create 64 in
  t.doc_write <- Some (w, node, buf);
  let final = exec_script_op t w ~source ~preds ~label in
  t.doc_write <- None;
  if Buffer.length buf > 0 then begin
    match node.Dom.parent with
    | Some parent ->
        let written =
          List.map
            (function
              | Html.Element e -> I_elem { elem = e; item_parent = parent }
              | Html.Text s -> I_text { content = s; item_parent = parent })
            (Html.parse ~tm:(tel t) (Buffer.contents buf))
        in
        w.parse_items <- written @ w.parse_items
    | None -> ()
  end;
  final

and handle_static_script t w node ~parse_op =
  let async = Dom.get_attr node "async" <> None in
  let defer = Dom.get_attr node "defer" <> None in
  match Dom.get_attr node "src" with
  | None | Some "" ->
      (* Static inline script (rule 1b): executes during parsing, and the
         chain continues from its execution. *)
      let final =
        exec_parser_script t w node ~source:node.Dom.text ~preds:[ parse_op ]
          ~label:"script (inline)"
      in
      w.parse_preds <- [ final ]
  | Some url when defer ->
      let d =
        { defer_node = node; defer_parse_op = parse_op; defer_url = url;
          defer_state = Fetch_pending }
      in
      w.deferred <- w.deferred @ [ d ];
      count_loadable t w node;
      Network.fetch t.net ~url (fun outcome ->
          d.defer_state <-
            (match outcome with
            | Network.Fetched body -> Fetch_arrived body
            | Network.Missing -> Fetch_failed);
          if w.parsing_done then run_deferred t w)
  | Some url when async -> start_external_script t w node ~url
  | Some url ->
      (* Synchronous external script: parsing blocks; further parse ops wait
         for the script's load event (rule 1c). *)
      w.blocked_on_script <- true;
      count_loadable t w node;
      Network.fetch t.net ~url (fun outcome ->
          w.blocked_on_script <- false;
          (match outcome with
          | Network.Fetched source ->
              let final =
                exec_parser_script t w node ~source ~preds:[ parse_op ]
                  ~label:("script " ^ url)
              in
              w.parse_preds <- element_load t w node ~event:"load" ~preds:[ final ]
          | Network.Missing ->
              w.parse_preds <- element_load t w node ~event:"error" ~preds:[]);
          schedule_parse t w)

and finish_parsing t w =
  w.parsing_done <- true;
  if w.frame = None then Telemetry.mark (tel t) ~cat:"page" "parsing-done";
    if w.frame = None then
      Wr_support.Log.info "page.parsing_done"
        [ ("virtual_ms", Wr_support.Json.Float (Event_loop.now t.loop)) ];
  run_deferred t w

(* Deferred scripts run in syntactic order after parsing (rules 4, 5, 14),
   then DOMContentLoaded. *)
and run_deferred t w =
  match w.deferred with
  | [] -> if not w.dcl_done then fire_dcl t w
  | d :: rest -> (
      match d.defer_state with
      | Fetch_pending -> ()  (* its fetch callback will re-enter *)
      | Fetch_arrived source ->
          w.deferred <- rest;
          let preds = (d.defer_parse_op :: w.parse_preds) @ w.defer_ld_ops in
          let final =
            exec_script_op t w ~source ~preds ~label:("script " ^ d.defer_url ^ " (defer)")
          in
          let ld_ops = element_load t w d.defer_node ~event:"load" ~preds:[ final ] in
          w.defer_ld_ops <- w.defer_ld_ops @ ld_ops;
          run_deferred t w
      | Fetch_failed ->
          w.deferred <- rest;
          let ld_ops = element_load t w d.defer_node ~event:"error" ~preds:[] in
          w.defer_ld_ops <- w.defer_ld_ops @ ld_ops;
          run_deferred t w)

and handle_static_iframe t w node =
  match Dom.get_attr node "src" with
  | None | Some "" -> ()
  | Some url ->
      count_loadable t w node;
      Network.fetch t.net ~url (fun outcome ->
          match outcome with
          | Network.Fetched html -> start_frame_document t ~parent:w ~iframe_node:node ~html ~url
          | Network.Missing -> ignore (element_load t w node ~event:"error" ~preds:[]))

and start_frame_document t ~parent ~iframe_node ~html ~url =
  let child = make_window t ~frame:(Some { parent; iframe_node }) ~url in
  (* Rule 6: create(I) happens-before everything in the nested document. *)
  (match Hashtbl.find_opt t.create_ops iframe_node.Dom.uid with
  | Some op ->
      child.parse_preds <- [ op ];
      Hashtbl.replace t.create_ops child.win_uid op;
      Hashtbl.replace t.create_ops (Dom.root child.doc).Dom.uid op
  | None -> ());
  child.parse_items <-
    List.map
      (function
        | Html.Element e -> I_elem { elem = e; item_parent = Dom.root child.doc }
        | Html.Text s -> I_text { content = s; item_parent = Dom.root child.doc })
      (Html.parse ~tm:(tel t) html);
  schedule_parse t child

(* --- dynamic insertion ---------------------------------------------- *)

(* Bookkeeping for a subtree that just became attached by script: record
   create ops, register handler attributes, start loads, run inserted
   scripts. [run_scripts] is false for innerHTML (spec: such scripts do
   not execute). *)
and after_attach t w ?(run_scripts = true) node =
  let newly =
    let acc = ref [] in
    Dom.iter_subtree
      (fun n ->
        if n.Dom.tag <> "#text" && not (Hashtbl.mem t.create_ops n.Dom.uid) then begin
          Hashtbl.replace t.create_ops n.Dom.uid (current_op t);
          Hashtbl.replace t.nodes n.Dom.uid (n, w);
          register_handler_attrs t n;
          acc := n :: !acc
        end)
      node;
    List.rev !acc
  in
  List.iter
    (fun (n : Dom.node) ->
      match n.Dom.tag with
      | "img" -> (
          match Dom.get_attr n "src" with
          | Some url when url <> "" && not (Hashtbl.mem t.load_started n.Dom.uid) ->
              start_image_load t w n ~url
          | Some _ | None -> ())
      | "iframe" -> (
          match Dom.get_attr n "src" with
          | Some url when url <> "" && not (Hashtbl.mem t.load_started n.Dom.uid) ->
              Hashtbl.replace t.load_started n.Dom.uid ();
              count_loadable t w n;
              Network.fetch t.net ~url (fun outcome ->
                  match outcome with
                  | Network.Fetched html ->
                      start_frame_document t ~parent:w ~iframe_node:n ~html ~url
                  | Network.Missing -> ignore (element_load t w n ~event:"error" ~preds:[]))
          | Some _ | None -> ())
      | "script" -> (
          match Dom.get_attr n "src" with
          | Some url when url <> "" && not (Hashtbl.mem t.load_started n.Dom.uid) ->
              if run_scripts then start_external_script t w n ~url
          | Some _ | None ->
              (* Script-inserted inline scripts execute synchronously inside
                 the inserting operation (§3.3, footnote 9). *)
              if run_scripts && n.Dom.text <> "" then
                run_script_source t w ~source:n.Dom.text ~label:"script (inserted inline)")
      | _ -> ())
    newly

(* --- JS wrappers ----------------------------------------------------- *)

and wrap_node t w (node : Dom.node) =
  match Hashtbl.find_opt t.node_objs node.Dom.uid with
  | Some obj -> obj
  | None ->
      let vm = t.vm in
      let obj = Value.new_object vm ~class_name:"HTMLElement" () in
      Hashtbl.replace t.node_objs node.Dom.uid obj;
      install_node_methods t w node obj;
      obj.Value.host <-
        Some
          {
            Value.host_id = node.Dom.uid;
            host_kind = "node";
            host_get = (fun _vm o name -> node_host_get t w node o name);
            host_set = (fun _vm o name v -> node_host_set t w node o name v);
          };
      obj

and node_value t w node = Value.Object (wrap_node t w node)

and prop_cell t ~owner name =
  Location.Js_var { cell = t.instr.Instr.cell_id ~owner name; name }

and node_host_get t w node obj name =
  let vm = t.vm in
  match name with
  | "value" | "checked" -> (
      match Dom.get_idl w.doc node name with
      | Some v -> Some (if name = "checked" then Value.Bool (v = "true") else Value.String v)
      | None -> Some (if name = "checked" then Value.Bool false else Value.String ""))
  | "id" | "src" | "href" | "name" | "type" | "title" | "alt" | "rel" -> (
      match Dom.get_idl w.doc node name with
      | Some v -> Some (Value.String v)
      | None -> Some (Value.String ""))
  | "className" -> (
      match Dom.get_idl w.doc node "class" with
      | Some v -> Some (Value.String v)
      | None -> Some (Value.String ""))
  | "tagName" | "nodeName" -> Some (Value.String (String.uppercase_ascii node.Dom.tag))
  | "style" -> (
      (* One style object per node; its properties are ordinary
         instrumented JS properties. *)
      match Value.get_prop_raw obj "__style" with
      | Some v -> Some v
      | None ->
          let style = Value.new_object vm ~class_name:"CSSStyleDeclaration" () in
          (match Dom.get_attr node "style" with
          | Some css ->
              (* Seed from the style attribute: "a: b; c: d". *)
              List.iter
                (fun decl ->
                  match String.index_opt decl ':' with
                  | Some i ->
                      let k = String.trim (String.sub decl 0 i) in
                      let v =
                        String.trim (String.sub decl (i + 1) (String.length decl - i - 1))
                      in
                      if k <> "" then Value.set_prop_raw style k (Value.String v)
                  | None -> ())
                (String.split_on_char ';' css)
          | None -> ());
          let sv = Value.Object style in
          Value.set_prop_raw obj "__style" sv;
          Some sv)
  | "parentNode" -> (
      Instr.emit t.instr (prop_cell t ~owner:node.Dom.uid "parentNode") `Read;
      match node.Dom.parent with
      | Some p when p.Dom.tag <> "#document" -> Some (node_value t w p)
      | Some _ -> Some (Value.Object w.doc_obj)
      | None -> Some Value.Null)
  | "childNodes" | "children" ->
      let elems = List.filter (fun (c : Dom.node) -> c.Dom.tag <> "#text") (Dom.children node) in
      List.iteri
        (fun i _ ->
          Instr.emit t.instr
            (prop_cell t ~owner:node.Dom.uid (Printf.sprintf "childNodes.%d" i))
            `Read)
        elems;
      Some (Value.Object (Value.new_array vm (List.map (node_value t w) elems)))
  | "firstChild" -> (
      Instr.emit t.instr (prop_cell t ~owner:node.Dom.uid "childNodes.0") `Read;
      match List.filter (fun (c : Dom.node) -> c.Dom.tag <> "#text") (Dom.children node) with
      | c :: _ -> Some (node_value t w c)
      | [] -> Some Value.Null)
  | "innerHTML" ->
      (* Serialization is a markup inspection, not a §4 logical access. *)
      Some (Value.String (serialize_children node))
  | "textContent" | "innerText" ->
      let buf = Buffer.create 32 in
      Dom.iter_subtree
        (fun n -> if n.Dom.tag = "#text" then Buffer.add_string buf n.Dom.text)
        node;
      Some (Value.String (Buffer.contents buf))
  | "text" when node.Dom.tag = "script" -> Some (Value.String node.Dom.text)
  | "offsetWidth" | "offsetHeight" | "clientWidth" | "clientHeight" | "scrollTop" ->
      Some (Value.Number 0.)
  | "ownerDocument" -> Some (Value.Object w.doc_obj)
  | _ when String.length name > 2 && String.sub name 0 2 = "on" ->
      let event = String.sub name 2 (String.length name - 2) in
      Some
        (match Events.inline t.registry ~target:node.Dom.uid ~event with
        | Some h -> h
        | None -> Value.Null)
  | _ -> None

and serialize_children (node : Dom.node) =
  let rec to_html (n : Dom.node) =
    if n.Dom.tag = "#text" then Html.text n.Dom.text
    else
      Html.el n.Dom.tag
        ~attrs:(Hashtbl.fold (fun k v acc -> (k, v) :: acc) n.Dom.attrs [])
        (List.map to_html (Dom.children n))
  in
  Html.to_string (List.map to_html (Dom.children node))

and node_host_set t w node _obj name v =
  let vm = t.vm in
  match name with
  | "value" | "checked" ->
      Dom.set_idl w.doc node name (Value.to_string vm v);
      true
  | "id" | "class" | "title" | "alt" | "href" | "name" | "type" | "rel" ->
      Dom.set_attr w.doc node name (Value.to_string vm v);
      true
  | "className" ->
      Dom.set_attr w.doc node "class" (Value.to_string vm v);
      true
  | "src" ->
      Dom.set_attr w.doc node "src" (Value.to_string vm v);
      if Dom.is_attached w.doc node then after_attach_src t w node;
      true
  | "innerHTML" ->
      set_inner_html t w node (Value.to_string vm v);
      true
  | "textContent" | "innerText" ->
      List.iter (fun child -> Dom.remove w.doc child) (Dom.children node);
      Dom.append w.doc ~parent:node ~child:(Dom.create_text w.doc (Value.to_string vm v));
      true
  | "text" when node.Dom.tag = "script" ->
      node.Dom.text <- Value.to_string vm v;
      true
  | _ when String.length name > 2 && String.sub name 0 2 = "on" ->
      let event = String.sub name 2 (String.length name - 2) in
      let handler =
        match v with
        | Value.String code ->
            compile_handler_code t ~code ~label:(node.Dom.tag ^ ".on" ^ event)
        | Value.Null | Value.Undefined -> None
        | v when Value.is_callable v -> Some v
        | _ -> None
      in
      Events.set_inline t.registry ~target:node.Dom.uid ~event handler;
      true
  | _ -> false

(* A src set on an already-attached script/img/iframe starts its load. *)
and after_attach_src t w node =
  if not (Hashtbl.mem t.load_started node.Dom.uid) then
    match node.Dom.tag, Dom.get_attr node "src" with
    | _, (None | Some "") -> ()
    | "img", Some url -> start_image_load t w node ~url
    | "script", Some url -> start_external_script t w node ~url
    | "iframe", Some url ->
        Hashtbl.replace t.load_started node.Dom.uid ();
        count_loadable t w node;
        Network.fetch t.net ~url (fun outcome ->
            match outcome with
            | Network.Fetched html -> start_frame_document t ~parent:w ~iframe_node:node ~html ~url
            | Network.Missing -> ignore (element_load t w node ~event:"error" ~preds:[]))
    | _ -> ()

and set_inner_html t w node html =
  List.iter (fun child -> Dom.remove w.doc child) (Dom.children node);
  let rec build (h : Html.node) =
    match h with
    | Html.Text s -> Dom.create_text w.doc s
    | Html.Element e ->
        let n = Dom.create_element w.doc ~tag:e.Html.tag ~attrs:(html_attrs e) in
        List.iter
          (fun child ->
            if e.Html.tag = "script" then
              match child with
              | Html.Text s -> n.Dom.text <- n.Dom.text ^ s
              | Html.Element _ -> ()
            else Dom.append w.doc ~parent:n ~child:(build child))
          e.Html.children;
        n
  in
  List.iter
    (fun h ->
      let child = build h in
      Dom.append w.doc ~parent:node ~child;
      if Dom.is_attached w.doc node then after_attach t w ~run_scripts:false child)
    (Html.parse ~tm:(tel t) html)

and install_node_methods t w node obj =
  let vm = t.vm in
  let m name fn = Value.set_prop_raw obj name (Value.Object (Value.new_builtin vm name fn)) in
  let as_node v =
    match v with
    | Value.Object { Value.host = Some { Value.host_kind = "node"; host_id; _ }; _ } ->
        Hashtbl.find_opt t.nodes host_id |> Option.map fst
    | _ -> None
  in
  m "appendChild" (fun _vm ~this:_ args ->
      match as_node (List.nth_opt args 0 |> Option.value ~default:Value.Undefined) with
      | Some child ->
          Dom.append w.doc ~parent:node ~child;
          if Dom.is_attached w.doc node then after_attach t w child;
          node_value t w child
      | None -> Value.throw_error vm "TypeError" "appendChild: argument is not a node");
  m "insertBefore" (fun _vm ~this:_ args ->
      let child = as_node (List.nth_opt args 0 |> Option.value ~default:Value.Undefined) in
      let before = as_node (List.nth_opt args 1 |> Option.value ~default:Value.Undefined) in
      match child, before with
      | Some child, Some before ->
          Dom.insert_before w.doc ~parent:node ~child ~before;
          if Dom.is_attached w.doc node then after_attach t w child;
          node_value t w child
      | Some child, None ->
          Dom.append w.doc ~parent:node ~child;
          if Dom.is_attached w.doc node then after_attach t w child;
          node_value t w child
      | None, _ -> Value.throw_error vm "TypeError" "insertBefore: argument is not a node");
  m "removeChild" (fun _vm ~this:_ args ->
      match as_node (List.nth_opt args 0 |> Option.value ~default:Value.Undefined) with
      | Some child ->
          Dom.remove w.doc child;
          node_value t w child
      | None -> Value.throw_error vm "TypeError" "removeChild: argument is not a node");
  m "setAttribute" (fun vm ~this:_ args ->
      let name = Value.to_string vm (List.nth_opt args 0 |> Option.value ~default:Value.Undefined) in
      let v = Value.to_string vm (List.nth_opt args 1 |> Option.value ~default:Value.Undefined) in
      (if String.length name > 2 && String.sub name 0 2 = "on" then
         ignore (node_host_set t w node obj name (Value.String v))
       else begin
         Dom.set_attr w.doc node name v;
         if name = "src" && Dom.is_attached w.doc node then after_attach_src t w node
       end);
      Value.Undefined);
  m "getAttribute" (fun _vm ~this:_ args ->
      let name = Value.to_string vm (List.nth_opt args 0 |> Option.value ~default:Value.Undefined) in
      match Dom.get_idl w.doc node name with
      | Some v -> Value.String v
      | None -> Value.Null);
  m "addEventListener" (fun vm ~this:_ args ->
      let event = Value.to_string vm (List.nth_opt args 0 |> Option.value ~default:Value.Undefined) in
      let handler = List.nth_opt args 1 |> Option.value ~default:Value.Undefined in
      let capture =
        match List.nth_opt args 2 with Some v -> Value.to_boolean v | None -> false
      in
      if Value.is_callable handler then
        ignore (Events.add_listener t.registry ~target:node.Dom.uid ~event ~capture handler);
      Value.Undefined);
  m "removeEventListener" (fun vm ~this:_ args ->
      let event = Value.to_string vm (List.nth_opt args 0 |> Option.value ~default:Value.Undefined) in
      let handler = List.nth_opt args 1 |> Option.value ~default:Value.Undefined in
      List.iter
        (fun (r : Value.t Events.registration) ->
          if Value.strict_equals r.Events.handler handler then
            Events.remove_listener t.registry ~target:node.Dom.uid ~event ~uid:r.Events.listener_uid)
        (Events.listeners t.registry ~target:node.Dom.uid ~event);
      Value.Undefined);
  m "getElementsByTagName" (fun vm ~this:_ args ->
      let tag =
        String.lowercase_ascii
          (Value.to_string vm (List.nth_opt args 0 |> Option.value ~default:Value.Undefined))
      in
      let all = Dom.get_elements_by_tag_name w.doc tag in
      let under =
        List.filter
          (fun (n : Dom.node) ->
            let rec descends (x : Dom.node) =
              match x.Dom.parent with
              | Some p -> p.Dom.uid = node.Dom.uid || descends p
              | None -> false
            in
            descends n)
          all
      in
      Value.Object (Value.new_array vm (List.map (node_value t w) under)));
  m "querySelector" (fun vm ~this:_ args ->
      let sel = Value.to_string vm (List.nth_opt args 0 |> Option.value ~default:Value.Undefined) in
      match query_select t w ~under:node sel with
      | n :: _ -> node_value t w n
      | [] -> Value.Null);
  m "querySelectorAll" (fun vm ~this:_ args ->
      let sel = Value.to_string vm (List.nth_opt args 0 |> Option.value ~default:Value.Undefined) in
      Value.Object
        (Value.new_array vm (List.map (node_value t w) (query_select t w ~under:node sel))));
  m "getElementsByClassName" (fun vm ~this:_ args ->
      let cls = Value.to_string vm (List.nth_opt args 0 |> Option.value ~default:Value.Undefined) in
      Value.Object
        (Value.new_array vm
           (List.map (node_value t w) (query_select t w ~under:node ("." ^ cls)))));
  let dispatch_method event =
    m event (fun _vm ~this:_ _args ->
        user_action_dispatch t w node ~event ~inline:true;
        Value.Undefined)
  in
  dispatch_method "click";
  dispatch_method "focus";
  dispatch_method "blur"

(* Minimal selector engine: "#id", ".class", "tag", and the descendant
   combination "tag.class". Matching elements are read per §4.2 like the
   collection accessors. *)
and query_select t w ~under selector =
  let selector = String.trim selector in
  if selector = "" then []
  else if selector.[0] = '#' then begin
    let id = String.sub selector 1 (String.length selector - 1) in
    match Dom.get_element_by_id w.doc id with
    | Some n ->
        let rec descends (x : Dom.node) =
          x.Dom.uid = under.Dom.uid
          || match x.Dom.parent with Some p -> descends p | None -> false
        in
        if descends n then [ n ] else []
    | None -> []
  end
  else begin
    let tag, cls =
      match String.index_opt selector '.' with
      | Some 0 -> (None, Some (String.sub selector 1 (String.length selector - 1)))
      | Some i ->
          ( Some (String.lowercase_ascii (String.sub selector 0 i)),
            Some (String.sub selector (i + 1) (String.length selector - i - 1)) )
      | None -> (Some (String.lowercase_ascii selector), None)
    in
    let has_class n c =
      match Dom.get_attr n "class" with
      | Some classes -> List.mem c (Dom.class_list classes)
      | None -> false
    in
    let matches (n : Dom.node) =
      (match tag with Some t -> n.Dom.tag = t | None -> true)
      && (match cls with Some c -> has_class n c | None -> true)
    in
    let out = ref [] in
    Dom.iter_subtree
      (fun n -> if n.Dom.tag <> "#text" && n.Dom.uid <> under.Dom.uid && matches n then out := n :: !out)
      under;
    let nodes = List.rev !out in
    (* Read the collection cells insertions write (§4.2): the tag cell
       and/or the per-class cell, so misses still race with insertion. *)
    let read_collection name =
      Instr.emit t.instr
        (Location.Html_elem (Location.Collection { doc = Dom.doc_uid w.doc; name }))
        `Read
    in
    (match tag with Some tg -> read_collection ("tag:" ^ tg) | None -> ());
    (match cls with Some c -> read_collection ("class:" ^ c) | None -> ());
    List.iter (fun n -> Instr.emit t.instr (Dom.node_location n) `Read) nodes;
    nodes
  end

(* A click/focus/blur: either a simulated user action (top-level op) or an
   inline dispatch from script (splits the interrupted op). *)
and user_action_dispatch t w node ~event ~inline =
  let default_action =
    if event = "click" && node.Dom.tag = "a" then
      match Dom.get_attr node "href" with
      | Some href when String.length href > 11 && String.sub href 0 11 = "javascript:" ->
          let code = String.sub href 11 (String.length href - 11) in
          Some (fun () -> run_script_source t w ~source:code ~label:("href " ^ code))
      | Some _ | None -> None
    else None
  in
  let bubbles = not (List.mem event Events.non_bubbling_events) in
  if inline then
    dispatch_inline t ~win:w ~target:node.Dom.uid ~path:(node_path node) ~event ~bubbles
      ?default_action ()
  else
    ignore
      (dispatch t ~win:w ~target:node.Dom.uid ~path:(node_path node) ~event ~bubbles ~preds:[]
         ?default_action ())

(* --- document and window objects ------------------------------------- *)

and make_document_object t w =
  let vm = t.vm in
  let obj = Value.new_object vm ~class_name:"HTMLDocument" () in
  let root = Dom.root w.doc in
  Hashtbl.replace t.node_objs root.Dom.uid obj;
  (* Documents expose the Node interface too (appendChild, removeChild,
     ...); document-specific methods below override where they differ. *)
  install_node_methods t w root obj;
  let m name fn = Value.set_prop_raw obj name (Value.Object (Value.new_builtin vm name fn)) in
  m "getElementById" (fun vm ~this:_ args ->
      let id = Value.to_string vm (List.nth_opt args 0 |> Option.value ~default:Value.Undefined) in
      match Dom.get_element_by_id w.doc id with
      | Some n -> node_value t w n
      | None -> Value.Null);
  m "getElementsByTagName" (fun vm ~this:_ args ->
      let tag = Value.to_string vm (List.nth_opt args 0 |> Option.value ~default:Value.Undefined) in
      Value.Object
        (Value.new_array vm (List.map (node_value t w) (Dom.get_elements_by_tag_name w.doc tag))));
  m "getElementsByName" (fun vm ~this:_ args ->
      let name = Value.to_string vm (List.nth_opt args 0 |> Option.value ~default:Value.Undefined) in
      let nodes =
        List.filter (fun n -> Dom.get_attr n "name" = Some name) (Dom.document_order w.doc)
      in
      List.iter (fun n -> Instr.emit t.instr (Dom.node_location n) `Read) nodes;
      Value.Object (Value.new_array vm (List.map (node_value t w) nodes)));
  m "createElement" (fun vm ~this:_ args ->
      let tag = Value.to_string vm (List.nth_opt args 0 |> Option.value ~default:Value.Undefined) in
      let n = Dom.create_element w.doc ~tag ~attrs:[] in
      Hashtbl.replace t.nodes n.Dom.uid (n, w);
      node_value t w n);
  m "createTextNode" (fun vm ~this:_ args ->
      let s = Value.to_string vm (List.nth_opt args 0 |> Option.value ~default:Value.Undefined) in
      let n = Dom.create_text w.doc s in
      Hashtbl.replace t.nodes n.Dom.uid (n, w);
      node_value t w n);
  m "addEventListener" (fun vm ~this:_ args ->
      let event = Value.to_string vm (List.nth_opt args 0 |> Option.value ~default:Value.Undefined) in
      let handler = List.nth_opt args 1 |> Option.value ~default:Value.Undefined in
      let capture = match List.nth_opt args 2 with Some v -> Value.to_boolean v | None -> false in
      if Value.is_callable handler then
        ignore (Events.add_listener t.registry ~target:root.Dom.uid ~event ~capture handler);
      Value.Undefined);
  let doc_write newline vm args =
    let text = String.concat "" (List.map (Value.to_string vm) args) in
    (match t.doc_write with
    | Some (w', _, buf) when w'.win_uid = w.win_uid ->
        Buffer.add_string buf text;
        if newline then Buffer.add_char buf '\n'
    | Some _ | None ->
        (* Outside parser-driven execution a real document.write would blow
           the document away; that destructive path is not simulated. *)
        record_crash t "document.write outside parsing is not supported (ignored)");
    Value.Undefined
  in
  m "write" (fun vm ~this:_ args -> doc_write false vm args);
  m "writeln" (fun vm ~this:_ args -> doc_write true vm args);
  obj.Value.host <-
    Some
      {
        Value.host_id = root.Dom.uid;
        host_kind = "document";
        host_get =
          (fun _vm o name ->
            match name with
            | "body" -> (
                match Dom.get_elements_by_tag_name w.doc "body" with
                | n :: _ -> Some (node_value t w n)
                | [] -> Some Value.Null)
            | "documentElement" -> (
                match Dom.get_elements_by_tag_name w.doc "html" with
                | n :: _ -> Some (node_value t w n)
                | [] -> Some Value.Null)
            | "images" | "forms" | "links" | "anchors" | "scripts" ->
                Some
                  (Value.Object
                     (Value.new_array t.vm (List.map (node_value t w) (Dom.collection w.doc name))))
            | "readyState" ->
                Some
                  (Value.String
                     (if w.load_fired then "complete"
                      else if w.parsing_done then "interactive"
                      else "loading"))
            | "defaultView" -> Some (Value.Object w.win_obj)
            | "cookie" ->
                (* Cookie state is shared mutable state (the paper notes
                   Zheng et al.'s special cookie handling and that adding
                   it "would be straightforward" — §8); one logical cell
                   per document. *)
                Instr.emit t.instr (prop_cell t ~owner:root.Dom.uid "cookie") `Read;
                (match Value.get_prop_raw o "__cookie" with
                | Some v -> Some v
                | None -> Some (Value.String ""))
            | _ when String.length name > 2 && String.sub name 0 2 = "on" -> (
                let event = String.sub name 2 (String.length name - 2) in
                match Events.inline t.registry ~target:root.Dom.uid ~event with
                | Some h -> Some h
                | None -> Some Value.Null)
            | _ -> None);
        host_set =
          (fun _vm o name v ->
            match name with
            | "cookie" ->
                Instr.emit t.instr (prop_cell t ~owner:root.Dom.uid "cookie") `Write;
                (* Real cookies append "k=v" pairs; keep the concatenated
                   jar so reads see all writes. *)
                let prev =
                  match Value.get_prop_raw o "__cookie" with
                  | Some (Value.String s) -> s
                  | _ -> ""
                in
                let added = Value.to_string t.vm v in
                let jar = if prev = "" then added else prev ^ "; " ^ added in
                Value.set_prop_raw o "__cookie" (Value.String jar);
                true
            | _ when String.length name > 2 && String.sub name 0 2 = "on" ->
                let event = String.sub name 2 (String.length name - 2) in
                let handler =
                  match v with
                  | Value.String code -> compile_handler_code t ~code ~label:("document.on" ^ event)
                  | Value.Null | Value.Undefined -> None
                  | v when Value.is_callable v -> Some v
                  | _ -> None
                in
                Events.set_inline t.registry ~target:root.Dom.uid ~event handler;
                true
            | _ -> false);
      };
  obj

and make_window_object t w =
  let vm = t.vm in
  let obj = Value.new_object vm ~class_name:"Window" () in
  let m name fn = Value.set_prop_raw obj name (Value.Object (Value.new_builtin vm name fn)) in
  let location = Value.new_object vm ~class_name:"Location" () in
  Value.set_prop_raw location "href" (Value.String (Dom.url w.doc));
  Value.set_prop_raw obj "location" (Value.Object location);
  m "setTimeout" (fun vm ~this:_ args -> set_timeout t w vm args);
  m "setInterval" (fun vm ~this:_ args -> set_interval t w vm args);
  m "clearTimeout" (fun vm ~this:_ args -> clear_timeout t vm args);
  m "clearInterval" (fun vm ~this:_ args -> clear_interval t vm args);
  m "alert" (fun vm ~this:_ args ->
      let msg = String.concat " " (List.map (Value.to_string vm) args) in
      vm.Value.console := ("[alert] " ^ msg) :: !(vm.Value.console);
      Value.Undefined);
  m "addEventListener" (fun vm ~this:_ args ->
      let event = Value.to_string vm (List.nth_opt args 0 |> Option.value ~default:Value.Undefined) in
      let handler = List.nth_opt args 1 |> Option.value ~default:Value.Undefined in
      let capture = match List.nth_opt args 2 with Some v -> Value.to_boolean v | None -> false in
      if Value.is_callable handler then
        ignore (Events.add_listener t.registry ~target:w.win_uid ~event ~capture handler);
      Value.Undefined);
  m "getComputedStyle" (fun _vm ~this:_ args ->
      match List.nth_opt args 0 with
      | Some (Value.Object { Value.host = Some { Value.host_kind = "node"; host_id; _ }; _ }) -> (
          match Hashtbl.find_opt t.nodes host_id with
          | Some (n, w') -> (
              match node_host_get t w' n (wrap_node t w' n) "style" with
              | Some v -> v
              | None -> Value.Null)
          | None -> Value.Null)
      | _ -> Value.Null);
  Value.set_prop_raw obj "XMLHttpRequest" (Value.Object (make_xhr_ctor t w));
  (* localStorage: each key is its own logical location, so concurrent
     handlers racing on one key are detected without colliding on
     others. *)
  let storage = Value.new_object vm ~class_name:"Storage" () in
  let storage_uid = t.instr.Instr.fresh_id () in
  let storage_data : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let sm name fn = Value.set_prop_raw storage name (Value.Object (Value.new_builtin vm name fn)) in
  sm "getItem" (fun vm ~this:_ args ->
      let key = Value.to_string vm (List.nth_opt args 0 |> Option.value ~default:Value.Undefined) in
      (match Hashtbl.find_opt storage_data key with
      | Some v ->
          Instr.emit t.instr (prop_cell t ~owner:storage_uid key) `Read;
          Value.String v
      | None ->
          Instr.emit t.instr ~flags:[ Access.Observed_miss ]
            (prop_cell t ~owner:storage_uid key)
            `Read;
          Value.Null));
  sm "setItem" (fun vm ~this:_ args ->
      let key = Value.to_string vm (List.nth_opt args 0 |> Option.value ~default:Value.Undefined) in
      let v = Value.to_string vm (List.nth_opt args 1 |> Option.value ~default:Value.Undefined) in
      Instr.emit t.instr (prop_cell t ~owner:storage_uid key) `Write;
      Hashtbl.replace storage_data key v;
      Value.Undefined);
  sm "removeItem" (fun vm ~this:_ args ->
      let key = Value.to_string vm (List.nth_opt args 0 |> Option.value ~default:Value.Undefined) in
      if Hashtbl.mem storage_data key then begin
        Instr.emit t.instr (prop_cell t ~owner:storage_uid key) `Write;
        Hashtbl.remove storage_data key
      end;
      Value.Undefined);
  Value.set_prop_raw obj "localStorage" (Value.Object storage);
  obj.Value.host <-
    Some
      {
        Value.host_id = w.win_uid;
        host_kind = "window";
        host_get =
          (fun vm o name ->
            match name with
            | "document" -> Some (Value.Object w.doc_obj)
            | "window" | "self" | "top" -> Some (Value.Object obj)
            | "parent" -> (
                match w.frame with
                | Some { parent; _ } -> Some (Value.Object parent.win_obj)
                | None -> Some (Value.Object obj))
            | _ when String.length name > 2 && String.sub name 0 2 = "on" -> (
                let event = String.sub name 2 (String.length name - 2) in
                match Events.inline t.registry ~target:w.win_uid ~event with
                | Some h -> Some h
                | None -> Some Value.Null)
            | _ when Hashtbl.mem o.Value.props name -> None
            | _ -> (
                (* Unify window properties with the shared global scope. *)
                match Interp.read_global vm name with Some v -> Some v | None -> Some Value.Undefined)
            );
        host_set =
          (fun vm _o name v ->
            match name with
            | _ when String.length name > 2 && String.sub name 0 2 = "on" ->
                let event = String.sub name 2 (String.length name - 2) in
                let handler =
                  match v with
                  | Value.String code -> compile_handler_code t ~code ~label:("window.on" ^ event)
                  | Value.Null | Value.Undefined -> None
                  | v when Value.is_callable v -> Some v
                  | _ -> None
                in
                Events.set_inline t.registry ~target:w.win_uid ~event handler;
                true
            | "location" -> true (* navigation not simulated *)
            | _ ->
                Interp.write_global vm name v;
                true);
      };
  obj

(* --- timers (rules 16, 17 + clearTimeout extension) ------------------- *)

and callback_of t _vm v =
  match v with
  | Value.String code -> compile_handler_code t ~code ~label:"timer code"
  | v when Value.is_callable v -> Some v
  | _ -> None

and timer_alive_loc t uid = prop_cell t ~owner:uid "alive"

and set_timeout t w vm args =
  let f = List.nth_opt args 0 |> Option.value ~default:Value.Undefined in
  let delay =
    match List.nth_opt args 1 with Some v -> Value.to_number v | None -> 0.
  in
  let delay = if Float.is_nan delay then 0. else Float.max 0. delay in
  match callback_of t vm f with
  | None -> Value.Number (-1.)
  | Some callback ->
      let caller = current_op t in
      let timer_uid = t.instr.Instr.fresh_id () in
      let handle =
        Event_loop.schedule ~cls:Event_loop.Timer t.loop ~delay (fun () ->
            Hashtbl.remove t.timeouts timer_uid;
            let label = Printf.sprintf "setTimeout callback (timer %d)" timer_uid in
            let op = fresh_op t Op.Timeout_callback ~label ~preds:[ caller ] in
            ignore
              (within_op t op ~label (fun () ->
                   (* clearTimeout extension: the callback reads the timer's
                      liveness; an unordered clear writes it. *)
                   Instr.emit t.instr (timer_alive_loc t timer_uid) `Read;
                   enter_window t w;
                   ignore (Interp.call t.vm callback ~this:Value.Undefined []))))
      in
      Hashtbl.replace t.timeouts timer_uid handle;
      Value.Number (float_of_int timer_uid)

and set_interval t w vm args =
  let f = List.nth_opt args 0 |> Option.value ~default:Value.Undefined in
  let delay =
    match List.nth_opt args 1 with Some v -> Value.to_number v | None -> 0.
  in
  let delay = if Float.is_nan delay then 0. else Float.max 1. delay in
  match callback_of t vm f with
  | None -> Value.Number (-1.)
  | Some callback ->
      let caller = current_op t in
      let timer_uid = t.instr.Instr.fresh_id () in
      let st = { iter = 0; last_op = caller; active = true; pending = None } in
      Hashtbl.replace t.intervals timer_uid st;
      let rec arm () =
        st.pending <-
          Some
            (Event_loop.schedule ~cls:Event_loop.Timer t.loop ~delay (fun () ->
                 if st.active then begin
                   let label =
                     Printf.sprintf "setInterval callback #%d (timer %d)" st.iter timer_uid
                   in
                   let op =
                     fresh_op t (Op.Interval_callback st.iter) ~label ~preds:[ st.last_op ]
                   in
                   let final =
                     within_op t op ~label (fun () ->
                         Instr.emit t.instr (timer_alive_loc t timer_uid) `Read;
                         enter_window t w;
                         ignore (Interp.call t.vm callback ~this:Value.Undefined []))
                   in
                   st.last_op <- final;
                   st.iter <- st.iter + 1;
                   arm ()
                 end))
      in
      arm ();
      Value.Number (float_of_int timer_uid)

and clear_timeout t _vm args =
  (match List.nth_opt args 0 with
  | Some v -> (
      let uid = int_of_float (Value.to_number v) in
      match Hashtbl.find_opt t.timeouts uid with
      | Some handle ->
          Event_loop.cancel t.loop handle;
          Hashtbl.remove t.timeouts uid;
          Instr.emit t.instr (timer_alive_loc t uid) `Write
      | None -> ())
  | None -> ());
  Value.Undefined

and clear_interval t _vm args =
  (match List.nth_opt args 0 with
  | Some v -> (
      let uid = int_of_float (Value.to_number v) in
      match Hashtbl.find_opt t.intervals uid with
      | Some st ->
          st.active <- false;
          (match st.pending with Some h -> Event_loop.cancel t.loop h | None -> ());
          Hashtbl.remove t.intervals uid;
          Instr.emit t.instr (timer_alive_loc t uid) `Write
      | None -> ())
  | None -> ());
  Value.Undefined

(* --- XHR (rule 10) ---------------------------------------------------- *)

and make_xhr_ctor t w =
  let vm = t.vm in
  Value.new_builtin vm "XMLHttpRequest" (fun vm ~this:_ _args ->
      let xhr_uid = t.instr.Instr.fresh_id () in
      let obj = Value.new_object vm ~class_name:"XMLHttpRequest" () in
      Hashtbl.replace t.node_objs xhr_uid obj;
      Hashtbl.replace t.create_ops xhr_uid (current_op t);
      Value.set_prop_raw obj "readyState" (Value.Number 0.);
      Value.set_prop_raw obj "responseText" (Value.String "");
      Value.set_prop_raw obj "status" (Value.Number 0.);
      let url = ref "" in
      let m name fn = Value.set_prop_raw obj name (Value.Object (Value.new_builtin vm name fn)) in
      m "open" (fun vm ~this:_ args ->
          url := Value.to_string vm (List.nth_opt args 1 |> Option.value ~default:Value.Undefined);
          Value.set_prop_raw obj "readyState" (Value.Number 1.);
          Value.Undefined);
      m "setRequestHeader" (fun _vm ~this:_ _ -> Value.Undefined);
      m "send" (fun _vm ~this:_ _args ->
          let send_op = current_op t in
          Network.fetch ~cls:Event_loop.Xhr t.net ~url:!url (fun outcome ->
              (match outcome with
              | Network.Fetched body ->
                  Value.set_prop_raw obj "readyState" (Value.Number 4.);
                  Value.set_prop_raw obj "responseText" (Value.String body);
                  Value.set_prop_raw obj "status" (Value.Number 200.)
              | Network.Missing ->
                  Value.set_prop_raw obj "readyState" (Value.Number 4.);
                  Value.set_prop_raw obj "status" (Value.Number 404.));
              ignore
                (dispatch t ~win:w ~target:xhr_uid ~path:[ xhr_uid ] ~event:"readystatechange"
                   ~bubbles:false ~preds:[ send_op ] ~target_value:(Value.Object obj) ()));
          Value.Undefined);
      obj.Value.host <-
        Some
          {
            Value.host_id = xhr_uid;
            host_kind = "xhr";
            host_get =
              (fun _vm _o name ->
                match name with
                | "onreadystatechange" -> (
                    match Events.inline t.registry ~target:xhr_uid ~event:"readystatechange" with
                    | Some h -> Some h
                    | None -> Some Value.Null)
                | _ -> None);
            host_set =
              (fun _vm _o name v ->
                match name with
                | "onreadystatechange" ->
                    let handler = if Value.is_callable v then Some v else None in
                    Events.set_inline t.registry ~target:xhr_uid ~event:"readystatechange" handler;
                    true
                | _ -> false);
          };
      Value.Object obj)

(* --- window construction ---------------------------------------------- *)

and make_window t ~frame ~url =
  let win_uid = t.instr.Instr.fresh_id () in
  let doc = Dom.create_document t.instr ~url in
  let w =
    {
      win_uid;
      doc;
      frame;
      win_obj = Value.new_object t.vm ();  (* replaced below *)
      doc_obj = Value.new_object t.vm ();
      parse_items = [];
      parse_preds = [ t.init_op ];
      parsing_done = false;
      blocked_on_script = false;
      deferred = [];
      dcl_done = false;
      dcl_ops = [];
      load_fired = false;
      pending_loads = 0;
      load_preds = [];
      defer_ld_ops = [];
    }
  in
  w.doc_obj <- make_document_object t w;
  w.win_obj <- make_window_object t w;
  Hashtbl.replace t.nodes (Dom.root doc).Dom.uid (Dom.root doc, w);
  Hashtbl.replace t.create_ops w.win_uid t.init_op;
  Hashtbl.replace t.create_ops (Dom.root doc).Dom.uid t.init_op;
  t.windows <- t.windows @ [ w ];
  (* Window-level builtins double as bare globals: setTimeout(...) without
     the window. prefix. Install once, from the main window. *)
  if frame = None then begin
    List.iter
      (fun name ->
        match Value.get_prop_raw w.win_obj name with
        | Some v -> Hashtbl.replace t.vm.Value.global.Value.vars name (ref v)
        | None -> ())
      [
        "setTimeout"; "setInterval"; "clearTimeout"; "clearInterval"; "alert";
        "XMLHttpRequest"; "getComputedStyle"; "location"; "localStorage";
      ];
    t.vm.Value.global_this <- Value.Object w.win_obj
  end;
  enter_window t w;
  w

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)
(* ------------------------------------------------------------------ *)

let create (config : Config.t) =
  let tm = config.Config.telemetry in
  let loop = Event_loop.create ~tm ~bias:config.Config.bias () in
  Telemetry.set_virtual_clock tm (fun () -> Event_loop.now loop);
  let rng = Wr_support.Rng.of_int config.Config.seed in
  let resolve url = List.assoc_opt url config.Config.resources in
  let net =
    Network.create ~loop ~rng:(Wr_support.Rng.split rng) ~resolve
      ~mean_latency:config.Config.mean_latency ~tm ()
  in
  let graph = Graph.create ~strategy:config.Config.hb_strategy () in
  (* Dedup lives inside the detector, so the trace recorder below still
     captures the raw access stream (offline replay must see what the page
     did, not what the detector forwarded). *)
  let det, dedup_stats =
    let deduped create =
      let det, stats = create graph in
      (det, Some stats)
    in
    match config.Config.detector with
    | Config.Last_access when config.Config.dedup -> deduped Wr_detect.Last_access.create_dedup
    | Config.Full_track when config.Config.dedup -> deduped Wr_detect.Full_track.create_dedup
    | Config.Last_access -> (Wr_detect.Last_access.create graph, None)
    | Config.Full_track -> (Wr_detect.Full_track.create graph, None)
    | Config.No_detector -> (Detector.null, None)
  in
  let det, recorded_accesses =
    if config.Config.trace then
      let det, read = Wr_detect.Trace.recorder det in
      (det, Some read)
    else (det, None)
  in
  let det = Detector.with_telemetry tm det in
  let vm =
    Interp.create ~seed:config.Config.seed ~fuel:config.Config.fuel
      ~sink:(fun a -> det.Detector.record a)
      ()
  in
  vm.Value.now <- (fun () -> Event_loop.now loop);
  vm.Value.tm <- tm;
  let instr =
    {
      Instr.op = 0;
      context = "init";
      sink = (fun a -> det.Detector.record a);
      cell_id = (fun ~owner name -> Value.cell_id vm ~owner name);
      fresh_id = (fun () -> Value.fresh_id vm);
    }
  in
  let init_op = Graph.fresh graph Op.Initial ~label:"browser start" in
  let t =
    {
      config;
      graph;
      det;
      vm;
      instr;
      loop;
      net;
      registry = Events.create ~tm instr;
      init_op;
      main = None;
      windows = [];
      current_window = None;
      node_objs = Hashtbl.create 256;
      nodes = Hashtbl.create 256;
      create_ops = Hashtbl.create 256;
      dispatch_ops = Hashtbl.create 64;
      counted_loadables = Hashtbl.create 16;
      load_started = Hashtbl.create 16;
      timeouts = Hashtbl.create 16;
      intervals = Hashtbl.create 8;
      crashes = [];
      segment_counter = 0;
      recorded_accesses;
      dedup_stats;
      doc_write = None;
    }
  in
  set_op t init_op ~label:"browser start";
  t

let start t =
  Telemetry.mark (tel t) ~cat:"page" "start";
  let w = make_window t ~frame:None ~url:"http://site.test/" in
  t.main <- Some w;
  w.parse_items <-
    List.map
      (function
        | Html.Element e -> I_elem { elem = e; item_parent = Dom.root w.doc }
        | Html.Text s -> I_text { content = s; item_parent = Dom.root w.doc })
      (Html.parse ~tm:(tel t) t.config.Config.page);
  schedule_parse t w

let run t = Event_loop.run_until t.loop ~deadline:t.config.Config.time_limit

(* ------------------------------------------------------------------ *)
(* User simulation                                                     *)
(* ------------------------------------------------------------------ *)

let attached_node t uid =
  match Hashtbl.find_opt t.nodes uid with
  | Some (n, w) when Dom.is_attached w.doc n -> Some (n, w)
  | _ -> None

let explorable_handler_targets t =
  List.filter
    (fun (target, event) ->
      List.mem event Events.exploration_events && attached_node t target <> None)
    (Events.targets_with_handlers t.registry)

let text_input_uids t =
  let out = ref [] in
  Hashtbl.iter
    (fun uid (n, w) ->
      if Dom.is_attached w.doc n then
        match n.Dom.tag with
        | "textarea" -> out := uid :: !out
        | "input" -> (
            match Dom.get_attr n "type" with
            | None | Some "" | Some "text" | Some "search" | Some "email" | Some "tel" ->
                out := uid :: !out
            | Some _ -> ())
        | _ -> ())
    t.nodes;
  List.sort compare !out

let javascript_link_uids t =
  let out = ref [] in
  Hashtbl.iter
    (fun uid (n, w) ->
      if Dom.is_attached w.doc n && n.Dom.tag = "a" then
        match Dom.get_attr n "href" with
        | Some href when String.length href > 11 && String.sub href 0 11 = "javascript:" ->
            out := uid :: !out
        | Some _ | None -> ())
    t.nodes;
  List.sort compare !out

let schedule_user_event t ~target ~event =
  ignore
    (Event_loop.schedule ~cls:Event_loop.User t.loop ~delay:0. (fun () ->
         match attached_node t target with
         | Some (n, w) -> user_action_dispatch t w n ~event ~inline:false
         | None -> ()))

let schedule_user_click t ~target =
  ignore
    (Event_loop.schedule ~cls:Event_loop.User t.loop ~delay:0. (fun () ->
         match attached_node t target with
         | Some (n, w) -> user_action_dispatch t w n ~event:"click" ~inline:false
         | None -> ()))

let schedule_user_typing t ~target ~text =
  ignore
    (Event_loop.schedule ~cls:Event_loop.User t.loop ~delay:0. (fun () ->
         match attached_node t target with
         | None -> ()
         | Some (n, w) ->
             (* The user operation writes the field's value (§5.2.2's
                this.value := this.value instrumentation made this write
                visible in WebKit; here it is direct), then input fires. *)
             let label = Printf.sprintf "user types into node#%d" n.Dom.uid in
             let op = fresh_op t Op.User ~label ~preds:[] in
             let final =
               within_op t op ~label (fun () ->
                   Dom.set_idl w.doc n ~flags:[ Access.User_input ] "value" text)
             in
             ignore
               (dispatch t ~win:w ~target:n.Dom.uid ~path:(node_path n) ~event:"input"
                  ~bubbles:true ~preds:[ final ] ())))
