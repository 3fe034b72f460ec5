module Instr = Wr_mem.Instr
module Location = Wr_mem.Location

type phase = Capture | At_target | Bubble

let phase_name = function Capture -> "capture" | At_target -> "target" | Bubble -> "bubble"

type 'h registration = {
  listener_uid : int;
  handler : 'h;
  capture : bool;
  listener_loc : Location.t;
}

(* A (target, event) pair's handlers, with its interned container and
   inline-slot locations; each registration carries its listener's. *)
type 'h slot_state = {
  container : Location.t;
  attr : Location.t;
  mutable inline_handler : 'h option;
  mutable listener_list : 'h registration list;  (* registration order *)
  mutable dispatches : int;
}

type 'h t = {
  instr : Instr.t;
  slots : (int * string, 'h slot_state) Hashtbl.t;
  tm : Wr_telemetry.Telemetry.t;
}

let create ?(tm = Wr_telemetry.Telemetry.disabled) instr =
  { instr; slots = Hashtbl.create 64; tm }

let handler_location t ~target ~event slot =
  Location.Event_handler { target; event; slot; key = t.instr.Instr.fresh_key () }

let state t ~target ~event =
  match Hashtbl.find_opt t.slots (target, event) with
  | Some s -> s
  | None ->
      let s =
        {
          container = handler_location t ~target ~event Location.Container;
          attr = handler_location t ~target ~event Location.Attr;
          inline_handler = None;
          listener_list = [];
          dispatches = 0;
        }
      in
      Hashtbl.add t.slots (target, event) s;
      s

let container_location t ~target ~event = (state t ~target ~event).container

let set_inline t ~target ~event h =
  let s = state t ~target ~event in
  s.inline_handler <- h;
  Instr.emit t.instr s.attr `Write;
  Instr.emit t.instr s.container `Write

let inline t ~target ~event = (state t ~target ~event).inline_handler

let add_listener t ~target ~event ~capture h =
  Wr_telemetry.Telemetry.incr t.tm "events.listeners_registered";
  let s = state t ~target ~event in
  let uid = t.instr.Instr.fresh_id () in
  let listener_loc = handler_location t ~target ~event (Location.Listener uid) in
  s.listener_list <-
    s.listener_list @ [ { listener_uid = uid; handler = h; capture; listener_loc } ];
  Instr.emit t.instr listener_loc `Write;
  Instr.emit t.instr s.container `Write;
  uid

let remove_listener t ~target ~event ~uid =
  let s = state t ~target ~event in
  match List.partition (fun r -> r.listener_uid = uid) s.listener_list with
  | [], _ -> ()
  | removed :: _, kept ->
      s.listener_list <- kept;
      Instr.emit t.instr removed.listener_loc `Write;
      Instr.emit t.instr s.container `Write

let listeners t ~target ~event = (state t ~target ~event).listener_list

type 'h step = {
  phase : phase;
  current_target : int;
  loc : Location.t;
  callback : 'h;
}

let steps_at t ~node ~event ~phase =
  let s = state t ~target:node ~event in
  let want_capture = phase = Capture in
  let listener_steps =
    List.filter_map
      (fun r ->
        if r.capture = want_capture then
          Some
            { phase; current_target = node; loc = r.listener_loc; callback = r.handler }
        else None)
      s.listener_list
  in
  let inline_steps =
    match s.inline_handler with
    | Some h when not want_capture ->
        [ { phase; current_target = node; loc = s.attr; callback = h } ]
    | Some _ | None -> []
  in
  (* Inline handler runs before listeners, as in browsers. *)
  inline_steps @ listener_steps

let plan t ~path ~event ~bubbles =
  match List.rev path with
  | [] -> []
  | target :: ancestors_rev ->
      let ancestors = List.rev ancestors_rev in
      (* root .. parent *)
      let capture =
        List.concat_map (fun n -> steps_at t ~node:n ~event ~phase:Capture) ancestors
      in
      let at_target =
        (* At the target, the inline handler runs first, then all listeners
           in registration order regardless of their capture flag. *)
        let s = state t ~target ~event in
        let inline_steps =
          match s.inline_handler with
          | Some h ->
              [ { phase = At_target; current_target = target; loc = s.attr; callback = h } ]
          | None -> []
        in
        inline_steps
        @ List.map
            (fun r ->
              {
                phase = At_target;
                current_target = target;
                loc = r.listener_loc;
                callback = r.handler;
              })
            s.listener_list
      in
      let bubble =
        if bubbles then
          List.concat_map (fun n -> steps_at t ~node:n ~event ~phase:Bubble) ancestors_rev
        else []
      in
      capture @ at_target @ bubble

let record_dispatch t ~target ~event =
  Wr_telemetry.Telemetry.incr t.tm "events.dispatches";
  let s = state t ~target ~event in
  let i = s.dispatches in
  s.dispatches <- i + 1;
  i

let dispatch_count t ~target ~event = (state t ~target ~event).dispatches

let targets_with_handlers t =
  Hashtbl.fold
    (fun (target, event) s acc ->
      if s.inline_handler <> None || s.listener_list <> [] then (target, event) :: acc
      else acc)
    t.slots []
  |> List.sort compare

let non_bubbling_events = [ "load"; "unload"; "focus"; "blur"; "mouseenter"; "mouseleave" ]

let exploration_events =
  [
    "mouseover"; "mousemove"; "mouseout"; "mouseup"; "mousedown"; "keydown"; "keyup";
    "keypress"; "change"; "input"; "focus"; "blur";
  ]
