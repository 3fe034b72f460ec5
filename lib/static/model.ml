(* Static page model: code units and a may-happen-in-parallel relation
   derived from the parsed DOM without executing anything.

   The unit graph mirrors the dynamic happens-before rules in Wr_hb /
   Wr_browser (paper §3) edge for edge:

   - parse units chain in document pre-order (rule 1), with inline and
     sync external scripts interleaved at their position (rules 2-3);
   - async scripts hang off their create point only: the fetch arrival is
     unordered with the rest of parsing (rule 8);
   - defer scripts run in order after parsing, before DOMContentLoaded
     (rules 4-5, 9);
   - iframe documents chain after the iframe element's parse (rules 6-7);
   - timers and XHR completion handlers follow their registering unit
     (rules 10, 16); same-unit timers with known delays d1 <= d2 are
     ordered (rule 17);
   - event-handler bodies follow their registering unit; dispatch anchors
     follow only the target element's parse — the user can fire the event
     any time after the element exists (§5.2.2);
   - DOMContentLoaded follows parsing and defers (rule 11); window load
     follows DCL, async scripts and resource loads (rules 12-15).

   MHP(a, b) = neither unit reaches the other through the edge set. *)

module Html = Wr_html.Html
module Bitset = Wr_support.Bitset
module Telemetry = Wr_telemetry.Telemetry

type unit_kind =
  | U_parse of { node : int; tag : string; elem_id : string option }
  | U_script of [ `Sync | `Async | `Defer ]
  | U_timer of { interval : bool; delay : float option }
  | U_xhr
  | U_handler of { target : Effects.target; event : string }
  | U_dispatch of { target : Effects.target; event : string }
  | U_user of { node : int }
  | U_dcl
  | U_load

type unit_ = {
  uid : int;
  kind : unit_kind;
  label : string;
  doc : int;
  mutable preds : int list;
  mutable effs : Effects.eff list;
}

let kind_name = function
  | U_parse _ -> "parse"
  | U_script `Sync -> "script"
  | U_script `Async -> "async-script"
  | U_script `Defer -> "defer-script"
  | U_timer { interval = false; _ } -> "timer"
  | U_timer { interval = true; _ } -> "interval"
  | U_xhr -> "xhr"
  | U_handler _ -> "handler"
  | U_dispatch _ -> "dispatch"
  | U_user _ -> "user"
  | U_dcl -> "dcl"
  | U_load -> "load"

type t = {
  units : unit_ array;
  docs : int;
  duplicate_ids : (int * string * int) list;
  missing_handler_ids : (int * string * string * string) list;
  anc : Bitset.t array;
}

(* --- static DOM ----------------------------------------------------- *)

type selem = {
  sdoc : int;
  snode : int;
  stag : string;
  sid : string option;
  sclasses : string list;
  sancestors : int list;  (* node indices, nearest first *)
  sattrs : (string * string) list;
  stext : string;  (* concatenated text children: script bodies *)
}

let classes_of attrs =
  match List.assoc_opt "class" attrs with
  | None -> []
  | Some v -> Wr_dom.Dom.class_list v

(* Document-level named collections an element joins on insertion;
   mirrors the dynamic DOM's collection bookkeeping. *)
let named_collections tag attrs =
  let has n = List.mem_assoc n attrs in
  match tag with
  | "img" -> [ "images" ]
  | "form" -> [ "forms" ]
  | "script" -> [ "scripts" ]
  | "a" ->
      (if has "href" then [ "links" ] else [])
      @ if has "name" then [ "anchors" ] else []
  | _ -> []

let text_of_children children =
  String.concat ""
    (List.filter_map
       (function Html.Text s -> Some s | Html.Element _ -> None)
       children)

(* Mirrors Browser.text_input_uids: elements user exploration types into. *)
let is_text_input e =
  match e.stag with
  | "textarea" -> true
  | "input" -> (
      match List.assoc_opt "type" e.sattrs with
      | None | Some "" | Some "text" | Some "search" | Some "email" | Some "tel"
        ->
          true
      | Some _ -> false)
  | _ -> false

let elem_suffix e = match e.sid with Some id -> "#" ^ id | None -> ""

(* --- builder --------------------------------------------------------- *)

type doc_acc = {
  adoc : int;
  mutable chain : int list;  (* preds for the next parser-chain unit *)
  mutable defers : (selem * string) list;  (* reverse order *)
  mutable asyncs : int list;
  mutable loadables : int list;  (* element load/error dispatch units *)
  mutable scripts : (int * Wr_js.Ast.program) list;  (* reverse order *)
  mutable handlers : (int * Wr_js.Ast.program) list;
      (* inline-attribute handler and javascript:-link bodies, rev order *)
}

type builder = {
  resources : (string * string) list;
  mutable next_doc : int;
  mutable vunits : unit_ list;  (* reverse order *)
  mutable nunits : int;
  ids : (int * string, int) Hashtbl.t;
  id_counts : (int * string, int) Hashtbl.t;
  by_node : (int * int, selem) Hashtbl.t;
  parse_uid : (int * int, int) Hashtbl.t;
  tags : (int * string, int list) Hashtbl.t;
  cls : (int * string, int list) Hashtbl.t;
  mutable docs_done : doc_acc list;  (* reverse order *)
  mutable missing : (int * string * string * string) list;
  dispatched : (string, unit) Hashtbl.t;  (* dedup key for dispatch units *)
}

let mk b ?(preds = []) ?(effs = []) ~doc ~label kind =
  let u = { uid = b.nunits; kind; label; doc; preds; effs } in
  b.vunits <- u :: b.vunits;
  b.nunits <- b.nunits + 1;
  u

let target_of_elem e =
  match e.sid with
  | Some id -> Effects.T_elem { doc = e.sdoc; id = Effects.Lit id }
  | None -> Effects.T_node { doc = e.sdoc; node = e.snode }

let read_handler target event =
  {
    Effects.loc = Effects.S_handler { target; event };
    kind = Effects.Read;
    func_decl = false;
    call = false;
    user = false;
    may_miss = false;
  }

let write_handler target event =
  { (read_handler target event) with Effects.kind = Effects.Write }

(* Container cells a dispatch anchored at [e] reads: the element itself,
   every static ancestor, and the document root — the capture/bubble path
   the dynamic dispatch anchor touches. *)
let dispatch_reads b e event =
  (read_handler (target_of_elem e) event
  :: List.filter_map
       (fun anc ->
         Option.map
           (fun a -> read_handler (target_of_elem a) event)
           (Hashtbl.find_opt b.by_node (e.sdoc, anc)))
       e.sancestors)
  @ [ read_handler (Effects.T_root e.sdoc) event ]

(* Presence effects of parsing an element: its node cell, its id lookup
   cell, and every collection it joins. *)
let presence_effs e =
  let w loc =
    {
      Effects.loc;
      kind = Effects.Write;
      func_decl = false;
      call = false;
      user = false;
      may_miss = false;
    }
  in
  (w (Effects.S_node { doc = e.sdoc; node = e.snode })
  :: (match e.sid with
     | Some id -> [ w (Effects.S_id { doc = e.sdoc; id = Effects.Lit id }) ]
     | None -> []))
  @ List.map
      (fun c -> w (Effects.S_collection { doc = e.sdoc; name = Effects.Lit c }))
      (("tag:" ^ e.stag)
      :: (List.map (fun c -> "class:" ^ c) e.sclasses
         @ named_collections e.stag e.sattrs))

let parse_js src =
  match Wr_js.Parser.parse src with
  | prog -> Some prog
  | exception _ -> None

let dispatch_key doc target event =
  Printf.sprintf "%d/%s/%s" doc (Effects.target_to_string target) event

(* --- document walk --------------------------------------------------- *)

let rec walk_doc b ~doc ~preds nodes =
  let acc =
    {
      adoc = doc;
      chain = preds;
      defers = [];
      asyncs = [];
      loadables = [];
      scripts = [];
      handlers = [];
    }
  in
  let next_node = ref 0 in
  let rec walk_nodes ancestors ns = List.iter (walk_node ancestors) ns
  and walk_node ancestors n =
    match n with
    | Html.Text _ -> ()
    | Html.Element el ->
        let node = !next_node in
        incr next_node;
        let attrs =
          List.map (fun a -> (a.Html.name, a.Html.value)) el.Html.attrs
        in
        let e =
          {
            sdoc = doc;
            snode = node;
            stag = el.Html.tag;
            sid = List.assoc_opt "id" attrs;
            sclasses = classes_of attrs;
            sancestors = ancestors;
            sattrs = attrs;
            stext = text_of_children el.Html.children;
          }
        in
        Hashtbl.replace b.by_node (doc, node) e;
        (match e.sid with
        | Some id ->
            let k = (doc, id) in
            if not (Hashtbl.mem b.ids k) then Hashtbl.replace b.ids k node;
            Hashtbl.replace b.id_counts k
              (1 + Option.value ~default:0 (Hashtbl.find_opt b.id_counts k))
        | None -> ());
        Hashtbl.replace b.tags (doc, e.stag)
          (node
          :: Option.value ~default:[] (Hashtbl.find_opt b.tags (doc, e.stag)));
        List.iter
          (fun c ->
            Hashtbl.replace b.cls (doc, c)
              (node
              :: Option.value ~default:[] (Hashtbl.find_opt b.cls (doc, c))))
          e.sclasses;
        let pu =
          mk b ~preds:acc.chain ~effs:(presence_effs e) ~doc
            ~label:(Printf.sprintf "parse <%s%s>" e.stag (elem_suffix e))
            (U_parse { node; tag = e.stag; elem_id = e.sid })
        in
        Hashtbl.replace b.parse_uid (doc, node) pu.uid;
        acc.chain <- [ pu.uid ];
        (* Inline on<event> attributes register their handler at parse
           time: the parse unit writes the container, the body becomes a
           handler unit ordered after it. *)
        List.iter
          (fun (name, value) ->
            if String.length name > 2 && String.sub name 0 2 = "on" then begin
              let event = String.sub name 2 (String.length name - 2) in
              pu.effs <- write_handler (target_of_elem e) event :: pu.effs;
              match parse_js value with
              | Some prog ->
                  let hu =
                    mk b ~preds:[ pu.uid ] ~doc
                      ~label:
                        (Printf.sprintf "handler %s on <%s%s>" event e.stag
                           (elem_suffix e))
                      (U_handler { target = target_of_elem e; event })
                  in
                  acc.handlers <- (hu.uid, prog) :: acc.handlers
              | None -> ()
            end)
          attrs;
        (match e.stag with
        | "script" -> script_elem b acc e pu
        | "img" -> loadable_elem b acc e pu
        | "iframe" -> iframe_elem b acc e pu
        | "a" -> js_link_elem b acc e pu
        | _ -> ());
        if is_text_input e then begin
          Hashtbl.replace b.dispatched
            (dispatch_key doc (target_of_elem e) "input")
            ();
          let uu =
            mk b ~preds:[ pu.uid ] ~doc
              ~label:
                (Printf.sprintf "user types into <%s%s>" e.stag (elem_suffix e))
              (U_user { node })
          in
          uu.effs <-
            {
              Effects.loc =
                Effects.S_prop
                  { target = target_of_elem e; prop = Effects.Lit "value" };
              kind = Effects.Write;
              func_decl = false;
              call = false;
              user = true;
              may_miss = false;
            }
            :: dispatch_reads b e "input"
        end;
        walk_nodes (node :: ancestors) el.Html.children
  in
  walk_nodes [] nodes;
  acc

and script_elem b acc e pu =
  let src = List.assoc_opt "src" e.sattrs in
  let body =
    match src with
    | Some url -> List.assoc_opt url b.resources
    | None -> Some e.stext
  in
  match body with
  | None -> () (* the fetch fails: the script never executes *)
  | Some source -> (
      let is_async = List.mem_assoc "async" e.sattrs && src <> None in
      let is_defer =
        (not is_async) && List.mem_assoc "defer" e.sattrs && src <> None
      in
      if is_defer then acc.defers <- (e, source) :: acc.defers
      else
        match parse_js source with
        | None -> ()
        | Some prog ->
            let mode = if is_async then `Async else `Sync in
            let label =
              match src with
              | Some url ->
                  Printf.sprintf "%s script %s"
                    (match mode with `Async -> "async" | _ -> "sync")
                    url
              | None ->
                  Printf.sprintf "inline script (doc%d/node%d)" e.sdoc e.snode
            in
            let preds =
              match mode with `Async -> [ pu.uid ] | _ -> acc.chain
            in
            let su = mk b ~preds ~doc:e.sdoc ~label (U_script mode) in
            acc.scripts <- (su.uid, prog) :: acc.scripts;
            (match mode with
            | `Async -> acc.asyncs <- su.uid :: acc.asyncs
            | `Sync -> acc.chain <- [ su.uid ]);
            (* External scripts fire load after execution. *)
            if src <> None then begin
              let du =
                mk b ~preds:[ su.uid ] ~doc:e.sdoc
                  ~effs:(dispatch_reads b e "load")
                  ~label:
                    (Printf.sprintf "dispatch load on script %s"
                       (Option.get src))
                  (U_dispatch { target = target_of_elem e; event = "load" })
              in
              Hashtbl.replace b.dispatched
                (dispatch_key e.sdoc (target_of_elem e) "load")
                ();
              acc.loadables <- du.uid :: acc.loadables
            end)

and loadable_elem b acc e pu =
  match List.assoc_opt "src" e.sattrs with
  | None -> ()
  | Some url ->
      let event = if List.mem_assoc url b.resources then "load" else "error" in
      let du =
        mk b ~preds:[ pu.uid ] ~doc:e.sdoc
          ~effs:(dispatch_reads b e event)
          ~label:(Printf.sprintf "dispatch %s on <img%s>" event (elem_suffix e))
          (U_dispatch { target = target_of_elem e; event })
      in
      Hashtbl.replace b.dispatched
        (dispatch_key e.sdoc (target_of_elem e) event)
        ();
      acc.loadables <- du.uid :: acc.loadables

and iframe_elem b acc e pu =
  match List.assoc_opt "src" e.sattrs with
  | None -> ()
  | Some url -> (
      match List.assoc_opt url b.resources with
      | None -> ()
      | Some body ->
          let child_doc = b.next_doc in
          b.next_doc <- b.next_doc + 1;
          let child_load =
            finish_doc b ~doc:child_doc ~preds:[ pu.uid ] (Html.parse body)
          in
          let du =
            mk b
              ~preds:[ child_load; pu.uid ]
              ~doc:e.sdoc
              ~effs:(dispatch_reads b e "load")
              ~label:(Printf.sprintf "dispatch load on <iframe %s>" url)
              (U_dispatch { target = target_of_elem e; event = "load" })
          in
          Hashtbl.replace b.dispatched
            (dispatch_key e.sdoc (target_of_elem e) "load")
            ();
          acc.loadables <- du.uid :: acc.loadables)

and js_link_elem b acc e pu =
  match List.assoc_opt "href" e.sattrs with
  | Some href
    when String.length href > 11 && String.sub href 0 11 = "javascript:" -> (
      let code = String.sub href 11 (String.length href - 11) in
      match parse_js code with
      | None -> ()
      | Some prog ->
          let du =
            mk b ~preds:[ pu.uid ] ~doc:e.sdoc
              ~effs:(dispatch_reads b e "click")
              ~label:(Printf.sprintf "dispatch click on <a%s>" (elem_suffix e))
              (U_dispatch { target = target_of_elem e; event = "click" })
          in
          Hashtbl.replace b.dispatched
            (dispatch_key e.sdoc (target_of_elem e) "click")
            ();
          acc.handlers <- (du.uid, prog) :: acc.handlers)
  | _ -> ()

(* Walk a document and wire its defer / DCL / load units; returns the
   load unit's id (the terminal unit, used as the iframe-load pred). *)
and finish_doc b ~doc ~preds nodes =
  let acc = walk_doc b ~doc ~preds nodes in
  let defer_units =
    List.fold_left
      (fun prev (e, source) ->
        match parse_js source with
        | None -> prev
        | Some prog ->
            let preds =
              (match prev with Some p -> [ p ] | None -> []) @ acc.chain
            in
            let du =
              mk b ~preds ~doc
                ~label:
                  (Printf.sprintf "defer script %s"
                     (Option.value ~default:"?"
                        (List.assoc_opt "src" e.sattrs)))
                (U_script `Defer)
            in
            acc.scripts <- (du.uid, prog) :: acc.scripts;
            Some du.uid)
      None (List.rev acc.defers)
  in
  let dcl =
    mk b
      ~preds:(acc.chain @ Option.to_list defer_units)
      ~doc
      ~effs:[ read_handler (Effects.T_root doc) "DOMContentLoaded" ]
      ~label:(Printf.sprintf "DOMContentLoaded (doc%d)" doc)
      U_dcl
  in
  let load =
    mk b
      ~preds:((dcl.uid :: acc.asyncs) @ acc.loadables)
      ~doc
      ~effs:
        [
          read_handler (Effects.T_window doc) "load";
          read_handler (Effects.T_root doc) "load";
        ]
      ~label:(Printf.sprintf "window load (doc%d)" doc)
      U_load
  in
  b.docs_done <- acc :: b.docs_done;
  load.uid

(* --- effect analysis and sub-unit flattening ------------------------- *)

(* Attach the nested units an analysis discovered (timers, XHR handlers,
   handler bodies) under [parent], recursively, and apply rule 17 to
   same-parent timers with known delays. *)
let rec attach_subs b parent (a : Effects.analysis) =
  let timers = ref [] in
  List.iter
    (fun (sk, (sub : Effects.analysis)) ->
      let u =
        match sk with
        | Effects.K_timer { interval; delay } ->
            let u =
              mk b ~preds:[ parent.uid ] ~doc:parent.doc
                ~label:
                  (Printf.sprintf "%s%s from %s"
                     (if interval then "interval" else "timer")
                     (match delay with
                     | Some d -> Printf.sprintf " (%gms)" d
                     | None -> "")
                     parent.label)
                (U_timer { interval; delay })
            in
            (match delay with
            | Some d ->
                (* Rule 17: same registering unit, d1 <= d2 => ordered. *)
                List.iter
                  (fun (d', uid') ->
                    if d' <= d then u.preds <- uid' :: u.preds)
                  !timers;
                timers := (d, u.uid) :: !timers
            | None -> ());
            u
        | Effects.K_xhr ->
            mk b ~preds:[ parent.uid ] ~doc:parent.doc
              ~label:(Printf.sprintf "xhr handler from %s" parent.label)
              U_xhr
        | Effects.K_handler { target; event } ->
            mk b ~preds:[ parent.uid ] ~doc:parent.doc
              ~label:
                (Printf.sprintf "handler %s on %s from %s" event
                   (Effects.target_to_string target)
                   parent.label)
              (U_handler { target; event })
      in
      u.effs <- u.effs @ sub.effs;
      attach_subs b u sub)
    (List.rev a.subs)

let analyze_code b =
  let units_by_uid = Hashtbl.create 64 in
  List.iter (fun u -> Hashtbl.replace units_by_uid u.uid u) b.vunits;
  let find uid : unit_ = Hashtbl.find units_by_uid uid in
  List.iter
    (fun acc ->
      let doc = acc.adoc in
      let dom =
        {
          Effects.nodes_by_tag =
            (fun d tag ->
              Option.value ~default:[] (Hashtbl.find_opt b.tags (d, tag)));
          nodes_by_class =
            (fun d c ->
              Option.value ~default:[] (Hashtbl.find_opt b.cls (d, c)));
        }
      in
      let ctx = Effects.make_ctx ~dom ~doc () in
      let scripts = List.rev acc.scripts in
      let handlers = List.rev acc.handlers in
      (* Pre-pass: page-wide global function table, so cross-unit calls
         inline and handler bodies can resolve script-declared names. *)
      List.iter (fun (_, prog) -> Effects.collect_globals ctx prog) scripts;
      List.iter
        (fun (uid, prog) ->
          let u = find uid in
          let a = Effects.analyze ctx prog in
          u.effs <- u.effs @ a.effs;
          attach_subs b u a)
        scripts;
      List.iter
        (fun (uid, prog) ->
          let u = find uid in
          let a = Effects.analyze_handler ctx prog in
          u.effs <- u.effs @ a.effs;
          attach_subs b u a)
        handlers)
    (List.rev b.docs_done)

(* --- registration-driven dispatch units ------------------------------ *)

(* For every statically observed handler registration on an event the
   dynamic explorer fires (§5.2.2), create a dispatch unit anchored at the
   target's parse unit — or record a lint finding when the registration
   names an id absent from the static DOM. *)
let make_dispatch_units b =
  let explorable e =
    e = "*" || List.mem e Wr_events.Events.exploration_events
  in
  let add_for_elem reg_doc event e =
    let target = target_of_elem e in
    let key = dispatch_key reg_doc target event in
    if not (Hashtbl.mem b.dispatched key) then begin
      Hashtbl.replace b.dispatched key ();
      let preds =
        Option.to_list (Hashtbl.find_opt b.parse_uid (e.sdoc, e.snode))
      in
      ignore
        (mk b ~preds ~doc:e.sdoc
           ~effs:(dispatch_reads b e event)
           ~label:
             (Printf.sprintf "dispatch %s on <%s%s>" event e.stag
                (elem_suffix e))
           (U_dispatch { target; event }))
    end
  in
  let add_special doc target event =
    let key = dispatch_key doc target event in
    if not (Hashtbl.mem b.dispatched key) then begin
      Hashtbl.replace b.dispatched key ();
      ignore
        (mk b ~preds:[] ~doc
           ~effs:[ read_handler target event ]
           ~label:
             (Printf.sprintf "dispatch %s on %s" event
                (Effects.target_to_string target))
           (U_dispatch { target; event }))
    end
  in
  let registrations =
    List.concat_map
      (fun u ->
        List.filter_map
          (fun (eff : Effects.eff) ->
            match (eff.loc, eff.kind) with
            | Effects.S_handler { target; event }, Effects.Write ->
                Some (u, target, event)
            | _ -> None)
          u.effs)
      (List.rev b.vunits)
  in
  List.iter
    (fun ((u : unit_), target, event) ->
      match target with
      | Effects.T_elem { doc; id = Effects.Lit id } -> (
          match Hashtbl.find_opt b.ids (doc, id) with
          | Some node ->
              if explorable event then
                add_for_elem doc event (Hashtbl.find b.by_node (doc, node))
          | None -> b.missing <- (doc, id, event, u.label) :: b.missing)
      | Effects.T_elem { doc; id = pat } ->
          if explorable event then
            Hashtbl.iter
              (fun (d, id) node ->
                if d = doc && Effects.sstr_matches pat (Effects.Lit id) then
                  add_for_elem doc event (Hashtbl.find b.by_node (d, node)))
              b.ids
      | Effects.T_node { doc; node } ->
          if explorable event then (
            match Hashtbl.find_opt b.by_node (doc, node) with
            | Some e -> add_for_elem doc event e
            | None -> ())
      | Effects.T_root doc | Effects.T_window doc ->
          (* DCL/load containers on root and window are read by the
             structural DCL/load units; other explorable events on the
             document get a free-floating dispatch anchor. *)
          if explorable event then add_special doc target event
      | Effects.T_unknown ->
          if explorable event then add_special u.doc Effects.T_unknown event)
    registrations

(* --- MHP closure ------------------------------------------------------ *)

(* Units are created in topological order (every pred has a smaller uid),
   so ancestor bitsets close in one forward pass. *)
let close_ancestors units =
  let n = Array.length units in
  let anc = Array.init n (fun _ -> Bitset.create n) in
  Array.iter
    (fun u ->
      List.iter
        (fun p ->
          Bitset.add anc.(u.uid) p;
          Bitset.union_into ~into:anc.(u.uid) anc.(p))
        u.preds)
    units;
  anc

(* --- entry point ------------------------------------------------------ *)

let build ?(tm = Telemetry.disabled) ~page ~resources () =
  let b =
    {
      resources;
      next_doc = 1;
      vunits = [];
      nunits = 0;
      ids = Hashtbl.create 64;
      id_counts = Hashtbl.create 64;
      by_node = Hashtbl.create 64;
      parse_uid = Hashtbl.create 64;
      tags = Hashtbl.create 64;
      cls = Hashtbl.create 16;
      docs_done = [];
      missing = [];
      dispatched = Hashtbl.create 16;
    }
  in
  Telemetry.with_span tm ~cat:"static" ~name:"static.effects" (fun () ->
      ignore (finish_doc b ~doc:0 ~preds:[] (Html.parse page));
      analyze_code b;
      make_dispatch_units b);
  let units = Array.of_list (List.rev b.vunits) in
  let anc =
    Telemetry.with_span tm ~cat:"static" ~name:"static.mhp" (fun () ->
        close_ancestors units)
  in
  let duplicate_ids =
    Hashtbl.fold
      (fun (doc, id) count l -> if count > 1 then (doc, id, count) :: l else l)
      b.id_counts []
    |> List.sort compare
  in
  Telemetry.set_counter tm "static.units" (Array.length units);
  Telemetry.set_counter tm "static.effects"
    (Array.fold_left (fun n u -> n + List.length u.effs) 0 units);
  {
    units;
    docs = b.next_doc;
    duplicate_ids;
    missing_handler_ids = List.sort_uniq compare b.missing;
    anc;
  }

let happens_before t a b = a <> b && Bitset.mem t.anc.(b) a

let mhp t a b =
  a <> b
  && (not (Bitset.mem t.anc.(b) a))
  && not (Bitset.mem t.anc.(a) b)

let mhp_pairs t =
  let n = Array.length t.units in
  let count = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if mhp t i j then incr count
    done
  done;
  !count
