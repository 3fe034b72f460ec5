(* Domain-safe, bounded telemetry: every domain that records into a
   context gets its own sink (a ring of recent spans and marks, running
   phase totals, counters, histograms), so the hot path never contends
   with other domains and a long-lived recorder ([serve]) holds at most
   [ring_capacity] entries per domain. Sinks register with the shared
   context under [reg_lock]; readers merge all sinks. Each sink carries
   its own small mutex because readers run live: the serve loop reads
   counters, and a postmortem reads the rings' tails, while worker
   domains are still recording. The lock is domain-private in the
   common case and therefore uncontended. *)

module Histo = Wr_support.Stats.Histo

(* All floats, so stored flat: a ring entry carries no boxed floats and
   closing a span allocates nothing. *)
type times = {
  start : float;  (* wall seconds since context creation *)
  vstart : float;  (* virtual ms at span start *)
  mutable dur : float;
  mutable vdur : float;
  mutable child : float;  (* wall time inside child spans/accounts *)
  mutable vchild : float;
}

type span = {
  sp_name : string;
  sp_cat : string;
  sp_depth : int;  (* [mark_depth] for an instant mark *)
  sp_dom : int;  (* domain id, the Chrome-trace tid *)
  sp_t : times;
  sp_fields : (string * Wr_support.Json.t) list;  (* a mark's arguments *)
}

(* Marks share the ring with spans; this depth tells them apart. *)
let mark_depth = -1

type phase = { mutable self_wall : float; mutable self_virt : float }

type sink = {
  sk_dom : int;
  sk_lock : Mutex.t;
  mutable vclock : unit -> float;
  mutable ring : span array;
      (* completed spans and marks in completion order; doubles up to
         [ring_capacity], then overwrites the oldest entry *)
  mutable head : int;  (* next slot to write *)
  mutable stored : int;  (* live entries in [ring] *)
  mutable n_spans : int;  (* every completed or injected span, kept or not *)
  mutable dropped : int;  (* spans overwritten by newer entries *)
  mutable stack : span list;  (* open spans, innermost first *)
  phases : (string, phase) Hashtbl.t;  (* running self time per category *)
  mutable depth0_wall : float;  (* summed duration of depth-0 spans *)
  counters : (string, int ref) Hashtbl.t;
  histos : (string, Histo.t) Hashtbl.t;
}

type t = {
  enabled : bool;
  clock : unit -> float;
  t0 : float;
  reg_lock : Mutex.t;
  mutable sinks : sink list;  (* registration order *)
}

let ring_capacity = 65_536

let new_span ?(fields = []) ~name ~cat ~depth ~dom ~start ~vstart ~dur () =
  {
    sp_name = name;
    sp_cat = cat;
    sp_depth = depth;
    sp_dom = dom;
    sp_t = { start; vstart; dur; vdur = 0.; child = 0.; vchild = 0. };
    sp_fields = fields;
  }

let no_span = new_span ~name:"" ~cat:"" ~depth:0 ~dom:0 ~start:0. ~vstart:0. ~dur:0. ()

let make ~enabled ~clock =
  {
    enabled;
    clock;
    t0 = (if enabled then clock () else 0.);
    reg_lock = Mutex.create ();
    sinks = [];
  }

let disabled = make ~enabled:false ~clock:(fun () -> 0.)

let create ?(clock = Wr_support.Clock.now) () = make ~enabled:true ~clock

let enabled t = t.enabled

let new_sink dom =
  {
    sk_dom = dom;
    sk_lock = Mutex.create ();
    vclock = (fun () -> 0.);
    ring = Array.make 64 no_span;
    head = 0;
    stored = 0;
    n_spans = 0;
    dropped = 0;
    stack = [];
    phases = Hashtbl.create 8;
    depth0_wall = 0.;
    counters = Hashtbl.create 16;
    histos = Hashtbl.create 4;
  }

(* Domain [dom]'s sink, registered on first use under [reg_lock]. *)
let sink_of t dom =
  Mutex.lock t.reg_lock;
  let s =
    match List.find_opt (fun s -> s.sk_dom = dom) t.sinks with
    | Some s -> s
    | None ->
        let s = new_sink dom in
        t.sinks <- t.sinks @ [ s ];
        s
  in
  Mutex.unlock t.reg_lock;
  s

(* One process-global DLS slot caching the last (context, sink) pair used
   on this domain: the common case — one enabled context per domain — is
   a single physical-equality check, no lock. The slow path registers a
   fresh sink (or refinds this domain's existing one) under [reg_lock]. *)
let dls_cache : (t * sink) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let sink t =
  let cell = Domain.DLS.get dls_cache in
  match !cell with
  | Some (t', s) when t' == t -> s
  | _ ->
      let s = sink_of t (Domain.self () :> int) in
      cell := Some (t, s);
      s

(* Merge-time snapshot of the registered sinks, oldest first. *)
let all_sinks t =
  Mutex.lock t.reg_lock;
  let sinks = t.sinks in
  Mutex.unlock t.reg_lock;
  sinks

let domains t = List.length (all_sinks t)

let locked s f =
  Mutex.lock s.sk_lock;
  match f () with
  | v ->
      Mutex.unlock s.sk_lock;
      v
  | exception e ->
      Mutex.unlock s.sk_lock;
      raise e

let set_virtual_clock t f =
  if t.enabled then begin
    let s = sink t in
    locked s (fun () -> s.vclock <- f)
  end

(* ------------------------------------------------------------------ *)
(* The ring and the running totals                                     *)
(* ------------------------------------------------------------------ *)

(* Caller holds [s.sk_lock]. Below the cap the ring has never wrapped,
   so growing keeps the entries in place and writing resumes after them. *)
let push s sp =
  let cap = Array.length s.ring in
  if s.stored = cap && cap < ring_capacity then begin
    let ring = Array.make (2 * cap) no_span in
    Array.blit s.ring 0 ring 0 cap;
    s.ring <- ring;
    s.head <- cap
  end;
  if s.stored = Array.length s.ring then begin
    if s.ring.(s.head).sp_depth <> mark_depth then s.dropped <- s.dropped + 1
  end
  else s.stored <- s.stored + 1;
  s.ring.(s.head) <- sp;
  s.head <- (s.head + 1) mod Array.length s.ring

(* The newest [tail] entries, oldest first. GC slices do not count
   against [tail]: the walk back goes on until [tail] other entries are
   found, keeping at most [tail] GC slices beside them, so a domain whose
   own collections crowd its ring still shows what it did. Caller holds
   [s.sk_lock]. *)
let ring_entries ~tail s =
  let cap = Array.length s.ring in
  let acc = ref [] and others = ref 0 and gcs = ref 0 and k = ref 0 in
  while !others < tail && !k < s.stored do
    let sp = s.ring.((s.head - 1 - !k + cap) mod cap) in
    if String.equal sp.sp_cat "gc" then begin
      if !gcs < tail then begin
        incr gcs;
        acc := sp :: !acc
      end
    end
    else begin
      incr others;
      acc := sp :: !acc
    end;
    incr k
  done;
  !acc

let find_or_add tbl key make =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.add tbl key v;
      v

let add_phase phases cat wall virt =
  let p = find_or_add phases cat (fun () -> { self_wall = 0.; self_virt = 0. }) in
  p.self_wall <- p.self_wall +. wall;
  p.self_virt <- p.self_virt +. virt

(* Caller holds [s.sk_lock]. *)
let record_span s sp =
  let tm = sp.sp_t in
  add_phase s.phases sp.sp_cat
    (Float.max 0. (tm.dur -. tm.child))
    (Float.max 0. (tm.vdur -. tm.vchild));
  if sp.sp_depth = 0 then s.depth0_wall <- s.depth0_wall +. tm.dur;
  s.n_spans <- s.n_spans + 1;
  push s sp

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let finish_span t s sp =
  let now = t.clock () in
  let vnow = s.vclock () in
  locked s (fun () ->
      let tm = sp.sp_t in
      tm.dur <- now -. t.t0 -. tm.start;
      tm.vdur <- vnow -. tm.vstart;
      (match s.stack with
      | top :: rest when top == sp ->
          s.stack <- rest;
          (match rest with
          | parent :: _ ->
              parent.sp_t.child <- parent.sp_t.child +. tm.dur;
              parent.sp_t.vchild <- parent.sp_t.vchild +. tm.vdur
          | [] -> ())
      | _ ->
          (* Unbalanced close (an exception skipped an inner span): drop the
             stale frames above [sp] without attributing child time. *)
          s.stack <- List.filter (fun x -> not (x == sp)) s.stack);
      record_span s sp)

let with_span t ~cat ~name f =
  if not t.enabled then f ()
  else begin
    let s = sink t in
    let sp =
      locked s (fun () ->
          let sp =
            new_span ~name ~cat ~depth:(List.length s.stack) ~dom:s.sk_dom
              ~start:(t.clock () -. t.t0) ~vstart:(s.vclock ()) ~dur:0. ()
          in
          s.stack <- sp :: s.stack;
          sp)
    in
    match f () with
    | v ->
        finish_span t s sp;
        v
    | exception e ->
        finish_span t s sp;
        raise e
  end

(* A completed span observed from outside the recording domain — the GC
   runtime probe converts [Runtime_events] phase events (which carry
   their own timestamps and happened on some other domain) into spans.
   The span lands in domain [dom]'s own sink (registered here if that
   domain has not recorded yet), so a domain's ring tail holds its own
   GC slices and one busy collector cannot push the draining domain's
   entries out; the sink's lock makes the cross-domain write safe. Depth
   1 keeps injected time out of [total_wall]'s depth-0 denominator — GC
   time happens inside analysis spans, so counting it at depth 0 would
   double it. *)
let inject_span t ~dom ~cat ~name ~start_s ~dur_s =
  if t.enabled then begin
    let s = sink_of t dom in
    let sp =
      new_span ~name ~cat ~depth:1 ~dom ~start:(start_s -. t.t0) ~vstart:0. ~dur:dur_s ()
    in
    locked s (fun () -> record_span s sp)
  end

let mark t ~cat ?fields name =
  if t.enabled then begin
    let s = sink t in
    let now = t.clock () -. t.t0 in
    locked s (fun () ->
        push s
          (new_span ?fields ~name ~cat ~depth:mark_depth ~dom:s.sk_dom ~start:now
             ~vstart:(s.vclock ()) ~dur:0. ()))
  end

(* ------------------------------------------------------------------ *)
(* Counters, histograms, accounted time                                *)
(* ------------------------------------------------------------------ *)

let counter_ref s name = find_or_add s.counters name (fun () -> ref 0)

let incr t ?(by = 1) name =
  if t.enabled then begin
    let s = sink t in
    locked s (fun () ->
        let r = counter_ref s name in
        r := !r + by)
  end

(* A gauge overwrite is domain-local; the merged reading sums the last
   value written by each domain, so gauges written from a single domain
   (the serve accept loop) read back exactly. *)
let set_counter t name v =
  if t.enabled then begin
    let s = sink t in
    locked s (fun () -> counter_ref s name := v)
  end

let fold_counters t f acc =
  List.fold_left
    (fun acc s ->
      locked s (fun () ->
          Hashtbl.fold (fun name r acc -> f acc name !r) s.counters acc))
    acc (all_sinks t)

let counter_value t name =
  fold_counters t (fun acc n v -> if n = name then acc + v else acc) 0

let counters t =
  let tbl = Hashtbl.create 16 in
  fold_counters t
    (fun () name v ->
      match Hashtbl.find_opt tbl name with
      | Some r -> r := !r + v
      | None -> Hashtbl.add tbl name (ref v))
    ();
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let observe t name v =
  if t.enabled then begin
    let s = sink t in
    locked s (fun () -> Histo.add (find_or_add s.histos name Histo.create) v)
  end

let account t ~cat f =
  if not t.enabled then f ()
  else begin
    let s = sink t in
    let started = t.clock () in
    let finish () =
      let dt = t.clock () -. started in
      locked s (fun () ->
          add_phase s.phases cat dt 0.;
          match s.stack with
          | top :: _ -> top.sp_t.child <- top.sp_t.child +. dt
          | [] -> ())
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* ------------------------------------------------------------------ *)
(* Summaries                                                           *)
(* ------------------------------------------------------------------ *)

let histograms t =
  let merged = Hashtbl.create 8 in
  List.iter
    (fun s ->
      locked s (fun () ->
          Hashtbl.iter
            (fun name h -> Histo.merge_into ~into:(find_or_add merged name Histo.create) h)
            s.histos))
    (all_sinks t);
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) merged []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let histogram t name =
  let into = Histo.create () in
  let found s =
    match Hashtbl.find_opt s.histos name with
    | Some h -> Histo.merge_into ~into h; true
    | None -> false
  in
  if List.exists Fun.id (List.map (fun s -> locked s (fun () -> found s)) (all_sinks t))
  then Some into
  else None

let sum_sinks t f =
  List.fold_left (fun acc s -> acc + locked s (fun () -> f s)) 0 (all_sinks t)

let n_spans t = sum_sinks t (fun s -> s.n_spans)

(* The pipeline's category order; unknown categories sort after, by name. *)
let canonical_cats =
  [ "parse"; "js"; "dispatch"; "scheduler"; "net"; "detect"; "serve"; "page" ]

let phase_totals t =
  let totals : (string, phase) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun s ->
      locked s (fun () ->
          Hashtbl.iter
            (fun cat p -> add_phase totals cat p.self_wall p.self_virt)
            s.phases))
    (all_sinks t);
  let rank cat =
    let rec idx i = function
      | [] -> List.length canonical_cats
      | c :: rest -> if c = cat then i else idx (i + 1) rest
    in
    idx 0 canonical_cats
  in
  Hashtbl.fold (fun cat p acc -> (cat, p.self_wall, p.self_virt) :: acc) totals []
  |> List.sort (fun (a, _, _) (b, _, _) ->
         match compare (rank a) (rank b) with 0 -> String.compare a b | c -> c)

(* Depth-0 span time summed across domains: with [jobs] domains busy this
   counts work time (like CPU seconds), not elapsed wall time. *)
let total_wall t =
  List.fold_left
    (fun acc s -> acc +. locked s (fun () -> s.depth0_wall))
    0. (all_sinks t)

let phase_label = function
  | "parse" -> "parse"
  | "js" -> "js-exec"
  | "dispatch" -> "event-dispatch"
  | "scheduler" -> "scheduler"
  | "net" -> "network"
  | "detect" -> "detector"
  | "serve" -> "serve"
  | "page" -> "other"
  | cat -> cat

let phase_table t =
  let total = total_wall t in
  let pct w = if total > 0. then 100. *. w /. total else 0. in
  let row (cat, w, v) =
    [
      phase_label cat;
      Printf.sprintf "%.2f" (w *. 1e3);
      Printf.sprintf "%.1f%%" (pct w);
      Printf.sprintf "%.1f" v;
    ]
  in
  let rows = List.map row (phase_totals t) in
  let total_row =
    [ "total"; Printf.sprintf "%.2f" (total *. 1e3); "100.0%"; "" ]
  in
  Wr_support.Table.render
    ~header:[ "phase"; "wall(ms)"; "share"; "virtual(ms)" ]
    (rows @ [ total_row ])

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

(* The one ring reader: the newest [tail] entries of every sink, sink
   by sink. *)
let retained ?(tail = ring_capacity) t =
  List.concat_map (fun s -> locked s (fun () -> ring_entries ~tail s)) (all_sinks t)

let to_chrome_trace ?tail t =
  let open Wr_support.Json in
  let us s = Float (s *. 1e6) in
  let sinks = all_sinks t in
  let main_tid = match sinks with s :: _ -> s.sk_dom | [] -> 0 in
  let process_meta =
    Obj
      [
        ("name", String "process_name");
        ("ph", String "M");
        ("pid", Int 1);
        ("tid", Int main_tid);
        ("args", Obj [ ("name", String "webracer") ]);
      ]
  in
  let entries = retained ?tail t in
  (* Injected spans can carry domain ids with no sink of their own
     (a GC slice on a domain that never recorded telemetry); give every
     tid that appears anywhere its named thread row. *)
  let tids = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace tids s.sk_dom ()) sinks;
  List.iter (fun sp -> Hashtbl.replace tids sp.sp_dom ()) entries;
  let event sp =
    if sp.sp_depth = mark_depth then
      Obj
        [
          ("name", String sp.sp_name);
          ("cat", String sp.sp_cat);
          ("ph", String "i");
          ("ts", us sp.sp_t.start);
          ("pid", Int 1);
          ("tid", Int sp.sp_dom);
          ("s", String "t");
          ("args", Obj (("virtual_ts_ms", Float sp.sp_t.vstart) :: sp.sp_fields));
        ]
    else
      Obj
        [
          ("name", String sp.sp_name);
          ("cat", String sp.sp_cat);
          ("ph", String "X");
          ("ts", us sp.sp_t.start);
          ("dur", us sp.sp_t.dur);
          ("pid", Int 1);
          ("tid", Int sp.sp_dom);
          ( "args",
            Obj
              [
                ("virtual_ts_ms", Float sp.sp_t.vstart);
                ("virtual_dur_ms", Float sp.sp_t.vdur);
              ] );
        ]
  in
  let thread_meta =
    Hashtbl.fold (fun tid () acc -> tid :: acc) tids []
    |> List.sort compare
    |> List.map (fun tid ->
           Obj
             [
               ("name", String "thread_name");
               ("ph", String "M");
               ("pid", Int 1);
               ("tid", Int tid);
               ( "args",
                 Obj
                   [
                     ( "name",
                       String
                         (if tid = main_tid then "domain-0 (main)"
                          else Printf.sprintf "domain-%d" tid) );
                   ] );
             ])
  in
  let end_ts = if t.enabled then t.clock () -. t.t0 else 0. in
  let counter_events =
    List.map
      (fun (name, v) ->
        Obj
          [
            ("name", String name);
            ("ph", String "C");
            ("ts", us end_ts);
            ("pid", Int 1);
            ("tid", Int main_tid);
            ("args", Obj [ ("value", Int v) ]);
          ])
      (counters t)
  in
  Obj
    [
      ( "traceEvents",
        List ((process_meta :: thread_meta) @ List.map event entries @ counter_events) );
      ("displayTimeUnit", String "ms");
    ]

let tail_json t ~tail =
  let open Wr_support.Json in
  let event sp =
    let head kind = [ ("ts", Float sp.sp_t.start); ("dom", Int sp.sp_dom); ("kind", String kind) ] in
    if sp.sp_depth = mark_depth then Obj (head sp.sp_name @ sp.sp_fields)
    else
      Obj
        (head "span"
        @ [ ("cat", String sp.sp_cat); ("name", String sp.sp_name); ("dur_s", Float sp.sp_t.dur) ])
  in
  retained ~tail t
  |> List.stable_sort (fun a b -> compare (a.sp_t.start, a.sp_dom) (b.sp_t.start, b.sp_dom))
  |> List.map event

let metrics_json t =
  let open Wr_support.Json in
  let phases =
    List.map
      (fun (cat, w, v) ->
        (cat, Obj [ ("wall_s", Float w); ("virtual_ms", Float v) ]))
      (phase_totals t)
  in
  Obj
    [
      ("total_wall_s", Float (total_wall t));
      ("spans", Int (n_spans t));
      ("spans_dropped", Int (sum_sinks t (fun s -> s.dropped)));
      ("domains", Int (domains t));
      ("phases", Obj phases);
      ("counters", Obj (List.map (fun (k, v) -> (k, Int v)) (counters t)));
      ( "histograms",
        Obj (List.map (fun (name, h) -> (name, Histo.summary_json h)) (histograms t)) );
    ]
