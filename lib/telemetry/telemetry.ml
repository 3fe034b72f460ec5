(* Domain-safe telemetry: every domain that records into a context gets
   its own sink (span buffer, counters, histograms, accounts, marks), so
   the hot path never contends with other domains. Sinks register with
   the shared context under [reg_lock]; readers merge all sinks. Each
   sink carries its own small mutex so the serve accept loop can read
   counters while worker domains are still recording — the lock is
   domain-private in the common case and therefore uncontended. *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_depth : int;
  sp_dom : int;  (* domain id, the Chrome-trace tid *)
  sp_start : float;  (* wall seconds since context creation *)
  sp_vstart : float;  (* virtual ms at span start *)
  mutable sp_dur : float;
  mutable sp_vdur : float;
  mutable sp_child : float;  (* wall time inside child spans/accounts *)
  mutable sp_vchild : float;
}

type series = { mutable buf : float array; mutable len : int }

type sink = {
  sk_dom : int;
  sk_lock : Mutex.t;
  mutable vclock : unit -> float;
  mutable spans : span array;  (* completed spans, completion order *)
  mutable n_spans : int;
  mutable stack : span list;  (* open spans, innermost first *)
  counters : (string, int ref) Hashtbl.t;
  histos : (string, series) Hashtbl.t;
  accounts : (string * string, float ref) Hashtbl.t;
  mutable marks : (string * string * float * float * int) list;
      (* cat, name, wall s, virtual ms, domain *)
}

type t = {
  enabled : bool;
  clock : unit -> float;
  t0 : float;
  reg_lock : Mutex.t;
  mutable sinks : sink list;  (* registration order *)
}

let no_span =
  {
    sp_name = ""; sp_cat = ""; sp_depth = 0; sp_dom = 0; sp_start = 0.;
    sp_vstart = 0.; sp_dur = 0.; sp_vdur = 0.; sp_child = 0.; sp_vchild = 0.;
  }

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

let new_sink () =
  {
    sk_dom = (Domain.self () :> int);
    sk_lock = Mutex.create ();
    vclock = (fun () -> 0.);
    spans = Array.make 64 no_span;
    n_spans = 0;
    stack = [];
    counters = Hashtbl.create 16;
    histos = Hashtbl.create 16;
    accounts = Hashtbl.create 16;
    marks = [];
  }

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
      let dom = (Domain.self () :> int) in
      Mutex.lock t.reg_lock;
      let s =
        match List.find_opt (fun s -> s.sk_dom = dom) t.sinks with
        | Some s -> s
        | None ->
            let s = new_sink () in
            t.sinks <- t.sinks @ [ s ];
            s
      in
      Mutex.unlock t.reg_lock;
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
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let push_span s sp =
  if s.n_spans = Array.length s.spans then begin
    let spans = Array.make (2 * s.n_spans) no_span in
    Array.blit s.spans 0 spans 0 s.n_spans;
    s.spans <- spans
  end;
  s.spans.(s.n_spans) <- sp;
  s.n_spans <- s.n_spans + 1

let finish_span t s sp =
  let now = t.clock () in
  let vnow = s.vclock () in
  locked s (fun () ->
      sp.sp_dur <- now -. t.t0 -. sp.sp_start;
      sp.sp_vdur <- vnow -. sp.sp_vstart;
      (match s.stack with
      | top :: rest when top == sp ->
          s.stack <- rest;
          (match rest with
          | parent :: _ ->
              parent.sp_child <- parent.sp_child +. sp.sp_dur;
              parent.sp_vchild <- parent.sp_vchild +. sp.sp_vdur
          | [] -> ())
      | _ ->
          (* Unbalanced close (an exception skipped an inner span): drop the
             stale frames above [sp] without attributing child time. *)
          s.stack <- List.filter (fun x -> not (x == sp)) s.stack);
      push_span s sp)

let with_span t ~cat ~name f =
  if not t.enabled then f ()
  else begin
    let s = sink t in
    let sp =
      locked s (fun () ->
          let sp =
            {
              sp_name = name;
              sp_cat = cat;
              sp_depth = List.length s.stack;
              sp_dom = s.sk_dom;
              sp_start = t.clock () -. t.t0;
              sp_vstart = s.vclock ();
              sp_dur = 0.;
              sp_vdur = 0.;
              sp_child = 0.;
              sp_vchild = 0.;
            }
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
   The span lands in the *calling* domain's sink (single consumer, no
   cross-domain contention) but is tagged with the originating domain's
   id, so the Chrome trace shows it on that domain's tid, interleaved
   with the spans the domain recorded itself. Depth 1 keeps injected
   time out of [total_wall]'s depth-0 denominator — GC time happens
   inside analysis spans, so counting it at depth 0 would double it. *)
let inject_span t ~dom ~cat ~name ~start_s ~dur_s =
  if t.enabled then begin
    let s = sink t in
    let sp =
      {
        sp_name = name;
        sp_cat = cat;
        sp_depth = 1;
        sp_dom = dom;
        sp_start = start_s -. t.t0;
        sp_vstart = 0.;
        sp_dur = dur_s;
        sp_vdur = 0.;
        sp_child = 0.;
        sp_vchild = 0.;
      }
    in
    locked s (fun () -> push_span s sp)
  end

let mark t ~cat name =
  if t.enabled then begin
    let s = sink t in
    let now = t.clock () -. t.t0 in
    locked s (fun () -> s.marks <- (cat, name, now, s.vclock (), s.sk_dom) :: s.marks)
  end

(* ------------------------------------------------------------------ *)
(* Counters, histograms, accounted time                                *)
(* ------------------------------------------------------------------ *)

let counter_ref s name =
  match Hashtbl.find_opt s.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add s.counters name r;
      r

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
    locked s (fun () ->
        let series =
          match Hashtbl.find_opt s.histos name with
          | Some x -> x
          | None ->
              let x = { buf = Array.make 64 0.; len = 0 } in
              Hashtbl.add s.histos name x;
              x
        in
        if series.len = Array.length series.buf then begin
          let buf = Array.make (2 * series.len) 0. in
          Array.blit series.buf 0 buf 0 series.len;
          series.buf <- buf
        end;
        series.buf.(series.len) <- v;
        series.len <- series.len + 1)
  end

let account t ~cat ~name f =
  if not t.enabled then f ()
  else begin
    let s = sink t in
    let started = t.clock () in
    let finish () =
      let dt = t.clock () -. started in
      locked s (fun () ->
          (match Hashtbl.find_opt s.accounts (cat, name) with
          | Some r -> r := !r +. dt
          | None -> Hashtbl.add s.accounts (cat, name) (ref dt));
          match s.stack with
          | top :: _ -> top.sp_child <- top.sp_child +. dt
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

type histogram_summary = {
  count : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

let summarize_samples xs n =
  Array.sort Float.compare xs;
  let l = Array.to_list xs in
  {
    count = n;
    mean = Wr_support.Stats.fmean l;
    p50 = Wr_support.Stats.fpercentile l 50.;
    p95 = Wr_support.Stats.fpercentile l 95.;
    p99 = Wr_support.Stats.fpercentile l 99.;
    max = (if n = 0 then 0. else xs.(n - 1));
  }

(* Merge the per-domain sample buffers for [name] into one summary. *)
let merged_series t name =
  let parts =
    List.filter_map
      (fun s ->
        locked s (fun () ->
            Option.map
              (fun x -> Array.sub x.buf 0 x.len)
              (Hashtbl.find_opt s.histos name)))
      (all_sinks t)
  in
  match parts with [] -> None | parts -> Some (Array.concat parts)

let histogram t name =
  Option.map (fun xs -> summarize_samples xs (Array.length xs)) (merged_series t name)

let histo_names t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      locked s (fun () ->
          Hashtbl.iter (fun name _ -> Hashtbl.replace tbl name ()) s.histos))
    (all_sinks t);
  Hashtbl.fold (fun name () acc -> name :: acc) tbl [] |> List.sort String.compare

let histograms t =
  List.filter_map (fun name -> Option.map (fun h -> (name, h)) (histogram t name))
    (histo_names t)

let n_spans t =
  List.fold_left (fun acc s -> acc + locked s (fun () -> s.n_spans)) 0 (all_sinks t)

(* The pipeline's category order; unknown categories sort after, by name. *)
let canonical_cats =
  [ "parse"; "js"; "dispatch"; "scheduler"; "net"; "detect"; "serve"; "page" ]

let phase_totals t =
  let totals : (string, float ref * float ref) Hashtbl.t = Hashtbl.create 8 in
  let cell cat =
    match Hashtbl.find_opt totals cat with
    | Some c -> c
    | None ->
        let c = (ref 0., ref 0.) in
        Hashtbl.add totals cat c;
        c
  in
  List.iter
    (fun s ->
      locked s (fun () ->
          for i = 0 to s.n_spans - 1 do
            let sp = s.spans.(i) in
            let w, v = cell sp.sp_cat in
            w := !w +. Float.max 0. (sp.sp_dur -. sp.sp_child);
            v := !v +. Float.max 0. (sp.sp_vdur -. sp.sp_vchild)
          done;
          Hashtbl.iter
            (fun (cat, _) r ->
              let w, _ = cell cat in
              w := !w +. !r)
            s.accounts))
    (all_sinks t);
  let rank cat =
    let rec idx i = function
      | [] -> List.length canonical_cats
      | c :: rest -> if c = cat then i else idx (i + 1) rest
    in
    idx 0 canonical_cats
  in
  Hashtbl.fold (fun cat (w, v) acc -> (cat, !w, !v) :: acc) totals []
  |> List.sort (fun (a, _, _) (b, _, _) ->
         match compare (rank a) (rank b) with 0 -> String.compare a b | c -> c)

(* Depth-0 span time summed across domains: with [jobs] domains busy this
   counts work time (like CPU seconds), not elapsed wall time. *)
let total_wall t =
  List.fold_left
    (fun acc s ->
      locked s (fun () ->
          let total = ref 0. in
          for i = 0 to s.n_spans - 1 do
            let sp = s.spans.(i) in
            if sp.sp_depth = 0 then total := !total +. sp.sp_dur
          done;
          acc +. !total))
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

let to_chrome_trace t =
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
  (* Injected spans can carry domain ids with no sink of their own
     (a GC slice on a domain that never recorded telemetry); give every
     tid that appears anywhere its named thread row. *)
  let tids = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace tids s.sk_dom ()) sinks;
  List.iter
    (fun s ->
      locked s (fun () ->
          for i = 0 to s.n_spans - 1 do
            Hashtbl.replace tids s.spans.(i).sp_dom ()
          done))
    sinks;
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
  let span_events =
    List.concat_map
      (fun s ->
        locked s (fun () ->
            let events = ref [] in
            for i = s.n_spans - 1 downto 0 do
              let sp = s.spans.(i) in
              events :=
                Obj
                  [
                    ("name", String sp.sp_name);
                    ("cat", String sp.sp_cat);
                    ("ph", String "X");
                    ("ts", us sp.sp_start);
                    ("dur", us sp.sp_dur);
                    ("pid", Int 1);
                    ("tid", Int sp.sp_dom);
                    ( "args",
                      Obj
                        [
                          ("virtual_ts_ms", Float sp.sp_vstart);
                          ("virtual_dur_ms", Float sp.sp_vdur);
                        ] );
                  ]
                :: !events
            done;
            !events))
      sinks
  in
  let mark_events =
    List.concat_map
      (fun s ->
        locked s (fun () ->
            List.rev_map
              (fun (cat, name, wall, virt, dom) ->
                Obj
                  [
                    ("name", String name);
                    ("cat", String cat);
                    ("ph", String "i");
                    ("ts", us wall);
                    ("pid", Int 1);
                    ("tid", Int dom);
                    ("s", String "t");
                    ("args", Obj [ ("virtual_ts_ms", Float virt) ]);
                  ])
              s.marks))
      sinks
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
        List
          ((process_meta :: thread_meta) @ span_events @ mark_events
          @ counter_events) );
      ("displayTimeUnit", String "ms");
    ]

let metrics_json t =
  let open Wr_support.Json in
  let phases =
    List.map
      (fun (cat, w, v) ->
        (cat, Obj [ ("wall_s", Float w); ("virtual_ms", Float v) ]))
      (phase_totals t)
  in
  let histo_fields =
    List.map
      (fun (name, h) ->
        ( name,
          Obj
            [
              ("count", Int h.count);
              ("mean", Float h.mean);
              ("p50", Float h.p50);
              ("p95", Float h.p95);
              ("p99", Float h.p99);
              ("max", Float h.max);
            ] ))
      (histograms t)
  in
  Obj
    [
      ("total_wall_s", Float (total_wall t));
      ("spans", Int (n_spans t));
      ("domains", Int (domains t));
      ("phases", Obj phases);
      ("counters", Obj (List.map (fun (k, v) -> (k, Int v)) (counters t)));
      ("histograms", Obj histo_fields);
    ]
