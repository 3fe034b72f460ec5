(* Self-monitoring GC observer built on OCaml's [Runtime_events].

   The runtime emits begin/end phase events (minor collection, major
   slice, stop-the-world sections) into a per-domain ring buffer; this
   module attaches an in-process cursor and folds those events into the
   application's own observability surface:

   - per-domain pause histograms ([Wr_support.Stats.Histo], ms) and
     GC-time totals, read back as {!stats} — the numbers behind
     [corpus --profile]'s GC table;
   - telemetry spans ([Telemetry.inject_span], category "gc") so Chrome
     traces show GC slices interleaved with the analysis spans on each
     domain's tid.

   Nested phases are flattened to their root: a minor collection emits
   many sub-phase events ([minor_local_roots], [minor_clear], ...), but
   one root begin/end pair bounds the whole pause, which is the slice a
   trace reader wants and the pause a histogram should count once.

   Two bookkeeping problems are solved with custom user events (which
   travel through the same ring, stamped by the same clock):

   - {e clock calibration}: event timestamps are the runtime's own
     monotonic nanoseconds, telemetry runs on [Wr_support.Clock] seconds
     (its default clock). At [start] we write a sync event bracketed by
     [Clock.now]; observing it fixes the offset.
   - {e ring -> domain identity}: callbacks report a ring index, and
     rings are recycled as domains come and go, so ring index is not a
     domain id. Every domain joining a [Wr_support.Pool] fleet (and the
     domain calling [start]) writes an announce event carrying its
     [Domain.self] id, which binds its ring to the id the rest of the
     telemetry uses as tid.

   A background systhread drains the cursor every [interval_s] so ring
   buffers do not overflow mid-run (overflow is counted, not fatal);
   [stop] joins it and takes a final drain, making the numbers exact. *)

module RE = Runtime_events
module Histo = Wr_support.Stats.Histo
module Json = Wr_support.Json
module Log = Wr_support.Log

type RE.User.tag += Probe_sync | Probe_announce

(* User events register once per process (re-registering a name raises). *)
let sync_ev = lazy (RE.User.register "webracer.probe_sync" Probe_sync RE.Type.int)

let announce_ev =
  lazy (RE.User.register "webracer.domain_announce" Probe_announce RE.Type.int)

type ring_state = {
  ring : int;
  mutable dom : int;  (* announced domain id; defaults to the ring index *)
  mutable depth : int;  (* current phase-nesting depth *)
  mutable root_ts : float;  (* monotonic s of the open root phase *)
  mutable seen : int;  (* most specific kind inside the open root window *)
  pauses : Histo.t;  (* every root GC pause, ms *)
  mutable minor_pauses : int;
  mutable major_slices : int;
  mutable stw_pauses : int;
  mutable gc_s : float;  (* total time inside root GC phases *)
}

type t = {
  mutable running : bool;
  tm : Telemetry.t;
  interval : float;
  lock : Mutex.t;  (* guards rings/offset/lost: poller vs. readers *)
  rings : (int, ring_state) Hashtbl.t;
  mutable offset_s : float;  (* clock = mono + offset; nan until synced *)
  mutable sync_clock : float;  (* [Clock.now] instant of the sync write *)
  mutable lost : int;
  started_at : float;
  mutable stopped_at : float option;
  mutable cursor : RE.cursor option;
  mutable callbacks : RE.Callbacks.t option;
  mutable poller : Thread.t option;
}

type domain_gc = {
  dom : int;
  ring : int;
  minor_pauses : int;
  major_slices : int;
  stw_pauses : int;
  pauses : Histo.t;
  gc_s : float;
}

let mono_s ts = Int64.to_float (RE.Timestamp.to_int64 ts) *. 1e-9

(* Spans shorter than this are histogrammed but not injected into the
   Chrome trace: a busy run takes tens of thousands of sub-50µs minor
   pauses, and a trace that size helps nobody. *)
let span_min_s = 20e-6

(* Minor collections run inside stop-the-world sections, so the root of
   a minor pause is an [EV_STW_*] phase with [EV_MINOR] nested below it.
   A root window is therefore classified by the most specific phase seen
   anywhere inside it: minor beats major beats bare STW. Encoded as an
   int rank so "most specific so far" is [max]. *)
let rank_of = function
  | RE.EV_MINOR | RE.EV_MINOR_LOCAL_ROOTS | RE.EV_MINOR_FINALIZED
  | RE.EV_EXPLICIT_GC_MINOR ->
      2
  | RE.EV_STW_API_BARRIER | RE.EV_STW_HANDLER | RE.EV_STW_LEADER
  | RE.EV_MAJOR_GC_STW ->
      0
  | _ -> 1

let kind_of_rank = function 2 -> `Minor | 1 -> `Major | _ -> `Stw

let span_name = function
  | `Minor -> "gc.minor"
  | `Stw -> "gc.stw"
  | `Major -> "gc.major"

let ring_state t ring =
  match Hashtbl.find_opt t.rings ring with
  | Some st -> st
  | None ->
      let st =
        {
          ring;
          dom = ring;
          depth = 0;
          root_ts = 0.;
          seen = 0;
          pauses = Histo.create ();
          minor_pauses = 0;
          major_slices = 0;
          stw_pauses = 0;
          gc_s = 0.;
        }
      in
      Hashtbl.add t.rings ring st;
      st

(* Callbacks run inside [read_poll], always under [t.lock]. *)
let make_callbacks t =
  let runtime_begin ring ts phase =
    let st = ring_state t ring in
    if st.depth = 0 then begin
      st.root_ts <- mono_s ts;
      st.seen <- rank_of phase
    end
    else st.seen <- max st.seen (rank_of phase);
    st.depth <- st.depth + 1
  in
  let runtime_end ring ts _phase =
    let st = ring_state t ring in
    if st.depth > 0 then begin
      st.depth <- st.depth - 1;
      if st.depth = 0 then begin
        let dur_s = Float.max 0. (mono_s ts -. st.root_ts) in
        let kind = kind_of_rank st.seen in
        Histo.add st.pauses (dur_s *. 1e3);
        st.gc_s <- st.gc_s +. dur_s;
        (match kind with
        | `Minor -> st.minor_pauses <- st.minor_pauses + 1
        | `Major -> st.major_slices <- st.major_slices + 1
        | `Stw -> st.stw_pauses <- st.stw_pauses + 1);
        if Telemetry.enabled t.tm then begin
          Telemetry.observe t.tm
            (match kind with
            | `Minor -> "gc.minor_pause_ms"
            | `Major -> "gc.major_pause_ms"
            | `Stw -> "gc.stw_pause_ms")
            (dur_s *. 1e3);
          if dur_s >= span_min_s && not (Float.is_nan t.offset_s) then
            Telemetry.inject_span t.tm ~dom:st.dom ~cat:"gc"
              ~name:(span_name kind)
              ~start_s:(st.root_ts +. t.offset_s)
              ~dur_s
        end
      end
    end
  in
  let lost_events _ring n =
    t.lost <- t.lost + n;
    Telemetry.incr t.tm ~by:n "gc.lost_events"
  in
  RE.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()
  |> RE.Callbacks.add_user_event RE.Type.int (fun ring ts ev v ->
         match RE.User.tag ev with
         | Probe_announce -> (ring_state t ring).dom <- v
         | Probe_sync ->
             if Float.is_nan t.offset_s then
               t.offset_s <- t.sync_clock -. mono_s ts
         | _ -> ())

(* --- lifecycle --------------------------------------------------------- *)

let registry_lock = Mutex.create ()

let current_probe : t option ref = ref None

let announce () =
  match !current_probe with
  | Some p when p.running -> (
      try RE.User.write (Lazy.force announce_ev) (Domain.self () :> int)
      with _ -> ())
  | _ -> ()

let inert tm =
  {
    running = false;
    tm;
    interval = 0.;
    lock = Mutex.create ();
    rings = Hashtbl.create 1;
    offset_s = Float.nan;
    sync_clock = 0.;
    lost = 0;
    started_at = Wr_support.Clock.now ();
    stopped_at = Some (Wr_support.Clock.now ());
    cursor = None;
    callbacks = None;
    poller = None;
  }

let poll t =
  if t.running then begin
    Mutex.lock t.lock;
    (match (t.cursor, t.callbacks) with
    | Some cursor, Some cbs -> ( try ignore (RE.read_poll cursor cbs None) with _ -> ())
    | _ -> ());
    Mutex.unlock t.lock
  end

let rec poller_loop t =
  if t.running then begin
    poll t;
    Thread.delay t.interval;
    poller_loop t
  end

let start ?(telemetry = Telemetry.disabled) ?(interval_s = 0.02)
    ?(inject_failure = false) () =
  Mutex.lock registry_lock;
  let result =
    match !current_probe with
    | Some p when p.running -> p
    | _ -> (
        try
          if inject_failure then failwith "injected ring-creation failure";
          RE.start ();
          (* A previous probe's [stop] leaves collection paused. *)
          (try RE.resume () with _ -> ());
          let cursor = RE.create_cursor None in
          let t =
            {
              running = true;
              tm = telemetry;
              interval = Float.max 0.001 interval_s;
              lock = Mutex.create ();
              rings = Hashtbl.create 8;
              offset_s = Float.nan;
              sync_clock = 0.;
              lost = 0;
              started_at = Wr_support.Clock.now ();
              stopped_at = None;
              cursor = Some cursor;
              callbacks = None;
              poller = None;
            }
          in
          t.callbacks <- Some (make_callbacks t);
          (* Calibrate: the sync event's ring timestamp equals (up to the
             write latency) this [Clock.now] instant. *)
          let w0 = Wr_support.Clock.now () in
          RE.User.write (Lazy.force sync_ev) 0;
          let w1 = Wr_support.Clock.now () in
          t.sync_clock <- (w0 +. w1) /. 2.;
          current_probe := Some t;
          Wr_support.Pool.set_worker_hook announce;
          announce ();
          t.poller <- Some (Thread.create poller_loop t);
          t
        with e ->
          Log.warn "gc_probe.start_failed"
            [ ("error", Json.String (Printexc.to_string e)) ];
          let t = inert telemetry in
          current_probe := Some t;
          t)
  in
  Mutex.unlock registry_lock;
  result

let active t = t.running

let stop t =
  Mutex.lock registry_lock;
  if t.running then begin
    t.running <- false;
    (match t.poller with Some th -> Thread.join th | None -> ());
    t.poller <- None;
    (* Final drain so post-[stop] stats are exact. *)
    Mutex.lock t.lock;
    (match (t.cursor, t.callbacks) with
    | Some cursor, Some cbs ->
        (try ignore (RE.read_poll cursor cbs None) with _ -> ());
        (try RE.free_cursor cursor with _ -> ())
    | _ -> ());
    t.cursor <- None;
    Mutex.unlock t.lock;
    (try RE.pause () with _ -> ());
    t.stopped_at <- Some (Wr_support.Clock.now ());
    Wr_support.Pool.set_worker_hook (fun () -> ());
    (match !current_probe with Some p when p == t -> current_probe := None | _ -> ())
  end;
  Mutex.unlock registry_lock

let current () =
  match !current_probe with Some p when p.running -> Some p | _ -> None

(* --- readings ---------------------------------------------------------- *)

let elapsed_s t =
  (match t.stopped_at with Some s -> s | None -> Wr_support.Clock.now ())
  -. t.started_at

let stats t =
  Mutex.lock t.lock;
  let rows =
    Hashtbl.fold
      (fun _ (st : ring_state) acc ->
        if Histo.count st.pauses = 0 then acc
        else
          {
            dom = st.dom;
            ring = st.ring;
            minor_pauses = st.minor_pauses;
            major_slices = st.major_slices;
            stw_pauses = st.stw_pauses;
            (* merge-with-empty = snapshot copy, safe to read unlocked *)
            pauses = Histo.merge st.pauses (Histo.create ());
            gc_s = st.gc_s;
          }
          :: acc)
      t.rings []
  in
  Mutex.unlock t.lock;
  List.sort (fun a b -> compare (a.dom, a.ring) (b.dom, b.ring)) rows

let row_json ?elapsed r =
  Json.Obj
    ([
       ("dom", Json.Int r.dom);
       ("ring", Json.Int r.ring);
       ("minor_pauses", Json.Int r.minor_pauses);
       ("major_slices", Json.Int r.major_slices);
       ("stw_pauses", Json.Int r.stw_pauses);
       ("pause_ms", Histo.summary_json r.pauses);
       ("gc_s", Json.Float r.gc_s);
     ]
    @
    match elapsed with
    | Some e when e > 0. -> [ ("gc_share", Json.Float (r.gc_s /. e)) ]
    | _ -> [])

let stats_json t =
  let elapsed = elapsed_s t in
  Json.Obj
    [
      ("source", Json.String "runtime_events");
      ("elapsed_s", Json.Float elapsed);
      ("lost_events", Json.Int t.lost);
      ("domains", Json.List (List.map (row_json ~elapsed) (stats t)));
    ]

let render_stats t =
  let elapsed = elapsed_s t in
  let header =
    [ "domain"; "minor"; "major-slices"; "stw"; "pause-p50(ms)"; "p99(ms)";
      "max(ms)"; "gc(ms)"; "gc-share" ]
  in
  let row r =
    [
      Printf.sprintf "dom-%d" r.dom;
      string_of_int r.minor_pauses;
      string_of_int r.major_slices;
      string_of_int r.stw_pauses;
      Printf.sprintf "%.3f" (Histo.percentile r.pauses 50.);
      Printf.sprintf "%.3f" (Histo.percentile r.pauses 99.);
      Printf.sprintf "%.3f" (Histo.maximum r.pauses);
      Printf.sprintf "%.1f" (r.gc_s *. 1e3);
      (if elapsed > 0. then Printf.sprintf "%.1f%%" (100. *. r.gc_s /. elapsed)
       else "-");
    ]
  in
  match stats t with
  | [] -> "no GC events observed\n"
  | rows ->
      Wr_support.Table.render ~header (List.map row rows)
      ^ Printf.sprintf "GC pauses over %.2f s; %d ring events lost\n" elapsed
          t.lost
