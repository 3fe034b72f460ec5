module Json = Wr_support.Json
module Schema = Wr_support.Schema
module Pool = Wr_support.Pool
module Histo = Wr_support.Stats.Histo
module Telemetry = Wr_telemetry.Telemetry
module Runtime_probe = Wr_telemetry.Runtime_probe
module Log = Wr_support.Log
module Clock = Wr_support.Clock

type address = Unix_socket of string | Tcp of int

type config = {
  address : address;
  jobs : int;
  queue_cap : int;
  cache_cap : int;
  wall_limit : float;
  max_time_limit : float;
  postmortem_dir : string option;  (** where postmortems are dumped *)
}

let default_config address =
  {
    address;
    jobs = 4;
    queue_cap = 128;
    cache_cap = 64;
    wall_limit = 60.;
    max_time_limit = 600_000.;
    postmortem_dir = None;
  }

(* A request line larger than this is rejected outright: it is almost
   certainly a protocol error, and buffering it unbounded would let one
   client exhaust the daemon. *)
let max_request_bytes = 16 * 1024 * 1024

(* Which protocol a connection speaks, decided by sniffing its first
   bytes: an HTTP method keyword selects the HTTP surface, anything
   else is the newline-delimited JSON line protocol. One port, two
   surfaces. *)
type proto = P_unknown | P_line | P_http

type conn = {
  cid : int;
  fd : Unix.file_descr;
  mutable inbuf : Bytes.t;  (** bytes [0, in_len) are received, not yet handled *)
  mutable in_len : int;
  mutable in_scanned : int;
      (** line protocol: no newline before this offset, so each read
          scans only the bytes it added *)
  out : string Queue.t;  (** chunks not yet written, oldest first *)
  mutable out_ofs : int;  (** bytes of the head chunk already written *)
  mutable alive : bool;  (** peer still readable; dead conns drop replies *)
  mutable proto : proto;
  mutable http_busy : bool;
      (** an HTTP request is in flight; responses are serialized per
          connection, so parsing pauses until it is answered *)
}

type job = {
  jid : int;
  job_cid : int;
  verb : string;
  trace : string;  (** supplied or minted; on logs, spans, histograms *)
  wire_trace : string option;  (** echoed on the response iff supplied *)
  schema : int;  (** negotiated generation; stamps the response *)
  t_admit : float;  (** admission time; queue-wait/total latency basis *)
  cache_key : string option;
  deadline : float option;
  mutable answered : bool;  (** timeout already replied; drop the result *)
}

(* What a worker hands back to the loop. An ok result arrives already
   encoded ([Json.Raw]); [encode_s] is what that encoding cost. *)
type completion = {
  c_jid : int;
  resp : Response.t;
  t_start : float;  (** the worker picked the job up *)
  t_end : float;  (** the work finished, before encoding *)
  encode_s : float;
}

(* One streaming [watch] subscription: the daemon answers with a
   metrics snapshot on the subscriber's connection every [w_interval]
   seconds, [w_left] more times ([None] = until the connection dies). *)
type watcher = {
  w_cid : int;
  w_id : Json.t;
  w_trace : string option;
  w_schema : int;
  w_interval : float;
  mutable w_left : int option;
  mutable w_next : float;
  mutable w_seq : int;
}

(* The daemon's state. The event loop is its only reader and writer;
   the sole cross-domain traffic is workers pushing completions under
   [completions_lock] and waking the loop through the self-pipe. Every
   number the daemon serves is counted in [tm] (see the registry below);
   [in_flight] is admission state, not a metric. *)
type state = {
  cfg : config;
  cache : Cache.t;
  pool : Pool.t;
  tm : Telemetry.t;
  started : float;
  listen : Unix.file_descr;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  conns : (int, conn) Hashtbl.t;
  jobs_live : (int, job) Hashtbl.t;
  completions : completion Queue.t;
  completions_lock : Mutex.t;
  mutable next_cid : int;
  mutable next_jid : int;
  mutable next_trace : int;
  mutable in_flight : int;  (** admitted jobs not yet completed *)
  mutable pm_seq : int;
  mutable watchers : watcher list;
}

let mint_trace st =
  let n = st.next_trace in
  st.next_trace <- n + 1;
  Printf.sprintf "t-%d" n

let resp_outcome = function
  | Response.Ok _ -> "ok"
  | Response.Error { code; _ } -> Response.code_name code

(* --- the registry -------------------------------------------------------- *)

(* Every served number is a counter or histogram in [st.tm] with a name
   from the closed sets below, never from client bytes. Only the loop
   records them, and every document reads them through [count] and
   [latency]. *)

let request_kinds =
  [ "ping"; "stats"; "metrics"; "watch"; "analyze"; "explain"; "predict";
    "triage"; "replay"; "invalid" ]

let outcomes = "ok" :: List.map Response.code_name Response.codes
let stages = [ "decode"; "queue"; "run"; "encode"; "total" ]
let requests_c kind = "serve.requests." ^ kind
let responses_c outcome = "serve.responses." ^ outcome
let latency_h stage = "serve.latency." ^ stage
let count st name = Telemetry.counter_value st.tm name

let latency st stage =
  Option.value (Telemetry.histogram st.tm (latency_h stage)) ~default:(Histo.create ())

let requests_total st =
  List.fold_left (fun acc k -> acc + count st (requests_c k)) 0 request_kinds

let shed st = count st (responses_c "overload")

let cache_hit_ratio st =
  let hits = count st "serve.cache_hit" and misses = count st "serve.cache_miss" in
  if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses)

let queue_json st =
  Json.Obj
    [
      ("depth", Json.Int st.in_flight);
      ("high_water", Json.Int (count st "serve.queue_high_water"));
      ("cap", Json.Int st.cfg.queue_cap);
    ]

let cache_json st =
  Json.Obj
    [
      ("hit_ratio", Json.Float (cache_hit_ratio st));
      ("hits", Json.Int (count st "serve.cache_hit"));
      ("misses", Json.Int (count st "serve.cache_miss"));
      ("entries", Json.Int (Cache.length st.cache));
    ]

let latency_json st =
  Json.Obj (List.map (fun stage -> (stage, Histo.summary_json (latency st stage))) stages)

let stats_json st =
  let counts name kinds = List.map (fun k -> (k, Json.Int (count st (name k)))) kinds in
  Json.Obj
    [
      Schema.tag;
      ("uptime_s", Json.Float (Clock.now () -. st.started));
      ("jobs", Json.Int st.cfg.jobs);
      ( "queue",
        Json.Obj
          [
            ("cap", Json.Int st.cfg.queue_cap);
            ("in_flight", Json.Int st.in_flight);
            ("high_water", Json.Int (count st "serve.queue_high_water"));
          ] );
      ( "requests",
        Json.Obj (("total", Json.Int (requests_total st)) :: counts requests_c request_kinds) );
      ("responses", Json.Obj (counts responses_c outcomes));
      ( "cache",
        Json.Obj
          [
            ("cap", Json.Int (Cache.cap st.cache));
            ("entries", Json.Int (Cache.length st.cache));
            ("hits", Json.Int (count st "serve.cache_hit"));
            ("misses", Json.Int (count st "serve.cache_miss"));
            ("hit_ratio", Json.Float (cache_hit_ratio st));
          ] );
      ("analyses_run", Json.Int (count st "serve.analyses_run"));
      ("timeouts", Json.Int (count st "serve.timeouts"));
    ]

(* --- metrics exposition ------------------------------------------------ *)

(* Prometheus text exposition: one flat document scrapeable by anything
   that speaks the format; quantiles are the HDR-histogram readings at
   export time. *)
let prometheus_text st =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let typ name kind = line "# TYPE %s %s" name kind in
  typ "webracer_uptime_seconds" "gauge";
  line "webracer_uptime_seconds %.3f" (Clock.now () -. st.started);
  (* The labelled series that have been bumped, sorted by label. *)
  let series metric label name kinds =
    typ metric "counter";
    List.iter
      (fun k ->
        let n = count st (name k) in
        if n > 0 then line "%s{%s=%S} %d" metric label k n)
      (List.sort compare kinds)
  in
  series "webracer_requests_total" "verb" requests_c request_kinds;
  series "webracer_responses_total" "outcome" responses_c outcomes;
  typ "webracer_queue_depth" "gauge";
  line "webracer_queue_depth %d" st.in_flight;
  typ "webracer_queue_depth_high_water" "gauge";
  line "webracer_queue_depth_high_water %d" (count st "serve.queue_high_water");
  typ "webracer_queue_cap" "gauge";
  line "webracer_queue_cap %d" st.cfg.queue_cap;
  typ "webracer_cache_hit_ratio" "gauge";
  line "webracer_cache_hit_ratio %.4f" (cache_hit_ratio st);
  typ "webracer_cache_entries" "gauge";
  line "webracer_cache_entries %d" (Cache.length st.cache);
  typ "webracer_analyses_total" "counter";
  line "webracer_analyses_total %d" (count st "serve.analyses_run");
  typ "webracer_timeouts_total" "counter";
  line "webracer_timeouts_total %d" (count st "serve.timeouts");
  typ "webracer_shed_total" "counter";
  line "webracer_shed_total %d" (shed st);
  typ "webracer_request_latency_seconds" "summary";
  List.iter
    (fun stage ->
      let h = latency st stage in
      List.iter
        (fun (q, p) ->
          line "webracer_request_latency_seconds{stage=%S,quantile=%S} %.6f"
            stage q (Histo.percentile h p))
        [ ("0.5", 50.); ("0.95", 95.); ("0.99", 99.); ("0.999", 99.9) ];
      line "webracer_request_latency_seconds_count{stage=%S} %d" stage
        (Histo.count h);
      line "webracer_request_latency_seconds_sum{stage=%S} %.6f" stage
        (Histo.sum h))
    stages;
  Buffer.contents b

(* One [watch] tick: everything [webracer top] renders, in one object.
   [fleet] is a benign point-in-time read of the pool slots; [gc] comes
   from the process's running GC probe, [Json.Null] when none is on. *)
let watch_snapshot st seq =
  let now = Clock.now () in
  Json.Obj
    [
      Schema.tag;
      ("seq", Json.Int seq);
      ("ts", Json.Float now);
      ("uptime_s", Json.Float (now -. st.started));
      ("requests_total", Json.Int (requests_total st));
      ("queue", queue_json st);
      ("cache", cache_json st);
      ("latency", latency_json st);
      ("timeouts", Json.Int (count st "serve.timeouts"));
      ("shed", Json.Int (shed st));
      ("analyses_run", Json.Int (count st "serve.analyses_run"));
      ("fleet", Pool.stats_json (Pool.stats st.pool));
      ( "gc",
        match Runtime_probe.current () with
        | Some p -> Runtime_probe.stats_json p
        | None -> Json.Null );
    ]

let metrics_json st =
  Json.Obj
    [
      Schema.tag;
      ("uptime_s", Json.Float (Clock.now () -. st.started));
      ("latency", latency_json st);
      ("queue", queue_json st);
      ("cache", cache_json st);
      ("timeouts", Json.Int (count st "serve.timeouts"));
      ("shed", Json.Int (shed st));
      ("analyses_run", Json.Int (count st "serve.analyses_run"));
      ("prometheus", Json.String (prometheus_text st));
    ]

(* --- postmortems ------------------------------------------------------- *)

(* The newest ring entries per domain a postmortem dumps. *)
let postmortem_tail = 256

(* Dump the tail of the telemetry rings: a JSONL file (header object —
   reason, uptime, the in-flight requests with their trace ids — then
   one line per entry) plus a Chrome trace of the same tail. Best effort
   by design: a postmortem failing must not take the daemon with it. *)
let write_postmortem st ~reason =
  match st.cfg.postmortem_dir with
  | None -> ()
  | Some dir -> (
      let seq = st.pm_seq in
      st.pm_seq <- seq + 1;
      let base =
        Filename.concat dir (Printf.sprintf "postmortem-%d-%s" seq reason)
      in
      try
        Wr_support.Fs.mkdir_p dir;
        let now = Clock.now () in
        let events = Telemetry.tail_json st.tm ~tail:postmortem_tail in
        let in_flight =
          Hashtbl.fold
            (fun _ job acc ->
              Json.Obj
                [
                  ("jid", Json.Int job.jid);
                  ("verb", Json.String job.verb);
                  ("trace_id", Json.String job.trace);
                  ("age_s", Json.Float (now -. job.t_admit));
                ]
              :: acc)
            st.jobs_live []
        in
        let header =
          Json.Obj
            [
              Schema.tag;
              ("postmortem", Json.String reason);
              ("ts", Json.Float now);
              ("uptime_s", Json.Float (now -. st.started));
              ("events", Json.Int (List.length events));
              ("in_flight", Json.List in_flight);
            ]
        in
        (* Each file appears whole (written aside, then renamed), the
           .jsonl last: once it is there, so is the trace. *)
        let write path lines =
          Out_channel.with_open_bin (path ^ ".tmp") (fun oc ->
              List.iter (fun j -> output_string oc (Json.to_string j ^ "\n")) lines);
          Sys.rename (path ^ ".tmp") path
        in
        write (base ^ ".trace.json")
          [ Telemetry.to_chrome_trace ~tail:postmortem_tail st.tm ];
        write (base ^ ".jsonl") (header :: events);
        Log.warn "serve.postmortem"
          [
            ("reason", Json.String reason);
            ("file", Json.String (base ^ ".jsonl"));
            ("events", Json.Int (List.length events));
          ]
      with e ->
        Log.error "serve.postmortem_failed"
          [
            ("reason", Json.String reason);
            ("error", Json.String (Printexc.to_string e));
          ])

(* --- replies ----------------------------------------------------------- *)

(* The single respond choke point for both surfaces. [http_status]
   overrides the response-derived status for HTTP routing errors
   (404/405) that have no slot in the closed taxonomy. An ok result from
   a worker or the cache is already encoded, so the loop only builds the
   envelope around it; [encode_s] is the worker's share of the encode
   stage. The envelope and its framing are queued as separate chunks:
   nothing is copied to be sent. *)
let respond ?http_status ?(encode_s = 0.) st conn (resp : Response.t) =
  Telemetry.incr st.tm (responses_c (resp_outcome resp));
  if conn.alive then begin
    let t0 = Clock.now () in
    let body = Response.to_line resp in
    (match conn.proto with
    | P_http ->
        let status = Option.value ~default:(Response.status resp) http_status in
        Queue.push (Http.head ~status ~content_length:(String.length body)) conn.out;
        Queue.push body conn.out;
        conn.http_busy <- false
    | P_line | P_unknown ->
        Queue.push body conn.out;
        Queue.push "\n" conn.out);
    Telemetry.observe st.tm (latency_h "encode") (encode_s +. Clock.now () -. t0)
  end

let respond_cid ?encode_s st cid resp =
  match Hashtbl.find_opt st.conns cid with
  | Some conn -> respond ?encode_s st conn resp
  | None ->
      (* The client vanished before its answer; still tally the outcome. *)
      Telemetry.incr st.tm (responses_c (resp_outcome resp))

(* --- job submission ---------------------------------------------------- *)

(* A request milestone: an instant on the recording domain's ring, so a
   postmortem shows what each domain last did for which request. *)
let milestone tm name ~trace fields =
  Telemetry.mark tm ~cat:"serve" ~fields:(("trace_id", Json.String trace) :: fields) name

(* Wake the loop; EAGAIN just means it is already awake, and EBADF/EPIPE
   that the daemon is already past draining. *)
let wake st =
  try ignore (Unix.write st.pipe_w (Bytes.make 1 '!') 0 1)
  with
  | Unix.Unix_error
      ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE | Unix.EBADF), _, _)
  -> ()

let submit_job st conn ~verb ~trace ~wire_trace ~schema ~cache_key
    (work : unit -> Response.t) =
  let jid = st.next_jid in
  st.next_jid <- jid + 1;
  let t_admit = Clock.now () in
  let deadline =
    if st.cfg.wall_limit > 0. then Some (t_admit +. st.cfg.wall_limit) else None
  in
  Hashtbl.replace st.jobs_live jid
    {
      jid;
      job_cid = conn.cid;
      verb;
      trace;
      wire_trace;
      schema;
      t_admit;
      cache_key;
      deadline;
      answered = false;
    };
  st.in_flight <- st.in_flight + 1;
  if st.in_flight > count st "serve.queue_high_water" then
    Telemetry.set_counter st.tm "serve.queue_high_water" st.in_flight;
  let tm = st.tm in
  (* Test hook: [WEBRACER_FAULT_INJECT=<verb>] makes matching requests
     blow up inside the worker — the way to rehearse a worker crash
     (and its postmortem) on demand, since a domain cannot be killed
     from outside. *)
  let work =
    match Sys.getenv_opt "WEBRACER_FAULT_INJECT" with
    | Some v when v = verb ->
        fun () -> failwith "injected worker fault (WEBRACER_FAULT_INJECT)"
    | _ -> work
  in
  Pool.submit st.pool (fun () ->
      let t_start = Clock.now () in
      milestone tm "request.start" ~trace
        [ ("jid", Json.Int jid); ("verb", Json.String verb) ];
      let resp =
        (* The trace id rides on every log line and telemetry span the
           request produces, on whichever domain picked it up. [work]
           normally converts its own failures into [Internal] responses
           ([Api.dispatch]); the guard here keeps even a crash in that
           plumbing — or an injected fault — from killing the domain. *)
        try
          Log.with_trace ~trace_id:trace ~span_id:(string_of_int jid) (fun () ->
              Telemetry.with_span tm ~cat:"serve"
                ~name:(Printf.sprintf "%s [%s]" verb trace)
                work)
        with e ->
          Response.error ~id:Json.Null ?trace:wire_trace Response.Internal
            (Printexc.to_string e)
      in
      milestone tm "request.end" ~trace
        [ ("jid", Json.Int jid); ("outcome", Json.String (resp_outcome resp)) ];
      let t_end = Clock.now () in
      (* Serialise the result here, off the loop, exactly once: the loop
         splices these bytes into the envelope and the cache keeps them
         as they are. *)
      let resp =
        match resp with
        | Response.Ok r ->
            Response.Ok { r with result = Json.Raw (Json.to_string r.result) }
        | Response.Error _ -> resp
      in
      let encode_s = Clock.now () -. t_end in
      Mutex.lock st.completions_lock;
      Queue.push { c_jid = jid; resp; t_start; t_end; encode_s } st.completions;
      Mutex.unlock st.completions_lock;
      wake st)

let drain_completions st =
  let batch =
    Mutex.lock st.completions_lock;
    let xs = List.of_seq (Queue.to_seq st.completions) in
    Queue.clear st.completions;
    Mutex.unlock st.completions_lock;
    xs
  in
  List.iter
    (fun { c_jid = jid; resp; t_start; t_end; encode_s } ->
      match Hashtbl.find_opt st.jobs_live jid with
      | None -> ()
      | Some job ->
          (match resp with
          | Response.Error { code = Response.Internal; _ } ->
              (* A worker "crashed" (its failure became an Internal
                 response via the crash isolation): dump what the fleet
                 was doing, while this job still counts as in flight. *)
              milestone st.tm "request.crash" ~trace:job.trace
                [ ("jid", Json.Int jid); ("verb", Json.String job.verb) ];
              write_postmortem st ~reason:"worker-crash"
          | _ -> ());
          Hashtbl.remove st.jobs_live jid;
          st.in_flight <- st.in_flight - 1;
          let queue_wait = t_start -. job.t_admit in
          let run_time = t_end -. t_start in
          let total = Clock.now () -. job.t_admit in
          Telemetry.observe st.tm (latency_h "queue") queue_wait;
          Telemetry.observe st.tm (latency_h "run") run_time;
          Telemetry.observe st.tm (latency_h "total") total;
          if Log.enabled Log.Debug then
            Log.with_trace ~trace_id:job.trace ~span_id:(string_of_int jid)
              (fun () ->
                Log.debug "serve.response"
                  [
                    ("verb", Json.String job.verb);
                    ("queue_s", Json.Float queue_wait);
                    ("run_s", Json.Float run_time);
                    ("total_s", Json.Float total);
                  ]);
          (match (job.cache_key, resp) with
          | Some key, Response.Ok { result = Json.Raw bytes; _ } ->
              Telemetry.incr st.tm "serve.analyses_run";
              Cache.store st.cache key bytes
          | _ -> ());
          let resp = Response.stamp ~schema:job.schema resp in
          if not job.answered then respond_cid ~encode_s st job.job_cid resp)
    batch

let sweep_deadlines st now =
  Hashtbl.iter
    (fun _ job ->
      match job.deadline with
      | Some d when (not job.answered) && d <= now ->
          job.answered <- true;
          Telemetry.incr st.tm "serve.timeouts";
          milestone st.tm "request.deadline" ~trace:job.trace
            [ ("jid", Json.Int job.jid); ("verb", Json.String job.verb) ];
          write_postmortem st ~reason:"deadline";
          respond_cid st job.job_cid
            (Response.stamp ~schema:job.schema
               (Response.error ?trace:job.wire_trace ~id:Json.Null
                  Response.Timeout
                  (Printf.sprintf "request exceeded the %.0f s wall-clock limit"
                     st.cfg.wall_limit)))
      | _ -> ())
    st.jobs_live

(* Emit due watch snapshots; drop subscriptions whose connection died or
   whose count ran out. *)
let tick_watchers st now =
  st.watchers <-
    List.filter
      (fun w ->
        match Hashtbl.find_opt st.conns w.w_cid with
        | None -> false
        | Some conn when not conn.alive -> false
        | Some conn ->
            if w.w_next <= now then begin
              respond st conn
                (Response.stamp ~schema:w.w_schema
                   (Response.ok ?trace:w.w_trace ~id:w.w_id
                      (watch_snapshot st w.w_seq)));
              w.w_seq <- w.w_seq + 1;
              w.w_next <- now +. w.w_interval;
              match w.w_left with
              | Some n -> w.w_left <- Some (n - 1)
              | None -> ()
            end;
            (match w.w_left with Some n when n <= 0 -> false | _ -> true))
      st.watchers

(* --- request handling -------------------------------------------------- *)

let clamp_target st (p : Request.analyze_params) =
  { p with Request.time_limit = Float.min p.Request.time_limit st.cfg.max_time_limit }

let handle_request st conn (req : Request.t) =
  let id = req.Request.id in
  Telemetry.incr st.tm (requests_c (Request.verb_name req.Request.verb));
  (* [wire_trace] is echoed on the wire iff the client supplied one;
     [trace] (supplied or minted) tags logs, spans and debug output
     either way, so every request is traceable server-side. *)
  let wire_trace = req.Request.trace in
  let schema = req.Request.schema in
  let trace =
    match wire_trace with Some t -> t | None -> mint_trace st
  in
  (* Every inline answer leaves through [reply], which stamps the
     negotiated generation on the way out; worker completions get the
     same stamp in [drain_completions]. *)
  let reply resp = respond st conn (Response.stamp ~schema resp) in
  let admit ~verb ~cache_key work =
    milestone st.tm "request.admit" ~trace
      [ ("verb", Json.String verb); ("conn", Json.Int conn.cid) ];
    if st.in_flight >= st.cfg.queue_cap then
      reply
        (Response.error ?trace:wire_trace ~id Response.Overload
           (Printf.sprintf "queue full (%d requests in flight); retry later"
              st.cfg.queue_cap))
    else submit_job st conn ~verb ~trace ~wire_trace ~schema ~cache_key work
  in
  match req.Request.verb with
  | Request.Ping -> reply (Response.ok ?trace:wire_trace ~id Api.ping_result)
  | Request.Stats -> reply (Response.ok ?trace:wire_trace ~id (stats_json st))
  | Request.Metrics ->
      reply (Response.ok ?trace:wire_trace ~id (metrics_json st))
  | Request.Watch { interval_s; count } ->
      (* Subscribe; the first snapshot goes out on the next loop pass
         (immediately), then every [interval_s]. No response here. *)
      st.watchers <-
        {
          w_cid = conn.cid;
          w_id = id;
          w_trace = wire_trace;
          w_schema = schema;
          w_interval = Float.max 0.05 interval_s;
          w_left = count;
          w_next = Clock.now ();
          w_seq = 0;
        }
        :: st.watchers
  | Request.Analyze p -> (
      let p = clamp_target st p in
      let key = Cache.key p in
      match Cache.find st.cache key with
      | Some bytes ->
          Telemetry.incr st.tm "serve.cache_hit";
          reply (Response.ok ?trace:wire_trace ~id (Json.Raw bytes))
      | None ->
          Telemetry.incr st.tm "serve.cache_miss";
          admit ~verb:"analyze" ~cache_key:(Some key) (fun () ->
              Api.dispatch { req with Request.verb = Request.Analyze p }))
  | Request.Explain e ->
      let e = { e with Request.target = clamp_target st e.Request.target } in
      admit ~verb:"explain" ~cache_key:None (fun () ->
          Api.dispatch { req with Request.verb = Request.Explain e })
  | Request.Replay r ->
      (* A replay fans out inside one worker; clamp its parallelism so a
         single request cannot oversubscribe the fleet. *)
      let r =
        {
          r with
          Request.target = clamp_target st r.Request.target;
          jobs = max 1 (min r.Request.jobs st.cfg.jobs);
        }
      in
      admit ~verb:"replay" ~cache_key:None (fun () ->
          Api.dispatch { req with Request.verb = Request.Replay r })
  | Request.Predict p ->
      let p = { p with Request.target = clamp_target st p.Request.target } in
      admit ~verb:"predict" ~cache_key:None (fun () ->
          Api.dispatch { req with Request.verb = Request.Predict p })
  | Request.Triage t ->
      (* Same fan-in story as replay: the directed schedules run inside
         one worker, so clamp the requested parallelism to the fleet. *)
      let t =
        {
          t with
          Request.target = clamp_target st t.Request.target;
          jobs = max 1 (min t.Request.jobs st.cfg.jobs);
        }
      in
      admit ~verb:"triage" ~cache_key:None (fun () ->
          Api.dispatch { req with Request.verb = Request.Triage t })

let handle_line st conn line =
  if String.trim line <> "" then begin
    if Log.enabled Log.Debug then
      Log.debug "serve.request"
        [ ("conn", Json.Int conn.cid); ("bytes", Json.Int (String.length line)) ];
    let t0 = Clock.now () in
    let decoded = Request.of_line line in
    Telemetry.observe st.tm (latency_h "decode") (Clock.now () -. t0);
    match decoded with
    | Ok req -> handle_request st conn req
    | Error (id, msg) ->
        Telemetry.incr st.tm (requests_c "invalid");
        respond st conn (Response.error ~id Response.Bad_request msg)
  end

(* A v2 bad_request for the HTTP surface, which is v2-native. *)
let http_bad_request ?http_status st conn ~id msg =
  Telemetry.incr st.tm (requests_c "invalid");
  respond ?http_status st conn
    (Response.stamp ~schema:Schema.v2 (Response.error ~id Response.Bad_request msg))

let handle_http st conn (r : Http.req) =
  let t0 = Clock.now () in
  match Http.route r with
  | Error (status, msg) ->
      Telemetry.observe st.tm (latency_h "decode") (Clock.now () -. t0);
      http_bad_request ~http_status:status st conn ~id:Json.Null msg
  | Ok wire -> (
      let decoded = Request.of_json wire in
      Telemetry.observe st.tm (latency_h "decode") (Clock.now () -. t0);
      match decoded with
      | Error (id, msg) -> http_bad_request st conn ~id msg
      | Ok req ->
          (* The HTTP surface is v2-native: responses carry the v2
             envelope and HTTP-parity error objects even for untagged
             bodies. *)
          let req =
            { req with Request.schema = max req.Request.schema Schema.v2 }
          in
          handle_request st conn req)

(* The connection's input buffer: [read_conn] reads straight into its
   tail, and handled requests are dropped from its head. *)
let read_size = 65536

let reserve conn =
  let cap = Bytes.length conn.inbuf in
  if cap - conn.in_len < read_size then begin
    let grown = Bytes.create (max (2 * cap) (conn.in_len + read_size)) in
    Bytes.blit conn.inbuf 0 grown 0 conn.in_len;
    conn.inbuf <- grown
  end

(* Drop the first [n] bytes, which have been handled. *)
let consume conn n =
  if n > 0 then begin
    Bytes.blit conn.inbuf n conn.inbuf 0 (conn.in_len - n);
    conn.in_len <- conn.in_len - n;
    conn.in_scanned <- max 0 (conn.in_scanned - n)
  end

(* Split complete requests out of the connection's input buffer. The
   first bytes decide the protocol; HTTP connections parse at most one
   request ahead of the unanswered one (responses are serialized), and
   the loop re-enters here when an async answer unblocks them. Only
   complete requests are copied out, and the newline scan resumes where
   the last read left it, so a request arriving in many reads costs
   time linear in its size. *)
let rec process_input st conn =
  match conn.proto with
  | P_unknown -> (
      match Http.sniff (Bytes.sub_string conn.inbuf 0 conn.in_len) with
      | `Undecided -> ()  (* a prefix of an HTTP method; need more bytes *)
      | `Http ->
          conn.proto <- P_http;
          process_input st conn
      | `Line ->
          conn.proto <- P_line;
          process_input st conn)
  | P_line ->
      let start = ref 0 in
      for i = conn.in_scanned to conn.in_len - 1 do
        if Bytes.get conn.inbuf i = '\n' then begin
          handle_line st conn (Bytes.sub_string conn.inbuf !start (i - !start));
          start := i + 1
        end
      done;
      conn.in_scanned <- conn.in_len;
      consume conn !start;
      if conn.in_len > max_request_bytes then begin
        respond st conn
          (Response.error ~id:Json.Null Response.Bad_request
             (Printf.sprintf "request line exceeds %d bytes" max_request_bytes));
        conn.alive <- false;
        consume conn conn.in_len
      end
  | P_http ->
      let pos = ref 0 in
      let parsing = ref true in
      while !parsing && (not conn.http_busy) && conn.alive && !pos < conn.in_len do
        match
          Http.parse ~max_body:max_request_bytes ~len:conn.in_len conn.inbuf ~pos:!pos
        with
        | `More -> parsing := false
        | `Bad msg ->
            http_bad_request ~http_status:400 st conn ~id:Json.Null msg;
            conn.alive <- false;
            pos := conn.in_len
        | `Req (r, pos') ->
            pos := pos';
            conn.http_busy <- true;
            (* An inline answer clears [http_busy] via [respond], letting
               the loop continue with the next pipelined request; an
               admitted job leaves it set and parsing pauses here. *)
            handle_http st conn r
      done;
      consume conn !pos

(* --- sockets ----------------------------------------------------------- *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let listen_on address =
  match address with
  | Unix_socket path ->
      if Sys.file_exists path then Unix.unlink path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      (fd, address)
  | Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen fd 64;
      let bound =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> Tcp p
        | _ -> address
      in
      (fd, bound)

let accept_conn st =
  match Unix.accept st.listen with
  | fd, _ ->
      Unix.set_nonblock fd;
      (* A response leaves as several writes (HTTP head, body, line
         terminator); without NODELAY the kernel would hold a short
         trailing one until the peer's delayed ACK. *)
      (match st.cfg.address with
      | Tcp _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
      | Unix_socket _ -> ());
      let cid = st.next_cid in
      st.next_cid <- cid + 1;
      Hashtbl.replace st.conns cid
        {
          cid;
          fd;
          inbuf = Bytes.create read_size;
          in_len = 0;
          in_scanned = 0;
          out = Queue.create ();
          out_ofs = 0;
          alive = true;
          proto = P_unknown;
          http_busy = false;
        }
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()

let read_conn st conn =
  reserve conn;
  match Unix.read conn.fd conn.inbuf conn.in_len read_size with
  | 0 -> conn.alive <- false
  | n ->
      conn.in_len <- conn.in_len + n;
      process_input st conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  | exception Unix.Unix_error _ -> conn.alive <- false

(* Write queued chunks in order, straight from the strings the responses
   were built in, until the socket stops taking bytes. *)
let rec flush_conn conn =
  match Queue.peek_opt conn.out with
  | None -> ()
  | Some chunk -> (
      let len = String.length chunk in
      match Unix.write_substring conn.fd chunk conn.out_ofs (len - conn.out_ofs) with
      | n when conn.out_ofs + n = len ->
          ignore (Queue.pop conn.out);
          conn.out_ofs <- 0;
          flush_conn conn
      | n -> conn.out_ofs <- conn.out_ofs + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error _ ->
          conn.alive <- false;
          Queue.clear conn.out;
          conn.out_ofs <- 0)

let has_output conn = not (Queue.is_empty conn.out)

(* --- the event loop ---------------------------------------------------- *)

(* One [select] multiplexer on the calling domain: it accepts, reads,
   decodes, answers inline verbs and cache hits, admits jobs to the
   pool, collects their completions, and polls the user's [stop]/[dump]
   hooks. *)
let event_loop st ~stop ~dump =
  let draining = ref false in
  let drain_started = ref 0. in
  let running = ref true in
  while !running do
    if (not !draining) && stop () then begin
      (* Graceful shutdown: no new connections or requests; in-flight
         jobs finish and their responses flush before exit. *)
      draining := true;
      drain_started := Clock.now ();
      close_quietly st.listen;
      (* Return from this pass's [select] at once: with nothing in
         flight the drain can finish without waiting out the timeout. *)
      wake st
    end;
    let now = Clock.now () in
    let conns = Hashtbl.fold (fun _ c acc -> c :: acc) st.conns [] in
    let read_fds =
      if !draining then [ st.pipe_r ]
      else
        st.pipe_r :: st.listen
        :: List.filter_map (fun c -> if c.alive then Some c.fd else None) conns
    in
    let write_fds = List.filter_map (fun c -> if has_output c then Some c.fd else None) conns in
    let timeout =
      Hashtbl.fold
        (fun _ job acc ->
          match job.deadline with
          | Some d when not job.answered -> Float.min acc (Float.max 0.01 (d -. now))
          | _ -> acc)
        st.jobs_live 0.25
    in
    (* Watch ticks also bound the sleep, so snapshots go out on time. *)
    let timeout =
      List.fold_left
        (fun acc w -> Float.min acc (Float.max 0.01 (w.w_next -. now)))
        timeout st.watchers
    in
    (match Unix.select read_fds write_fds [] timeout with
    | readable, writable, _ ->
        if List.mem st.pipe_r readable then begin
          let buf = Bytes.create 512 in
          try
            while Unix.read st.pipe_r buf 0 512 > 0 do
              ()
            done
          with Unix.Unix_error _ -> ()
        end;
        if (not !draining) && List.mem st.listen readable then accept_conn st;
        List.iter
          (fun c -> if c.alive && List.mem c.fd readable then read_conn st c)
          conns;
        drain_completions st;
        (* An async answer may have unblocked an HTTP connection with
           pipelined requests already buffered; resume parsing them. *)
        Hashtbl.iter
          (fun _ c ->
            if
              c.alive && c.proto = P_http && (not c.http_busy) && c.in_len > 0
            then process_input st c)
          st.conns;
        sweep_deadlines st (Clock.now ());
        tick_watchers st (Clock.now ());
        List.iter (fun c -> if List.mem c.fd writable then flush_conn c) conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    (* Operator-requested dump (the CLI wires SIGUSR2 here). *)
    if dump () then write_postmortem st ~reason:"signal";
    (* Reap connections that are gone and fully flushed. *)
    Hashtbl.filter_map_inplace
      (fun _ c ->
        if (not c.alive) && not (has_output c) then begin
          close_quietly c.fd;
          None
        end
        else Some c)
      st.conns;
    if !draining then begin
      drain_completions st;
      if Hashtbl.length st.jobs_live = 0 then begin
        (* Give the flushed responses one last write pass, then stop. *)
        Hashtbl.iter (fun _ c -> flush_conn c) st.conns;
        let unflushed =
          Hashtbl.fold (fun _ c acc -> acc || has_output c) st.conns false
        in
        (* A peer that stopped reading must not wedge shutdown: give the
           flush five seconds, then abandon its bytes. *)
        if (not unflushed) || Clock.now () -. !drain_started > 5. then
          running := false
      end
    end
  done;
  Hashtbl.iter (fun _ c -> close_quietly c.fd) st.conns

(* --- assembly ---------------------------------------------------------- *)

let run ?(stop = fun () -> false) ?(dump = fun () -> false) ?on_ready ?on_stop
    ?(telemetry = Telemetry.create ()) cfg =
  if not (Telemetry.enabled telemetry) then
    invalid_arg "Daemon.run: the telemetry context must be enabled";
  let jobs = max 1 cfg.jobs in
  (* [jobs + 1] because the event loop never helps the pool: the +1
     "submitter slot" stays idle, leaving [jobs] worker domains.
     [min_workers] overrides the hardware cap — [submit] tasks only run
     on spawned workers, so the daemon must keep at least [jobs] of them
     even on small machines. *)
  let pool = Pool.create ~min_workers:jobs ~jobs:(jobs + 1) () in
  let listen, bound = listen_on cfg.address in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  let st =
    {
      cfg = { cfg with jobs };
      cache = Cache.create ~cap:cfg.cache_cap;
      pool;
      tm = telemetry;
      started = Clock.now ();
      listen;
      pipe_r;
      pipe_w;
      conns = Hashtbl.create 16;
      jobs_live = Hashtbl.create 64;
      completions = Queue.create ();
      completions_lock = Mutex.create ();
      next_cid = 0;
      next_jid = 0;
      next_trace = 0;
      in_flight = 0;
      pm_seq = 0;
      watchers = [];
    }
  in
  (match on_ready with Some f -> f bound | None -> ());
  if Log.enabled Log.Info then
    Log.info "serve.listening"
      [
        ( "address",
          Json.String
            (match bound with
            | Unix_socket p -> "unix:" ^ p
            | Tcp p -> Printf.sprintf "tcp:127.0.0.1:%d" p) );
        ("jobs", Json.Int jobs);
        ("queue_cap", Json.Int cfg.queue_cap);
      ];
  (* While the daemon serves, every log line, on any domain, lands in
     the rings as a mark next to the request milestones. *)
  Log.with_recorder
    (fun kind fields -> Telemetry.mark telemetry ~cat:"log" ~fields kind)
    (fun () ->
      event_loop st ~stop ~dump;
      (* Join the fleet BEFORE closing the wake pipe: a worker's
         completion becomes visible (and lets the drain loop exit) just
         before its wake-up write, so closing [pipe_w] first raced that
         write into EBADF, killing the worker and surfacing at
         [Pool.close]'s join. *)
      Pool.close pool);
  close_quietly pipe_r;
  close_quietly pipe_w;
  (match bound with
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | Tcp _ -> ());
  (match on_stop with Some f -> f (metrics_json st) | None -> ());
  let final = stats_json st in
  if Log.enabled Log.Info then Log.info "serve.stopped" [ ("stats", final) ];
  final
