(* Tests for Wr_serve: the Request/Response wire API, the dispatch path
   shared with the CLI, the LRU result cache, and a live daemon on a
   loopback TCP port (end to end: ping, analyze, cache hit, malformed
   request, overload backpressure, graceful drain). *)

module Json = Wr_support.Json
module Request = Wr_serve.Request
module Response = Wr_serve.Response
module Api = Wr_serve.Api
module Cache = Wr_serve.Cache
module Daemon = Wr_serve.Daemon
module Client = Wr_serve.Client

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

(* naive substring check, enough for asserting on error messages *)
let mentions needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* --- Request ----------------------------------------------------------- *)

let decode_ok line =
  match Request.of_line line with
  | Ok req -> req
  | Error (_, msg) -> Alcotest.failf "decode failed: %s" msg

let decode_err line =
  match Request.of_line line with
  | Ok _ -> Alcotest.failf "expected a decode error for %s" line
  | Error (id, msg) -> (id, msg)

let test_request_ping_roundtrip () =
  let req = (Request.make ?trace:(None) ~id:(Json.Int 7) (Request.Ping)) in
  let req' = decode_ok (Request.to_line req) in
  check bool_c "id survives" true (req'.Request.id = Json.Int 7);
  check string_c "verb" "ping" (Request.verb_name req'.Request.verb)

let test_request_analyze_roundtrip () =
  let params =
    Request.analyze_params ~page:"<p>hi</p>"
      ~resources:[ ("a.js", "var x = 1;") ]
      ~seed:9 ~explore:false ~detector:Webracer.Config.Full_track
      ~hb:Wr_hb.Graph.Dfs ~time_limit:1234. ~dedup:false ()
  in
  let req = (Request.make ?trace:(None) ~id:(Json.String "abc") (Request.Analyze params)) in
  match (decode_ok (Request.to_line req)).Request.verb with
  | Request.Analyze p ->
      check string_c "page" "<p>hi</p>" p.Request.page;
      check bool_c "resources" true (p.Request.resources = [ ("a.js", "var x = 1;") ]);
      check int_c "seed" 9 p.Request.seed;
      check bool_c "explore" false p.Request.explore;
      check bool_c "detector" true (p.Request.detector = Webracer.Config.Full_track);
      check bool_c "hb" true (p.Request.hb = Wr_hb.Graph.Dfs);
      check bool_c "time_limit" true (p.Request.time_limit = 1234.);
      check bool_c "dedup" false p.Request.dedup
  | _ -> Alcotest.fail "expected analyze"

let test_request_defaults () =
  let req = decode_ok {|{"verb":"analyze","params":{"page":"<p>x</p>"}}|} in
  match req.Request.verb with
  | Request.Analyze p ->
      check int_c "seed" 0 p.Request.seed;
      check bool_c "explore" true p.Request.explore;
      check bool_c "dedup" true p.Request.dedup;
      check bool_c "detector" true (p.Request.detector = Webracer.Config.Last_access);
      check bool_c "time_limit" true (p.Request.time_limit = 60_000.)
  | _ -> Alcotest.fail "expected analyze"

let test_request_replay_explain_roundtrip () =
  let target = Request.analyze_params ~page:"<p>x</p>" () in
  let explain =
    Request.make ~id:Json.Null (Request.explain ~race:2 target)
  in
  (match (decode_ok (Request.to_line explain)).Request.verb with
  | Request.Explain { race = Some 2; _ } -> ()
  | _ -> Alcotest.fail "explain round-trip");
  let replay =
    Request.make ~id:Json.Null
      (Request.replay ~schedules:7 ~parse_delay:1.5 ~jobs:3 target)
  in
  match (decode_ok (Request.to_line replay)).Request.verb with
  | Request.Replay { schedules = 7; jobs = 3; parse_delay; _ } ->
      check bool_c "parse_delay" true (parse_delay = 1.5)
  | _ -> Alcotest.fail "replay round-trip"

let test_request_validation () =
  let _, msg = decode_err "][" in
  check bool_c "syntax error mentions JSON" true (mentions "invalid JSON" msg);
  let _, msg = decode_err {|{"verb":"frobnicate"}|} in
  check bool_c "unknown verb named" true (mentions "frobnicate" msg);
  let _, msg = decode_err {|{"verb":"analyze"}|} in
  check bool_c "missing page" true (mentions "page" msg);
  let id, _ = decode_err {|{"id":41,"verb":"analyze","params":{}}|} in
  check bool_c "id preserved in errors" true (id = Json.Int 41);
  let _, msg = decode_err {|{"schema_version":99,"verb":"ping"}|} in
  check bool_c "version mismatch named" true (mentions "schema_version 99" msg);
  let _, msg =
    decode_err {|{"verb":"analyze","params":{"page":"x","time_limit":-5}}|}
  in
  check bool_c "time_limit positive" true (mentions "time_limit" msg);
  let _, msg =
    decode_err {|{"verb":"explain","params":{"page":"x","race":0}}|}
  in
  check bool_c "race positive" true (mentions "race" msg);
  (match Request.of_line {|{"schema_version":1,"verb":"ping"}|} with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "explicit current version accepted")

(* --- Response ---------------------------------------------------------- *)

let test_response_roundtrip () =
  let ok = Response.ok ~id:(Json.Int 3) (Json.Obj [ ("pong", Json.Bool true) ]) in
  (match Response.of_line (Response.to_line ok) with
  | Ok r ->
      check bool_c "ok" true (Response.is_ok r);
      check bool_c "id" true (Response.id r = Json.Int 3)
  | Error e -> Alcotest.failf "ok round-trip: %s" e);
  let err = Response.error ~id:Json.Null Response.Overload "queue full" in
  match Response.of_line (Response.to_line err) with
  | Ok (Response.Error { code = Response.Overload; message; _ }) ->
      check string_c "message" "queue full" message
  | Ok _ -> Alcotest.fail "expected overload error"
  | Error e -> Alcotest.failf "error round-trip: %s" e

let test_error_codes () =
  List.iter
    (fun (code, name) ->
      check string_c "code name" name (Response.code_name code);
      check bool_c "code parse" true (Response.code_of_name name = Some code))
    [
      (Response.Bad_request, "bad_request");
      (Response.Timeout, "timeout");
      (Response.Overload, "overload");
      (Response.Internal, "internal");
    ];
  check bool_c "unknown code" true (Response.code_of_name "nope" = None)

(* --- Cache ------------------------------------------------------------- *)

let test_cache_key () =
  let p = Request.analyze_params ~page:"<p>x</p>" () in
  check string_c "key is stable" (Cache.key p) (Cache.key p);
  check int_c "key is a digest" 32 (String.length (Cache.key p));
  let different =
    [
      { p with Request.page = "<p>y</p>" };
      { p with Request.seed = 1 };
      { p with Request.resources = [ ("a.js", "1") ] };
      { p with Request.explore = false };
      { p with Request.detector = Webracer.Config.Full_track };
      { p with Request.hb = Wr_hb.Graph.Dfs };
      { p with Request.time_limit = 1. };
      { p with Request.dedup = false };
    ]
  in
  List.iteri
    (fun i q ->
      check bool_c (Printf.sprintf "variant %d differs" i) false
        (Cache.key p = Cache.key q))
    different

let test_cache_lru () =
  let c = Cache.create ~cap:2 in
  Cache.store c "a" {|{"r":1}|};
  Cache.store c "b" {|{"r":2}|};
  check bool_c "a hit" true (Cache.find c "a" = Some {|{"r":1}|});
  (* "b" is now least recently used; storing "c" evicts it. *)
  Cache.store c "c" {|{"r":3}|};
  check bool_c "b evicted" true (Cache.find c "b" = None);
  check bool_c "a kept" true (Cache.find c "a" = Some {|{"r":1}|});
  check int_c "length" 2 (Cache.length c)

(* --- Api dispatch ------------------------------------------------------ *)

let test_dispatch_ping () =
  match Api.dispatch (Request.make ?trace:(None) ~id:(Json.Int 1) (Request.Ping)) with
  | Response.Ok { result; _ } ->
      check bool_c "pong" true (Json.member "pong" result = Json.Bool true)
  | Response.Error _ -> Alcotest.fail "ping failed"

let test_dispatch_analyze_matches_report () =
  let params =
    Request.analyze_params ~page:{|<script>var x = 1; x = x + 1;</script>|}
      ~seed:3 ()
  in
  let direct = Webracer.report_to_json (Api.analyze params) in
  match
    Api.dispatch (Request.make ?trace:(None) ~id:(Json.Null) (Request.Analyze params))
  with
  | Response.Ok { result; _ } ->
      let scrub j =
        match j with
        | Json.Obj fields ->
            Json.Obj
              (List.map
                 (fun (k, v) -> if k = "wall_clock_s" then (k, Json.Int 0) else (k, v))
                 fields)
        | j -> j
      in
      check string_c "dispatch = report_to_json (modulo wall clock)"
        (Json.to_string (scrub direct))
        (Json.to_string (scrub result))
  | Response.Error _ -> Alcotest.fail "analyze failed"

let test_dispatch_explain_range () =
  let params = Request.analyze_params ~page:"<p>no races here</p>" () in
  match
    Api.dispatch
      (Request.make ~id:Json.Null (Request.explain ~race:5 params))
  with
  | Response.Error { code = Response.Bad_request; _ } -> ()
  | _ -> Alcotest.fail "out-of-range explain must be a bad request"

let test_dispatch_stats_default () =
  match Api.dispatch (Request.make ?trace:(None) ~id:(Json.Null) (Request.Stats)) with
  | Response.Error { code = Response.Internal; _ } -> ()
  | _ -> Alcotest.fail "one-shot stats must be an internal error"

(* --- the daemon, end to end -------------------------------------------- *)

let spawn_daemon ?(jobs = 2) ?(queue_cap = 4) ?(cache_cap = 8)
    ?(address = Daemon.Tcp 0) ?postmortem_dir ?(dump = fun () -> false) ?telemetry () =
  let stop = Atomic.make false in
  let ready : Daemon.address option Atomic.t = Atomic.make None in
  let cfg =
    {
      (Daemon.default_config address) with
      jobs;
      queue_cap;
      cache_cap;
      postmortem_dir;
    }
  in
  let d =
    Domain.spawn (fun () ->
        Daemon.run
          ~stop:(fun () -> Atomic.get stop)
          ~dump
          ~on_ready:(fun addr -> Atomic.set ready (Some addr))
          ?telemetry cfg)
  in
  let deadline = Unix.gettimeofday () +. 10. in
  while Atomic.get ready = None && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  match Atomic.get ready with
  | None -> Alcotest.fail "daemon never became ready"
  | Some addr -> (d, stop, addr)

let request_ok client req =
  match Client.request client req with
  | Ok (Response.Ok { result; _ }) -> result
  | Ok (Response.Error { message; _ }) -> Alcotest.failf "request failed: %s" message
  | Error e -> Alcotest.failf "transport failed: %s" e

let test_daemon_end_to_end () =
  let d, stop, addr = spawn_daemon () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      ignore (Domain.join d))
    (fun () ->
      let c = Client.connect ~retry_for:5. addr in
      (* ping echoes the id *)
      (match Client.request c (Request.make ?trace:(None) ~id:(Json.Int 42) (Request.Ping)) with
      | Ok (Response.Ok { id; result; _ }) ->
          check bool_c "id echoed" true (id = Json.Int 42);
          check bool_c "pong" true (Json.member "pong" result = Json.Bool true)
      | _ -> Alcotest.fail "ping over the wire");
      (* analyze matches the in-process pipeline *)
      let params =
        Request.analyze_params ~page:{|<script>var x = 1;</script>|} ~seed:5 ()
      in
      let result =
        request_ok c (Request.make ?trace:(None) ~id:(Json.Null) (Request.Analyze params))
      in
      let direct = Webracer.report_to_json (Api.analyze params) in
      check bool_c "ops match one-shot run" true
        (Json.member "ops" result = Json.member "ops" direct);
      check bool_c "schema version present" true
        (Json.member "schema_version" result = Json.Int Wr_support.Schema.version);
      (* an identical request is a cache hit answered from the loop *)
      ignore (request_ok c (Request.make ?trace:(None) ~id:(Json.Null) (Request.Analyze params)));
      let stats = request_ok c (Request.make ?trace:(None) ~id:(Json.Null) (Request.Stats)) in
      check bool_c "one analysis ran" true
        (Json.member "analyses_run" stats = Json.Int 1);
      check bool_c "one cache hit" true
        (Json.member "hits" (Json.member "cache" stats) = Json.Int 1);
      (* malformed input answers bad_request and keeps the connection *)
      Client.send_line c "this is not json";
      (match Client.recv c with
      | Ok (Response.Error { code = Response.Bad_request; _ }) -> ()
      | _ -> Alcotest.fail "malformed line must answer bad_request");
      (match Client.request c (Request.make ?trace:(None) ~id:(Json.Int 1) (Request.Ping)) with
      | Ok (Response.Ok _) -> ()
      | _ -> Alcotest.fail "connection must survive a bad request");
      Client.close c)

let test_daemon_overload () =
  (* jobs 1 + queue 1: a pipelined burst processed in one read batch
     admits one job and sheds the rest as overload. *)
  let d, stop, addr = spawn_daemon ~jobs:1 ~queue_cap:1 ~cache_cap:0 () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      ignore (Domain.join d))
    (fun () ->
      let c = Client.connect ~retry_for:5. addr in
      let page =
        {|<script>var s = 0; var i = 0; for (i = 0; i < 20000; i++) { s = s + i; }</script>|}
      in
      let params = Request.analyze_params ~page ~explore:false () in
      let burst = 6 in
      for i = 1 to burst do
        Client.send c (Request.make ?trace:(None) ~id:(Json.Int i) (Request.Analyze params))
      done;
      let ok = ref 0 and overload = ref 0 and other = ref 0 in
      for _ = 1 to burst do
        match Client.recv c with
        | Ok (Response.Ok _) -> incr ok
        | Ok (Response.Error { code = Response.Overload; _ }) -> incr overload
        | _ -> incr other
      done;
      check int_c "every request answered" burst (!ok + !overload + !other);
      check int_c "no unexpected outcomes" 0 !other;
      check bool_c "some work admitted" true (!ok >= 1);
      check bool_c "backpressure engaged" true (!overload >= 1);
      Client.close c)

let test_daemon_drains_on_stop () =
  let d, stop, addr = spawn_daemon ~jobs:2 ~queue_cap:8 () in
  let c = Client.connect ~retry_for:5. addr in
  let params =
    Request.analyze_params
      ~page:{|<script>var s = 0; var i = 0; for (i = 0; i < 20000; i++) { s = s + i; }</script>|}
      ~explore:false ()
  in
  for i = 1 to 4 do
    Client.send c (Request.make ?trace:(None) ~id:(Json.Int i) (Request.Analyze params))
  done;
  (* A trailing ping acts as a barrier: its (inline) answer proves the
     daemon has read and admitted everything queued before it. *)
  (match Client.request c (Request.make ?trace:(None) ~id:(Json.Int 99) (Request.Ping)) with
  | Ok (Response.Ok _) -> ()
  | _ -> Alcotest.fail "barrier ping");
  (* Stop now: the four in-flight analyses must still answer. *)
  Atomic.set stop true;
  let answered = ref 0 in
  for _ = 1 to 4 do
    match Client.recv c with Ok _ -> incr answered | Error _ -> ()
  done;
  let final = Domain.join d in
  Client.close c;
  check int_c "all in-flight requests answered during drain" 4 !answered;
  match Json.member "queue" final with
  | Json.Obj fields ->
      check bool_c "nothing left in flight" true
        (List.assoc "in_flight" fields = Json.Int 0)
  | _ -> Alcotest.fail "final stats must carry the queue gauge"

(* --- request tracing ---------------------------------------------------- *)

let test_trace_wire_compat () =
  (* Untraced requests and responses must stay byte-identical to the
     pre-tracing protocol: no "trace" key anywhere. *)
  let line =
    Request.to_line (Request.make ?trace:(None) ~id:(Json.Int 1) (Request.Ping))
  in
  check bool_c "untraced request has no trace key" false
    (Astring.String.is_infix ~affix:"trace" line);
  let resp_line = Response.to_line (Response.ok ~id:(Json.Int 1) Json.Null) in
  check bool_c "untraced response has no trace key" false
    (Astring.String.is_infix ~affix:"trace" resp_line);
  (* A traced request round-trips its id. *)
  let traced =
    (Request.make ?trace:(Some "req-7") ~id:(Json.Int 2) (Request.Ping))
  in
  let decoded = decode_ok (Request.to_line traced) in
  check bool_c "trace id round-trips" true (decoded.Request.trace = Some "req-7");
  (* Empty trace ids are rejected, not silently accepted. *)
  let _, msg = decode_err {|{"id":1,"trace":"","verb":"ping"}|} in
  check bool_c "empty trace rejected" true (msg <> "")

let test_dispatch_echoes_trace () =
  (match
     Api.dispatch (Request.make ?trace:(Some "tr-x") ~id:(Json.Int 3) (Request.Ping))
   with
  | Response.Ok { trace; _ } -> check bool_c "ok echoes trace" true (trace = Some "tr-x")
  | Response.Error _ -> Alcotest.fail "ping dispatch");
  match
    Api.dispatch (Request.make ?trace:(None) ~id:(Json.Int 4) (Request.Ping))
  with
  | Response.Ok { trace; _ } -> check bool_c "absent stays absent" true (trace = None)
  | Response.Error _ -> Alcotest.fail "ping dispatch"

let test_daemon_trace_and_metrics () =
  let d, stop, addr = spawn_daemon () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      ignore (Domain.join d))
    (fun () ->
      let c = Client.connect ~retry_for:5. addr in
      let params =
        Request.analyze_params ~page:{|<script>var y = 2;</script>|} ~seed:3 ()
      in
      (* A traced analyze echoes the id on the wire. *)
      (match
         Client.request c
           (Request.make ?trace:(Some "e2e-1") ~id:(Json.Int 1) (Request.Analyze params))
       with
      | Ok (Response.Ok { trace; _ }) ->
          check bool_c "trace echoed over the wire" true (trace = Some "e2e-1")
      | _ -> Alcotest.fail "traced analyze");
      (* An untraced ping carries no trace on the wire. *)
      (match Client.request c (Request.make ?trace:(None) ~id:(Json.Int 2) (Request.Ping)) with
      | Ok (Response.Ok { trace; _ }) ->
          check bool_c "untraced stays untraced" true (trace = None)
      | _ -> Alcotest.fail "untraced ping");
      (* The metrics verb reports the analyze in its latency histograms
         plus queue/cache figures and a Prometheus rendering. *)
      let metrics =
        request_ok c (Request.make ?trace:(None) ~id:(Json.Null) (Request.Metrics))
      in
      (match Json.member "latency" metrics with
      | Json.Obj stages ->
          List.iter
            (fun s ->
              if not (List.mem_assoc s stages) then Alcotest.failf "stage %S missing" s)
            [ "decode"; "queue"; "run"; "encode"; "total" ];
          (match List.assoc "run" stages with
          | Json.Obj run ->
              check bool_c "run stage recorded the analyze" true
                (match List.assoc_opt "count" run with
                | Some (Json.Int n) -> n >= 1
                | _ -> false);
              List.iter
                (fun k ->
                  if not (List.mem_assoc k run) then Alcotest.failf "run lacks %S" k)
                [ "p50"; "p95"; "p99"; "p999"; "max" ]
          | _ -> Alcotest.fail "run stage not an object")
      | _ -> Alcotest.fail "metrics lacks latency");
      (match Json.member "prometheus" metrics with
      | Json.String text ->
          check bool_c "prometheus text has latency summary" true
            (Astring.String.is_infix ~affix:"webracer_request_latency_seconds" text)
      | _ -> Alcotest.fail "metrics lacks prometheus text");
      (* stats gained high_water and hit_ratio. *)
      let stats = request_ok c (Request.make ?trace:(None) ~id:(Json.Null) (Request.Stats)) in
      (match Json.member "queue" stats with
      | Json.Obj q ->
          check bool_c "queue high-water tracked" true
            (match List.assoc_opt "high_water" q with
            | Some (Json.Int n) -> n >= 1
            | _ -> false)
      | _ -> Alcotest.fail "stats lacks queue");
      (match Json.member "cache" stats with
      | Json.Obj cache ->
          check bool_c "hit_ratio present" true (List.mem_assoc "hit_ratio" cache)
      | _ -> Alcotest.fail "stats lacks cache");
      Client.close c)

(* --- one registry ------------------------------------------------------- *)

let json_int path j =
  match List.fold_left (fun j k -> Json.member k j) j path with
  | Json.Int n -> n
  | _ -> Alcotest.failf "no integer at %s" (String.concat "." path)

(* The labelled series of a Prometheus [metric] as (label value, count). *)
let prom_series text metric =
  List.filter_map
    (fun l ->
      match String.index_opt l '"' with
      | Some i when String.starts_with ~prefix:(metric ^ "{") l ->
          let j = String.index_from l (i + 1) '"' in
          let sp = String.rindex l ' ' in
          Some
            ( String.sub l (i + 1) (j - i - 1),
              int_of_string (String.sub l (sp + 1) (String.length l - sp - 1)) )
      | _ -> None)
    (String.split_on_char '\n' text)

(* The value of an unlabelled Prometheus line. *)
let prom_value text metric =
  match
    List.find_opt
      (fun l -> String.starts_with ~prefix:(metric ^ " ") l)
      (String.split_on_char '\n' text)
  with
  | Some l -> String.sub l (String.length metric + 1) (String.length l - String.length metric - 1)
  | None -> Alcotest.failf "prometheus text lacks %s" metric

(* Every shared count in [stats], [metrics], [watch] and the Prometheus
   text comes from one counter. The session holds malformed lines, an
   unknown verb, a cache miss then a hit, and a shed request. The three
   reads are requests too, so each later document also counts the reads
   before it: [metrics] sees the [stats] request and its ok response,
   [watch] sees [metrics] as well. *)
let test_daemon_documents_agree () =
  let d, stop, addr = spawn_daemon ~jobs:1 ~queue_cap:1 () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      ignore (Domain.join d))
    (fun () ->
      let c = Client.connect ~retry_for:5. addr in
      List.iter (Client.send_line c) [ "not json"; {|{"verb":|}; {|{"id":1,"verb":"frobnicate"}|} ];
      for _ = 1 to 3 do
        match Client.recv c with
        | Ok (Response.Error { code = Response.Bad_request; _ }) -> ()
        | _ -> Alcotest.fail "a bad line must answer bad_request"
      done;
      let analyze ?(seed = 42) page =
        Request.make ~id:Json.Null
          (Request.Analyze (Request.analyze_params ~page ~seed ~explore:false ()))
      in
      let fast = {|<script>var x = 1;</script>|} in
      ignore (request_ok c (analyze fast));
      ignore (request_ok c (analyze fast));
      (* One slot: while the first slow analysis holds it, the rest are shed. *)
      let slow =
        {|<script>var s = 0; var i = 0; for (i = 0; i < 60000; i++) { s = s + i; }</script>|}
      in
      List.iter (fun seed -> Client.send c (analyze ~seed slow)) [ 1; 2; 3 ];
      let shed = ref 0 in
      for _ = 1 to 3 do
        match Client.recv c with
        | Ok (Response.Ok _) -> ()
        | Ok (Response.Error { code = Response.Overload; _ }) -> incr shed
        | _ -> Alcotest.fail "a slow analyze must answer ok or overload"
      done;
      check bool_c "a request was shed" true (!shed >= 1);
      let stats = request_ok c (Request.make ~id:Json.Null Request.Stats) in
      let metrics = request_ok c (Request.make ~id:Json.Null Request.Metrics) in
      Client.send c (Request.make ~id:Json.Null (Request.watch ~interval_s:0.05 ~count:1 ()));
      let watch =
        match Client.recv c with
        | Ok (Response.Ok { result; _ }) -> result
        | _ -> Alcotest.fail "watch tick"
      in
      let prom =
        match Json.member "prometheus" metrics with
        | Json.String t -> t
        | _ -> Alcotest.fail "metrics lacks prometheus text"
      in
      let prom_int m = int_of_string (prom_value prom m) in
      let series m k = Option.value ~default:0 (List.assoc_opt k (prom_series prom m)) in
      (* requests *)
      let total = json_int [ "requests"; "total" ] stats in
      let kinds =
        [ "ping"; "stats"; "metrics"; "watch"; "analyze"; "explain"; "predict"; "triage";
          "replay"; "invalid" ]
      in
      check int_c "stats total sums its kinds" total
        (List.fold_left (fun acc k -> acc + json_int [ "requests"; k ] stats) 0 kinds);
      check int_c "invalid requests" 3 (json_int [ "requests"; "invalid" ] stats);
      check int_c "prometheus requests sum" (total + 1)
        (List.fold_left (fun acc (_, n) -> acc + n) 0 (prom_series prom "webracer_requests_total"));
      check int_c "watch requests_total" (total + 2) (json_int [ "requests_total" ] watch);
      List.iter
        (fun k ->
          let extra = if k = "metrics" then 1 else 0 in
          check int_c ("prometheus verb " ^ k)
            (json_int [ "requests"; k ] stats + extra)
            (series "webracer_requests_total" k))
        kinds;
      (* responses *)
      List.iter
        (fun o ->
          let extra = if o = "ok" then 1 else 0 in
          check int_c ("prometheus outcome " ^ o)
            (json_int [ "responses"; o ] stats + extra)
            (series "webracer_responses_total" o))
        [ "ok"; "bad_request"; "timeout"; "overload"; "internal" ];
      let shed_n = json_int [ "responses"; "overload" ] stats in
      check int_c "stats overload = wire" !shed shed_n;
      check int_c "metrics shed" shed_n (json_int [ "shed" ] metrics);
      check int_c "watch shed" shed_n (json_int [ "shed" ] watch);
      check int_c "prometheus shed" shed_n (prom_int "webracer_shed_total");
      (* cache, analyses, timeouts, queue *)
      check int_c "one cache hit" 1 (json_int [ "cache"; "hits" ] stats);
      check int_c "analyze = hits + misses"
        (json_int [ "requests"; "analyze" ] stats)
        (json_int [ "cache"; "hits" ] stats + json_int [ "cache"; "misses" ] stats);
      List.iter
        (fun path ->
          let v = json_int path stats in
          let name = String.concat "." path in
          check int_c ("metrics " ^ name) v (json_int path metrics);
          check int_c ("watch " ^ name) v (json_int path watch))
        [ [ "cache"; "hits" ]; [ "cache"; "misses" ]; [ "analyses_run" ]; [ "timeouts" ];
          [ "queue"; "high_water" ] ];
      check bool_c "hit ratio" true
        (Json.member "hit_ratio" (Json.member "cache" stats)
         = Json.member "hit_ratio" (Json.member "cache" metrics)
        && Json.member "hit_ratio" (Json.member "cache" stats)
           = Json.member "hit_ratio" (Json.member "cache" watch));
      (match Json.member "hit_ratio" (Json.member "cache" stats) with
      | Json.Float r ->
          check string_c "prometheus hit ratio" (Printf.sprintf "%.4f" r)
            (prom_value prom "webracer_cache_hit_ratio")
      | _ -> Alcotest.fail "hit_ratio not a float");
      check int_c "prometheus analyses" (json_int [ "analyses_run" ] stats)
        (prom_int "webracer_analyses_total");
      check int_c "prometheus timeouts" (json_int [ "timeouts" ] stats)
        (prom_int "webracer_timeouts_total");
      check int_c "one slot at peak" 1 (json_int [ "queue"; "high_water" ] stats);
      check int_c "prometheus high water" 1 (prom_int "webracer_queue_depth_high_water");
      (* latency: [watch] also saw the [watch] line decoded and the
         [metrics] answer encoded *)
      List.iter
        (fun stage ->
          let n = json_int [ "latency"; stage; "count" ] metrics in
          check int_c ("prometheus count " ^ stage) n
            (series "webracer_request_latency_seconds_count" stage);
          let extra = if stage = "decode" || stage = "encode" then 1 else 0 in
          check int_c ("watch count " ^ stage) (n + extra)
            (json_int [ "latency"; stage; "count" ] watch))
        [ "decode"; "queue"; "run"; "encode"; "total" ];
      Client.close c)

(* Counter and histogram names come from closed sets (verbs, "invalid",
   response outcomes, latency stages), never from client bytes: 200
   distinct bogus verbs and 200 distinct trace ids add no name. *)
let test_daemon_registry_bounded () =
  let tm = Wr_telemetry.Telemetry.create () in
  let d, stop, addr = spawn_daemon ~telemetry:tm () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      ignore (Domain.join d))
    (fun () ->
      let c = Client.connect ~retry_for:5. addr in
      for i = 1 to 200 do
        Client.send_line c (Printf.sprintf {|{"id":%d,"verb":"bogus-%d"}|} i i);
        Client.send c
          (Request.make ~trace:(Printf.sprintf "trace-%d" i) ~id:(Json.Int i) Request.Ping)
      done;
      for _ = 1 to 400 do
        match Client.recv c with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "transport failed: %s" e
      done;
      Client.close c);
  let counters = Wr_telemetry.Telemetry.counters tm in
  let allowed =
    List.map (( ^ ) "serve.requests.")
      [ "ping"; "stats"; "metrics"; "watch"; "analyze"; "explain"; "predict"; "triage";
        "replay"; "invalid" ]
    @ List.map (( ^ ) "serve.responses.")
        [ "ok"; "bad_request"; "timeout"; "overload"; "internal" ]
    @ [ "serve.cache_hit"; "serve.cache_miss"; "serve.analyses_run"; "serve.timeouts";
        "serve.queue_high_water" ]
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem name allowed) then Alcotest.failf "counter %S is not a fixed name" name)
    counters;
  List.iter
    (fun (name, _) ->
      let stages = [ "decode"; "queue"; "run"; "encode"; "total" ] in
      if not (List.mem name (List.map (( ^ ) "serve.latency.") stages)) then
        Alcotest.failf "histogram %S is not a fixed name" name)
    (Wr_telemetry.Telemetry.histograms tm);
  check int_c "bogus verbs are invalid" 200 (List.assoc "serve.requests.invalid" counters);
  check int_c "traced pings" 200 (List.assoc "serve.requests.ping" counters)

let test_daemon_needs_telemetry () =
  match
    Daemon.run ~telemetry:Wr_telemetry.Telemetry.disabled
      (Daemon.default_config (Daemon.Tcp 0))
  with
  | _ -> Alcotest.fail "a disabled context must be refused"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "request: ping round-trip" `Quick test_request_ping_roundtrip;
    Alcotest.test_case "request: analyze round-trip" `Quick test_request_analyze_roundtrip;
    Alcotest.test_case "request: wire defaults" `Quick test_request_defaults;
    Alcotest.test_case "request: replay/explain round-trip" `Quick
      test_request_replay_explain_roundtrip;
    Alcotest.test_case "request: validation errors" `Quick test_request_validation;
    Alcotest.test_case "response: round-trip" `Quick test_response_roundtrip;
    Alcotest.test_case "response: error taxonomy" `Quick test_error_codes;
    Alcotest.test_case "cache: key covers the whole config" `Quick test_cache_key;
    Alcotest.test_case "cache: LRU eviction" `Quick test_cache_lru;
    Alcotest.test_case "api: ping" `Quick test_dispatch_ping;
    Alcotest.test_case "api: analyze = report_to_json" `Quick
      test_dispatch_analyze_matches_report;
    Alcotest.test_case "api: explain range check" `Quick test_dispatch_explain_range;
    Alcotest.test_case "api: stats needs a daemon" `Quick test_dispatch_stats_default;
    Alcotest.test_case "daemon: end to end over TCP" `Quick test_daemon_end_to_end;
    Alcotest.test_case "daemon: overload backpressure" `Quick test_daemon_overload;
    Alcotest.test_case "daemon: graceful drain" `Quick test_daemon_drains_on_stop;
    Alcotest.test_case "trace: wire compatibility" `Quick test_trace_wire_compat;
    Alcotest.test_case "trace: dispatch echoes" `Quick test_dispatch_echoes_trace;
    Alcotest.test_case "daemon: trace + metrics end to end" `Quick
      test_daemon_trace_and_metrics;
  ]

(* --- watch streaming and the flight recorder --------------------------- *)

let fresh_tmp_dir =
  let n = ref 0 in
  fun tag ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "wr-%s-%d-%d" tag (Unix.getpid ()) !n)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let wait_for_file ?(timeout = 10.) pred dir =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let hit =
      match Sys.readdir dir with
      | names -> Array.find_opt pred names
      | exception Sys_error _ -> None
    in
    match hit with
    | Some name -> Filename.concat dir name
    | None ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "no matching file appeared in %s" dir
        else begin
          Unix.sleepf 0.02;
          go ()
        end
  in
  go ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* One watch subscription streams [count] metrics snapshots, each a
   normal [ok] response echoing the subscription's id and trace, with
   an incrementing [seq]; the connection then serves plain
   request/response traffic again. *)
let test_daemon_watch_stream () =
  let d, stop, addr = spawn_daemon () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      ignore (Domain.join d))
    (fun () ->
      let c = Client.connect ~retry_for:5. addr in
      Client.send c
        (Request.make ~trace:"t-watch" ~id:(Json.Int 9)
           (Request.watch ~interval_s:0.05 ~count:2 ()));
      let snap i =
        match Client.recv c with
        | Ok (Response.Ok { id; trace; result; _ }) ->
            check bool_c "subscription id echoed on every tick" true
              (id = Json.Int 9);
            check bool_c "trace echoed on every tick" true
              (trace = Some "t-watch");
            (match Json.member "seq" result with
            | Json.Int s -> check int_c "seq increments" i s
            | _ -> Alcotest.fail "snapshot lacks seq");
            List.iter
              (fun k ->
                match Json.member k result with
                | Json.Null -> Alcotest.failf "snapshot lacks %S" k
                | _ -> ())
              [ "requests_total"; "queue"; "cache"; "latency"; "fleet" ]
        | Ok (Response.Error { message; _ }) ->
            Alcotest.failf "watch tick errored: %s" message
        | Error e -> Alcotest.failf "watch transport failed: %s" e
      in
      snap 0;
      snap 1;
      (* The stream is exhausted; the connection is still a normal one. *)
      (match
         Client.request c (Request.make ?trace:(None) ~id:(Json.Int 10) (Request.Ping))
       with
      | Ok (Response.Ok _) -> ()
      | _ -> Alcotest.fail "connection unusable after watch stream ended");
      Client.close c)

(* One-shot dispatch refuses watch: it only makes sense on a daemon. *)
let test_dispatch_rejects_watch () =
  match
    Api.dispatch
      (Request.make ~id:(Json.Int 1) (Request.watch ~interval_s:1. ()))
  with
  | Response.Error { code = Response.Bad_request; _ } -> ()
  | _ -> Alcotest.fail "dispatch should reject watch with bad_request"

(* Killing a busy worker (via the fault-injection hook — domains cannot
   be killed from outside) must answer [internal] on the wire and dump a
   postmortem that names the in-flight request and its trace id. *)
let test_daemon_worker_crash_postmortem () =
  let dir = fresh_tmp_dir "pm-crash" in
  Unix.putenv "WEBRACER_FAULT_INJECT" "analyze";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "WEBRACER_FAULT_INJECT" "")
    (fun () ->
      let d, stop, addr = spawn_daemon ~postmortem_dir:dir () in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          ignore (Domain.join d))
        (fun () ->
          let c = Client.connect ~retry_for:5. addr in
          let params = Request.analyze_params ~page:"<p>boom</p>" () in
          (match
             Client.request c
               (Request.make ?trace:(Some "t-crash") ~id:(Json.Int 1) (Request.Analyze params))
           with
          | Ok (Response.Error { code = Response.Internal; trace; _ }) ->
              check bool_c "crash response keeps the trace" true
                (trace = Some "t-crash")
          | Ok _ -> Alcotest.fail "expected an internal error"
          | Error e -> Alcotest.failf "transport failed: %s" e);
          let pm =
            wait_for_file
              (fun n ->
                Astring.String.is_infix ~affix:"worker-crash" n
                && Filename.check_suffix n ".jsonl")
              dir
          in
          let body = read_file pm in
          check bool_c "header names the reason" true
            (Astring.String.is_infix ~affix:{|"postmortem":"worker-crash"|} body);
          check bool_c "crashed request listed in flight, with trace id" true
            (Astring.String.is_infix ~affix:{|"trace_id":"t-crash"|} body);
          check bool_c "ring events carried the trace" true
            (Astring.String.is_infix ~affix:"request.start" body);
          (* The twin Chrome trace of the same tail names the request. *)
          let trace =
            wait_for_file (fun n -> Filename.check_suffix n ".trace.json") dir
          in
          check bool_c "chrome trace names the crashed request" true
            (Astring.String.is_infix ~affix:"t-crash" (read_file trace));
          Client.close c))

(* The [dump] hook (the CLI wires SIGUSR2 to it) produces a postmortem
   from a healthy daemon. *)
let test_daemon_dump_hook_postmortem () =
  let dir = fresh_tmp_dir "pm-signal" in
  let want_dump = Atomic.make false in
  let d, stop, addr =
    spawn_daemon ~postmortem_dir:dir
      ~dump:(fun () -> Atomic.exchange want_dump false)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      ignore (Domain.join d))
    (fun () ->
      let c = Client.connect ~retry_for:5. addr in
      let _ = request_ok c (Request.make ?trace:(None) ~id:(Json.Int 1) (Request.Ping)) in
      Atomic.set want_dump true;
      (* Any traffic wakes the select loop, which polls the hook. *)
      let _ = request_ok c (Request.make ?trace:(None) ~id:(Json.Int 2) (Request.Ping)) in
      let pm =
        wait_for_file
          (fun n ->
            Astring.String.is_infix ~affix:"signal" n
            && Filename.check_suffix n ".jsonl")
          dir
      in
      check bool_c "signal postmortem header" true
        (Astring.String.is_infix ~affix:{|"postmortem":"signal"|} (read_file pm));
      Client.close c)

let suite =
  suite
  @ [
      Alcotest.test_case "daemon: watch streams snapshots" `Quick
        test_daemon_watch_stream;
      Alcotest.test_case "api: watch needs a daemon" `Quick
        test_dispatch_rejects_watch;
      Alcotest.test_case "daemon: worker crash postmortem" `Quick
        test_daemon_worker_crash_postmortem;
      Alcotest.test_case "daemon: dump hook postmortem" `Quick
        test_daemon_dump_hook_postmortem;
    ]

(* --- schema v2, HTTP and concurrent connections ------------------------- *)

module Http = Wr_serve.Http
module Schema = Wr_support.Schema

let test_schema_negotiation () =
  (* An untagged request speaks v1, the byte-stable default. *)
  let req = decode_ok {|{"id":1,"verb":"ping"}|} in
  check int_c "default generation" Schema.version req.Request.schema;
  let req = decode_ok {|{"schema_version":2,"id":1,"verb":"ping"}|} in
  check int_c "v2 negotiated" Schema.v2 req.Request.schema;
  (* Unknown generations are rejected up front, naming what we speak. *)
  let _, msg = decode_err {|{"schema_version":9,"id":1,"verb":"ping"}|} in
  check bool_c "unsupported version named" true (mentions "schema_version" msg);
  check bool_c "supported versions listed" true
    (mentions (Schema.supported_names ()) msg);
  (* The typed constructor enforces the same contract. *)
  match Request.make ~schema:9 ~id:(Json.Int 1) Request.Ping with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "make must reject an unsupported generation"

let test_response_v2_envelope () =
  let ok = Response.ok ~id:(Json.Int 1) (Json.Obj [ ("pong", Json.Bool true) ]) in
  let v1_line = Response.to_line ok in
  (* Stamping at v1 is a byte-level no-op: the pinned wire never moves. *)
  check string_c "v1 stamp is the identity" v1_line
    (Response.to_line (Response.stamp ~schema:Schema.version ok));
  check bool_c "v1 carries no shard" false (mentions "shard" v1_line);
  let v2_line = Response.to_line (Response.stamp ~schema:Schema.v2 ok) in
  (* One event loop: the v2 envelope always names loop 0. *)
  check bool_c "v2 names loop 0" true (mentions {|"shard":0,|} v2_line);
  check bool_c "v2 tags its generation" true
    (mentions {|"schema_version":2|} v2_line);
  (* v2 error objects carry the HTTP-parity status; v1 ones must not. *)
  let overload = Response.error ~id:Json.Null Response.Overload "busy" in
  check bool_c "v1 error has no http_status" false
    (mentions "http_status" (Response.to_line overload));
  check bool_c "v2 error carries http_status" true
    (mentions {|"http_status":429|}
       (Response.to_line (Response.stamp ~schema:Schema.v2 overload)));
  (* The taxonomy-to-status mapping is fixed. *)
  List.iter
    (fun (code, status) ->
      check int_c (Response.code_name code) status (Response.http_status code))
    [
      (Response.Bad_request, 400);
      (Response.Overload, 429);
      (Response.Timeout, 504);
      (Response.Internal, 500);
    ];
  (* And the v2 envelope round-trips through the client decoder. *)
  match Response.of_line v2_line with
  | Ok resp ->
      check int_c "decoded generation" Schema.v2 (Response.schema resp);
      check string_c "re-encodes byte-identically" v2_line (Response.to_line resp)
  | Error e -> Alcotest.failf "v2 decode failed: %s" e

let test_http_parser () =
  check bool_c "GET sniffs as http" true
    (Http.sniff "GET /v1/ping HTTP/1.1\r\n" = `Http);
  check bool_c "method prefix stays undecided" true (Http.sniff "PO" = `Undecided);
  check bool_c "json sniffs as line protocol" true (Http.sniff {|{"id":1}|} = `Line);
  let data = "GET /v1/ping HTTP/1.1\r\nHost: x\r\nX-Webracer-Trace: t1\r\n\r\n" in
  let parse ?max_body ?len s = Http.parse ?max_body ?len (Bytes.of_string s) ~pos:0 in
  (match parse data with
  | `Req (r, pos) ->
      check string_c "method" "GET" r.Http.meth;
      check string_c "path" "/v1/ping" r.Http.path;
      check bool_c "header names lowercased" true
        (Http.header "x-webracer-trace" r = Some "t1");
      check int_c "whole request consumed" (String.length data) pos
  | _ -> Alcotest.fail "well-formed GET must parse");
  (* Bytes past [len] are not yet received: the head is incomplete. *)
  (match parse ~len:(String.length data - 1) data with
  | `More -> ()
  | _ -> Alcotest.fail "parsing must stop at len");
  (match parse "POST /v1/analyze HTTP/1.1\r\nContent-Length: 5\r\n\r\n12" with
  | `More -> ()
  | _ -> Alcotest.fail "a short body must wait for more bytes");
  (match parse "NONSENSE\r\n\r\n" with
  | `Bad _ -> ()
  | _ -> Alcotest.fail "garbage must be a protocol error");
  (* Declared bodies above the cap are refused, not buffered. *)
  match parse ~max_body:10 "POST /v1/analyze HTTP/1.1\r\nContent-Length: 11\r\n\r\n" with
  | `Bad _ -> ()
  | _ -> Alcotest.fail "oversized Content-Length must be refused"

let test_http_route () =
  let req ?(headers = []) meth path body = { Http.meth; path; headers; body } in
  (match Http.route (req "GET" "/v1/ping" "") with
  | Ok j ->
      check bool_c "ping routes to the ping verb" true
        (Json.member "verb" j = Json.String "ping")
  | Error _ -> Alcotest.fail "GET /v1/ping must route");
  (* A POST body is the verb's params object; the wire document that
     comes out is exactly what the line protocol would decode. *)
  (match Http.route (req "POST" "/v1/analyze" {|{"page":"<p>x</p>"}|}) with
  | Ok j -> (
      check bool_c "analyze verb from the path" true
        (Json.member "verb" j = Json.String "analyze");
      match Request.of_json j with
      | Ok { Request.verb = Request.Analyze p; _ } ->
          (* The daemon bumps routed requests to v2 after decoding;
             route itself stays a pure wire-document translation. *)
          check string_c "params decoded" "<p>x</p>" p.Request.page
      | _ -> Alcotest.fail "routed document must decode as analyze")
  | Error _ -> Alcotest.fail "POST /v1/analyze must route");
  (* Trace header seeds the trace id when the body carries none. *)
  (match
     Http.route
       (req ~headers:[ ("x-webracer-trace", "t-h") ] "POST" "/v1/analyze"
          {|{"page":"<p>x</p>"}|})
   with
  | Ok j -> check bool_c "trace from header" true (Json.member "trace" j = Json.String "t-h")
  | Error _ -> Alcotest.fail "traced analyze must route");
  (match Http.route (req "GET" "/v1/nope" "") with
  | Error (404, _) -> ()
  | _ -> Alcotest.fail "unknown path is 404");
  (match Http.route (req "POST" "/v1/ping" "") with
  | Error (405, _) -> ()
  | _ -> Alcotest.fail "method mismatch is 405");
  match Http.route (req "POST" "/v1/analyze" "{") with
  | Error (400, _) -> ()
  | _ -> Alcotest.fail "unusable body is 400"

(* Both protocols on one live daemon: HTTP round trips speak v2 and map
   the taxonomy onto status codes; a raw connection to the same listener
   still speaks byte-stable v1. *)
let test_daemon_http_surface () =
  let d, stop, addr = spawn_daemon ~queue_cap:8 () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      ignore (Domain.join d))
    (fun () ->
      let c = Client.connect ~retry_for:5. addr in
      (match Client.http_request c ~meth:"GET" ~path:"/v1/ping" () with
      | Ok (200, body) -> (
          match Response.of_line body with
          | Ok (Response.Ok { schema; result; _ }) ->
              check int_c "http answers v2" Schema.v2 schema;
              check bool_c "pong" true (Json.member "pong" result = Json.Bool true)
          | _ -> Alcotest.fail "http ping body must be a v2 ok")
      | Ok (s, _) -> Alcotest.failf "http ping answered %d" s
      | Error e -> Alcotest.failf "http transport failed: %s" e);
      (* POST analyze agrees with the in-process pipeline. *)
      let params = Request.analyze_params ~page:{|<script>var x = 1;</script>|} () in
      let body = Json.to_string (Request.analyze_params_to_json params) in
      (match Client.http_request c ~meth:"POST" ~path:"/v1/analyze" ~body () with
      | Ok (200, b) -> (
          match Response.of_line b with
          | Ok (Response.Ok { result; _ }) ->
              let direct = Webracer.report_to_json (Api.analyze params) in
              check bool_c "ops match one-shot run" true
                (Json.member "ops" result = Json.member "ops" direct)
          | _ -> Alcotest.fail "http analyze body must be an ok")
      | Ok (s, _) -> Alcotest.failf "http analyze answered %d" s
      | Error e -> Alcotest.failf "http transport failed: %s" e);
      (* Routing errors surface as HTTP statuses with v2 error bodies. *)
      (match Client.http_request c ~meth:"GET" ~path:"/v1/nope" () with
      | Ok (404, b) ->
          check bool_c "404 body is a v2 error" true (mentions {|"ok":false|} b)
      | Ok (s, _) -> Alcotest.failf "unknown path answered %d" s
      | Error e -> Alcotest.failf "http transport failed: %s" e);
      (match Client.http_request c ~meth:"POST" ~path:"/v1/analyze" ~body:"{" () with
      | Ok (400, _) -> ()
      | Ok (s, _) -> Alcotest.failf "bad body answered %d" s
      | Error e -> Alcotest.failf "http transport failed: %s" e);
      (* The connection survives error responses; keep-alive holds. *)
      (match Client.http_request c ~meth:"GET" ~path:"/v1/stats" () with
      | Ok (200, b) ->
          check bool_c "stats reports the cache" true (mentions {|"cache"|} b)
      | _ -> Alcotest.fail "stats after errors must still answer");
      Client.close c;
      (* A raw connection to the same listener still speaks v1. *)
      let raw = Client.connect ~retry_for:5. addr in
      Client.send raw (Request.make ~id:(Json.Int 7) Request.Ping);
      (match Client.recv_line raw with
      | Some line ->
          check bool_c "raw default stays v1" true
            (mentions {|"schema_version":1,|} line);
          check bool_c "raw v1 has no shard" false (mentions "shard" line)
      | None -> Alcotest.fail "raw ping beside http");
      Client.close raw)

(* Backpressure maps onto 429 on the HTTP surface: with a zero-capacity
   queue every job verb sheds immediately and deterministically. *)
let test_daemon_http_overload () =
  let d, stop, addr = spawn_daemon ~queue_cap:0 () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      ignore (Domain.join d))
    (fun () ->
      let c = Client.connect ~retry_for:5. addr in
      let body =
        Json.to_string
          (Request.analyze_params_to_json (Request.analyze_params ~page:"<p>x</p>" ()))
      in
      (match Client.http_request c ~meth:"POST" ~path:"/v1/analyze" ~body () with
      | Ok (429, b) ->
          check bool_c "429 body names overload" true (mentions {|"overload"|} b);
          check bool_c "429 body carries http_status" true
            (mentions {|"http_status":429|} b)
      | Ok (s, _) -> Alcotest.failf "overloaded analyze answered %d" s
      | Error e -> Alcotest.failf "http transport failed: %s" e);
      (* Inline verbs bypass the queue: ping still answers 200. *)
      (match Client.http_request c ~meth:"GET" ~path:"/v1/ping" () with
      | Ok (200, _) -> ()
      | _ -> Alcotest.fail "ping must bypass the queue");
      Client.close c)

(* Eight connections open at once on one Unix socket, requests
   interleaved across them: the one event loop answers every
   connection, the v2 envelope names loop 0, and the cache makes the
   analyze results byte-identical wherever they ran. *)
let test_daemon_many_connections () =
  let dir = fresh_tmp_dir "conns" in
  let d, stop, addr =
    spawn_daemon ~queue_cap:16
      ~address:(Daemon.Unix_socket (Filename.concat dir "d.sock"))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      ignore (Domain.join d))
    (fun () ->
      let params =
        Request.analyze_params ~page:{|<script>var x = 1;</script>|} ~seed:5 ()
      in
      let baseline = ref None in
      let conns = List.init 8 (fun _ -> Client.connect ~retry_for:5. addr) in
      (* The first request runs the analysis; the other seven, each on
         its own connection and all sent before any is read, hit the
         cache. *)
      let send i c =
        Client.send c
          (Request.make ~schema:Schema.v2 ~id:(Json.Int i) (Request.analyze params))
      in
      let recv i c =
        match Client.recv_line c with
        | Some line -> (
            check bool_c "v2 envelope names loop 0" true (mentions {|"shard":0,|} line);
            match Response.of_line line with
            | Ok (Response.Ok { id; result; _ }) ->
                check bool_c "id echoed on its own connection" true (id = Json.Int i);
                let body = Json.to_string result in
                (match !baseline with
                | None -> baseline := Some body
                | Some b -> check string_c "byte-identical on every connection" b body)
            | _ -> Alcotest.fail "expected an ok")
        | None -> Alcotest.fail "connection closed without an answer"
      in
      send 0 (List.hd conns);
      recv 0 (List.hd conns);
      List.iteri (fun i c -> if i > 0 then send i c) conns;
      List.iteri (fun i c -> if i > 0 then recv i c) conns;
      List.iter Client.close conns;
      let c = Client.connect ~retry_for:5. addr in
      let stats = request_ok c (Request.make ~id:Json.Null Request.Stats) in
      (match Json.member "cache" stats with
      | Json.Obj cache ->
          check bool_c "seven cache hits" true
            (List.assoc_opt "hits" cache = Some (Json.Int 7))
      | _ -> Alcotest.fail "stats lacks cache");
      Client.close c)

(* --- one result's bytes, from worker to socket ------------------------- *)

(* A client that reads a few hundred bytes at a time: a multi-MB
   response then arrives in thousands of slices, and the daemon meets a
   full socket buffer in the middle of a chunk many times over. *)
type sliced = { sfd : Unix.file_descr; mutable rest : string }

let slice_bytes = 997

let read_slice r =
  let b = Bytes.create slice_bytes in
  match Unix.read r.sfd b 0 slice_bytes with
  | 0 -> Alcotest.fail "the daemon closed the connection"
  | n -> Bytes.sub_string b 0 n

(* The bytes up to a cut that [find chunk taken] picks in the next
   chunk, dropping [skip] bytes after it; the rest waits for the next
   call. *)
let take r find =
  let acc = Buffer.create 4096 in
  let rec go chunk =
    match find chunk (Buffer.length acc) with
    | Some (cut, skip) ->
        Buffer.add_string acc (String.sub chunk 0 cut);
        r.rest <- String.sub chunk (cut + skip) (String.length chunk - cut - skip);
        Buffer.contents acc
    | None ->
        Buffer.add_string acc chunk;
        go (read_slice r)
  in
  let first = r.rest in
  r.rest <- "";
  go first

let sliced_line r =
  take r (fun chunk _ -> Option.map (fun i -> (i, 1)) (String.index_opt chunk '\n'))

let sliced_exact r n =
  take r (fun chunk taken ->
      if taken + String.length chunk >= n then Some (n - taken, 0) else None)

(* One HTTP response: the status, then Content-Length body bytes. *)
let sliced_http r =
  let status =
    match String.split_on_char ' ' (sliced_line r) with
    | _ :: code :: _ -> int_of_string code
    | _ -> Alcotest.fail "malformed status line"
  in
  let rec headers len =
    match String.trim (sliced_line r) with
    | "" -> len
    | h -> (
        match String.index_opt h ':' with
        | Some i when String.lowercase_ascii (String.sub h 0 i) = "content-length" ->
            headers
              (int_of_string (String.trim (String.sub h (i + 1) (String.length h - i - 1))))
        | _ -> headers len)
  in
  let len = headers 0 in
  (status, sliced_exact r len)

let rec write_all fd s ofs =
  if ofs < String.length s then
    write_all fd s (ofs + Unix.write_substring fd s ofs (String.length s - ofs))

(* A lost answer fails the read after 30 s rather than hanging the suite. *)
let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
  fd

(* [wall_clock_s] is the one field two runs of the same analysis
   disagree on; pin it so a daemon answer compares with a one-shot
   dispatch byte for byte. *)
let mask_wall_clock line =
  let key = {|"wall_clock_s":|} in
  let n = String.length line and k = String.length key in
  let is_num c = match c with '0' .. '9' | '.' | 'e' | 'E' | '-' | '+' -> true | _ -> false in
  let b = Buffer.create n in
  let rec go i j =
    if j + k > n then Buffer.add_substring b line i (n - i)
    else if line.[j] = '"' && String.sub line j k = key then begin
      Buffer.add_substring b line i (j + k - i);
      Buffer.add_char b '0';
      let e = ref (j + k) in
      while !e < n && is_num line.[!e] do incr e done;
      go !e !e
    end
    else go i (j + 1)
  in
  go 0 0;
  Buffer.contents b

(* The largest corpus report (Company57, about 3.4 MB encoded), asked
   as a miss and then as hits under v1, v2 and with a trace id, on the
   line protocol and on HTTP: every answer is the bytes a one-shot
   dispatch would print, and a hit replays the miss's bytes exactly. *)
let test_daemon_large_report_bytes () =
  let profile =
    List.find
      (fun p -> p.Wr_sitegen.Profile.name = "Company57")
      (Wr_sitegen.Profile.corpus ())
  in
  let site = Wr_sitegen.Gen.generate profile in
  let params =
    Request.analyze_params ~page:site.Wr_sitegen.Gen.page
      ~resources:site.Wr_sitegen.Gen.resources ()
  in
  let v1 = Request.make ~id:(Json.Int 1) (Request.analyze params) in
  let v2 = Request.make ~schema:Schema.v2 ~id:(Json.Int 2) (Request.analyze params) in
  let traced =
    Request.make ~schema:Schema.v2 ~trace:"big-report" ~id:(Json.String "t")
      (Request.analyze params)
  in
  let expect what (req : Request.t) line =
    check string_c what
      (mask_wall_clock (Response.to_line (Api.dispatch req)))
      (mask_wall_clock line)
  in
  let with_daemon name f =
    let dir = fresh_tmp_dir name in
    let path = Filename.concat dir "d.sock" in
    let d, stop, _ = spawn_daemon ~address:(Daemon.Unix_socket path) () in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        ignore (Domain.join d))
      (fun () ->
        let fd = connect_unix path in
        Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f { sfd = fd; rest = "" }))
  in
  with_daemon "big-line" (fun r ->
      let ask req =
        write_all r.sfd (Request.to_line req ^ "\n") 0;
        sliced_line r
      in
      let miss = ask v1 in
      check bool_c "a multi-MB report" true (String.length miss > 3_000_000);
      expect "line v1 miss = dispatch" v1 miss;
      check string_c "line v1 hit replays the miss" miss (ask v1);
      expect "line v2 hit = dispatch" v2 (ask v2);
      expect "line traced hit = dispatch" traced (ask traced));
  with_daemon "big-http" (fun r ->
      let post (req : Request.t) =
        let body = Request.to_line req in
        write_all r.sfd
          (Printf.sprintf "POST /v1/analyze HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
             (String.length body) body)
          0;
        match sliced_http r with
        | 200, b -> b
        | s, _ -> Alcotest.failf "http analyze answered %d" s
      in
      let miss = post v2 in
      expect "http miss = dispatch" v2 miss;
      check string_c "http hit replays the miss" miss (post v2);
      expect "http traced hit = dispatch" traced (post traced))

(* A multi-MB analyze line written 4 KB at a time is one request: the
   daemon answers it exactly once and the connection carries on. *)
let test_daemon_line_in_pieces () =
  let dir = fresh_tmp_dir "pieces" in
  let path = Filename.concat dir "d.sock" in
  let d, stop, _ = spawn_daemon ~address:(Daemon.Unix_socket path) () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      ignore (Domain.join d))
    (fun () ->
      let bulk = "/*" ^ String.make (3 * 1024 * 1024) 'x' ^ "*/" in
      let params =
        Request.analyze_params ~page:{|<script>var x = 1;</script>|}
          ~resources:[ ("unused.js", bulk) ] ()
      in
      let line = Request.to_line (Request.make ~id:(Json.Int 1) (Request.analyze params)) in
      let fd = connect_unix path in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let r = { sfd = fd; rest = "" } in
          let piece = 4096 in
          let wire = line ^ "\n" in
          let rec send ofs =
            if ofs < String.length wire then begin
              let n = min piece (String.length wire - ofs) in
              write_all fd (String.sub wire ofs n) 0;
              send (ofs + n)
            end
          in
          send 0;
          (match Response.of_line (sliced_line r) with
          | Ok (Response.Ok { id; _ }) ->
              check bool_c "the big request answered" true (id = Json.Int 1)
          | Ok (Response.Error { message; _ }) ->
              Alcotest.failf "big request failed: %s" message
          | Error e -> Alcotest.failf "undecodable answer: %s" e);
          (* Nothing else was queued for the big line: the next answer
             is the ping's. *)
          write_all fd (Request.to_line (Request.make ~id:(Json.Int 2) Request.Ping) ^ "\n") 0;
          match Response.of_line (sliced_line r) with
          | Ok (Response.Ok { id; _ }) ->
              check bool_c "exactly one response" true (id = Json.Int 2)
          | _ -> Alcotest.fail "ping after the big request"))

(* A response leaves in several writes (the line and its terminator; the
   HTTP head and body). Over TCP the kernel would hold each trailing
   write until the client's delayed ACK, about 40 ms a request on Linux,
   unless the daemon sets TCP_NODELAY. A fresh connection ACKs at once
   for its first dozen or so segments, so it takes a few dozen round
   trips to show: eighty take over a second with the stall, and tens of
   milliseconds without it. *)
let test_daemon_tcp_no_write_stall () =
  let d, stop, addr = spawn_daemon () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      ignore (Domain.join d))
    (fun () ->
      let line = Client.connect ~retry_for:5. addr in
      let http = Client.connect ~retry_for:5. addr in
      let t0 = Unix.gettimeofday () in
      for i = 1 to 40 do
        ignore (request_ok line (Request.make ~id:(Json.Int i) Request.Ping));
        match Client.http_request http ~meth:"GET" ~path:"/v1/ping" () with
        | Ok (200, _) -> ()
        | _ -> Alcotest.fail "http ping"
      done;
      let elapsed = Unix.gettimeofday () -. t0 in
      Client.close line;
      Client.close http;
      if elapsed > 0.5 then
        Alcotest.failf "80 TCP round trips took %.3f s: writes are stalling" elapsed)

let suite =
  suite
  @ [
      Alcotest.test_case "schema: v2 negotiation" `Quick test_schema_negotiation;
      Alcotest.test_case "response: v2 envelope + status map" `Quick
        test_response_v2_envelope;
      Alcotest.test_case "http: parser + sniffing" `Quick test_http_parser;
      Alcotest.test_case "http: routing table" `Quick test_http_route;
      Alcotest.test_case "daemon: http surface end to end" `Quick
        test_daemon_http_surface;
      Alcotest.test_case "daemon: http overload is 429" `Quick
        test_daemon_http_overload;
      Alcotest.test_case "daemon: many conns, one loop" `Quick
        test_daemon_many_connections;
      Alcotest.test_case "daemon: large report bytes, line + http" `Quick
        test_daemon_large_report_bytes;
      Alcotest.test_case "daemon: request line in 4 KB pieces" `Quick
        test_daemon_line_in_pieces;
      Alcotest.test_case "daemon: no TCP write stall" `Quick
        test_daemon_tcp_no_write_stall;
    ]

(* A non-finite horizon never ends the event loop: the wire decoder
   answers it as a bad request and the typed builder refuses it too. *)
let test_request_time_limit_finite () =
  let _, msg =
    decode_err {|{"verb":"analyze","params":{"page":"x","time_limit":1e999}}|}
  in
  check bool_c "infinite time_limit named" true (mentions "time_limit" msg);
  (match Request.of_line {|{"verb":"analyze","params":{"page":"x","time_limit":2.5}}|} with
  | Ok _ -> ()
  | Error (_, msg) -> Alcotest.failf "finite time_limit rejected: %s" msg);
  List.iter
    (fun time_limit ->
      match Request.analyze_params ~page:"x" ~time_limit () with
      | _ -> Alcotest.failf "builder accepted time_limit %h" time_limit
      | exception Invalid_argument msg ->
          check bool_c "builder names time_limit" true (mentions "time_limit" msg))
    [ Float.nan; Float.infinity; Float.neg_infinity; 0.; -1. ];
  check bool_c "valid_time_limit" true
    (Request.valid_time_limit 1.
    && not (List.exists Request.valid_time_limit [ Float.nan; Float.infinity; 0. ]))

let suite =
  suite
  @ [
      Alcotest.test_case "request: time_limit must be finite" `Quick
        test_request_time_limit_finite;
    ]

(* The wire offers the paper's two HB engines; any other [hb] name is a
   bad request whose message lists the accepted ones, and the
   connection survives it. *)
let test_request_hb_names () =
  let d, stop, addr = spawn_daemon () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      ignore (Domain.join d))
    (fun () ->
      let c = Client.connect ~retry_for:5. addr in
      let line hb =
        Printf.sprintf
          {|{"id":3,"verb":"analyze","params":{"page":"<script>var x = 1;</script>","hb":%S}}|}
          hb
      in
      Client.send_line c (line "closure");
      (match Client.recv c with
      | Ok (Response.Error { code = Response.Bad_request; message; _ }) ->
          check string_c "accepted names" {|"hb" must be one of "chain-vc", "dfs"|} message
      | _ -> Alcotest.fail "hb closure must answer bad_request");
      List.iter
        (fun hb ->
          Client.send_line c (line hb);
          match Client.recv c with
          | Ok (Response.Ok _) -> ()
          | _ -> Alcotest.failf "hb %s must analyze" hb)
        [ "chain-vc"; "dfs" ];
      Client.close c)

let suite =
  suite
  @ [ Alcotest.test_case "request: hb names the two engines" `Quick test_request_hb_names ]

(* --- the wire parsers are total ---------------------------------------- *)

(* Neither wire parser may raise, whatever bytes arrive: random bytes,
   and valid requests with a few bytes replaced, inserted or deleted.
   The generator leans on the characters that steer each grammar. *)
let wire_char =
  QCheck.Gen.(
    frequency
      [
        (1, char);
        ( 2,
          oneofl
            [ '"'; '\\'; '{'; '}'; '['; ']'; ':'; ','; '0'; '9'; '-'; '+'; '.'; 'e'; 'u';
              'x'; ' '; '\r'; '\n' ] );
      ])

let mutated seeds =
  QCheck.Gen.(
    let edit s =
      map3
        (fun op i c ->
          let n = String.length s in
          let i = if n = 0 then 0 else i mod (n + 1) in
          match op with
          | 0 when i < n -> String.mapi (fun j d -> if j = i then c else d) s
          | 1 when i < n -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
          | _ -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i))
        (int_bound 2) nat wire_char
    in
    let rec edits k s = if k = 0 then return s else edit s >>= edits (k - 1) in
    oneofl seeds >>= fun s -> int_range 1 6 >>= fun k -> edits k s)

let random_bytes = QCheck.Gen.(string_size ~gen:wire_char (int_bound 160))

let wire_input seeds =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(frequency [ (1, random_bytes); (3, mutated seeds) ])

let valid_lines =
  [
    {|{"schema_version":2,"id":1,"verb":"ping"}|};
    {|{"id":"a","trace":"t1","verb":"analyze","params":{"page":"<div id=\"x\">x</div>","seed":3,"resources":{"a.js":"x = 1;"},"detector":"full","hb":"dfs","time_limit":1.5,"dedup":false}}|};
    {|{"id":3,"verb":"explain","params":{"page":"\u003cp\u003e\u00e9\n","race":2}}|};
    {|{"verb":"watch","params":{"interval_s":0.5,"count":2}}|};
    {|{"verb":"replay","params":{"page":"x","schedules":3,"parse_delay":1e0,"jobs":1}}|};
    {|{"verb":"triage","params":{"page":"","budget":4,"jobs":-2}}|};
    {|[{"verb":"predict","params":{"page":"y","compare":true,"lint":true}}]|};
  ]

let valid_http =
  [
    "GET /v1/ping HTTP/1.1\r\nHost: x\r\n\r\n";
    "POST /v1/analyze?x=1 HTTP/1.1\r\nContent-Length: 18\r\nX-Webracer-Trace: t\r\n\r\n\
     {\"page\":\"<p></p>\"}";
    "POST /v1/predict HTTP/1.1\r\ncontent-length: 30\r\n\r\n\
     {\"id\":1,\"params\":{\"page\":\"\"}}GET /v1/stats HTTP/1.1\r\n\r\n";
    "PUT /nowhere HTTP/1.0\r\nContent-Length:  0 \r\n\r\n";
  ]

let prop_of_line_total =
  QCheck.Test.make ~name:"request: of_line is total on random and mutated lines" ~count:2000
    (wire_input valid_lines) (fun s ->
      match Request.of_line s with Ok _ | Error _ -> true)

(* Besides not raising, a parsed request consumes a prefix of the given
   window, and routing it and decoding the routed document are total
   too. The window is a random [pos, len) slice of the buffer, and a
   small [max_body] exercises the body bound. *)
let prop_http_parse_total =
  let gen =
    QCheck.Gen.(
      quad (QCheck.gen (wire_input valid_http)) nat nat (oneofl [ None; Some 8; Some 64 ]))
  in
  QCheck.Test.make ~name:"http: parse is total and stays in its window" ~count:2000
    (QCheck.make
       ~print:(fun (s, a, b, mb) ->
         Printf.sprintf "%S a=%d b=%d max_body=%s" s a b
           (match mb with None -> "default" | Some m -> string_of_int m))
       gen)
    (fun (s, a, b, max_body) ->
      let n = String.length s in
      let pos = if a mod 4 = 0 then 0 else a mod (n + 1) in
      let len = if b mod 2 = 0 then n else pos + (b mod (n - pos + 1)) in
      match Http.parse ?max_body ~len (Bytes.of_string s) ~pos with
      | `Req (r, pos') ->
          (match Http.route r with
          | Ok doc -> ignore (Request.of_json doc)
          | Error _ -> ());
          pos < pos' && pos' <= len
      | `More | `Bad _ -> true)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_of_line_total;
      QCheck_alcotest.to_alcotest prop_http_parse_total;
      Alcotest.test_case "daemon: documents read one registry" `Quick
        test_daemon_documents_agree;
      Alcotest.test_case "daemon: registry names are fixed" `Quick
        test_daemon_registry_bounded;
      Alcotest.test_case "daemon: refuses disabled telemetry" `Quick
        test_daemon_needs_telemetry;
    ]
