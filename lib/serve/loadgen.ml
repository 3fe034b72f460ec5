module Json = Wr_support.Json
module Histo = Wr_support.Stats.Histo
module Clock = Wr_support.Clock

type surface = Raw | Http

type config = {
  address : Daemon.address;
  conns : int;
  pipeline : int;
  duration : float;
  verb : Request.verb;
  surface : surface;
  schema : int;
}

type result = {
  duration_s : float;
  conns_run : int;
  pipeline_run : int;
  sent : int;
  received : int;
  throughput_rps : float;
  classes : (string * int) list;  (** response outcome -> count, sorted *)
  latency : Histo.t;  (** per-request round trip, seconds *)
}

let outcome = function
  | Response.Ok _ -> "ok"
  | Response.Error { code; _ } -> Response.code_name code

(* What one client thread brings home. *)
type tally = {
  mutable t_sent : int;
  mutable t_received : int;
  t_classes : (string, int) Hashtbl.t;
  t_lat : Histo.t;
}

let bump tally cls =
  tally.t_received <- tally.t_received + 1;
  Hashtbl.replace tally.t_classes cls
    (1 + Option.value ~default:0 (Hashtbl.find_opt tally.t_classes cls))

let classify_body tally ~status body ~t_send =
  Histo.add tally.t_lat (Clock.now () -. t_send);
  match Response.of_line body with
  | Ok resp -> bump tally (outcome resp)
  | Error _ -> bump tally (Printf.sprintf "http_%d" status)

(* One connection's raw-protocol loop: keep [pipeline] requests
   outstanding until the deadline, matching responses back to their
   send timestamps by id (async completions may overtake inline
   answers, so arrival order proves nothing). *)
let run_raw cfg tally deadline client =
  let line_of seq =
    Request.to_line
      (Request.make ~schema:cfg.schema ~id:(Json.Int seq) cfg.verb)
  in
  let in_flight = Hashtbl.create 16 in
  let seq = ref 0 in
  let recv_one () =
    match Client.recv client with
    | Error _ ->
        (* connection gone: abandon whatever was outstanding *)
        Hashtbl.reset in_flight;
        false
    | Ok resp ->
        (match Response.id resp with
        | Json.Int n -> (
            match Hashtbl.find_opt in_flight n with
            | Some t_send ->
                Hashtbl.remove in_flight n;
                Histo.add tally.t_lat (Clock.now () -. t_send)
            | None -> ())
        | _ -> ());
        bump tally (outcome resp);
        true
  in
  (try
     while Clock.now () < deadline do
       while Hashtbl.length in_flight < cfg.pipeline && Clock.now () < deadline do
         let n = !seq in
         incr seq;
         Hashtbl.replace in_flight n (Clock.now ());
         Client.send_line client (line_of n);
         tally.t_sent <- tally.t_sent + 1
       done;
       if Hashtbl.length in_flight > 0 then ignore (recv_one ())
     done;
     (* Drain what is still outstanding, but never hang on a wedged
        server: a 5 s receive timeout bounds the tail. *)
     Client.set_recv_timeout client 5.;
     while Hashtbl.length in_flight > 0 && recv_one () do
       ()
     done
   with Unix.Unix_error _ | Sys_error _ -> ())

(* The HTTP loop is sequential by construction (one request, one
   response per round trip — the daemon serializes per-connection
   anyway), so [pipeline] does not apply. *)
let run_http cfg tally deadline client =
  let meth = Request.http_method cfg.verb in
  let path =
    match Request.http_path cfg.verb with
    | Some p -> p
    | None -> invalid_arg "verb has no HTTP endpoint"
  in
  let body =
    match Request.http_body cfg.verb with
    | Some j -> Json.to_string j
    | None -> ""
  in
  (try
     while Clock.now () < deadline do
       let t_send = Clock.now () in
       tally.t_sent <- tally.t_sent + 1;
       match Client.http_request client ~meth ~path ~body () with
       | Ok (status, resp_body) -> classify_body tally ~status resp_body ~t_send
       | Error _ -> raise Exit
     done
   with Exit | Unix.Unix_error _ | Sys_error _ -> ())

let run cfg =
  let conns = max 1 cfg.conns in
  let pipeline = max 1 cfg.pipeline in
  let cfg = { cfg with conns; pipeline } in
  let tallies =
    Array.init conns (fun _ ->
        {
          t_sent = 0;
          t_received = 0;
          t_classes = Hashtbl.create 8;
          t_lat = Histo.create ();
        })
  in
  (* Barrier: every thread connects first, then all start blasting at
     the same instant — the measured window contains only load, not
     connection setup. *)
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let ready = ref 0 in
  let released = ref false in
  let deadline = ref 0. in
  let worker i =
    match Client.connect ~retry_for:5. cfg.address with
    | exception (Unix.Unix_error _ | Sys_error _) ->
        Mutex.lock lock;
        incr ready;
        Condition.broadcast cond;
        Mutex.unlock lock
    | client ->
        Mutex.lock lock;
        incr ready;
        Condition.broadcast cond;
        while not !released do
          Condition.wait cond lock
        done;
        let stop_at = !deadline in
        Mutex.unlock lock;
        (match cfg.surface with
        | Raw -> run_raw cfg tallies.(i) stop_at client
        | Http -> run_http cfg tallies.(i) stop_at client);
        Client.close client
  in
  let threads = Array.init conns (fun i -> Thread.create worker i) in
  Mutex.lock lock;
  while !ready < conns do
    Condition.wait cond lock
  done;
  let t0 = Clock.now () in
  deadline := t0 +. cfg.duration;
  released := true;
  Condition.broadcast cond;
  Mutex.unlock lock;
  Array.iter Thread.join threads;
  let elapsed = Clock.now () -. t0 in
  let latency = Histo.create () in
  let classes = Hashtbl.create 8 in
  let sent = ref 0 and received = ref 0 in
  Array.iter
    (fun t ->
      sent := !sent + t.t_sent;
      received := !received + t.t_received;
      Histo.merge_into ~into:latency t.t_lat;
      Hashtbl.iter
        (fun cls n ->
          Hashtbl.replace classes cls
            (n + Option.value ~default:0 (Hashtbl.find_opt classes cls)))
        t.t_classes)
    tallies;
  {
    duration_s = elapsed;
    conns_run = conns;
    pipeline_run = (match cfg.surface with Raw -> pipeline | Http -> 1);
    sent = !sent;
    received = !received;
    throughput_rps =
      (if elapsed > 0. then float_of_int !received /. elapsed else 0.);
    classes =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) classes []
      |> List.sort compare;
    latency;
  }

let to_json r =
  Json.Obj
    [
      ("duration_s", Json.Float r.duration_s);
      ("conns", Json.Int r.conns_run);
      ("pipeline", Json.Int r.pipeline_run);
      ("sent", Json.Int r.sent);
      ("received", Json.Int r.received);
      ("throughput_rps", Json.Float r.throughput_rps);
      ("latency", Histo.summary_json r.latency);
      ( "classes",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.classes) );
    ]
