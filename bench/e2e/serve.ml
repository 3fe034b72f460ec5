(* The daemon under test and the single load process that drives it.

   One thread multiplexes every connection with [select]: it sends each
   request when due (open loop) or when an earlier one returns (closed
   loop), and reads only the leading "id"/"ok" fields of each response
   while a window runs. Bodies reach megabytes; the first ok body of
   each distinct request is kept and parsed after the window. *)

module Json = Wr_support.Json
module Request = Wr_serve.Request
module Rng = Wr_support.Rng
module Profile = Wr_sitegen.Profile

let now = Wr_support.Clock.now

(* --- requests ---------------------------------------------------------- *)

type template = {
  prefix : string;  (** wire line up to the request id *)
  suffix : string;  (** the rest of the line, newline included *)
  label : string;
  check : Json.t -> string option;  (** on the response's "result" *)
}

let find_sub s sub ~from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go from

(* Each request is encoded once; sending splices a fresh id in. *)
let template ~label ~check verb =
  let line = Request.to_line (Request.make ~id:(Json.Int 0) verb) in
  match find_sub line "\"id\":0," ~from:0 with
  | Some i ->
      {
        prefix = String.sub line 0 (i + 5);
        suffix = String.sub line (i + 6) (String.length line - i - 6) ^ "\n";
        label;
        check;
      }
  | None -> invalid_arg "Serve.template: unexpected request encoding"

let params (p : Inputs.page) ~seed =
  Request.analyze_params ~page:p.Inputs.html ~resources:p.Inputs.resources ~seed ()

let analyze_template (p : Inputs.page) ~seed =
  template ~label:("analyze " ^ p.Inputs.name)
    ~check:(fun j -> p.Inputs.check (Inputs.observe_json j))
    (Request.analyze (params p ~seed))

(* Every planted race type must have at least one prediction: the
   predictor's recall over the corpus is total. *)
let predict_template (p : Inputs.page) ~profile ~seed =
  let planted = Profile.expected_raw profile in
  template ~label:("predict " ^ p.Inputs.name)
    ~check:(fun j ->
      let summary = Json.member "summary" j in
      let predicted k = Json.to_int (Json.member k summary) in
      let missing =
        List.filter
          (fun (k, n) -> n > 0 && predicted k = 0)
          [
            ("html", planted.Profile.html);
            ("function", planted.Profile.func);
            ("variable", planted.Profile.var);
            ("dispatch", planted.Profile.disp);
          ]
      in
      if missing = [] then None
      else
        Some
          (Printf.sprintf "predict %s: no %s prediction for planted races" p.Inputs.name
             (String.concat "/" (List.map fst missing))))
    (Request.predict (params p ~seed))

let triage_items j =
  List.map
    (fun item ->
      ( Json.to_str (Json.member "classification" item),
        match item with
        | Json.Obj fields -> (
            match List.assoc_opt "schedule" fields with Some (Json.String s) -> s | _ -> "")
        | _ -> "" ))
    (Json.to_list (Json.member "items" j))

let sound j = Json.member "sound" j = Json.Bool true

let triage_template (p : Inputs.page) ~budget ~seed =
  template ~label:("triage " ^ p.Inputs.name)
    ~check:(fun j ->
      if sound j then None
      else Some (Printf.sprintf "triage %s: a dynamic race outside the predictions" p.Inputs.name))
    (Request.triage ~budget (params p ~seed))

(* The adversarial pack's ground truth is stated at the default budget. *)
let adversarial_template (s : Wr_sitegen.Adversarial.scenario) ~seed =
  let page = Request.analyze_params ~page:s.page ~resources:s.resources ~seed () in
  template ~label:("triage " ^ s.name)
    ~check:(fun j ->
      let items = triage_items j in
      let refuted = List.exists (fun (c, _) -> c = "refuted") items in
      let guided = List.exists (fun (c, sch) -> c = "confirmed" && sch <> "baseline") items in
      if not (sound j) then Some (Printf.sprintf "triage %s: unsound" s.name)
      else if refuted <> s.refutable then
        Some (Printf.sprintf "triage %s: refuted %b, ground truth %b" s.name refuted s.refutable)
      else if guided <> s.guided_confirms then
        Some
          (Printf.sprintf "triage %s: guided confirmation %b, ground truth %b" s.name guided
             s.guided_confirms)
      else None)
    (Request.triage page)

(* --- the serve-mix traffic --------------------------------------------- *)

type mix = { templates : template array; next : unit -> int }

(* Low-discrepancy draws in [0, 1): the k-th is frac(u0 + k * golden
   ratio), so every run of consecutive draws covers the interval almost
   evenly. Each window of a phase then sees nearly the same mix of pages,
   which independent draws would not. *)
let evenly rng =
  let u = ref (Rng.float rng 1.) in
  fun () ->
    u := Float.rem (!u +. 0.6180339887498949) 1.;
    !u

(* Zipf(1) popularity over [n] pages. The rank order is fixed, so seeds
   vary which request comes when, not which pages are hot: with a seeded
   ranking one heavy page's rank would dominate the spread between
   seeds. *)
let zipf n =
  let order = Array.init n Fun.id in
  Rng.shuffle (Rng.of_int 0x5eed) order;
  let cdf = Array.make n 0. in
  for r = 0 to n - 1 do
    cdf.(r) <- (if r = 0 then 0. else cdf.(r - 1)) +. (1. /. float_of_int (r + 1))
  done;
  let total = cdf.(n - 1) in
  fun u ->
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u *. total then search (mid + 1) hi else search lo mid
    in
    order.(search 0 (n - 1))

(* Uniform over pages ordered by a cost proxy, so even draws spread
   requests across cheap and expensive pages in every window. *)
let by_cost costs =
  let n = Array.length costs in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> compare costs.(a) costs.(b)) order;
  fun u -> order.(min (n - 1) (int_of_float (u *. float_of_int n)))

(* 80% analyze (Zipf over the corpus, cacheable), 10% predict, 10%
   triage over the corpus plus the adversarial pack, in blocks of ten so
   every window holds the same proportions. The planted race count is
   the cost proxy: it sets report size and witness work. *)
let serve_mix rng ~pages ~profiles =
  let n = Array.length pages in
  let seeds = Array.init n (fun _ -> Rng.int rng 1_000_000) in
  let analyze = Array.init n (fun i -> analyze_template pages.(i) ~seed:seeds.(i)) in
  let predict =
    Array.init n (fun i -> predict_template pages.(i) ~profile:profiles.(i) ~seed:seeds.(i))
  in
  let pack = Array.of_list (Wr_sitegen.Adversarial.pack ()) in
  let triage =
    Array.append
      (Array.init n (fun i -> triage_template pages.(i) ~budget:8 ~seed:seeds.(i)))
      (Array.map (fun s -> adversarial_template s ~seed:(Rng.int rng 1_000_000)) pack)
  in
  let templates = Array.concat [ analyze; predict; triage ] in
  let cost = Array.map (fun p -> Profile.total (Profile.expected_raw p)) profiles in
  let popular = zipf n and any_page = by_cost cost in
  let any_triage = by_cost (Array.append cost (Array.make (Array.length pack) 0)) in
  let u_analyze = evenly rng and u_predict = evenly rng and u_triage = evenly rng in
  let block = Array.init 10 (fun i -> if i < 8 then 0 else i - 7) and pos = ref 10 in
  let next () =
    if !pos >= 10 then begin
      Rng.shuffle rng block;
      pos := 0
    end;
    let kind = block.(!pos) in
    incr pos;
    match kind with
    | 0 -> popular (u_analyze ())
    | 1 -> n + any_page (u_predict ())
    | _ -> (2 * n) + any_triage (u_triage ())
  in
  { templates; next }

(* Every page in turn, round after round: misses first, then hits. *)
let replay_mix ~pages ~seed =
  let templates = Array.map (fun p -> analyze_template p ~seed) pages in
  let i = ref (-1) in
  {
    templates;
    next =
      (fun () ->
        incr i;
        !i mod Array.length templates);
  }

(* --- the daemon -------------------------------------------------------- *)

type daemon = { pid : int; socket : string }

(* One blocking request on a fresh connection; its result. *)
let call socket verb =
  let c = Wr_serve.Client.connect ~retry_for:30. (Wr_serve.Daemon.Unix_socket socket) in
  Fun.protect
    ~finally:(fun () -> Wr_serve.Client.close c)
    (fun () ->
      match Wr_serve.Client.request c (Request.make ~id:(Json.Int 0) verb) with
      | Ok (Wr_serve.Response.Ok { result; _ }) -> result
      | Ok (Wr_serve.Response.Error { message; _ }) -> failwith ("daemon: " ^ message)
      | Error e -> failwith ("daemon: " ^ e))

let rec wait_exit pid ~deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when now () < deadline ->
      Unix.sleepf 0.02;
      wait_exit pid ~deadline
  | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid)
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid ~deadline
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let peak_rss_mb d = Option.value ~default:0. (Sample.peak_rss_mb ~pid:(string_of_int d.pid) ())

(* SIGTERM drains the daemon; a daemon still running 15 s later is
   killed, so the harness never leaves a process behind. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  wait_exit d.pid ~deadline:(now () +. 15.);
  if Sys.file_exists d.socket then Sys.remove d.socket

exception Exited of string

(* Started from the working directory with a relative socket path, which
   keeps the path under the Unix socket length limit wherever the
   checkout lives. Set-up ends when the daemon answers [ping]. *)
let start ~cli ~out ~tag ~jobs =
  let socket = Filename.concat out (Printf.sprintf "d%d-%s.sock" (Unix.getpid ()) tag) in
  if Sys.file_exists socket then Sys.remove socket;
  let log =
    Unix.openfile
      (Filename.concat out (Printf.sprintf "daemon-%s.log" tag))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        Unix.create_process cli
          [| cli; "serve"; "--socket"; socket; "-j"; string_of_int jobs; "--shards"; "1" |]
          Unix.stdin log log)
  in
  let d = { pid; socket } in
  let deadline = now () +. 30. in
  let rec ping () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | p, _ when p = pid -> raise (Exited (cli ^ " serve exited during start-up; see its log"))
    | _ when Sys.file_exists socket -> call socket Request.Ping
    | _ when now () > deadline -> failwith (cli ^ " serve did not listen within 30 s")
    | _ ->
        Unix.sleepf 0.01;
        ping ()
  in
  (try ignore (ping ()) with
  | Exited msg -> failwith msg
  | e ->
      stop d;
      raise e);
  d

(* --- windows ----------------------------------------------------------- *)

type policy =
  | Open of { rate : float; count : int }
      (** request i is due at start + i/rate, whatever came back *)
  | Closed of { depth : int; duration : float }
      (** each connection keeps [depth] requests outstanding *)

type window = {
  start : float;  (** when the first request was due *)
  latencies : float list;
      (** seconds per ok response; from the due time in an open loop, from
          the send in a closed one *)
  completions : float list;  (** when each ok response inside the window arrived *)
  late : float list;  (** seconds each send ran behind its due time *)
  sent : int;
  errors : string list;  (** error responses and unreadable lines *)
  unanswered : int;
  first_ok : (int, string) Hashtbl.t;  (** template -> first ok line *)
}

type conn = { fd : Unix.file_descr; inbuf : Buffer.t }

(* A raw descriptor for the select loop; the daemon already listens. *)
let connect_fd path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  with e ->
    Unix.close fd;
    raise e

let rec write_all fd s ofs =
  if ofs < String.length s then
    match Unix.write_substring fd s ofs (String.length s - ofs) with
    | n -> write_all fd s (ofs + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s ofs

(* {"schema_version":1,"id":17,"ok":true,...: the id and the ok flag. *)
let parse_head head =
  match find_sub head "\"id\":" ~from:0 with
  | None -> None
  | Some i -> (
      let j = ref (i + 5) in
      while !j < String.length head && head.[!j] >= '0' && head.[!j] <= '9' do
        incr j
      done;
      match
        ( int_of_string_opt (String.sub head (i + 5) (!j - i - 5)),
          find_sub head "\"ok\":" ~from:!j )
      with
      | Some id, Some k when k + 5 < String.length head -> Some (id, head.[k + 5] = 't')
      | _ -> None)

let chunk = Bytes.create 262144

(* Read what is available; call [f line_head full] per complete line,
   where [full ()] copies the whole line out. [false] at end of stream. *)
let read_lines conn f =
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | n ->
      let rec scan from =
        match Bytes.index_from_opt chunk from '\n' with
        | Some k when k < n ->
            Buffer.add_subbytes conn.inbuf chunk from (k - from);
            let len = Buffer.length conn.inbuf in
            f (Buffer.sub conn.inbuf 0 (min len 128)) (fun () -> Buffer.contents conn.inbuf);
            Buffer.clear conn.inbuf;
            scan (k + 1)
        | _ -> Buffer.add_subbytes conn.inbuf chunk from (n - from)
      in
      scan 0;
      true
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> true
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> false

let run_window ~socket ~conns:n_conns ~mix ~policy ~grace =
  let conns =
    Array.init n_conns (fun _ ->
        { fd = connect_fd socket; inbuf = Buffer.create 65536 })
  in
  let inflight = Hashtbl.create 256 in
  let latencies = ref [] and completions = ref [] and late = ref [] and errors = ref [] in
  let sent = ref 0 in
  let first_ok = Hashtbl.create 64 in
  let send c ~due =
    let id = !sent in
    let t = mix.next () in
    let tp = mix.templates.(t) in
    write_all conns.(c).fd (tp.prefix ^ string_of_int id ^ tp.suffix) 0;
    let at = now () in
    Hashtbl.replace inflight id (t, match due with Some d -> d | None -> at);
    (match due with Some d -> late := (at -. d) :: !late | None -> ());
    incr sent
  in
  let start = now () +. 0.005 in
  let window_end, sending_done =
    match policy with
    | Open { rate; count } -> (start +. (float_of_int count /. rate), fun () -> !sent >= count)
    | Closed { duration; _ } ->
        let stop = start +. duration in
        (stop, fun () -> now () >= stop)
  in
  let deadline = window_end +. grace in
  let on_line c head full =
    let t_recv = now () in
    match parse_head head with
    | Some (id, ok) when Hashtbl.mem inflight id ->
        let t, from = Hashtbl.find inflight id in
        Hashtbl.remove inflight id;
        if ok then begin
          latencies := (t_recv -. from) :: !latencies;
          if t_recv <= window_end then completions := t_recv :: !completions;
          if not (Hashtbl.mem first_ok t) then Hashtbl.replace first_ok t (full ())
        end
        else errors := (mix.templates.(t).label ^ ": " ^ full ()) :: !errors;
        (match policy with
        | Closed _ when not (sending_done ()) -> send c ~due:None
        | _ -> ())
    | _ -> errors := ("unreadable response: " ^ head) :: !errors
  in
  (match policy with
  | Closed { depth; _ } ->
      Array.iteri (fun c _ -> for _ = 1 to depth do send c ~due:None done) conns
  | Open _ -> ());
  let live = ref (Array.to_list (Array.mapi (fun i c -> (c.fd, i)) conns)) in
  let continue () =
    now () < deadline && !live <> [] && (Hashtbl.length inflight > 0 || not (sending_done ()))
  in
  while continue () do
    let timeout =
      match policy with
      | Open { rate; count } when !sent < count ->
          let t = now () in
          let rec due_now () =
            let due = start +. (float_of_int !sent /. rate) in
            if !sent < count && due <= t then begin
              send (!sent mod n_conns) ~due:(Some due);
              due_now ()
            end
          in
          due_now ();
          if !sent < count then
            Float.max 0. (start +. (float_of_int !sent /. rate) -. now ())
          else 0.05
      | _ -> 0.05
    in
    match Unix.select (List.map fst !live) [] [] timeout with
    | readable, _, _ ->
        List.iter
          (fun fd ->
            let c = List.assoc fd !live in
            if not (read_lines conns.(c) (on_line c)) then
              live := List.filter (fun (f, _) -> f <> fd) !live)
          readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  {
    start;
    latencies = !latencies;
    completions = !completions;
    late = !late;
    sent = !sent;
    errors = List.rev !errors;
    unanswered = Hashtbl.length inflight;
    first_ok;
  }

(* The checks run after the window, on each distinct request's first ok
   body. *)
let check_bodies mix w =
  Hashtbl.fold
    (fun t line acc ->
      let tp = mix.templates.(t) in
      match Json.member "result" (Json.of_string line) with
      | result -> (
          match tp.check result with None -> acc | Some e -> e :: acc)
      | exception Json.Parse_error e -> (tp.label ^ ": unreadable body: " ^ e) :: acc)
    w.first_ok []

(* The daemon's own view of everything it served, from its [metrics]
   verb. Its percentiles are histogram bucket midpoints, which two runs
   can read identically; the mean and the maximum are exact. *)
let daemon_metrics socket =
  let j = call socket Request.Metrics in
  let num v = match v with Json.Int i -> float_of_int i | Json.Float f -> f | _ -> 0. in
  let stage s q = Sample.ms (num (Json.member q (Json.member s (Json.member "latency" j)))) in
  let stages =
    List.concat_map
      (fun s ->
        [
          Sample.metric (Printf.sprintf "serve.%s_mean_ms" s) "ms" (stage s "mean");
          Sample.metric (Printf.sprintf "serve.%s_max_ms" s) "ms" (stage s "max");
        ])
      [ "decode"; "queue"; "run"; "encode"; "total" ]
  in
  stages
  @ [
      Sample.metric "serve.cache_hit_ratio" "ratio"
        (num (Json.member "hit_ratio" (Json.member "cache" j)));
      Sample.metric "serve.analyses_run" "count" (num (Json.member "analyses_run" j));
      Sample.metric "serve.queue_high_water" "count"
        (num (Json.member "high_water" (Json.member "queue" j)));
      Sample.metric "serve.shed" "count" (num (Json.member "shed" j));
      Sample.metric "serve.timeouts" "count" (num (Json.member "timeouts" j));
    ]
