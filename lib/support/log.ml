type level = Error | Warn | Info | Debug

let level_name = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "error" -> Some Error
  | "warn" | "warning" -> Some Warn
  | "info" -> Some Info
  | "debug" -> Some Debug
  | _ -> None

let rank = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3

(* Global state: one page under analysis per process, so a process-wide
   level and sink keep every call site plumbing-free. *)
let threshold : level option ref = ref None

let sink : out_channel option ref = ref None

let started = Clock.now ()

let set_level l = threshold := l

let current_level () = !threshold

let enabled l = match !threshold with None -> false | Some t -> rank l <= rank t

let close_sink () =
  (match !sink with
  | Some oc ->
      flush oc;
      close_out_noerr oc
  | None -> ());
  sink := None

let open_sink_file path =
  close_sink ();
  sink := Some (open_out path)

let init_from_env () =
  (match Sys.getenv_opt "WEBRACER_LOG" with
  | Some s -> set_level (level_of_string s)
  | None -> ());
  match Sys.getenv_opt "WEBRACER_LOG_FILE" with
  | Some path when path <> "" -> open_sink_file path
  | _ -> ()

let () = init_from_env ()

let () = at_exit (fun () -> match !sink with Some oc -> flush oc | None -> ())

(* Ambient per-domain trace context: when a request handler wraps its
   work in [with_trace], every line emitted underneath — from any layer,
   with no plumbing — carries the request's trace id, correlating the
   JSONL log with the wire response and the telemetry spans. Domain-local
   storage keeps concurrent requests on different worker domains from
   leaking ids into each other's lines. *)
let trace_ctx : (string option * string option) ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref (None, None))

let with_trace ~trace_id ?span_id f =
  let cell = Domain.DLS.get trace_ctx in
  let saved = !cell in
  cell := (Some trace_id, span_id);
  Fun.protect ~finally:(fun () -> cell := saved) f

let current_trace () = !(Domain.DLS.get trace_ctx)

let trace_fields () =
  match current_trace () with
  | None, _ -> []
  | Some trace_id, span_id ->
      ("trace_id", Json.String trace_id)
      :: (match span_id with
         | Some s -> [ ("span_id", Json.String s) ]
         | None -> [])

let emit level event fields =
  if enabled level then begin
    let ts = Clock.now () -. started in
    let fields = fields @ trace_fields () in
    match !sink with
    | Some oc ->
        let obj =
          Json.Obj
            (("ts", Json.Float ts)
            :: ("level", Json.String (level_name level))
            :: ("event", Json.String event)
            :: fields)
        in
        (* One channel op per line: the runtime lock makes a single
           [output_string] atomic across domains, so concurrent emitters
           never interleave inside a JSONL record. *)
        output_string oc (Json.to_string obj ^ "\n")
    | None ->
        let field (k, v) =
          Printf.sprintf " %s=%s" k
            (match v with Json.String s -> s | v -> Json.to_string v)
        in
        Printf.eprintf "[webracer %7.3f] %-5s %s%s\n%!" ts (level_name level) event
          (String.concat "" (List.map field fields))
  end

(* The recorder hook: a daemon routes every line into its telemetry
   rings for postmortems, even lines below the live log level, since a
   postmortem wants the debug-grade context the stream dropped. One
   atomic read when nothing is installed. *)
let recorder : (string -> (string * Json.t) list -> unit) option Atomic.t =
  Atomic.make None

let with_recorder record f =
  let mine = Some record in
  Atomic.set recorder mine;
  Fun.protect ~finally:(fun () -> ignore (Atomic.compare_and_set recorder mine None)) f

let tee level event fields =
  match Atomic.get recorder with
  | None -> ()
  | Some record ->
      let trace =
        match current_trace () with
        | Some t, _ -> [ ("trace_id", Json.String t) ]
        | None, _ -> []
      in
      record ("log." ^ level_name level) (trace @ (("event", Json.String event) :: fields))

let error event fields = tee Error event fields; emit Error event fields

let warn event fields = tee Warn event fields; emit Warn event fields

let info event fields = tee Info event fields; emit Info event fields

let debug event fields = tee Debug event fields; emit Debug event fields
