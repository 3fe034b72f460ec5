type t = {
  name : string;
  record : Wr_mem.Access.sink;
  races : unit -> Race.t list;
  accesses_seen : unit -> int;
}

let record_access d (a : Wr_mem.Access.t) = d.record a.loc a.kind a.op a.flags a.context

let null = { name = "null"; record = Wr_mem.Access.discard; races = (fun () -> []); accesses_seen = (fun () -> 0) }

(* The record path is far too hot for per-access events; a power-of-two
   batch counter emits one line per 1024 accesses. Applied only when
   debug logging is on as the detector is built, so an untraced run pays
   nothing per access. *)
let batch_mask = 1024 - 1

let with_logging d =
  let module L = Wr_support.Log in
  let seen = ref 0 in
  {
    d with
    record =
      (fun loc kind op flags context ->
        incr seen;
        if !seen land batch_mask = 0 && L.enabled L.Debug then
          L.debug "detect.batch"
            [
              ("detector", Wr_support.Json.String d.name);
              ("accesses", Wr_support.Json.Int !seen);
            ];
        d.record loc kind op flags context);
    races =
      (fun () ->
        let rs = d.races () in
        if L.enabled L.Debug then
          L.debug "detect.races"
            [
              ("detector", Wr_support.Json.String d.name);
              ("races", Wr_support.Json.Int (List.length rs));
            ];
        rs);
  }

(* Per-access span allocation would dominate the hot path; accounted time
   keeps detector bookkeeping visible in the phase table at a bounded
   cost, and only when telemetry is on. The access and race counts are
   published once per analysis by the caller. *)
let with_telemetry tm d =
  let module T = Wr_telemetry.Telemetry in
  let module L = Wr_support.Log in
  let d = if L.enabled L.Debug then with_logging d else d in
  if not (T.enabled tm) then d
  else
    {
      d with
      record =
        (fun loc kind op flags context ->
          T.account tm ~cat:"detect" (fun () -> d.record loc kind op flags context));
    }
