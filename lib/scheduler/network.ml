type outcome = Fetched of string | Missing

type t = {
  loop : Event_loop.t;
  rng : Wr_support.Rng.t;
  resolve : string -> string option;
  mean_latency : float;
  pinned : (string, float) Hashtbl.t;
  mutable count : int;
  tm : Wr_telemetry.Telemetry.t;
}

(* The floor (ms) under every sampled latency; pinned ones apply as given. *)
let min_latency = 1.

let create ~loop ~rng ~resolve ?(mean_latency = 20.)
    ?(tm = Wr_telemetry.Telemetry.disabled) () =
  {
    loop;
    rng;
    resolve;
    mean_latency;
    pinned = Hashtbl.create 8;
    count = 0;
    tm;
  }

let latency t url =
  match Hashtbl.find_opt t.pinned url with
  | Some ms -> ms
  | None -> min_latency +. Wr_support.Rng.exponential t.rng ~mean:t.mean_latency

let fetch ?(cls = Event_loop.Net) t ~url k =
  t.count <- t.count + 1;
  let delay = latency t url in
  let outcome = match t.resolve url with Some body -> Fetched body | None -> Missing in
  let module T = Wr_telemetry.Telemetry in
  if T.enabled t.tm then begin
    T.incr t.tm "net.fetches";
    T.observe t.tm "net.latency_ms" delay;
    (match outcome with Missing -> T.incr t.tm "net.missing" | Fetched _ -> ())
  end;
  ignore (Event_loop.schedule ~cls t.loop ~delay (fun () -> k outcome))

let set_latency t ~url ms = Hashtbl.replace t.pinned url ms

let fetches t = t.count
