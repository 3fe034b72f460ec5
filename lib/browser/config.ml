type detector_kind = Last_access | Full_track | No_detector

type t = {
  seed : int;
  page : string;
  resources : (string * string) list;
  time_limit : float;
  detector : detector_kind;
  hb_strategy : Wr_hb.Graph.strategy;
  fuel : int;
  mean_latency : float;
  parse_delay : float;
  explore : bool;
  trace : bool;
  dedup : bool;
  bias : Wr_scheduler.Event_loop.bias;
  telemetry : Wr_telemetry.Telemetry.t;
}

let default ~page () =
  {
    seed = 0;
    page;
    resources = [];
    time_limit = 60_000.;
    detector = Last_access;
    hb_strategy = Wr_hb.Graph.default_strategy;
    fuel = 5_000_000;
    mean_latency = 20.;
    parse_delay = 0.;
    explore = true;
    trace = false;
    dedup = true;
    bias = Wr_scheduler.Event_loop.neutral;
    telemetry = Wr_telemetry.Telemetry.disabled;
  }
