(** Flight recorder: a fixed-size, per-domain ring of recent
    observability events, cheap enough to leave on while a daemon
    serves, paid out as a postmortem dump when something goes wrong
    (worker crash, blown deadline, SIGUSR2).

    Recording is lock-free on the hot path: each domain owns a private
    ring reached through domain-local storage, single-writer like a
    [Pool] slot. Readers ({!snapshot}) may race writers and get a
    benign point-in-time view. {!Log} tees every emitted line in here
    whenever the recorder is enabled — even lines below the log level —
    so a postmortem has context the live log stream dropped. *)

type event = {
  ts : float;  (** recorder clock (wall seconds unless overridden) *)
  dom : int;  (** recording domain id *)
  kind : string;  (** e.g. ["request.admit"], ["log.error"] *)
  fields : (string * Json.t) list;
  trace : string option;  (** request trace id, when known *)
}

(** [configure ?capacity ?clock ()] sets ring capacity per domain
    (default 256, min 1) and the timestamp source (default
    [Unix.gettimeofday]; tests inject a virtual clock for deterministic
    dumps). Discards all previously recorded events. *)
val configure : ?capacity:int -> ?clock:(unit -> float) -> unit -> unit

(** Recording is off until enabled; {!record} is a single atomic read
    when disabled. *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** [record ~kind ?trace fields] appends one event to the calling
    domain's ring, overwriting the oldest once the ring is full. No-op
    while disabled. *)
val record : kind:string -> ?trace:string -> (string * Json.t) list -> unit

(** All retained events across domains, oldest first (sorted by
    timestamp). *)
val snapshot : unit -> event list

(** Drop all retained events (capacity and clock keep their values). *)
val reset : unit -> unit

(** One JSON object per line, trailing newline included. *)
val to_jsonl : event list -> string

(** A minimal Chrome trace: one instant event per record on the
    recording domain's thread row, timestamps relative to the first
    event. *)
val to_chrome_trace : event list -> Json.t
