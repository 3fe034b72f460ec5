(** A single-threaded event loop over virtual time.

    The web platform's sources of nondeterminism — "variation in network
    bandwidth, CPU resources, or the timing of user input events" (§2.1) —
    become explicit delays on this loop. Time is virtual (milliseconds as
    floats): running a task advances the clock to its due time, so a whole
    page load is deterministic given the seed that produced the delays.

    Tasks at equal due times run in FIFO order, which matches how browser
    task queues drain. *)

type t

(** Identifies a scheduled task for cancellation ([clearTimeout]). *)
type handle

(** The channel a task arrives on — the browser-level source of the
    delay. Guided exploration (triage) perturbs whole channels at a
    time: "make the network fast and the timers slow" is one schedule. *)
type cls = Parse | Timer | Net | Xhr | User

type speed = Fast | Slow

(** A per-channel speed override. [None] leaves the channel's delays
    untouched. The transform is uniform and monotone per channel
    ([Fast] scales delays down, [Slow] adds a channel-specific
    constant), so same-channel relative order — and with it every
    happens-before edge the simulator derives from program order on a
    channel — is preserved. Only cross-channel interleavings change. *)
type bias = {
  parse : speed option;
  timer : speed option;
  net : speed option;
  xhr : speed option;
  user : speed option;
}

(** All channels at their natural speed. *)
val neutral : bias

val speed_name : speed -> string

(** [create ()] is an empty loop at time 0. [tm] wraps every task run in
    a ["scheduler"] span and samples queue depth per task when enabled.
    [bias] applies a per-channel delay transform to classified
    [schedule] calls; default {!neutral}. *)
val create : ?tm:Wr_telemetry.Telemetry.t -> ?bias:bias -> unit -> t

(** [now t] is the current virtual time in milliseconds. *)
val now : t -> float

(** [schedule t ~delay f] enqueues [f] to run at [now t +. max 0 delay].
    [cls] classifies the delay's source channel; classified delays pass
    through the loop's {!bias} transform, unclassified ones never move. *)
val schedule : ?cls:cls -> t -> delay:float -> (unit -> unit) -> handle

(** [cancel t h] prevents the task from running if it has not run yet;
    idempotent. *)
val cancel : t -> handle -> unit

(** [run_one t] pops and runs the earliest task, advancing the clock.
    Returns [false] when the queue is empty. *)
val run_one : t -> bool

(** [run_until t ~deadline] runs tasks in time order until the queue is
    empty or the next task is due after [deadline] (virtual ms). Pending
    later tasks stay queued. Returns the number of tasks run. The deadline
    is how the simulator bounds pages with unbounded [setInterval] chains
    (the Gomez pattern, §6.3). *)
val run_until : t -> deadline:float -> int

(** [pending t] is the number of queued (uncancelled) tasks. *)
val pending : t -> int
