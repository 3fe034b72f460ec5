type handle = int

type task = { due : float; seq : int; run : unit -> unit }

type cls = Parse | Timer | Net | Xhr | User

type speed = Fast | Slow

type bias = {
  parse : speed option;
  timer : speed option;
  net : speed option;
  xhr : speed option;
  user : speed option;
}

let neutral = { parse = None; timer = None; net = None; xhr = None; user = None }

let speed_name = function Fast -> "fast" | Slow -> "slow"

(* Per-channel additive penalty for [Slow]. Scaled to dominate the
   channel's natural delays (timer intervals, sampled latencies) so a
   slowed channel lands after unbiased traffic, while [Fast] scales the
   delay down uniformly. Both transforms are monotone in the original
   delay, so relative order *within* a channel is preserved — only
   cross-channel interleavings move, which is exactly the freedom the
   HB model leaves open. *)
let slow_extra = function
  | Parse -> 50.
  | Timer -> 500.
  | Net -> 300.
  | Xhr -> 300.
  | User -> 200.

let speed_for bias = function
  | Parse -> bias.parse
  | Timer -> bias.timer
  | Net -> bias.net
  | Xhr -> bias.xhr
  | User -> bias.user

let apply_bias bias cls delay =
  match speed_for bias cls with
  | None -> delay
  | Some Fast -> delay *. 0.01
  | Some Slow -> delay +. slow_extra cls

(* Binary min-heap on (due, seq). *)
type t = {
  mutable heap : task array;
  mutable size : int;
  mutable clock : float;
  mutable next_seq : int;
  cancelled : (int, unit) Hashtbl.t;
  tm : Wr_telemetry.Telemetry.t;
  bias : bias;
}

let dummy = { due = 0.; seq = -1; run = ignore }

let create ?(tm = Wr_telemetry.Telemetry.disabled) ?(bias = neutral) () =
  {
    heap = Array.make 64 dummy;
    size = 0;
    clock = 0.;
    next_seq = 0;
    cancelled = Hashtbl.create 16;
    tm;
    bias;
  }

let now t = t.clock

let earlier a b = a.due < b.due || (a.due = b.due && a.seq < b.seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && earlier t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && earlier t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t task =
  if t.size = Array.length t.heap then begin
    let heap = Array.make (2 * t.size) dummy in
    Array.blit t.heap 0 heap 0 t.size;
    t.heap <- heap
  end;
  t.heap.(t.size) <- task;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    t.heap.(0) <- t.heap.(t.size);
    t.heap.(t.size) <- dummy;
    if t.size > 0 then sift_down t 0;
    Some top
  end

let peek t = if t.size = 0 then None else Some t.heap.(0)

let schedule ?cls t ~delay run =
  let delay =
    match cls with None -> delay | Some c -> apply_bias t.bias c delay
  in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  push t { due = t.clock +. Float.max 0. delay; seq; run };
  seq

let cancel t h =
  Wr_telemetry.Telemetry.incr t.tm "scheduler.cancelled";
  Hashtbl.replace t.cancelled h ()

(* Run a task under telemetry: a ["task"] span plus a queue-depth sample.
   The guard keeps the disabled path allocation-free. *)
let run_task t task =
  let module T = Wr_telemetry.Telemetry in
  if T.enabled t.tm then begin
    T.incr t.tm "scheduler.tasks";
    T.observe t.tm "scheduler.queue_depth" (float_of_int (t.size + 1));
    T.with_span t.tm ~cat:"scheduler" ~name:"task" task.run
  end
  else task.run ()

let rec run_one t =
  match pop t with
  | None -> false
  | Some task ->
      if Hashtbl.mem t.cancelled task.seq then begin
        Hashtbl.remove t.cancelled task.seq;
        run_one t
      end
      else begin
        t.clock <- Float.max t.clock task.due;
        run_task t task;
        true
      end

let run_until t ~deadline =
  let rec loop n =
    match peek t with
    | None -> n
    | Some task ->
        if Hashtbl.mem t.cancelled task.seq then begin
          ignore (pop t);
          Hashtbl.remove t.cancelled task.seq;
          loop n
        end
        else if task.due > deadline then n
        else begin
          ignore (pop t);
          t.clock <- Float.max t.clock task.due;
          run_task t task;
          loop (n + 1)
        end
  in
  loop 0

let pending t =
  let n = ref 0 in
  for i = 0 to t.size - 1 do
    if not (Hashtbl.mem t.cancelled t.heap.(i).seq) then incr n
  done;
  !n
