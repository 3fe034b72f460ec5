type handle = int

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

(* Binary min-heap on (due, seq), kept as three columns: the due times
   unboxed in a float array, their sequence numbers and the tasks'
   closures. Scheduling and running a task then allocate nothing in the
   loop, and the clock is an unboxed float too. *)
type clock = { mutable now : float }

type t = {
  mutable due : Float.Array.t;
  mutable seq : int array;
  mutable run : (unit -> unit) array;
  mutable size : int;
  clock : clock;
  mutable next_seq : int;
  cancelled : (int, unit) Hashtbl.t;
  tm : Wr_telemetry.Telemetry.t;
  bias : bias;
}

let initial = 64

let create ?(tm = Wr_telemetry.Telemetry.disabled) ?(bias = neutral) () =
  {
    due = Float.Array.make initial 0.;
    seq = Array.make initial (-1);
    run = Array.make initial ignore;
    size = 0;
    clock = { now = 0. };
    next_seq = 0;
    cancelled = Hashtbl.create 16;
    tm;
    bias;
  }

let now t = t.clock.now

(* [Float.max], inlined so its result stays unboxed. *)
let[@inline] fmax (x : float) y =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then if Float.is_nan x then x else y
  else if Float.is_nan y then y
  else x

let earlier t i j =
  let di = Float.Array.get t.due i and dj = Float.Array.get t.due j in
  di < dj || (di = dj && t.seq.(i) < t.seq.(j))

let swap t i j =
  let d = Float.Array.get t.due i in
  Float.Array.set t.due i (Float.Array.get t.due j);
  Float.Array.set t.due j d;
  let q = t.seq.(i) in
  t.seq.(i) <- t.seq.(j);
  t.seq.(j) <- q;
  let r = t.run.(i) in
  t.run.(i) <- t.run.(j);
  t.run.(j) <- r

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && earlier t l !smallest then smallest := l;
  if r < t.size && earlier t r !smallest then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t =
  let n = 2 * t.size in
  let due = Float.Array.make n 0. and seq = Array.make n (-1) and run = Array.make n ignore in
  Float.Array.blit t.due 0 due 0 t.size;
  Array.blit t.seq 0 seq 0 t.size;
  Array.blit t.run 0 run 0 t.size;
  t.due <- due;
  t.seq <- seq;
  t.run <- run

(* Inlined, so [due] reaches its column unboxed. *)
let[@inline] push t due seq run =
  if t.size = Array.length t.seq then grow t;
  let i = t.size in
  Float.Array.set t.due i due;
  t.seq.(i) <- seq;
  t.run.(i) <- run;
  t.size <- i + 1;
  sift_up t i

(* Drops the earliest task; the caller has read its columns first. *)
let remove_top t =
  let last = t.size - 1 in
  t.size <- last;
  Float.Array.set t.due 0 (Float.Array.get t.due last);
  t.seq.(0) <- t.seq.(last);
  t.run.(0) <- t.run.(last);
  t.run.(last) <- ignore;
  if last > 0 then sift_down t 0

let schedule ?cls t ~delay run =
  let delay =
    match cls with None -> delay | Some c -> apply_bias t.bias c delay
  in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  push t (t.clock.now +. fmax 0. delay) seq run;
  seq

let cancel t h =
  Wr_telemetry.Telemetry.incr t.tm "scheduler.cancelled";
  Hashtbl.replace t.cancelled h ()

(* Run a task under telemetry: a ["task"] span plus a queue-depth sample.
   The guard keeps the disabled path allocation-free. *)
let run_task t run =
  let module T = Wr_telemetry.Telemetry in
  if T.enabled t.tm then begin
    T.incr t.tm "scheduler.tasks";
    T.observe t.tm "scheduler.queue_depth" (float_of_int (t.size + 1));
    T.with_span t.tm ~cat:"scheduler" ~name:"task" run
  end
  else run ()

(* The earliest task leaves the queue. A cancelled one is dropped and
   [false] returned; otherwise the clock advances to its due time and it
   runs. *)
let run_top t =
  let due = Float.Array.get t.due 0 and seq = t.seq.(0) and run = t.run.(0) in
  remove_top t;
  if Hashtbl.mem t.cancelled seq then begin
    Hashtbl.remove t.cancelled seq;
    false
  end
  else begin
    t.clock.now <- fmax t.clock.now due;
    run_task t run;
    true
  end

let rec run_one t = t.size > 0 && (run_top t || run_one t)

let run_until t ~deadline =
  let rec loop n =
    if t.size = 0 then n
    else if Float.Array.get t.due 0 > deadline && not (Hashtbl.mem t.cancelled t.seq.(0)) then n
    else if run_top t then loop (n + 1)
    else loop n
  in
  loop 0

let pending t =
  let n = ref 0 in
  for i = 0 to t.size - 1 do
    if not (Hashtbl.mem t.cancelled t.seq.(i)) then incr n
  done;
  !n
