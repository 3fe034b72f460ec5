(* A fleet of OCaml 5 domains around one task queue.

   Every worker sleeps on one Mutex + Condition FIFO. [submit] pushes a
   single task onto it. [map] pushes one "drain" task per worker and
   drains on the submitter as well: every lane claims the next input
   index with one [Atomic.fetch_and_add] on the batch's cursor, so the
   load balances per item without per-lane queues or stealing. The
   workload is flat (independent pages of a few milliseconds each, none
   of which forks more work), so two atomics per item, the cursor and
   the batch countdown, are all the sharing the hot path needs. *)

(* Per-domain accumulator. Each slot is written by exactly one domain
   (slot 0 by the submitter, slot i by spawned worker i), so recording
   needs no lock; readers get exact values once the writers quiesce
   ([close], or the end of a [map]) and a benign point-in-time snapshot
   before that. *)
type slot = {
  mutable dom : int;  (* OCaml domain id of the slot's writer; -1 until known *)
  mutable tasks : int;
  mutable queue_wait_s : float;
  mutable run_s : float;
  mutable idle_s : float;
  mutable gc_minor : int;
  mutable gc_major : int;
  mutable promoted_words : float;
  mutable minor_words : float;
}

type domain_stats = {
  worker : int;
  dom : int;
  tasks : int;
  queue_wait_s : float;
  run_s : float;
  idle_s : float;
  gc_minor : int;
  gc_major : int;
  promoted_words : float;
  minor_words : float;
}

type stats = { per_domain : domain_stats list; submitted : int; stolen : int }

type t = {
  jobs : int;
  lock : Mutex.t;
  wake : Condition.t;  (* workers: a task was queued, or the pool closed *)
  batch_done : Condition.t;  (* the submitter: the last [map] item finished *)
  queue : (slot -> unit) Queue.t;  (* guarded by [lock] *)
  mutable closed : bool;  (* guarded by [lock] *)
  mutable workers : unit Domain.t array;  (* set once by [create] *)
  slots : slot array;  (* one per job; slot 0 is the submitter's *)
  n_submitted : int Atomic.t;
}

let hardware_domains () = Domain.recommended_domain_count ()

(* Worker domains get a larger minor heap than the runtime default
   (256k words): in OCaml 5 every minor collection is a stop-the-world
   barrier across *all* domains, so an allocation-heavy fleet with
   default-sized nurseries spends most of its wall clock rendezvousing
   (perf4 measured ~49% GC share at jobs:8 before tuning). 4M words per
   worker cuts minor collections ~16x for the corpus workload at a cost
   of 32MB per domain. Override with WEBRACER_MINOR_HEAP_WORDS=<words>
   (0 disables tuning). *)
let minor_heap_words =
  match Sys.getenv_opt "WEBRACER_MINOR_HEAP_WORDS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some 0 -> None
      | Some w when w > 0 -> Some w
      | Some _ | None -> Some (1 lsl 22))
  | None -> Some (1 lsl 22)

let new_slot () =
  {
    dom = -1; tasks = 0; queue_wait_s = 0.; run_s = 0.; idle_s = 0.;
    gc_minor = 0; gc_major = 0; promoted_words = 0.; minor_words = 0.;
  }

let now = Clock.now

(* Called by every domain joining a fleet (workers at spawn, the
   submitter at [create]) so an external observer — the GC runtime
   probe — can bind its event stream to the fleet's domains. Installed
   process-wide because worker domains cannot see layers above
   [Wr_support]. *)
let worker_hook : (unit -> unit) ref = ref (fun () -> ())

let set_worker_hook f = worker_hook := f

let announce_domain (slot : slot) =
  slot.dom <- (Domain.self () :> int);
  try !worker_hook () with _ -> ()

(* Run one item on [slot], charging its queue wait (start minus [enq],
   the batch or submit time; 0 without one), run time and this domain's
   GC delta. [Clock.now] is monotonic, so the deltas need no clamping. *)
let run_item (slot : slot) ?enq f =
  let start = now () in
  let enq = Option.value enq ~default:start in
  let gc0 = Gc.quick_stat () in
  let r = match f () with v -> Ok v | exception e -> Error e in
  let gc1 = Gc.quick_stat () in
  slot.run_s <- slot.run_s +. (now () -. start);
  slot.queue_wait_s <- slot.queue_wait_s +. (start -. enq);
  slot.tasks <- slot.tasks + 1;
  slot.gc_minor <- slot.gc_minor + (gc1.Gc.minor_collections - gc0.Gc.minor_collections);
  slot.gc_major <- slot.gc_major + (gc1.Gc.major_collections - gc0.Gc.major_collections);
  slot.promoted_words <- slot.promoted_words +. (gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
  slot.minor_words <- slot.minor_words +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
  r

(* Pop and run tasks until the pool is closed and the queue is empty;
   tasks queued before [close] still run. *)
let worker_loop t (slot : slot) =
  let rec loop idle_since =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.wake t.lock
    done;
    let task = Queue.take_opt t.queue in
    Mutex.unlock t.lock;
    slot.idle_s <- slot.idle_s +. (now () -. idle_since);
    match task with
    | None -> ()
    | Some task ->
        task slot;
        loop (now ())
  in
  loop (now ())

let create ?(min_workers = 0) ~jobs () =
  let jobs = max 1 jobs in
  (* Oversubscription is pure loss for CPU-bound work: more domains than
     cores just multiplies stop-the-world rendezvous cost (the v1 pool
     ran the corpus 3.7x *slower* at jobs:8 on small hardware). [jobs]
     is therefore a ceiling: we spawn at most hardware-1 workers, the
     submitter being the remaining lane. [min_workers] lets clients that
     *require* spawned domains (the serve daemon: [submit] tasks never
     run on the submitter) keep at least that many. *)
  let capped = min (jobs - 1) (hardware_domains () - 1) in
  let n_workers = min (jobs - 1) (max capped min_workers) in
  let t =
    {
      jobs;
      lock = Mutex.create ();
      wake = Condition.create ();
      batch_done = Condition.create ();
      queue = Queue.create ();
      closed = false;
      workers = [||];
      slots = Array.init jobs (fun _ -> new_slot ());
      n_submitted = Atomic.make 0;
    }
  in
  announce_domain t.slots.(0);
  t.workers <-
    Array.init n_workers (fun i ->
        Domain.spawn (fun () ->
            (* Per-domain GC tuning must happen on the worker itself:
               minor heaps are domain-local in OCaml 5. *)
            (match minor_heap_words with
            | Some w -> ( try Gc.set { (Gc.get ()) with Gc.minor_heap_size = w } with _ -> ())
            | None -> ());
            let slot = t.slots.(i + 1) in
            announce_domain slot;
            worker_loop t slot));
  t

let jobs t = t.jobs

let stats t =
  let per_domain =
    List.mapi
      (fun i (s : slot) ->
        {
          worker = i;
          dom = s.dom;
          tasks = s.tasks;
          queue_wait_s = s.queue_wait_s;
          run_s = s.run_s;
          idle_s = s.idle_s;
          gc_minor = s.gc_minor;
          gc_major = s.gc_major;
          promoted_words = s.promoted_words;
          minor_words = s.minor_words;
        })
      (Array.to_list t.slots)
  in
  { per_domain; submitted = Atomic.get t.n_submitted; stolen = 0 }

(* Queue [tasks] for the workers, waking one per task. *)
let push t ~who tasks =
  Mutex.lock t.lock;
  let closed = t.closed in
  if not closed then
    List.iter
      (fun task ->
        Queue.push task t.queue;
        Condition.signal t.wake)
      tasks;
  Mutex.unlock t.lock;
  if closed then invalid_arg (who ^ ": pool is closed")

let submit t f =
  if Array.length t.workers = 0 then invalid_arg "Pool.submit: pool has no workers";
  let enq = now () in
  push t ~who:"Pool.submit" [ (fun slot -> ignore (run_item slot ~enq f)) ];
  Atomic.incr t.n_submitted

let map t f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  if n = 0 then []
  else begin
    (* A lone lane starts each item as soon as it reaches it, so its
       queue wait reads exactly 0; otherwise every item waits from the
       batch's start. *)
    let helpers = if n = 1 then 0 else Array.length t.workers in
    let enq = if helpers = 0 then None else Some (now ()) in
    let results = Array.make n None in
    let cursor = Atomic.make 0 and remaining = Atomic.make n in
    (* Each lane claims the next index until the input runs out. A drain
       task that a worker reaches after the batch is over finds the
       cursor past the end and returns at once. The countdown is atomic,
       so the submitter's reads of [results] happen after every write. *)
    let drain slot =
      let rec next () =
        let k = Atomic.fetch_and_add cursor 1 in
        if k < n then begin
          results.(k) <- Some (run_item slot ?enq (fun () -> f items.(k)));
          if Atomic.fetch_and_add remaining (-1) = 1 then begin
            Mutex.lock t.lock;
            Condition.broadcast t.batch_done;
            Mutex.unlock t.lock
          end;
          next ()
        end
      in
      next ()
    in
    push t ~who:"Pool.map" (List.init helpers (fun _ -> drain));
    ignore (Atomic.fetch_and_add t.n_submitted n);
    (* The submitter drains too, so the batch completes even when every
       worker is busy with [submit] tasks. *)
    drain t.slots.(0);
    Mutex.lock t.lock;
    while Atomic.get remaining > 0 do
      Condition.wait t.batch_done t.lock
    done;
    Mutex.unlock t.lock;
    (* Unwrapping in input order re-raises the lowest-indexed failure, so
       the exception does not depend on completion order. *)
    Array.to_list results
    |> List.map (fun r -> match Option.get r with Ok v -> v | Error e -> raise e)
  end

let close t =
  Mutex.lock t.lock;
  let was_closed = t.closed in
  t.closed <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.lock;
  if not was_closed then Array.iter Domain.join t.workers

let with_pool ?min_workers ~jobs f =
  let t = create ?min_workers ~jobs () in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let map_jobs ~jobs f xs =
  if jobs <= 1 then List.map f xs else with_pool ~jobs (fun t -> map t f xs)

let stats_rows stats =
  let mwords w = w /. 1e6 in
  let header =
    [ "domain"; "dom-id"; "tasks"; "queue-wait(ms)"; "run(ms)"; "idle(ms)";
      "gc-minor"; "gc-major"; "promoted(Mw)"; "alloc(Mw)" ]
  in
  let row d =
    [
      (if d.worker = 0 then "submitter" else Printf.sprintf "worker-%d" d.worker);
      (if d.dom < 0 then "-" else string_of_int d.dom);
      string_of_int d.tasks;
      Printf.sprintf "%.1f" (d.queue_wait_s *. 1e3);
      Printf.sprintf "%.1f" (d.run_s *. 1e3);
      Printf.sprintf "%.1f" (d.idle_s *. 1e3);
      string_of_int d.gc_minor;
      string_of_int d.gc_major;
      Printf.sprintf "%.2f" (mwords d.promoted_words);
      Printf.sprintf "%.2f" (mwords d.minor_words);
    ]
  in
  (header, List.map row stats.per_domain)

let stats_json stats =
  Json.Obj
    [
      ( "per_domain",
        Json.List
          (List.map
             (fun d ->
               Json.Obj
                 [
                   ("worker", Json.Int d.worker);
                   ("dom", Json.Int d.dom);
                   ("tasks", Json.Int d.tasks);
                   ("queue_wait_s", Json.Float d.queue_wait_s);
                   ("run_s", Json.Float d.run_s);
                   ("idle_s", Json.Float d.idle_s);
                   ("gc_minor", Json.Int d.gc_minor);
                   ("gc_major", Json.Int d.gc_major);
                   ("promoted_words", Json.Float d.promoted_words);
                   ("minor_words", Json.Float d.minor_words);
                 ])
             stats.per_domain) );
      ("submitted", Json.Int stats.submitted);
    ]

let render_stats stats =
  let header, rows = stats_rows stats in
  Table.render ~header rows ^ Printf.sprintf "tasks submitted: %d\n" stats.submitted
