(* Spans recorded by the harness around its calls into the program's
   public functions: name, start, end, parent span and the page or
   request they belong to. Spans stay in memory and are written as one
   Chrome trace at exit; per-layer self times are derived from them.

   Recording happens on the calling domain only (the harness never opens
   a span inside a pool task), so a plain stack tracks the parent. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  item : int;  (** page or request index, -1 when not tied to one *)
  start : float;
  mutable stop : float;
}

type t = {
  mutable enabled : bool;
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  mutable stack : span list;
  origin : float;
}

let create ~enabled =
  { enabled; spans = []; next = 0; stack = []; origin = Wr_support.Clock.now () }

let disabled = create ~enabled:false

let with_span t ?(item = -1) name f =
  if not t.enabled then f ()
  else begin
    let parent = match t.stack with s :: _ -> s.id | [] -> -1 in
    let s = { id = t.next; parent; name; item; start = Wr_support.Clock.now (); stop = 0. } in
    t.next <- t.next + 1;
    t.stack <- s :: t.stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- Wr_support.Clock.now ();
        t.stack <- List.tl t.stack;
        t.spans <- s :: t.spans)
      f
  end

let duration s = s.stop -. s.start

(* Seconds spent in spans named [name], summed. *)
let total t name =
  List.fold_left (fun acc s -> if s.name = name then acc +. duration s else acc) 0. t.spans

let to_chrome_trace t =
  let open Wr_support.Json in
  let us x = Float ((x -. t.origin) *. 1e6) in
  let event s =
    Obj
      [
        ("name", String s.name);
        ("cat", String "e2e");
        ("ph", String "X");
        ("ts", us s.start);
        ("dur", Float (duration s *. 1e6));
        ("pid", Int 1);
        ("tid", Int 1);
        ("args", Obj [ ("id", Int s.id); ("parent", Int s.parent); ("item", Int s.item) ]);
      ]
  in
  Obj
    [
      ("traceEvents", List (List.rev_map event t.spans));
      ("displayTimeUnit", String "ms");
    ]
