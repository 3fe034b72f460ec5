open Wr_mem

(* One record per location: the last read and the last write, unboxed
   (an op of [-1] means the slot is empty, and the flags and context are
   the access's own), and the location's {!Dedup.mark}, whose cached
   accesses are these same last read and last write. [write_checked]
   records that the writing operation had read the location first; the
   [Checked_read_first] flag is only put on an access that goes into a
   report. Updating a slot allocates nothing. *)
type slots = {
  mutable read_op : Wr_hb.Op.id;
  mutable read_flags : Access.flag list;
  mutable read_context : string;
  mutable write_op : Wr_hb.Op.id;
  mutable write_flags : Access.flag list;
  mutable write_context : string;
  mutable write_checked : bool;
  mutable mark : Dedup.mark;
}

type state = {
  graph : Wr_hb.Graph.t;
  table : slots Location.Tbl.t;
  reported : unit Location.Tbl.t;  (* footnote 13: one race per location per run *)
  dedup : bool;
  mutable races : Race.t list;
  mutable seen : int;
  mutable forwarded : int;
}

let checked (a : Access.t) = Access.add_flag a Checked_read_first

(* [kind]'s slot of [s], rebuilt as the access it recorded. *)
let prior s loc kind : Access.t =
  match kind with
  | `Read ->
      { loc; kind; op = s.read_op; flags = s.read_flags; context = s.read_context }
  | `Write ->
      let w =
        { Access.loc; kind; op = s.write_op; flags = s.write_flags; context = s.write_context }
      in
      if s.write_checked then checked w else w

let report st s ~first ~(second : Access.t) =
  let key = Location.report_key second.loc in
  if not (Location.Tbl.mem st.reported key) then begin
    Location.Tbl.add st.reported key ();
    st.races <- Race.make ~first:(prior s second.loc first) ~second :: st.races
  end

(* CHC of a slot's operation and the current one; an empty slot races
   with nothing. *)
let chc st prev_op (a : Access.t) = prev_op >= 0 && Wr_hb.Graph.chc st.graph prev_op a.op

let slots_for st loc =
  match Location.Tbl.find st.table loc with
  | s -> s
  | exception Not_found ->
      let s =
        {
          read_op = -1;
          read_flags = [];
          read_context = "";
          write_op = -1;
          write_flags = [];
          write_context = "";
          write_checked = false;
          mark = Dedup.empty_mark;
        }
      in
      Location.Tbl.add st.table loc s;
      s

let duplicate s (a : Access.t) =
  let dup =
    match a.kind with
    | `Read -> Dedup.is_duplicate s.mark a ~flags:s.read_flags ~context:s.read_context
    | `Write -> Dedup.is_duplicate s.mark a ~flags:s.write_flags ~context:s.write_context
  in
  s.mark <- Dedup.after s.mark a;
  dup

let record st (a : Access.t) =
  st.seen <- st.seen + 1;
  let s = slots_for st a.loc in
  if not (st.dedup && duplicate s a) then begin
    st.forwarded <- st.forwarded + 1;
    match a.kind with
    | `Read ->
        if chc st s.write_op a then report st s ~first:`Write ~second:a;
        s.read_op <- a.op;
        s.read_flags <- a.flags;
        s.read_context <- a.context
    | `Write ->
        let read_first = s.read_op = a.op in
        let ww_relevant = Location.conflict_relevant a.loc ~kind:`Write ~kind':`Write in
        if ww_relevant && chc st s.write_op a then
          report st s ~first:`Write ~second:(if read_first then checked a else a)
        else if chc st s.read_op a then
          report st s ~first:`Read ~second:(if read_first then checked a else a);
        s.write_op <- a.op;
        s.write_flags <- a.flags;
        s.write_context <- a.context;
        s.write_checked <- read_first
  end

(* Same domain-local pre-sizing trick as [Dedup.cache_size_hint]: sites
   analysed on one fleet domain have similar location counts, so seed
   each new detector's table at this domain's high-water mark instead of
   rehash-growing from 1024 every site. Only the *size* is shared —
   sharing tables would alias one site's accesses into the next. *)
let table_size_hint : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 1024)

let make ~dedup graph =
  let hint = Domain.DLS.get table_size_hint in
  let st =
    {
      graph;
      table = Location.Tbl.create !hint;
      reported = Location.Tbl.create 64;
      dedup;
      races = [];
      seen = 0;
      forwarded = 0;
    }
  in
  ( st,
    {
      Detector.name = (if dedup then "last-access+dedup" else "last-access");
      record = record st;
      races =
        (fun () ->
          hint := max !hint (Location.Tbl.length st.table);
          List.rev st.races);
      accesses_seen = (fun () -> st.seen);
    } )

let create graph = snd (make ~dedup:false graph)

let create_dedup graph =
  let st, det = make ~dedup:true graph in
  (det, fun () -> { Dedup.seen = st.seen; forwarded = st.forwarded })
