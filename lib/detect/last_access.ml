open Wr_mem

(* Columns indexed by location key ({!Columns}), one entry per location:
   the last read and the last write, unboxed (the flags and context are
   the access's own), and the location's {!Dedup.mark}, whose cached
   accesses are these same last read and last write. An op of [-1] means
   the slot is empty. The write column keeps the op shifted left by one,
   its low bit set when the writing operation had read the location
   first; the [Checked_read_first] flag is only put on an access that
   goes into a report.

   The columns are cut into chunks of [chunk_size] keys, allocated as
   keys reach them: a location seen for the first time costs no
   allocation, and growth copies only the short array of chunks, so no
   outgrown column is left behind for the GC. *)
type chunk = {
  read_op : Wr_hb.Op.id array;
  read_flags : Access.flag list array;
  read_context : string array;
  write_op : int array;  (* op lsl 1 lor read-first bit, or -1 *)
  write_flags : Access.flag list array;
  write_context : string array;
  mark : Dedup.mark array;
}

let chunk_bits = 10

let chunk_size = 1 lsl chunk_bits

let make_chunk n =
  {
    read_op = Array.make n (-1);
    read_flags = Array.make n [];
    read_context = Array.make n "";
    write_op = Array.make n (-1);
    write_flags = Array.make n [];
    write_context = Array.make n "";
    mark = Array.make n Dedup.empty_mark;
  }

(* Fills the chunk slots not reached yet; never indexed. *)
let no_chunk = make_chunk 0

type state = {
  graph : Wr_hb.Graph.t;
  mutable chunks : chunk array;
  reported : unit Location.Tbl.t;  (* footnote 13: one race per location per run *)
  dedup : bool;
  mutable races : Race.t list;
  mutable seen : int;
  mutable forwarded : int;
}

let chunk_for st k =
  let i = k lsr chunk_bits in
  if i >= Array.length st.chunks then st.chunks <- Columns.grow st.chunks no_chunk i;
  let c = st.chunks.(i) in
  if c != no_chunk then c
  else begin
    let c = make_chunk chunk_size in
    st.chunks.(i) <- c;
    c
  end

let checked (a : Access.t) = Access.add_flag a Checked_read_first

(* [kind]'s slot [j] of [c], rebuilt as the access it recorded. *)
let prior c j loc kind : Access.t =
  match kind with
  | `Read ->
      { loc; kind; op = c.read_op.(j); flags = c.read_flags.(j); context = c.read_context.(j) }
  | `Write ->
      let w = c.write_op.(j) in
      let a =
        {
          Access.loc;
          kind;
          op = w asr 1;
          flags = c.write_flags.(j);
          context = c.write_context.(j);
        }
      in
      if w land 1 = 1 then checked a else a

(* Reached only for a race, so the report table and the records of both
   accesses are off the record path. *)
let report st c j ~first loc kind op flags context ~read_first =
  let key = Location.report_key loc in
  if not (Location.Tbl.mem st.reported key) then begin
    Location.Tbl.add st.reported key ();
    let second = { Access.loc; kind; op; flags; context } in
    let second = if read_first then checked second else second in
    st.races <- Race.make ~first:(prior c j loc first) ~second :: st.races
  end

(* CHC of a slot's operation and the current one; an empty slot races
   with nothing. *)
let chc st prev_op op = prev_op >= 0 && Wr_hb.Graph.chc st.graph prev_op op

let duplicate c j kind op flags context =
  let m = c.mark.(j) in
  let dup =
    match kind with
    | `Read ->
        Dedup.is_duplicate m kind op flags context ~cached_flags:c.read_flags.(j)
          ~cached_context:c.read_context.(j)
    | `Write ->
        Dedup.is_duplicate m kind op flags context ~cached_flags:c.write_flags.(j)
          ~cached_context:c.write_context.(j)
  in
  c.mark.(j) <- Dedup.after m kind op;
  dup

(* The flags and context columns hold pointers, so each store goes
   through the write barrier; emitters share both per site and per
   operation, so a repeat store of the same value is skipped. *)
let record st loc kind op flags context =
  st.seen <- st.seen + 1;
  let k = Columns.key loc in
  let c = chunk_for st k and j = k land (chunk_size - 1) in
  if not (st.dedup && duplicate c j kind op flags context) then begin
    st.forwarded <- st.forwarded + 1;
    match kind with
    | `Read ->
        if chc st (c.write_op.(j) asr 1) op then
          report st c j ~first:`Write loc kind op flags context ~read_first:false;
        c.read_op.(j) <- op;
        if c.read_flags.(j) != flags then c.read_flags.(j) <- flags;
        if c.read_context.(j) != context then c.read_context.(j) <- context
    | `Write ->
        let read_first = c.read_op.(j) = op in
        let ww_relevant = Location.conflict_relevant loc ~kind:`Write ~kind':`Write in
        if ww_relevant && chc st (c.write_op.(j) asr 1) op then
          report st c j ~first:`Write loc kind op flags context ~read_first
        else if chc st c.read_op.(j) op then
          report st c j ~first:`Read loc kind op flags context ~read_first;
        c.write_op.(j) <- (op lsl 1) lor Bool.to_int read_first;
        if c.write_flags.(j) != flags then c.write_flags.(j) <- flags;
        if c.write_context.(j) != context then c.write_context.(j) <- context
  end

let make ~dedup graph =
  let st =
    {
      graph;
      chunks = Array.make 4 no_chunk;
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
      races = (fun () -> List.rev st.races);
      accesses_seen = (fun () -> st.seen);
    } )

let create graph = snd (make ~dedup:false graph)

let create_dedup graph =
  let st, det = make ~dedup:true graph in
  (det, fun () -> { Dedup.seen = st.seen; forwarded = st.forwarded })
