open Wr_mem

type history = {
  mutable reads : Access.t list;
  mutable writes : Access.t list;
  mutable read_ops : int list;  (* ops that read, for Checked_read_first *)
  dedup : Dedup.slot;
}

type state = {
  graph : Wr_hb.Graph.t;
  mutable histories : history array;  (* by location key ({!Columns}) *)
  reported : unit Location.Tbl.t;
  dedup : bool;
  mutable races : Race.t list;
  mutable seen : int;
  mutable forwarded : int;
}

(* Fills the keys not seen yet; never updated. *)
let absent = { reads = []; writes = []; read_ops = []; dedup = Dedup.slot () }

let history_for st loc =
  let k = Columns.key loc in
  if k >= Array.length st.histories then st.histories <- Columns.grow st.histories absent k;
  let h = st.histories.(k) in
  if h != absent then h
  else begin
    let h = { reads = []; writes = []; read_ops = []; dedup = Dedup.slot () } in
    st.histories.(k) <- h;
    h
  end

let find_conflict st (prevs : Access.t list) (cur : Access.t) =
  List.find_opt (fun (p : Access.t) -> Wr_hb.Graph.chc st.graph p.Access.op cur.Access.op) prevs

let report st h ~first ~second =
  Location.Tbl.add st.reported (Location.report_key second.Access.loc) ();
  (* History for a reported location is dead weight from here on; its
     dedup slot stays live so the forwarded count matches [Dedup.wrap]. *)
  h.reads <- [];
  h.writes <- [];
  h.read_ops <- [];
  st.races <- Race.make ~first ~second :: st.races

(* Histories keep accesses, so a forwarded access is built as a record
   here, from the borrowed fields. *)
let record st loc kind op flags context =
  st.seen <- st.seen + 1;
  let h = history_for st loc in
  if not (st.dedup && Dedup.duplicate h.dedup kind op flags context) then begin
    st.forwarded <- st.forwarded + 1;
    if not (Location.Tbl.mem st.reported (Location.report_key loc)) then
      let a = { Access.loc; kind; op; flags; context } in
      match kind with
      | `Read -> (
          match find_conflict st h.writes a with
          | Some w -> report st h ~first:w ~second:a
          | None ->
              h.reads <- a :: h.reads;
              h.read_ops <- a.op :: h.read_ops)
      | `Write -> (
          let a =
            if List.mem a.op h.read_ops then Access.add_flag a Checked_read_first else a
          in
          let ww_relevant = Location.conflict_relevant a.loc ~kind:`Write ~kind':`Write in
          match (if ww_relevant then find_conflict st h.writes a else None) with
          | Some w -> report st h ~first:w ~second:a
          | None -> (
              match find_conflict st h.reads a with
              | Some r -> report st h ~first:r ~second:a
              | None -> h.writes <- a :: h.writes))
  end

let make ~dedup graph =
  let st =
    {
      graph;
      histories = Array.make Columns.initial absent;
      reported = Location.Tbl.create 64;
      dedup;
      races = [];
      seen = 0;
      forwarded = 0;
    }
  in
  ( st,
    {
      Detector.name = (if dedup then "full-track+dedup" else "full-track");
      record = record st;
      races = (fun () -> List.rev st.races);
      accesses_seen = (fun () -> st.seen);
    } )

let create graph = snd (make ~dedup:false graph)

let create_dedup graph =
  let st, det = make ~dedup:true graph in
  (det, fun () -> { Dedup.seen = st.seen; forwarded = st.forwarded })
