open Wr_mem

type slots = {
  mutable last_read : Access.t option;
  mutable last_write : Access.t option;
  dedup : Dedup.slot;
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

let chc graph (prev : Access.t option) (cur : Access.t) =
  match prev with None -> None | Some p ->
    if Wr_hb.Graph.chc graph p.Access.op cur.Access.op then Some p else None

let report st ~first ~second =
  let key = Location.report_key second.Access.loc in
  if not (Location.Tbl.mem st.reported key) then begin
    Location.Tbl.add st.reported key ();
    st.races <- Race.make ~first ~second :: st.races
  end

let slots_for st loc =
  match Location.Tbl.find_opt st.table loc with
  | Some s -> s
  | None ->
      let s = { last_read = None; last_write = None; dedup = Dedup.slot () } in
      Location.Tbl.add st.table loc s;
      s

let record st (a : Access.t) =
  st.seen <- st.seen + 1;
  let s = slots_for st a.loc in
  if not (st.dedup && Dedup.duplicate s.dedup a) then begin
    st.forwarded <- st.forwarded + 1;
    match a.kind with
    | `Read ->
        (match chc st.graph s.last_write a with
        | Some w -> report st ~first:w ~second:a
        | None -> ());
        s.last_read <- Some a
    | `Write ->
        let a =
          match s.last_read with
          | Some r when r.Access.op = a.op -> Access.add_flag a Checked_read_first
          | Some _ | None -> a
        in
        let ww_relevant = Location.conflict_relevant a.loc ~kind:`Write ~kind':`Write in
        (match (if ww_relevant then chc st.graph s.last_write a else None) with
        | Some w -> report st ~first:w ~second:a
        | None -> (
            match chc st.graph s.last_read a with
            | Some r -> report st ~first:r ~second:a
            | None -> ()));
        s.last_write <- Some a
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
