open Wr_mem

type stats = { seen : int; forwarded : int }

let swallowed s = s.seen - s.forwarded

let ratio s = if s.forwarded = 0 then 1.0 else float_of_int s.seen /. float_of_int s.forwarded

(* One cache line per location, valid only for the operation in [epoch]:
   a slot whose epoch differs from the incoming access's op is logically
   empty. Epochs make the op-switch flush free (an interleaved operation
   only invalidates the locations it actually touches) and make the
   duplicate test cheap — a cache hit already proves same location, same
   kind slot and same operation, leaving flags and context. The cached
   read and write are kept unboxed, their op field [-1] when empty, so
   updating a slot allocates nothing. *)
type slot = {
  mutable epoch : Wr_hb.Op.id;
  mutable read_op : Wr_hb.Op.id;
  mutable read_flags : Access.flag list;
  mutable read_context : string;
  mutable wrote_op : Wr_hb.Op.id;
  mutable wrote_flags : Access.flag list;
  mutable wrote_context : string;
}

let slot () =
  {
    epoch = -1;
    read_op = -1;
    read_flags = [];
    read_context = "";
    wrote_op = -1;
    wrote_flags = [];
    wrote_context = "";
  }

(* A cached entry comes from the same epoch (same op) and the same
   location/kind slot as [a], so only flags and context can distinguish
   them. Flag lists and context strings are shared per site and per
   operation by the emitters, so the physical checks almost always
   decide. *)
let same_record flags context (a : Access.t) =
  (flags == a.Access.flags || flags = a.Access.flags)
  && (context == a.Access.context || String.equal context a.Access.context)

let duplicate s (a : Access.t) =
  let op = a.Access.op in
  if s.epoch <> op then begin
    s.epoch <- op;
    s.read_op <- -1;
    s.wrote_op <- -1
  end;
  match a.Access.kind with
  | `Read ->
      (* A read arms the Checked_read_first transition for the op's next
         write, so the cached write is no longer a faithful duplicate. *)
      s.wrote_op <- -1;
      if s.read_op = op && same_record s.read_flags s.read_context a then true
      else begin
        s.read_op <- op;
        s.read_flags <- a.Access.flags;
        s.read_context <- a.Access.context;
        false
      end
  | `Write ->
      if s.wrote_op = op && same_record s.wrote_flags s.wrote_context a then true
      else begin
        s.wrote_op <- op;
        s.wrote_flags <- a.Access.flags;
        s.wrote_context <- a.Access.context;
        false
      end

(* Domain-local high-water mark for the location-cache size: sites on one
   corpus domain are alike, so pre-sizing each wrap's table to the largest
   seen on this domain avoids the rehash-and-copy churn of growing from
   256 on every site. A size *hint* is deliberately all we share: reusing
   the table itself across wraps could alias stale epoch slots into the
   next site's detector, and no verdict is worth that risk. *)
let cache_size_hint : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 256)

let wrap (inner : Detector.t) =
  let hint = Domain.DLS.get cache_size_hint in
  let cache = Location.Tbl.create !hint in
  let seen = ref 0 and forwarded = ref 0 in
  let record (a : Access.t) =
    incr seen;
    let s =
      match Location.Tbl.find cache a.Access.loc with
      | s -> s
      | exception Not_found ->
          let s = slot () in
          Location.Tbl.add cache a.Access.loc s;
          s
    in
    if not (duplicate s a) then begin
      incr forwarded;
      inner.Detector.record a
    end
  in
  ( {
      inner with
      Detector.name = inner.Detector.name ^ "+dedup";
      record;
      accesses_seen = (fun () -> !seen);
    },
    fun () ->
      (* Reading the stats marks the end of a site's useful life, so fold
         the observed table size into this domain's hint. *)
      hint := max !hint (Location.Tbl.length cache);
      { seen = !seen; forwarded = !forwarded } )
