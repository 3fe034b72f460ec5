open Wr_mem

type stats = { seen : int; forwarded : int }

let swallowed s = s.seen - s.forwarded

(* One location's dedup state, valid only for the operation in its
   epoch: a location whose epoch differs from the incoming access's op
   is logically empty. Epochs make the op-switch flush free (an
   interleaved operation only invalidates the locations it actually
   touches) and make the duplicate test cheap — a cache hit already
   proves same location, same kind slot and same operation, leaving
   flags and context.

   The state is one immediate int, a [mark]: the epoch times four plus a
   bit per kind, set while the epoch's op has a cached access of that
   kind. The cached accesses themselves (flags and context) live with the
   owner: in a [slot] here, or in [Last_access]'s own last read and last
   write, which hold exactly the accesses last forwarded. *)
type mark = int

let empty_mark = -4 (* epoch -1, nothing cached *)

let kind_bit = function `Read -> 1 | `Write -> 2

(* A cached entry comes from the same epoch (same op) and the same
   location/kind slot as the access, so only flags and context can
   distinguish them. Flag lists and context strings are shared per site
   and per operation by the emitters, so the physical checks almost
   always decide. *)
let same_record flags context ~cached_flags ~cached_context =
  (cached_flags == flags || cached_flags = flags)
  && (cached_context == context || String.equal cached_context context)

let is_duplicate m kind op flags context ~cached_flags ~cached_context =
  m asr 2 = op && m land kind_bit kind <> 0
  && same_record flags context ~cached_flags ~cached_context

(* A read arms the Checked_read_first transition for the op's next
   write, so it drops the cached write: that write is no longer a
   faithful duplicate. *)
let after m kind op =
  let m = if m asr 2 = op then m else op lsl 2 in
  match kind with `Read -> (m lor 1) land lnot 2 | `Write -> m lor 2

type slot = {
  mutable mark : mark;
  mutable read_flags : Access.flag list;
  mutable read_context : string;
  mutable wrote_flags : Access.flag list;
  mutable wrote_context : string;
}

let slot () =
  { mark = empty_mark; read_flags = []; read_context = ""; wrote_flags = []; wrote_context = "" }

let duplicate s kind op flags context =
  let dup =
    match kind with
    | `Read ->
        is_duplicate s.mark kind op flags context ~cached_flags:s.read_flags
          ~cached_context:s.read_context
    | `Write ->
        is_duplicate s.mark kind op flags context ~cached_flags:s.wrote_flags
          ~cached_context:s.wrote_context
  in
  s.mark <- after s.mark kind op;
  if not dup then begin
    match kind with
    | `Read ->
        s.read_flags <- flags;
        s.read_context <- context
    | `Write ->
        s.wrote_flags <- flags;
        s.wrote_context <- context
  end;
  dup

(* Slots by location key ({!Columns}); [absent] fills the keys not seen
   yet and is never updated. *)
let absent = slot ()

let wrap (inner : Detector.t) =
  let slots = ref (Array.make Columns.initial absent) in
  let seen = ref 0 and forwarded = ref 0 in
  let record loc kind op flags context =
    incr seen;
    let k = Columns.key loc in
    if k >= Array.length !slots then slots := Columns.grow !slots absent k;
    let s =
      match !slots.(k) with
      | s when s != absent -> s
      | _ ->
          let s = slot () in
          !slots.(k) <- s;
          s
    in
    if not (duplicate s kind op flags context) then begin
      incr forwarded;
      inner.Detector.record loc kind op flags context
    end
  in
  ( {
      inner with
      Detector.name = inner.Detector.name ^ "+dedup";
      record;
      accesses_seen = (fun () -> !seen);
    },
    fun () -> { seen = !seen; forwarded = !forwarded } )
