type t = {
  mutable op : Wr_hb.Op.id;
  mutable context : string;
  sink : Access.sink;
  cell_loc : owner:int -> string -> Location.t;
  fresh_id : unit -> int;
  fresh_key : unit -> int;
}

let emit t loc kind = t.sink loc kind t.op [] t.context

let emit_flagged t flags loc kind = t.sink loc kind t.op flags t.context

let null () =
  let counter = ref 0 in
  let fresh_id () =
    incr counter;
    !counter
  in
  let keys = ref 0 in
  let fresh_key () =
    let k = !keys in
    incr keys;
    k
  in
  let cells = Location.Cells.create 64 in
  {
    op = 0;
    context = "";
    sink = Access.discard;
    cell_loc =
      (fun ~owner name ->
        match Location.Cells.find cells ~owner name with
        | loc -> loc
        | exception Not_found ->
            let loc = Location.Js_var { cell = fresh_id (); name; key = fresh_key () } in
            Location.Cells.add cells ~owner name loc;
            loc);
    fresh_id;
    fresh_key;
  }
