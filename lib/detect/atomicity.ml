module Graph = Wr_hb.Graph
module Access = Wr_mem.Access
module Location = Wr_mem.Location

type pattern = R_w_r | W_w_r | R_w_w | W_r_w

let pattern_name = function
  | R_w_r -> "read-write-read"
  | W_w_r -> "write-write-read"
  | R_w_w -> "read-write-write"
  | W_r_w -> "write-read-write"

type violation = {
  loc : Location.t;
  pattern : pattern;
  first : Access.t;
  interleaved : Access.t;
  second : Access.t;
}

let classify k1 kc k2 =
  match k1, kc, k2 with
  | `Read, `Write, `Read -> Some R_w_r
  | `Write, `Write, `Read -> Some W_w_r
  | `Read, `Write, `Write -> Some R_w_w
  | `Write, `Read, `Write -> Some W_r_w
  | _ -> None

(* Locations designed for concurrent writes never form transactions. *)
let relevant = function
  | Location.Html_elem (Location.Collection _) -> false
  | Location.Event_handler { slot = Location.Container; _ } -> false
  | Location.Js_var _ | Location.Html_elem (Location.Node _ | Location.Id _)
  | Location.Event_handler _ ->
      true

(* Bound per-location work: pages hammer few distinct (op, kind) pairs per
   location, but a pathological trace should degrade by omission, not by
   blow-up. *)
let max_entries_per_location = 128

let check graph accesses =
  let by_loc : Access.t list Location.Tbl.t = Location.Tbl.create 256 in
  (* Locations in order of first access, newest first: violations come out
     in trace order, whatever order the table's hash gives. *)
  let first_seen = ref [] in
  List.iter
    (fun (a : Access.t) ->
      if relevant a.Access.loc then
        let prev =
          match Location.Tbl.find_opt by_loc a.Access.loc with
          | Some l -> l
          | None ->
              first_seen := a.Access.loc :: !first_seen;
              []
        in
        (* Keep one access per (op, kind): later duplicates add nothing. *)
        if
          not
            (List.exists
               (fun (p : Access.t) -> p.Access.op = a.Access.op && p.Access.kind = a.Access.kind)
               prev)
        then Location.Tbl.replace by_loc a.Access.loc (a :: prev))
    accesses;
  let reported = Hashtbl.create 32 in
  let out = ref [] in
  List.iter
    (fun loc ->
      let entries = Array.of_list (List.rev (Location.Tbl.find by_loc loc)) in
      let m = Array.length entries in
      if m >= 3 && m <= max_entries_per_location then
        for i = 0 to m - 1 do
          for j = 0 to m - 1 do
            let a1 = entries.(i) and a2 = entries.(j) in
            if a1.Access.op <> a2.Access.op && Graph.happens_before graph a1.Access.op a2.Access.op
            then
              for k = 0 to m - 1 do
                let c = entries.(k) in
                if
                  c.Access.op <> a1.Access.op && c.Access.op <> a2.Access.op
                  && Graph.chc graph c.Access.op a1.Access.op
                  && Graph.chc graph c.Access.op a2.Access.op
                then
                  match classify a1.Access.kind c.Access.kind a2.Access.kind with
                  | Some pattern ->
                      let key = (Location.report_key loc, pattern) in
                      if not (Hashtbl.mem reported key) then begin
                        Hashtbl.add reported key ();
                        out := { loc; pattern; first = a1; interleaved = c; second = a2 } :: !out
                      end
                  | None -> ()
              done
          done
        done)
    (List.rev !first_seen);
  List.rev !out

let check_trace trace =
  let graph = Trace.rebuild_graph trace in
  check graph trace.Trace.accesses

let pp_violation ppf v =
  Format.fprintf ppf "@[<v 2>%s atomicity violation on %a:@,%a@,%a   <-- interleaved@,%a@]"
    (pattern_name v.pattern) Location.pp v.loc Access.pp v.first Access.pp v.interleaved
    Access.pp v.second
