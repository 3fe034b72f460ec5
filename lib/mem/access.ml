type kind = [ `Read | `Write ]

type flag =
  | Function_decl
  | Call_position
  | Form_field
  | Observed_miss
  | User_input
  | Checked_read_first

type t = {
  loc : Location.t;
  kind : kind;
  op : Wr_hb.Op.id;
  flags : flag list;
  context : string;
}

type sink = Location.t -> kind -> Wr_hb.Op.id -> flag list -> string -> unit

let discard _ _ _ _ _ = ()

let has_flag t f = List.mem f t.flags

(* Emission sites build flags and context deterministically, so a repeat of
   the same source-level access produces a structurally equal record; list
   order is stable per site and needs no normalization. *)
let same_shape a b =
  a.op = b.op && a.kind = b.kind && a.flags = b.flags && a.context = b.context
  && Location.equal a.loc b.loc

let add_flag t f = if has_flag t f then t else { t with flags = f :: t.flags }

let flag_name = function
  | Function_decl -> "function-decl"
  | Call_position -> "call"
  | Form_field -> "form-field"
  | Observed_miss -> "miss"
  | User_input -> "user-input"
  | Checked_read_first -> "checked-read-first"

let pp ppf t =
  let kind = match t.kind with `Read -> "R" | `Write -> "W" in
  Format.fprintf ppf "%s %a by op#%d" kind Location.pp t.loc t.op;
  if t.flags <> [] then
    Format.fprintf ppf " [%s]" (String.concat "," (List.map flag_name t.flags));
  if t.context <> "" then Format.fprintf ppf " (%s)" t.context
