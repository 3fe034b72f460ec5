(** Plain-text table rendering for benchmark and evaluation output.

    The bench harness prints the same rows the paper's tables report; this
    module handles column sizing and alignment. *)

(** [render ~header rows] lays out [rows] under [header] with columns
    padded to the widest cell: the first column left-aligned, the rest
    right-aligned (the shape of the paper's tables). Rows shorter than
    the header are padded with empty cells. *)
val render : header:string list -> string list list -> string

(** [print ~header rows] renders to stdout. *)
val print : header:string list -> string list list -> unit
