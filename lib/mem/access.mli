(** Memory-access records flowing from instrumentation to the detector.

    Every instrumented point in the simulated browser (variable reads,
    property writes, DOM insertion, handler registration, event dispatch,
    ...) emits one [t]. Flags carry the side-channel information the race
    classifier (§6.1) and the report filters (§5.3) need. *)

type kind = [ `Read | `Write ]

type flag =
  | Function_decl
      (** a hoisted function-declaration write (§4.1 "Functions"); a race
          whose write carries this flag is a {e function race} *)
  | Call_position  (** a variable read used directly as a call target *)
  | Form_field  (** the value/checked slot of a form field (filter §5.3) *)
  | Observed_miss
      (** the read observed absence: [getElementById] returned null, the
          variable was undefined — evidence for harmfulness classification *)
  | User_input  (** a write performed on behalf of (simulated) user input *)
  | Checked_read_first
      (** detector-added: the writing operation read this location before
          writing it — the §5.3 form-filter refinement treats such races as
          harmless *)

type t = {
  loc : Location.t;
  kind : kind;
  op : Wr_hb.Op.id;  (** the operation performing the access *)
  flags : flag list;
  context : string;  (** human-readable source context for reports *)
}

(** The record path from instrumentation to a detector: one access as
    its fields, [sink loc kind op flags context]. No record is built on
    the way. The arguments are borrowed: a sink that keeps an access past
    the call (a history, a trace, a race report) builds its own [t] from
    them. Emission sites share their flag lists and context strings
    between calls, so a sink may compare them physically first. *)
type sink = Location.t -> kind -> Wr_hb.Op.id -> flag list -> string -> unit

(** [discard] is the sink that drops every access. *)
val discard : sink

val has_flag : t -> flag -> bool

(** [same_shape a b] — the two records are indistinguishable to a detector:
    same location, kind, operation, flags and context. A repeat execution of
    one source-level access inside one operation (a read in a loop body)
    satisfies this; the dedup front-end uses it to swallow such repeats. *)
val same_shape : t -> t -> bool

(** [add_flag t f] is [t] with [f] recorded (idempotent). *)
val add_flag : t -> flag -> t

val pp : Format.formatter -> t -> unit
