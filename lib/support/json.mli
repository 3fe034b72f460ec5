(** Minimal JSON values and serializer for tool output.

    Only emission is needed (the CLI's [--format json]); no parser. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string
      (** an already-encoded JSON value, emitted verbatim. The producer
          guarantees it is valid compact JSON (typically the output of
          {!to_string}), so an encoded document can be wrapped in an
          envelope without re-encoding it. {!of_string} never returns
          it. *)

(** [to_string t] renders compact JSON with correct string escaping. A
    non-finite [Float] (infinity, NaN) renders as [null], as
    [JSON.stringify] does, so the output always parses. *)
val to_string : t -> string

exception Parse_error of string

(** [of_string s] parses JSON text (strict; numbers parse as [Int] when
    integral, else [Float]). Raises {!Parse_error}. Round-trips with
    {!to_string} — a qcheck property. *)
val of_string : string -> t

(** {2 Accessors} — raise {!Parse_error} on shape mismatch, for concise
    decoding of trusted documents (trace files). *)

val member : string -> t -> t

val to_int : t -> int

val to_str : t -> string

val to_list : t -> t list

(** [pp] pretty-prints with two-space indentation, for human consumption. *)
val pp : Format.formatter -> t -> unit
