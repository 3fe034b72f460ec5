(** Pretty-printer for MiniJS ASTs.

    Emits syntactically valid MiniJS: [parse (program_to_string p)] yields a
    structurally equal program (a qcheck property in the test suite).
    Output is fully parenthesized at expression level, so no precedence
    bookkeeping is needed. *)

(** [number_to_string n] renders a numeric literal the way JavaScript's
    ToString does for the common cases: integers without a decimal point,
    [NaN], [Infinity]. *)
val number_to_string : float -> string

(** [int_to_string i] is [string_of_int i]; the strings of small
    non-negative [i] (array indices) are shared, and no format string is
    interpreted. *)
val int_to_string : int -> string

val expr_to_string : Ast.expr -> string

val program_to_string : Ast.program -> string
