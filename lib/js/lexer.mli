(** Hand-written lexer for MiniJS.

    Produces a token stream with line/column positions for parse-error
    reporting. Comments ([//] and [/* */]) and whitespace are skipped.
    Semicolon insertion is not performed here; the parser implements a
    pragmatic subset of ASI (statements may end at a newline, [}] or EOF
    where a semicolon is grammatically required). *)

type token =
  | T_number of float
  | T_string of string
  | T_ident of string  (** identifiers and contextual words *)
  | T_keyword of string  (** reserved words: function, var, if, ... *)
  | T_punct of string  (** operators and delimiters, longest-match *)
  | T_regex of string * string
      (** regex literal: body and flags. Disambiguated from division by the
          preceding token (a regex may start where an expression may). *)
  | T_eof

type lexed = {
  tok : token;
  line : int;  (** 1-based line of the token's first character *)
  col : int;  (** 1-based column *)
  preceded_by_newline : bool;  (** for automatic semicolon insertion *)
}

exception Lex_error of string * int * int  (** message, line, col *)

(** [tokenize src] lexes the whole input eagerly. The final element is
    always [T_eof]. Raises {!Lex_error} on malformed input (unterminated
    string or comment, bad number, stray character). *)
val tokenize : string -> lexed array
