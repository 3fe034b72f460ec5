type node =
  | Char of char
  | Any
  | Class of { negated : bool; ranges : (char * char) list }
  | Seq of node list
  | Alt of node list
  | Group of int option * node  (* [Some i]: capture group i *)
  | Repeat of { node : node; min : int; max : int option; greedy : bool }
  | Bol
  | Eol
  | Word_boundary of bool  (* [true] = \b, [false] = \B *)

type t = {
  root : node;
  n_groups : int;
  src_pattern : string;
  src_flags : string;
  ignore_case : bool;
  is_global : bool;
  multiline : bool;
}

let pattern t = t.src_pattern

let flags t = t.src_flags

let global t = t.is_global

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let digit_ranges = [ ('0', '9') ]

let word_ranges = [ ('a', 'z'); ('A', 'Z'); ('0', '9'); ('_', '_') ]

let space_ranges = [ (' ', ' '); ('\t', '\t'); ('\n', '\n'); ('\r', '\r'); ('\012', '\012'); ('\011', '\011') ]

let parse_pattern pat =
  let n = String.length pat in
  let pos = ref 0 in
  let group_counter = ref 0 in
  let peek () = if !pos < n then Some pat.[!pos] else None in
  let advance () = incr pos in
  let eat c =
    if peek () = Some c then advance () else raise (Bad (Printf.sprintf "expected %C" c))
  in
  let escape_node c =
    match c with
    | 'd' -> Class { negated = false; ranges = digit_ranges }
    | 'D' -> Class { negated = true; ranges = digit_ranges }
    | 'w' -> Class { negated = false; ranges = word_ranges }
    | 'W' -> Class { negated = true; ranges = word_ranges }
    | 's' -> Class { negated = false; ranges = space_ranges }
    | 'S' -> Class { negated = true; ranges = space_ranges }
    | 'b' -> Word_boundary true
    | 'B' -> Word_boundary false
    | 'n' -> Char '\n'
    | 't' -> Char '\t'
    | 'r' -> Char '\r'
    | 'f' -> Char '\012'
    | 'v' -> Char '\011'
    | '0' -> Char '\000'
    | c when c >= '1' && c <= '9' -> raise (Bad "backreferences are not supported")
    | c -> Char c
  in
  let parse_class () =
    (* '[' already consumed. *)
    let negated = peek () = Some '^' in
    if negated then advance ();
    let ranges = ref [] in
    let add_escape c =
      match escape_node c with
      | Class { negated = false; ranges = rs } -> ranges := rs @ !ranges
      | Class { negated = true; _ } -> raise (Bad "negated class escape inside [...]")
      | Char c -> ranges := (c, c) :: !ranges
      | _ -> raise (Bad "unsupported escape inside [...]")
    in
    let read_char_or_escape () =
      match peek () with
      | None -> raise (Bad "unterminated character class")
      | Some '\\' ->
          advance ();
          (match peek () with
          | None -> raise (Bad "dangling escape in class")
          | Some ('n' as c) | Some ('t' as c) | Some ('r' as c) ->
              advance ();
              `Char (match c with 'n' -> '\n' | 't' -> '\t' | _ -> '\r')
          | Some ('d' | 'D' | 'w' | 'W' | 's' | 'S') ->
              let c = Option.get (peek ()) in
              advance ();
              `Escape c
          | Some c ->
              advance ();
              `Char c)
      | Some c ->
          advance ();
          `Char c
    in
    let rec loop () =
      match peek () with
      | None -> raise (Bad "unterminated character class")
      | Some ']' -> advance ()
      | Some _ -> (
          match read_char_or_escape () with
          | `Escape c ->
              add_escape c;
              loop ()
          | `Char lo -> (
              (* A range lo-hi, unless '-' is last or next is ']'. *)
              match peek (), !pos + 1 <= n with
              | Some '-', _ when !pos + 1 < n && pat.[!pos + 1] <> ']' ->
                  advance ();
                  (match read_char_or_escape () with
                  | `Char hi ->
                      if Char.code hi < Char.code lo then raise (Bad "inverted range");
                      ranges := (lo, hi) :: !ranges;
                      loop ()
                  | `Escape _ -> raise (Bad "class escape as range bound"))
              | _ ->
                  ranges := (lo, lo) :: !ranges;
                  loop ()))
    in
    loop ();
    Class { negated; ranges = List.rev !ranges }
  in
  let parse_int () =
    let start = !pos in
    while (match peek () with Some c when c >= '0' && c <= '9' -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then None else Some (int_of_string (String.sub pat start (!pos - start)))
  in
  let rec parse_alt () =
    let first = parse_seq () in
    if peek () = Some '|' then begin
      let branches = ref [ first ] in
      while peek () = Some '|' do
        advance ();
        branches := parse_seq () :: !branches
      done;
      Alt (List.rev !branches)
    end
    else first
  and parse_seq () =
    let items = ref [] in
    let rec loop () =
      match peek () with
      | None | Some '|' | Some ')' -> ()
      | Some _ ->
          items := parse_repeat () :: !items;
          loop ()
    in
    loop ();
    match !items with [ one ] -> one | items -> Seq (List.rev items)
  and parse_repeat () =
    let atom = parse_atom () in
    let quantified min max =
      advance ();
      let greedy =
        if peek () = Some '?' then begin
          advance ();
          false
        end
        else true
      in
      Repeat { node = atom; min; max; greedy }
    in
    match peek () with
    | Some '*' -> quantified 0 None
    | Some '+' -> quantified 1 None
    | Some '?' -> quantified 0 (Some 1)
    | Some '{' -> (
        (* {m}, {m,}, {m,n} — anything else is a literal brace. *)
        let save = !pos in
        advance ();
        match parse_int () with
        | Some m -> (
            match peek () with
            | Some '}' ->
                advance ();
                let greedy =
                  if peek () = Some '?' then begin
                    advance ();
                    false
                  end
                  else true
                in
                Repeat { node = atom; min = m; max = Some m; greedy }
            | Some ',' -> (
                advance ();
                let mx = parse_int () in
                match peek () with
                | Some '}' ->
                    advance ();
                    let greedy =
                      if peek () = Some '?' then begin
                        advance ();
                        false
                      end
                      else true
                    in
                    (match mx with
                    | Some x when x < m -> raise (Bad "repeat bounds out of order")
                    | _ -> ());
                    Repeat { node = atom; min = m; max = mx; greedy }
                | _ ->
                    pos := save;
                    atom)
            | _ ->
                pos := save;
                atom)
        | None ->
            pos := save;
            atom)
    | _ -> atom
  and parse_atom () =
    match peek () with
    | None -> raise (Bad "expected an atom")
    | Some '(' ->
        advance ();
        let capture =
          if peek () = Some '?' then begin
            advance ();
            match peek () with
            | Some ':' ->
                advance ();
                None
            | Some ('=' | '!' | '<') -> raise (Bad "lookaround is not supported")
            | _ -> raise (Bad "bad group modifier")
          end
          else begin
            incr group_counter;
            Some !group_counter
          end
        in
        let inner = parse_alt () in
        eat ')';
        Group (capture, inner)
    | Some '[' ->
        advance ();
        parse_class ()
    | Some '.' ->
        advance ();
        Any
    | Some '^' ->
        advance ();
        Bol
    | Some '$' ->
        advance ();
        Eol
    | Some '\\' ->
        advance ();
        (match peek () with
        | None -> raise (Bad "dangling escape")
        | Some c ->
            advance ();
            escape_node c)
    | Some ('*' | '+' | '?') -> raise (Bad "quantifier without atom")
    | Some ')' -> raise (Bad "unbalanced ')'")
    | Some c ->
        advance ();
        Char c
  in
  let root = parse_alt () in
  if !pos <> n then raise (Bad "trailing characters (unbalanced ')')");
  (root, !group_counter)

let compile ~pattern ~flags =
  let ok_flags = String.for_all (fun c -> c = 'i' || c = 'g' || c = 'm') flags in
  if not ok_flags then Error (Printf.sprintf "unsupported regex flags %S" flags)
  else
    match parse_pattern pattern with
    | root, n_groups ->
        Ok
          {
            root;
            n_groups;
            src_pattern = pattern;
            src_flags = flags;
            ignore_case = String.contains flags 'i';
            is_global = String.contains flags 'g';
            multiline = String.contains flags 'm';
          }
    | exception Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Matcher (backtracking CPS)                                          *)
(* ------------------------------------------------------------------ *)

type match_result = {
  start : int;
  stop : int;
  groups : (int * int) option array;
}

let is_word_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

(* The matcher for one subject string. Its functions and group arrays
   are built once per scan and reused at every start position; per step
   it allocates only the continuations of sequences, groups and
   repeats. *)
let matcher t s =
  let n = String.length s in
  let ic = t.ignore_case in
  let fold_case c = if ic then Char.lowercase_ascii c else c in
  let rec in_ranges ranges c c' =
    match ranges with
    | [] -> false
    | (lo, hi) :: rest ->
        (c >= lo && c <= hi) || (ic && c' >= fold_case lo && c' <= fold_case hi)
        || in_ranges rest c c'
  in
  let gstart = Array.make (t.n_groups + 1) (-1) in
  let gstop = Array.make (t.n_groups + 1) (-1) in
  let rec m node pos (k : int -> bool) =
    match node with
    | Char c -> pos < n && fold_case s.[pos] = fold_case c && k (pos + 1)
    | Any -> pos < n && s.[pos] <> '\n' && k (pos + 1)
    | Class { negated; ranges } ->
        pos < n
        && (let c = s.[pos] in
            let inside = in_ranges ranges c (fold_case c) in
            if negated then not inside else inside)
        && k (pos + 1)
    | Seq items -> seq items pos k
    | Alt branches -> alt branches pos k
    | Group (capture, inner) -> (
        match capture with
        | None -> m inner pos k
        | Some i ->
            let saved_start = gstart.(i) and saved_stop = gstop.(i) in
            gstart.(i) <- pos;
            let ok =
              m inner pos (fun p ->
                  let prev = gstop.(i) in
                  gstop.(i) <- p;
                  k p
                  ||
                  (gstop.(i) <- prev;
                   false))
            in
            if not ok then begin
              gstart.(i) <- saved_start;
              gstop.(i) <- saved_stop
            end;
            ok)
    | Repeat { node; min; max; greedy } -> repeat node min max greedy 0 pos k
    | Bol ->
        (pos = 0 || (t.multiline && pos > 0 && s.[pos - 1] = '\n')) && k pos
    | Eol -> (pos = n || (t.multiline && s.[pos] = '\n')) && k pos
    | Word_boundary positive ->
        let before = pos > 0 && is_word_char s.[pos - 1] in
        let after = pos < n && is_word_char s.[pos] in
        let boundary = before <> after in
        (if positive then boundary else not boundary) && k pos
  and seq items pos k =
    match items with
    | [] -> k pos
    | [ x ] -> m x pos k
    | x :: rest -> m x pos (fun p -> seq rest p k)
  and alt branches pos k =
    match branches with [] -> false | b :: rest -> m b pos k || alt rest pos k
  and repeat node min max greedy count pos k =
    let more () =
      (match max with None -> true | Some mx -> count < mx)
      && m node pos (fun p ->
             (* An empty iteration can never make progress. *)
             if p = pos then false else repeat node min max greedy (count + 1) p k)
    in
    if greedy then more () || (count >= min && k pos) else (count >= min && k pos) || more ()
  in
  let final = ref (-1) in
  let accept p =
    final := p;
    true
  in
  fun at ->
    for i = 0 to t.n_groups do
      gstart.(i) <- -1;
      gstop.(i) <- -1
    done;
    if m t.root at accept then begin
      let groups = Array.make (t.n_groups + 1) None in
      groups.(0) <- Some (at, !final);
      for i = 1 to t.n_groups do
        if gstart.(i) >= 0 && gstop.(i) >= gstart.(i) then
          groups.(i) <- Some (gstart.(i), gstop.(i))
      done;
      Some { start = at; stop = !final; groups }
    end
    else None

(* The leftmost match of [try_at] at or after [at]. *)
let rec scan try_at n at =
  if at > n then None else match try_at at with None -> scan try_at n (at + 1) | r -> r

let exec t s ~start = scan (matcher t s) (String.length s) (max 0 start)

let test t s = exec t s ~start:0 <> None

let match_all t s =
  let n = String.length s in
  let try_at = matcher t s in
  let rec loop at acc =
    if at > n then List.rev acc
    else
      match scan try_at n at with
      | None -> List.rev acc
      | Some r ->
          let next = if r.stop = r.start then r.stop + 1 else r.stop in
          loop next (r :: acc)
  in
  loop 0 []

let expand_template t s (r : match_result) by =
  let buf = Buffer.create (String.length by) in
  let group_text i =
    if i <= t.n_groups then
      match r.groups.(i) with
      | Some (a, b) -> String.sub s a (b - a)
      | None -> ""
    else ""
  in
  let n = String.length by in
  let rec go i =
    if i < n then
      if by.[i] = '$' && i + 1 < n then begin
        match by.[i + 1] with
        | '$' ->
            Buffer.add_char buf '$';
            go (i + 2)
        | '&' ->
            Buffer.add_string buf (String.sub s r.start (r.stop - r.start));
            go (i + 2)
        | c when c >= '1' && c <= '9' ->
            Buffer.add_string buf (group_text (Char.code c - Char.code '0'));
            go (i + 2)
        | _ ->
            Buffer.add_char buf '$';
            go (i + 1)
      end
      else begin
        Buffer.add_char buf by.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let replace t s ~by =
  let matches = if t.is_global then match_all t s else
    match exec t s ~start:0 with Some r -> [ r ] | None -> []
  in
  let buf = Buffer.create (String.length s) in
  let cursor = ref 0 in
  List.iter
    (fun r ->
      if r.start >= !cursor then begin
        Buffer.add_string buf (String.sub s !cursor (r.start - !cursor));
        Buffer.add_string buf (expand_template t s r by);
        cursor := r.stop
      end)
    matches;
  Buffer.add_string buf (String.sub s !cursor (String.length s - !cursor));
  Buffer.contents buf

let split t s =
  let matches = match_all t s in
  let parts = ref [] in
  let cursor = ref 0 in
  List.iter
    (fun r ->
      if r.start >= !cursor && r.stop > r.start then begin
        parts := String.sub s !cursor (r.start - !cursor) :: !parts;
        cursor := r.stop
      end)
    matches;
  parts := String.sub s !cursor (String.length s - !cursor) :: !parts;
  List.rev !parts
