type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* JSON has no infinity or NaN; like [JSON.stringify], write them as null. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape_string buf s
  | Raw s -> Buffer.add_string buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          emit buf v)
        fields;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  emit buf t;
  Buffer.contents buf

exception Parse_error of string

let of_string text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | Some _ | None -> ()
  in
  let expect c = if peek () = Some c then advance () else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char buf '"'; advance (); loop ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance (); loop ()
          | Some '/' -> Buffer.add_char buf '/'; advance (); loop ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance (); loop ()
          | Some 't' -> Buffer.add_char buf '\t'; advance (); loop ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance (); loop ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance (); loop ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance (); loop ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "bad unicode escape";
              (match int_of_string_opt ("0x" ^ String.sub text !pos 4) with
              | Some code when code < 128 -> Buffer.add_char buf (Char.chr code)
              | Some _ -> Buffer.add_char buf '?'
              | None -> fail "bad unicode escape");
              pos := !pos + 4;
              loop ()
          | _ -> fail "bad escape")
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let rec digits () =
      match peek () with
      | Some c when c >= '0' && c <= '9' ->
          advance ();
          digits ()
      | _ -> ()
    in
    digits ();
    let fractional = peek () = Some '.' in
    if fractional then begin
      advance ();
      digits ()
    end;
    let exponent = match peek () with Some ('e' | 'E') -> true | _ -> false in
    if exponent then begin
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    end;
    let body = String.sub text start (!pos - start) in
    if fractional || exponent then
      match float_of_string_opt body with Some f -> Float f | None -> fail "bad number"
    else
      match int_of_string_opt body with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt body with Some f -> Float f | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec loop () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (key, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                loop ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          loop ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec loop () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                loop ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          loop ();
          List (List.rev !items)
        end
    | Some c when c = '-' || (c >= '0' && c <= '9') -> parse_number ()
    | Some _ | None -> fail "unexpected input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

let member key = function
  | Obj fields -> (
      match List.assoc_opt key fields with
      | Some v -> v
      | None -> raise (Parse_error ("missing field " ^ key)))
  | _ -> raise (Parse_error ("not an object while looking for " ^ key))

let to_int = function
  | Int i -> i
  | Float f when Float.is_integer f -> int_of_float f
  | _ -> raise (Parse_error "expected an integer")

let to_str = function
  | String s -> s
  | _ -> raise (Parse_error "expected a string")

let to_list = function
  | List l -> l
  | _ -> raise (Parse_error "expected a list")

let rec pp ppf = function
  | Null -> Format.pp_print_string ppf "null"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.pp_print_string ppf (float_repr f)
  | String s ->
      let buf = Buffer.create (String.length s + 2) in
      escape_string buf s;
      Format.pp_print_string ppf (Buffer.contents buf)
  | Raw s -> Format.pp_print_string ppf s
  | List [] -> Format.pp_print_string ppf "[]"
  | List items ->
      Format.fprintf ppf "@[<v 2>[@,%a@]@,]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@,") pp)
        items
  | Obj [] -> Format.pp_print_string ppf "{}"
  | Obj fields ->
      let pp_field ppf (k, v) =
        let buf = Buffer.create (String.length k + 2) in
        escape_string buf k;
        Format.fprintf ppf "@[<hov 2>%s:@ %a@]" (Buffer.contents buf) pp v
      in
      Format.fprintf ppf "@[<v 2>{@,%a@]@,}"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@,") pp_field)
        fields
