type attr = { name : string; value : string }

type node = Element of element | Text of string

and element = { tag : string; attrs : attr list; children : node list }

(* String matches compile to a compare tree: no list walk, no
   polymorphic compare per element. *)
let is_void = function
  | "area" | "base" | "br" | "col" | "embed" | "hr" | "img" | "input" | "link" | "meta"
  | "param" | "source" | "track" | "wbr" ->
      true
  | _ -> false

let is_raw_text = function "script" | "style" -> true | _ -> false

let attr elem name = List.find_map (fun a -> if a.name = name then Some a.value else None) elem.attrs

let has_attr elem name = List.exists (fun a -> a.name = name) elem.attrs

let el tag ?(attrs = []) children =
  Element { tag; attrs = List.map (fun (name, value) -> { name; value }) attrs; children }

let text s = Text s

(* ------------------------------------------------------------------ *)
(* Entities                                                            *)
(* ------------------------------------------------------------------ *)

let named_entities =
  [ ("amp", "&"); ("lt", "<"); ("gt", ">"); ("quot", "\""); ("apos", "'"); ("nbsp", " ") ]

let decode_entities s =
  if not (String.contains s '&') then s
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      if s.[!i] = '&' then begin
        match String.index_from_opt s !i ';' with
        | Some j when j - !i <= 8 ->
            let body = String.sub s (!i + 1) (j - !i - 1) in
            let replacement =
              if String.length body > 1 && body.[0] = '#' then
                let code =
                  if String.length body > 2 && (body.[1] = 'x' || body.[1] = 'X') then
                    int_of_string_opt ("0x" ^ String.sub body 2 (String.length body - 2))
                  else int_of_string_opt (String.sub body 1 (String.length body - 1))
                in
                match code with
                | Some c when c > 0 && c < 128 -> Some (String.make 1 (Char.chr c))
                | Some _ -> Some "?" (* non-ASCII: placeholder, fine for simulation *)
                | None -> None
              else List.assoc_opt body named_entities
            in
            (match replacement with
            | Some r ->
                Buffer.add_string buf r;
                i := j + 1
            | None ->
                Buffer.add_char buf '&';
                incr i)
        | Some _ | None ->
            Buffer.add_char buf '&';
            incr i
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  end

let encode_text s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let encode_attr s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | '<' -> Buffer.add_string buf "&lt;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Tokenizer                                                           *)
(* ------------------------------------------------------------------ *)

(* The character loops test bytes in place: no [Some c] per character,
   no substring per comparison. What a page costs the tokenizer is its
   tokens, their text and attribute values, and one string per distinct
   tag or attribute name (see [read_name]). *)

type token =
  | T_open of string * attr list * bool  (* tag, attrs, self-closing *)
  | T_close of string
  | T_text of string

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let is_name_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '-' || c = '_' || c = ':'

(* [names] caches lowercased names by a hash of their bytes, so the
   thousands of [div]s of a page share one ["div"]. *)
type cursor = {
  src : string;
  mutable pos : int;
  names : string array;
  mutable self_closing : bool;  (* the last [read_attrs] ended with "/>" *)
}

let cursor src = { src; pos = 0; names = Array.make 64 ""; self_closing = false }

let at_end cur = cur.pos >= String.length cur.src

(* The byte at [pos + i] is [c]; false past the end. *)
let byte_is cur i c =
  cur.pos + i < String.length cur.src && String.unsafe_get cur.src (cur.pos + i) = c

(* [lower.[k ..]] is the lowercase of [src.[pos + k ..]], up to the end
   of [lower]. Top-level loops: a local one would allocate its closure
   on every call. *)
let rec lower_matches src pos lower k =
  k = String.length lower
  || Char.lowercase_ascii (String.unsafe_get src (pos + k)) = String.unsafe_get lower k
     && lower_matches src pos lower (k + 1)

(* The source at [pos] starts with [s], ASCII case-insensitively; [s]
   is lowercase. *)
let matches_at src pos s = pos + String.length s <= String.length src && lower_matches src pos s 0

let starts_with cur s = matches_at cur.src cur.pos s

let skip_while cur f =
  let src = cur.src in
  let n = String.length src in
  while cur.pos < n && f (String.unsafe_get src cur.pos) do
    cur.pos <- cur.pos + 1
  done

(* Skip to and past the next '>' (or to the end). *)
let skip_past_gt cur =
  skip_while cur (fun c -> c <> '>');
  if not (at_end cur) then cur.pos <- cur.pos + 1

(* [cached] is the lowercase of [src.[start .. start + len)]. *)
let same_name cached src start len =
  String.length cached = len && lower_matches src start cached 0

let read_name cur =
  let src = cur.src in
  let n = String.length src in
  let start = cur.pos in
  let h = ref 0 in
  while cur.pos < n && is_name_char (String.unsafe_get src cur.pos) do
    h := (!h lxor Char.code (Char.lowercase_ascii (String.unsafe_get src cur.pos))) * 0x01000193;
    cur.pos <- cur.pos + 1
  done;
  let len = cur.pos - start in
  if len = 0 then ""
  else begin
    let slot = (!h lxor (!h lsr 15)) land (Array.length cur.names - 1) in
    let cached = Array.unsafe_get cur.names slot in
    if same_name cached src start len then cached
    else begin
      let b = Bytes.create len in
      for k = 0 to len - 1 do
        Bytes.unsafe_set b k (Char.lowercase_ascii (String.unsafe_get src (start + k)))
      done;
      let name = Bytes.unsafe_to_string b in
      Array.unsafe_set cur.names slot name;
      name
    end
  end

let skip_space cur = skip_while cur is_space

let read_attr_value cur =
  let src = cur.src in
  if byte_is cur 0 '"' || byte_is cur 0 '\'' then begin
    let q = String.unsafe_get src cur.pos in
    cur.pos <- cur.pos + 1;
    let start = cur.pos in
    while cur.pos < String.length src && String.unsafe_get src cur.pos <> q do
      cur.pos <- cur.pos + 1
    done;
    let v = String.sub src start (cur.pos - start) in
    if not (at_end cur) then cur.pos <- cur.pos + 1;
    decode_entities v
  end
  else begin
    let start = cur.pos in
    skip_while cur (fun c -> (not (is_space c)) && c <> '>' && c <> '/');
    decode_entities (String.sub src start (cur.pos - start))
  end

let read_attrs cur =
  let attrs = ref [] in
  cur.self_closing <- false;
  let continue = ref true in
  while !continue do
    skip_space cur;
    if at_end cur then continue := false
    else
      match String.unsafe_get cur.src cur.pos with
      | '>' ->
          cur.pos <- cur.pos + 1;
          continue := false
      | '/' ->
          cur.pos <- cur.pos + 1;
          if byte_is cur 0 '>' then begin
            cur.pos <- cur.pos + 1;
            cur.self_closing <- true;
            continue := false
          end
      | c when is_name_char c ->
          let name = read_name cur in
          skip_space cur;
          let value =
            if byte_is cur 0 '=' then begin
              cur.pos <- cur.pos + 1;
              skip_space cur;
              read_attr_value cur
            end
            else ""
          in
          attrs := { name; value } :: !attrs
      | _ -> cur.pos <- cur.pos + 1 (* skip stray character *)
  done;
  List.rev !attrs

(* Raw-text elements: scan for the matching close tag without tokenizing. *)
let read_raw_text cur tag =
  let src = cur.src in
  let n = String.length src in
  let start = cur.pos in
  (* The close tag is "</" ^ tag, matched in place. *)
  let is_close i = i + 1 < n && src.[i] = '<' && src.[i + 1] = '/' && matches_at src (i + 2) tag in
  let stop = ref start in
  while !stop < n && not (is_close !stop) do
    incr stop
  done;
  let body = String.sub src start (!stop - start) in
  cur.pos <- !stop;
  (* Consume the close tag if present. *)
  if cur.pos < n then begin
    cur.pos <- cur.pos + 2 + String.length tag;
    skip_past_gt cur
  end;
  body

(* Feeds each token to [emit] in source order. *)
let tokenize_into src emit =
  let cur = cursor src in
  let n = String.length src in
  while cur.pos < n do
    if String.unsafe_get src cur.pos = '<' then begin
      if starts_with cur "<!--" then begin
        (* Comment: skip to -->. *)
        cur.pos <- cur.pos + 4;
        while cur.pos < n && not (starts_with cur "-->") do
          cur.pos <- cur.pos + 1
        done;
        if cur.pos < n then cur.pos <- cur.pos + 3
      end
      else if byte_is cur 1 '!' then
        (* Doctype or other declaration: skip to >. *)
        skip_past_gt cur
      else if byte_is cur 1 '/' then begin
        cur.pos <- cur.pos + 2;
        let name = read_name cur in
        skip_past_gt cur;
        if name <> "" then emit (T_close name)
      end
      else if cur.pos + 1 < n && is_name_char (String.unsafe_get src (cur.pos + 1)) then begin
        cur.pos <- cur.pos + 1;
        let name = read_name cur in
        let attrs = read_attrs cur in
        let self_closing = cur.self_closing in
        emit (T_open (name, attrs, self_closing));
        if is_raw_text name && not self_closing then begin
          let body = read_raw_text cur name in
          emit (T_text body);
          emit (T_close name)
        end
      end
      else begin
        (* A lone '<' in text. *)
        emit (T_text "<");
        cur.pos <- cur.pos + 1
      end
    end
    else begin
      let start = cur.pos in
      skip_while cur (fun c -> c <> '<');
      emit (T_text (decode_entities (String.sub src start (cur.pos - start))))
    end
  done

let tokenize src =
  let out = ref [] in
  tokenize_into src (fun t -> out := t :: !out);
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Tree builder                                                        *)
(* ------------------------------------------------------------------ *)

(* [f_open] counts the open frames with this frame's tag. *)
type frame = {
  f_tag : string;
  f_attrs : attr list;
  mutable f_children : node list;
  f_open : int ref;
}

(* The open elements, innermost first, above the document frame [root];
   [depth] counts them and [open_by_tag] counts them per tag, so neither
   closing nor a stray close tag walks the stack: every element costs
   the same at any nesting. *)
type builder = {
  root : frame;
  mutable stack : frame list;
  mutable depth : int;
  open_by_tag : (string, int ref) Hashtbl.t;
}

let builder () =
  let root = { f_tag = "#root"; f_attrs = []; f_children = []; f_open = ref 1 } in
  { root; stack = [ root ]; depth = 0; open_by_tag = Hashtbl.create 16 }

let add_child b node =
  let t = List.hd b.stack in
  t.f_children <- node :: t.f_children

let open_count b tag =
  match Hashtbl.find b.open_by_tag tag with
  | n -> n
  | exception Not_found ->
      let n = ref 0 in
      Hashtbl.add b.open_by_tag tag n;
      n

let close_frame b =
  match b.stack with
  | f :: (parent :: _ as rest) ->
      b.stack <- rest;
      b.depth <- b.depth - 1;
      decr f.f_open;
      parent.f_children <-
        Element { tag = f.f_tag; attrs = f.f_attrs; children = List.rev f.f_children }
        :: parent.f_children
  | [ _ ] | [] -> ()

(* Close frames up to and including the innermost [tag]. *)
let rec close_to b tag =
  let was = (List.hd b.stack).f_tag in
  close_frame b;
  if was <> tag then close_to b tag

let is_open b tag =
  (List.hd b.stack).f_tag = tag
  || match Hashtbl.find b.open_by_tag tag with n -> !n > 0 | exception Not_found -> false

let feed b = function
  | T_text "" -> ()
  | T_text t -> add_child b (Text t)
  | T_open (tag, attrs, self_closing) ->
      if self_closing || is_void tag then add_child b (Element { tag; attrs; children = [] })
      else begin
        let f_open = open_count b tag in
        incr f_open;
        b.stack <- { f_tag = tag; f_attrs = attrs; f_children = []; f_open } :: b.stack;
        b.depth <- b.depth + 1
      end
  | T_close tag ->
      (* Close the matching open element if any; otherwise ignore. Names
         never start with '#', so a match is never the root frame. *)
      if is_open b tag then close_to b tag

let finish b =
  while b.depth > 0 do
    close_frame b
  done;
  List.rev b.root.f_children

let tree_build tokens =
  let b = builder () in
  List.iter (feed b) tokens;
  finish b

let parse ?(tm = Wr_telemetry.Telemetry.disabled) src =
  let module T = Wr_telemetry.Telemetry in
  if not (T.enabled tm) then begin
    let b = builder () in
    tokenize_into src (feed b);
    finish b
  end
  else begin
    let tokens = T.with_span tm ~cat:"parse" ~name:"tokenize" (fun () -> tokenize src) in
    T.incr tm ~by:(List.length tokens) "html.tokens";
    T.incr tm ~by:(String.length src) "html.bytes";
    T.with_span tm ~cat:"parse" ~name:"tree-build" (fun () -> tree_build tokens)
  end

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let rec emit buf node =
  match node with
  | Text t -> Buffer.add_string buf (encode_text t)
  | Element { tag; attrs; children } ->
      Buffer.add_char buf '<';
      Buffer.add_string buf tag;
      List.iter
        (fun { name; value } ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf name;
          Buffer.add_string buf "=\"";
          Buffer.add_string buf (encode_attr value);
          Buffer.add_char buf '"')
        attrs;
      Buffer.add_char buf '>';
      if not (is_void tag) then begin
        if is_raw_text tag then
          List.iter (function Text t -> Buffer.add_string buf t | n -> emit buf n) children
        else List.iter (emit buf) children;
        Buffer.add_string buf "</";
        Buffer.add_string buf tag;
        Buffer.add_char buf '>'
      end

(* Domain-local high-water mark for the serializer buffer: corpus pages
   rendered on one fleet domain are of similar size, so pre-sizing to the
   largest page seen avoids the doubling-and-copy garbage of growing from
   1k on every site (serialized pages run to hundreds of kB). Only the
   initial *size* crosses calls — the buffer itself is fresh per call. *)
let to_string_size_hint : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 1024)

let to_string nodes =
  let hint = Domain.DLS.get to_string_size_hint in
  let buf = Buffer.create !hint in
  List.iter (emit buf) nodes;
  hint := max !hint (Buffer.length buf);
  Buffer.contents buf

let rec pp ppf = function
  | Text t -> Format.fprintf ppf "%S" t
  | Element { tag; attrs; children } ->
      Format.fprintf ppf "@[<v 2>(%s%a%a)@]" tag
        (fun ppf attrs ->
          List.iter (fun { name; value } -> Format.fprintf ppf " %s=%S" name value) attrs)
        attrs
        (fun ppf children ->
          List.iter (fun c -> Format.fprintf ppf "@,%a" pp c) children)
        children
