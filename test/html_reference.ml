(* Test-only reference: the HTML tokenizer and tree builder as they were
   before the parse path was made allocation-free, kept verbatim so a
   property can check that [Html.parse] still builds the same forest,
   byte for byte, over random markup. Not used by the product. *)

open Wr_html.Html

let void_tags =
  [ "area"; "base"; "br"; "col"; "embed"; "hr"; "img"; "input"; "link"; "meta"; "param";
    "source"; "track"; "wbr" ]

let raw_text_tags = [ "script"; "style" ]

let is_void tag = List.mem tag void_tags

let is_raw_text tag = List.mem tag raw_text_tags

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

type token =
  | T_open of string * attr list * bool  (* tag, attrs, self-closing *)
  | T_close of string
  | T_text of string

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let is_name_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '-' || c = '_' || c = ':'

let lowercase = String.lowercase_ascii

type cursor = { src : string; mutable pos : int }

let peek cur i = if cur.pos + i < String.length cur.src then Some cur.src.[cur.pos + i] else None

let starts_with cur s =
  let n = String.length s in
  cur.pos + n <= String.length cur.src
  && lowercase (String.sub cur.src cur.pos n) = lowercase s

let read_name cur =
  let start = cur.pos in
  while (match peek cur 0 with Some c -> is_name_char c | None -> false) do
    cur.pos <- cur.pos + 1
  done;
  lowercase (String.sub cur.src start (cur.pos - start))

let skip_space cur =
  while (match peek cur 0 with Some c -> is_space c | None -> false) do
    cur.pos <- cur.pos + 1
  done

let read_attr_value cur =
  match peek cur 0 with
  | Some (('"' | '\'') as q) ->
      cur.pos <- cur.pos + 1;
      let start = cur.pos in
      while (match peek cur 0 with Some c -> c <> q | None -> false) do
        cur.pos <- cur.pos + 1
      done;
      let v = String.sub cur.src start (cur.pos - start) in
      if peek cur 0 <> None then cur.pos <- cur.pos + 1;
      decode_entities v
  | _ ->
      let start = cur.pos in
      while
        match peek cur 0 with
        | Some c -> (not (is_space c)) && c <> '>' && c <> '/'
        | None -> false
      do
        cur.pos <- cur.pos + 1
      done;
      decode_entities (String.sub cur.src start (cur.pos - start))

let read_attrs cur =
  let attrs = ref [] in
  let self_closing = ref false in
  let continue = ref true in
  while !continue do
    skip_space cur;
    match peek cur 0 with
    | None -> continue := false
    | Some '>' ->
        cur.pos <- cur.pos + 1;
        continue := false
    | Some '/' ->
        cur.pos <- cur.pos + 1;
        (match peek cur 0 with
        | Some '>' ->
            cur.pos <- cur.pos + 1;
            self_closing := true;
            continue := false
        | Some _ | None -> ())
    | Some c when is_name_char c ->
        let name = read_name cur in
        skip_space cur;
        let value =
          if peek cur 0 = Some '=' then begin
            cur.pos <- cur.pos + 1;
            skip_space cur;
            read_attr_value cur
          end
          else ""
        in
        attrs := { name; value } :: !attrs
    | Some _ -> cur.pos <- cur.pos + 1 (* skip stray character *)
  done;
  (List.rev !attrs, !self_closing)

(* Raw-text elements: scan for the matching close tag without tokenizing. *)
let read_raw_text cur tag =
  let close = "</" ^ tag in
  let start = cur.pos in
  let n = String.length cur.src in
  let rec find i =
    if i >= n then n
    else if
      i + String.length close <= n
      && lowercase (String.sub cur.src i (String.length close)) = close
    then i
    else find (i + 1)
  in
  let stop = find cur.pos in
  let body = String.sub cur.src start (stop - start) in
  cur.pos <- stop;
  (* Consume the close tag if present. *)
  if cur.pos < n then begin
    cur.pos <- cur.pos + String.length close;
    while (match peek cur 0 with Some c -> c <> '>' | None -> false) do
      cur.pos <- cur.pos + 1
    done;
    if peek cur 0 = Some '>' then cur.pos <- cur.pos + 1
  end;
  body

let tokenize src =
  let cur = { src; pos = 0 } in
  let out = ref [] in
  let n = String.length src in
  while cur.pos < n do
    if peek cur 0 = Some '<' then begin
      if starts_with cur "<!--" then begin
        (* Comment: skip to -->. *)
        cur.pos <- cur.pos + 4;
        let rec find () =
          if cur.pos >= n then ()
          else if starts_with cur "-->" then cur.pos <- cur.pos + 3
          else begin
            cur.pos <- cur.pos + 1;
            find ()
          end
        in
        find ()
      end
      else if starts_with cur "<!" then begin
        (* Doctype or other declaration: skip to >. *)
        while (match peek cur 0 with Some c -> c <> '>' | None -> false) do
          cur.pos <- cur.pos + 1
        done;
        if peek cur 0 = Some '>' then cur.pos <- cur.pos + 1
      end
      else if peek cur 1 = Some '/' then begin
        cur.pos <- cur.pos + 2;
        let name = read_name cur in
        while (match peek cur 0 with Some c -> c <> '>' | None -> false) do
          cur.pos <- cur.pos + 1
        done;
        if peek cur 0 = Some '>' then cur.pos <- cur.pos + 1;
        if name <> "" then out := T_close name :: !out
      end
      else if (match peek cur 1 with Some c -> is_name_char c | None -> false) then begin
        cur.pos <- cur.pos + 1;
        let name = read_name cur in
        let attrs, self_closing = read_attrs cur in
        out := T_open (name, attrs, self_closing) :: !out;
        if is_raw_text name && not self_closing then begin
          let body = read_raw_text cur name in
          (* [out] is in reverse order: push text, then the close tag. *)
          out := T_close name :: T_text body :: !out
        end
      end
      else begin
        (* A lone '<' in text. *)
        out := T_text "<" :: !out;
        cur.pos <- cur.pos + 1
      end
    end
    else begin
      let start = cur.pos in
      while (match peek cur 0 with Some c -> c <> '<' | None -> false) do
        cur.pos <- cur.pos + 1
      done;
      let t = String.sub src start (cur.pos - start) in
      out := T_text (decode_entities t) :: !out
    end
  done;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Tree builder                                                        *)
(* ------------------------------------------------------------------ *)

type frame = { f_tag : string; f_attrs : attr list; mutable f_children : node list }

let tree_build tokens =
  let root = { f_tag = "#root"; f_attrs = []; f_children = [] } in
  let stack = ref [ root ] in
  let top () = List.hd !stack in
  let add_child node =
    let t = top () in
    t.f_children <- node :: t.f_children
  in
  let close_frame () =
    match !stack with
    | f :: (parent :: _ as rest) ->
        stack := rest;
        parent.f_children <-
          Element { tag = f.f_tag; attrs = f.f_attrs; children = List.rev f.f_children }
          :: parent.f_children
    | [ _ ] | [] -> ()
  in
  let handle = function
    | T_text "" -> ()
    | T_text t -> add_child (Text t)
    | T_open (tag, attrs, self_closing) ->
        if self_closing || is_void tag then
          add_child (Element { tag; attrs; children = [] })
        else stack := { f_tag = tag; f_attrs = attrs; f_children = [] } :: !stack
    | T_close tag ->
        (* Close the matching open element if any; otherwise ignore. *)
        if List.exists (fun f -> f.f_tag = tag) !stack then begin
          let rec pop () =
            let was = (top ()).f_tag in
            close_frame ();
            if was <> tag then pop ()
          in
          if List.length !stack > 1 then pop ()
        end
  in
  List.iter handle tokens;
  while List.length !stack > 1 do
    close_frame ()
  done;
  List.rev root.f_children

let parse src = tree_build (tokenize src)
