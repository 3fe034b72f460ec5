(* Unit and property tests for the HTML parser. *)

open Wr_html

let first_element nodes =
  match List.find_opt (function Html.Element _ -> true | _ -> false) nodes with
  | Some (Html.Element e) -> e
  | _ -> Alcotest.fail "no element"

let test_basic_tree () =
  match Html.parse "<div id=\"a\"><p>hi</p></div><span></span>" with
  | [ Html.Element div; Html.Element span ] ->
      Alcotest.(check string) "div tag" "div" div.Html.tag;
      Alcotest.(check (option string)) "id" (Some "a") (Html.attr div "id");
      Alcotest.(check string) "span" "span" span.Html.tag;
      (match div.Html.children with
      | [ Html.Element p ] -> (
          Alcotest.(check string) "p" "p" p.Html.tag;
          match p.Html.children with
          | [ Html.Text "hi" ] -> ()
          | _ -> Alcotest.fail "p children")
      | _ -> Alcotest.fail "div children")
  | _ -> Alcotest.fail "wrong forest shape"

let test_attribute_styles () =
  let e = first_element (Html.parse "<input type=text id='x' disabled value=\"a b\">") in
  Alcotest.(check (option string)) "unquoted" (Some "text") (Html.attr e "type");
  Alcotest.(check (option string)) "single" (Some "x") (Html.attr e "id");
  Alcotest.(check (option string)) "double" (Some "a b") (Html.attr e "value");
  Alcotest.(check bool) "boolean attr" true (Html.has_attr e "disabled")

let test_void_elements () =
  match Html.parse "<img src=\"a.png\"><div>x</div>" with
  | [ Html.Element img; Html.Element div ] ->
      Alcotest.(check string) "img" "img" img.Html.tag;
      Alcotest.(check int) "img has no children" 0 (List.length img.Html.children);
      Alcotest.(check string) "div follows" "div" div.Html.tag
  | _ -> Alcotest.fail "void element swallowed its sibling"

let test_script_raw_text () =
  let e = first_element (Html.parse "<script>if (a < b && c > d) { x = '</div>'; }</script>") in
  ignore e;
  match Html.parse "<script>var x = 1 < 2;</script>" with
  | [ Html.Element s ] -> (
      match s.Html.children with
      | [ Html.Text body ] -> Alcotest.(check string) "raw body" "var x = 1 < 2;" body
      | _ -> Alcotest.fail "script body")
  | _ -> Alcotest.fail "script parse"

let test_script_close_inside_string () =
  (* The raw-text scanner stops at the first real close tag, like browsers. *)
  match Html.parse "<script>a;</script><p></p>" with
  | [ Html.Element s; Html.Element p ] ->
      Alcotest.(check string) "script" "script" s.Html.tag;
      Alcotest.(check string) "p" "p" p.Html.tag
  | _ -> Alcotest.fail "wrong shape"

let test_comments_and_doctype () =
  match Html.parse "<!DOCTYPE html><!-- a <div> inside comment --><p>x</p>" with
  | [ Html.Element p ] -> Alcotest.(check string) "p" "p" p.Html.tag
  | _ -> Alcotest.fail "comment/doctype not skipped"

let test_entities () =
  match Html.parse "<p title=\"a&amp;b\">1 &lt; 2 &#65;</p>" with
  | [ Html.Element p ] ->
      Alcotest.(check (option string)) "attr entity" (Some "a&b") (Html.attr p "title");
      (match p.Html.children with
      | [ Html.Text t ] -> Alcotest.(check string) "text entity" "1 < 2 A" t
      | _ -> Alcotest.fail "text")
  | _ -> Alcotest.fail "parse"

let test_mismatched_close_ignored () =
  match Html.parse "<div><p>x</span></p></div>" with
  | [ Html.Element div ] -> Alcotest.(check string) "div survives" "div" div.Html.tag
  | _ -> Alcotest.fail "stray close tag broke the tree"

let test_unclosed_elements_closed_at_eof () =
  match Html.parse "<div><p>x" with
  | [ Html.Element div ] -> (
      match div.Html.children with
      | [ Html.Element p ] -> Alcotest.(check string) "p" "p" p.Html.tag
      | _ -> Alcotest.fail "p lost")
  | _ -> Alcotest.fail "div lost"

let test_self_closing () =
  match Html.parse "<div/><span>x</span>" with
  | [ Html.Element d; Html.Element s ] ->
      Alcotest.(check int) "no children" 0 (List.length d.Html.children);
      Alcotest.(check string) "span is sibling" "span" s.Html.tag
  | _ -> Alcotest.fail "self-closing mishandled"

let test_case_insensitive_tags () =
  match Html.parse "<DIV ID=\"x\">a</div>" with
  | [ Html.Element d ] ->
      Alcotest.(check string) "lowercased" "div" d.Html.tag;
      Alcotest.(check (option string)) "attr lowercased" (Some "x") (Html.attr d "id")
  | _ -> Alcotest.fail "case handling"

let test_roundtrip_fixed () =
  let src = "<div id=\"a\"><script>x &lt; y;</script><img src=\"i.png\"><p>t &amp; u</p></div>" in
  let forest = Html.parse src in
  let forest' = Html.parse (Html.to_string forest) in
  Alcotest.(check bool) "parse . print . parse stable" true (forest = forest')

(* Random forest generator for the serialization round-trip property. *)
let gen_forest =
  let open QCheck.Gen in
  let tag = oneofl [ "div"; "span"; "p"; "a"; "ul"; "li" ] in
  let attr_name = oneofl [ "id"; "class"; "title"; "href" ] in
  let safe_string = string_size ~gen:(char_range 'a' 'z') (int_range 0 8) in
  let attrs =
    list_size (int_bound 2) (pair attr_name safe_string) >|= fun l ->
    (* Duplicate attribute names are legal HTML but not preserved; dedup. *)
    List.sort_uniq (fun (a, _) (b, _) -> compare a b) l
  in
  let rec node depth =
    if depth = 0 then safe_string >|= fun s -> Html.text ("t" ^ s)
    else
      frequency
        [
          (2, safe_string >|= fun s -> Html.text ("t" ^ s));
          ( 3,
            tag >>= fun t ->
            attrs >>= fun a ->
            list_size (int_bound 3) (node (depth - 1)) >|= fun children ->
            Html.el t ~attrs:a children );
        ]
  in
  list_size (int_bound 4) (node 3)

let prop_serialize_roundtrip =
  QCheck.Test.make ~name:"html: parse(to_string f) = f" ~count:200 (QCheck.make gen_forest)
    (fun forest ->
      (* Adjacent text nodes merge on reparse; normalize by comparing the
         serialized forms instead of the trees. *)
      let s = Html.to_string forest in
      Html.to_string (Html.parse s) = s)

(* Random markup for the tokenizer equivalence property: well-formed
   pieces mixed with the malformed ones a browser must survive. *)
let gen_markup =
  let open QCheck.Gen in
  let name = oneofl [ "div"; "DIV"; "Span"; "p"; "a"; "img"; "br"; "x-y"; "h1"; "ul"; "li" ] in
  let raw = oneofl [ "script"; "SCRIPT"; "Style"; "style" ] in
  let attr_name = oneofl [ "id"; "ID"; "class"; "onclick"; "data-x"; "src"; "a:b" ] in
  let word = string_size ~gen:(oneofl [ 'a'; 'B'; 'z'; '1'; ' '; '&'; ';'; '#' ]) (int_bound 6) in
  let entity = oneofl [ "&amp;"; "&lt;"; "&gt;"; "&quot;"; "&#65;"; "&#x41;"; "&#300;"; "&bogus;"; "&"; "&nbsp;" ] in
  let value =
    oneof
      [
        map (fun w -> "=\"" ^ w ^ "\"") word;
        map (fun w -> "='" ^ w ^ "'") word;
        map (fun w -> "=" ^ String.map (fun c -> if c = ' ' then 'u' else c) w) word;
        map (fun e -> "=\"" ^ e ^ "\"") entity;
        return "";
        return " = \"spaced\"";
        return "=\"unterminated";
      ]
  in
  let attr = map2 (fun n v -> " " ^ n ^ v) attr_name value in
  let attrs = map (String.concat "") (list_size (int_bound 3) attr) in
  let open_tag =
    map3 (fun n a close -> "<" ^ n ^ a ^ close) name attrs (oneofl [ ">"; "/>"; " >"; " / >"; "" ])
  in
  let close_tag = map (fun n -> "</" ^ n ^ ">") name in
  let raw_body =
    oneofl [ ""; "var a = 1 < 2;"; "<div>not a tag</div>"; "x </scr y"; "</SCRIPTX"; "a--b" ]
  in
  let raw_elem =
    map3
      (fun n body close -> "<" ^ n ^ ">" ^ body ^ close)
      raw raw_body
      (oneofl [ "</script>"; "</SCRIPT >"; "</Style>"; "</style"; ""; "</script x=1>" ])
  in
  let piece =
    frequency
      [
        (4, open_tag);
        (3, close_tag);
        (3, word);
        (2, entity);
        (2, raw_elem);
        (1, oneofl [ "<!-- c -->"; "<!---->"; "<!-- unterminated"; "<!DOCTYPE html>"; "<!x" ]);
        (1, oneofl [ "<"; "< p"; "<3"; "</>"; "</ x>"; "<>"; ">"; "<a" ]);
        (1, string_size ~gen:(oneofl [ '<'; '>'; '/'; '"'; '\''; '='; '!'; '-'; 'a'; 'S' ]) (int_bound 5));
      ]
  in
  map (String.concat "") (list_size (int_bound 30) piece)

let prop_tokenizer_matches_reference =
  QCheck.Test.make ~name:"html: parse = reference parser, random markup" ~count:2_000
    (QCheck.make ~print:Fun.id gen_markup)
    (fun src -> Html.parse src = Html_reference.parse src)

let suite =
  [
    Alcotest.test_case "basic tree" `Quick test_basic_tree;
    Alcotest.test_case "attribute styles" `Quick test_attribute_styles;
    Alcotest.test_case "void elements" `Quick test_void_elements;
    Alcotest.test_case "script raw text" `Quick test_script_raw_text;
    Alcotest.test_case "script close" `Quick test_script_close_inside_string;
    Alcotest.test_case "comments & doctype" `Quick test_comments_and_doctype;
    Alcotest.test_case "entities" `Quick test_entities;
    Alcotest.test_case "mismatched close" `Quick test_mismatched_close_ignored;
    Alcotest.test_case "unclosed at eof" `Quick test_unclosed_elements_closed_at_eof;
    Alcotest.test_case "self closing" `Quick test_self_closing;
    Alcotest.test_case "case insensitivity" `Quick test_case_insensitive_tags;
    Alcotest.test_case "fixed roundtrip" `Quick test_roundtrip_fixed;
    QCheck_alcotest.to_alcotest prop_serialize_roundtrip;
    QCheck_alcotest.to_alcotest prop_tokenizer_matches_reference;
  ]
