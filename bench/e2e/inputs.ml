(* Workload inputs, generated from the benchmark's seed. The program
   under test only ever sees the pages and requests built here.

   Sizes are drawn by stratified sampling (one draw per equal-width
   stratum, then shuffled), so every seed yields the same size
   distribution while structure, order and schedule seeds still vary. *)

module Rng = Wr_support.Rng
module Profile = Wr_sitegen.Profile

(* What a check looks at, read either from an in-process report or from
   a served report document. *)
type observed = {
  filtered : Profile.counts;
  races : int;
  ops : int;
  console : string list;
}

let counts_of races =
  let h, f, v, d = Webracer.count_by_type races in
  { Profile.html = h; func = f; var = v; disp = d }

let observe (r : Webracer.report) =
  {
    filtered = counts_of r.Webracer.filtered;
    races = List.length r.Webracer.races;
    ops = r.Webracer.ops;
    console = r.Webracer.console;
  }

(* Raises [Wr_support.Json.Parse_error] on a document of another shape. *)
let observe_json j =
  let module J = Wr_support.Json in
  let by_type = J.member "filtered_by_type" j in
  let count k = J.to_int (J.member k by_type) in
  {
    filtered =
      {
        Profile.html = count "html";
        func = count "function";
        var = count "variable";
        disp = count "event_dispatch";
      };
    races = J.to_int (J.member "races_total" j);
    ops = J.to_int (J.member "ops" j);
    console = List.map J.to_str (J.to_list (J.member "console" j));
  }

type page = {
  name : string;
  html : string;
  resources : (string * string) list;
  check : observed -> string option;
      (** [None] when the outcome matches what the page was built to
          produce; [Some reason] otherwise *)
}

(* [n] values stratified over [lo, hi), in seeded order. *)
let stratified rng ~lo ~hi n =
  let a =
    Array.init n (fun i -> lo +. ((hi -. lo) *. (float_of_int i +. Rng.float rng 1.) /. float_of_int n))
  in
  Rng.shuffle rng a;
  a

(* --- corpus: the 100 synthetic Fortune-100 sites ----------------------- *)

let counts_to_string (c : Profile.counts) =
  Printf.sprintf "html %d, function %d, variable %d, dispatch %d" c.html c.func c.var c.disp

(* The planted filtered counts come from the site profile, never from a
   run of the detector. *)
let corpus_pages ?(limit = max_int) () =
  Profile.corpus ()
  |> List.filteri (fun i _ -> i < limit)
  |> List.map (fun p ->
         let site = Wr_sitegen.Gen.generate p in
         let expected = Profile.expected_filtered p in
         {
           name = p.Profile.name;
           html = site.Wr_sitegen.Gen.page;
           resources = site.Wr_sitegen.Gen.resources;
           check =
             (fun o ->
               if o.filtered = expected then None
               else
                 Some
                   (Printf.sprintf "%s: filtered races {%s}, planted {%s}" p.Profile.name
                      (counts_to_string o.filtered) (counts_to_string expected)));
         })
  |> Array.of_list

(* --- dom-stress: large race-free markup pages -------------------------- *)

let tags = [| "div"; "section"; "p"; "span"; "ul"; "li"; "table"; "em"; "b"; "article" |]
let classes = [| "row"; "col"; "card"; "muted"; "nav"; "hero"; "item"; "wide" |]

(* Exactly [elements] elements: nested blocks of random depth, some with
   ids and classes, then one polling [setInterval] that clears itself.
   Nothing is shared between concurrent operations, so the page has no
   races. *)
let dom_markup rng ~idx ~elements =
  let b = Buffer.create (elements * 48) in
  let left = ref (elements - 1) (* the script element *) and next_id = ref 0 in
  let open_tag () =
    let tag = Rng.choose rng tags in
    Buffer.add_char b '<';
    Buffer.add_string b tag;
    if Rng.chance rng 0.3 then begin
      Buffer.add_string b (Printf.sprintf " id=\"p%d-e%d\"" idx !next_id);
      incr next_id
    end;
    if Rng.chance rng 0.6 then begin
      Buffer.add_string b " class=\"";
      for k = 0 to Rng.int rng 3 do
        if k > 0 then Buffer.add_char b ' ';
        Buffer.add_string b (Rng.choose rng classes)
      done;
      Buffer.add_char b '"'
    end;
    Buffer.add_char b '>';
    decr left;
    tag
  in
  let rec block depth =
    let tag = open_tag () in
    if Rng.chance rng 0.5 then Buffer.add_string b "text";
    let children = if depth = 0 then 0 else Rng.int rng 4 in
    for _ = 1 to children do
      if !left > 0 then block (depth - 1)
    done;
    Buffer.add_string b (Printf.sprintf "</%s>" tag)
  in
  while !left > 0 do
    block (Rng.int rng 6)
  done;
  Buffer.add_string b
    (Printf.sprintf
       "<script>var polls = 0; var poller = setInterval(function () { polls++; if \
        (polls > %d) { clearInterval(poller); } }, 5);</script>"
       (10 + Rng.int rng 20));
  Buffer.contents b

let dom_pages rng ~count ~lo ~hi =
  let sizes = stratified rng ~lo:(float_of_int lo) ~hi:(float_of_int hi) count in
  Array.mapi
    (fun idx size ->
      let elements = int_of_float size in
      {
        name = Printf.sprintf "dom-%d-%d" idx elements;
        html = dom_markup rng ~idx ~elements;
        resources = [];
        check =
          (fun o ->
            if o.races <> 0 then
              Some (Printf.sprintf "dom-%d: %d races on a race-free page" idx o.races)
            else if o.ops < elements then
              Some (Printf.sprintf "dom-%d: %d ops for %d elements" idx o.ops elements)
            else None);
      })
    sizes

(* --- js-compute: the Perf-2/Perf-4 kernels plus a regex kernel --------- *)

(* Each kernel is a JS function body returning one value, and the same
   value computed natively, so the console check never trusts the
   interpreter. *)
type kernel = { kname : string; body : string; expected : string }

let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)

let k_fib n =
  {
    kname = "fib";
    body =
      Printf.sprintf
        "function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); } \
         return fib(%d);"
        n;
    expected = string_of_int (fib n);
  }

(* indexOf("xx", i) on a run of [len] x's is [i] while i <= len - 2. *)
let k_string len =
  let m = len / 3 in
  {
    kname = "string-ops";
    body =
      Printf.sprintf
        "var s = \"\"; var i = 0; for (i = 0; i < %d; i++) { s = s + \"x\"; } var n = 0; \
         for (i = 0; i < %d; i++) { n = n + s.indexOf(\"xx\", i) + s.length; } return n;"
        len m;
    expected = string_of_int ((m * (m - 1) / 2) + (m * len));
  }

let k_array n =
  let sum = ref 0 in
  for i = 0 to n - 1 do
    sum := !sum + (i * 3 mod 17)
  done;
  {
    kname = "array-sum";
    body =
      Printf.sprintf
        "var a = []; var i = 0; for (i = 0; i < %d; i++) { a.push(i * 3 %% 17); } var sum = \
         0; for (i = 0; i < a.length; i++) { sum = sum + a[i]; } return sum;"
        n;
    expected = string_of_int !sum;
  }

(* Key k holds the last i < n with i mod 40 = k. *)
let k_object n =
  let total = ref 0 in
  for k = 0 to min n 40 - 1 do
    total := !total + k + (40 * ((n - 1 - k) / 40))
  done;
  {
    kname = "object-churn";
    body =
      Printf.sprintf
        "var o = {}; var i = 0; for (i = 0; i < %d; i++) { o[\"k\" + (i %% 40)] = i; } var \
         total = 0; var k; for (k in o) { total = total + o[k]; } return total;"
        n;
    expected = string_of_int !total;
  }

let k_poll n =
  {
    kname = "poll-flag";
    body =
      Printf.sprintf
        "var ready = 0; var ticks = 0; var i = 0; for (i = 0; i < %d; i++) { if (ready === \
         0) { ticks = ticks + 1; } } return ticks;"
        n;
    expected = string_of_int n;
  }

let k_hot n =
  {
    kname = "hot-read";
    body =
      Printf.sprintf
        "var a = []; var i = 0; for (i = 0; i < 8; i++) { a.push(i); } var first = 0; var j \
         = 0; for (j = 0; j < %d; j++) { first = first + a[0] + a.length; } return first;"
        n;
    expected = string_of_int (n * 8);
  }

let words = [| "ab12"; "ooze"; "x9y"; "queue"; "rhythm"; "a1b2c3"; "io"; "strength"; "7"; "aeiou" |]

let is_vowel c = String.contains "aeiou" c
let is_digit c = c >= '0' && c <= '9'

(* Maximal runs of characters satisfying [p]. *)
let runs p s =
  let n = ref 0 in
  String.iteri (fun i c -> if p c && (i = 0 || not (p s.[i - 1])) then incr n) s;
  !n

let k_regex rng n =
  let picked = List.init n (fun _ -> Rng.choose rng words) in
  let s = String.concat " " picked in
  (* Replacing each digit run by "#" drops its digits and adds one char. *)
  let digits = String.fold_left (fun n c -> if is_digit c then n + 1 else n) 0 s in
  let replaced = String.length s - digits + runs is_digit s in
  {
    kname = "regex";
    body =
      Printf.sprintf
        "var parts = [%s]; var s = parts.join(\" \"); var m = s.match(/[aeiou]+/g); return \
         (m === null ? 0 : m.length) + \":\" + s.replace(/[0-9]+/g, \"#\").length;"
        (String.concat ", " (List.map (Printf.sprintf "%S") picked));
    expected = Printf.sprintf "%d:%d" (runs is_vowel s) replaced;
  }

(* Each page scales every kernel by its own size factor (stratified
   across the pages, jittered per kernel), so page cost, not one
   kernel's size, sets the latency distribution. Base sizes at factor 1
   make each kernel a few milliseconds; array-sum is quadratic in the
   interpreter, so its base stays small. *)
let kernels =
  let size base f = max 2 (int_of_float (float_of_int base *. f)) in
  [
    (fun _ f -> k_fib (15 + int_of_float (Float.round (Float.log f /. Float.log 1.618))));
    (fun _ f -> k_string (size 1200 f));
    (fun _ f -> k_array (size 220 f));
    (fun _ f -> k_object (size 1100 f));
    (fun _ f -> k_poll (size 2000 f));
    (fun _ f -> k_hot (size 1200 f));
    (fun rng f -> k_regex rng (size 400 f));
  ]

(* Where a kernel runs: inline during parsing, from a timer, or from a
   mouseover handler that exploration fires twice. Every page has the
   same number of each. *)
type mode = Inline | Timer | Handler

let modes = [| Inline; Inline; Inline; Timer; Timer; Handler; Handler |]

let js_pages rng ~count ~lo ~hi =
  let factors = stratified rng ~lo ~hi count in
  Array.init count (fun idx ->
      let b = Buffer.create 4096 and expected = ref [] in
      let order = Array.of_list kernels and placement = Array.copy modes in
      Rng.shuffle rng order;
      Rng.shuffle rng placement;
      Array.iteri
        (fun k make ->
          let kn = make rng (factors.(idx) *. (0.9 +. Rng.float rng 0.2)) in
          let fn = Printf.sprintf "k%d" k in
          let log = Printf.sprintf "console.log(\"%s %s \" + %s());" fn kn.kname fn in
          let line = Printf.sprintf "%s %s %s" fn kn.kname kn.expected in
          let call, times =
            match placement.(k) with
            | Inline -> (log, 1)
            | Timer ->
                (Printf.sprintf "setTimeout(function () { %s }, %d);" log (Rng.int rng 50), 1)
            | Handler ->
                Buffer.add_string b (Printf.sprintf "<div id=\"h%d\">hover</div>" k);
                ( Printf.sprintf
                    "document.getElementById(\"h%d\").addEventListener(\"mouseover\", \
                     function () { %s });"
                    k log,
                  2 )
          in
          Buffer.add_string b
            (Printf.sprintf "<script>function %s() { %s }\n%s</script>\n" fn kn.body call);
          for _ = 1 to times do
            expected := line :: !expected
          done)
        order;
      let expected = List.sort compare !expected in
      {
        name = Printf.sprintf "js-%d" idx;
        html = Buffer.contents b;
        resources = [];
        check =
          (fun o ->
            let got = List.sort compare o.console in
            if got = expected then None
            else
              Some
                (Printf.sprintf "js-%d: console [%s], computed [%s]" idx
                   (String.concat "; " got) (String.concat "; " expected)));
      })

(* --- passes ------------------------------------------------------------ *)

(* One pass visits every page once, in a fresh seeded order, each with
   its own schedule seed. *)
let pass rng pages =
  let order = Array.init (Array.length pages) Fun.id in
  Rng.shuffle rng order;
  Array.map (fun i -> (i, Rng.int rng 1_000_000)) order
