(* Prints one line per page run:

     <name> seed=<s> fuel=<f> trace=<md5> report=<md5> console=<md5>

   where [trace] digests [Trace.to_json], [report] digests the JSON
   report with [wall_clock_s] removed (the only field that varies between
   identical runs) and [console] digests the console output. The runs
   cover the 100 corpus sites, the example pages, the adversarial pack
   and a few inline compute pages, some of them at starved fuel budgets
   so the step at which [Fuel_exhausted] fires is pinned too.

   After those, one line per explain document:

     explain/<name> seed=<s> explain=<md5>

   digesting [Api.explain_json] over every race's witness, for the
   example pages and the ten corpus sites with the most races.

   Usage: pin.exe EXAMPLES_PAGES_DIR *)

module Json = Wr_support.Json

let md5 s = Digest.to_hex (Digest.string s)

let without_wall_clock = function
  | Json.Obj fields -> Json.Obj (List.remove_assoc "wall_clock_s" fields)
  | j -> j

let pin ~name ?(fuel = (Wr_browser.Config.default ~page:"" ()).fuel) ~seed ~page ~resources () =
  let cfg = { (Webracer.config ~page ~resources ~seed ~trace:true ()) with fuel } in
  let r = Webracer.analyze cfg in
  let trace =
    match r.Webracer.trace with
    | Some t -> Json.to_string (Wr_detect.Trace.to_json t)
    | None -> ""
  in
  let report = Json.to_string (without_wall_clock (Webracer.report_to_json r)) in
  Printf.printf "%s seed=%d fuel=%d trace=%s report=%s console=%s\n" name seed fuel (md5 trace)
    (md5 report)
    (md5 (String.concat "\n" r.Webracer.console));
  List.length r.Webracer.races

let pin_explain ~name ~seed ~page ~resources =
  let r = Webracer.analyze (Webracer.config ~page ~resources ~seed ()) in
  let doc =
    match Wr_serve.Api.select_races r ~race:None with
    | Ok selection -> Json.to_string (Wr_serve.Api.explain_json r selection)
    | Error msg -> failwith msg
  in
  Printf.printf "explain/%s seed=%d explain=%s\n" name seed (md5 doc)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* An example directory is a page.html plus the resources beside it. *)
let example dir =
  let files = Sys.readdir dir |> Array.to_list |> List.sort compare in
  let resources =
    List.filter_map
      (fun f -> if f = "page.html" then None else Some (f, read_file (Filename.concat dir f)))
      files
  in
  (read_file (Filename.concat dir "page.html"), resources)

(* Inline compute pages: interpreter-heavy scripts run during parsing,
   from timers and from handlers that exploration fires. Between them
   they reach every statement and expression form of MiniJS. *)
let compute_pages =
  [
    ( "compute-kernels",
      {|<script>
function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
function strings(len) { var s = ""; var i = 0; for (i = 0; i < len; i++) { s = s + "x"; }
  var n = 0; for (i = 0; i < len / 3; i++) { n = n + s.indexOf("xx", i) + s.length; } return n; }
function arrays(n) { var a = []; var i = 0; for (i = 0; i < n; i++) { a.push(i * 3 % 17); }
  var sum = 0; for (i = 0; i < a.length; i++) { sum = sum + a[i]; } return sum; }
function churn(n) { var o = {}; var i = 0; for (i = 0; i < n; i++) { o["k" + (i % 40)] = i; }
  var total = 0; var k; for (k in o) { total = total + o[k]; } return total; }
console.log("fib " + fib(14));
console.log("strings " + strings(300));
setTimeout(function () { console.log("arrays " + arrays(400)); }, 5);
</script>
<div id="h">hover</div>
<script>
document.getElementById("h").addEventListener("mouseover", function () {
  console.log("churn " + churn(500));
});
</script>|}
    );
    ( "compute-scopes",
      {|<script>
var log = [];
function outer(a, b) {
  var fs = [];
  for (var i = 0; i < 3; i++) { fs.push(function () { return i + a; }); }
  function inner() { return arguments.length + b; }
  try { throw new Error("boom"); }
  catch (e) { var e = 7; function hoisted() { return typeof e; }
    fs.push(function () { return e; }); }
  finally { log.push("finally"); }
  log.push(fs[0]() + "," + fs[3]() + "," + hoisted() + "," + inner(1, 2, 3) + "," + e);
  return arguments[1];
}
function dup(x, x) { return x; }
function shadow(p) { var p; function p() { return 1; } return typeof p; }
function implicit() { function set() { leaked = 42; } set(); return typeof undeclared; }
log.push(outer(1, 2), dup(1, 2), dup(1), shadow(3), implicit(), leaked);
var counter = (function () { var n = 0; return { inc: function () { n += 1; return n; } }; })();
counter.inc(); counter.inc();
log.push(counter.inc());
console.log(log.join(" "));
</script>|}
    );
    ( "compute-control",
      {|<script>
function Point(x, y) { this.x = x; this.y = y; }
Point.prototype.norm = function () { return this.x * this.x + this.y * this.y; };
var p = new Point(3, 4), out = [];
out.push(p.norm(), p instanceof Point, "x" in p, "z" in p, delete p.x, "x" in p);
var o = { a: 1, b: [1, 2, 3] };
o.a += 5; o.b[1] *= 10; o.a++; --o.b[0]; o["c"] = o.a-- + ++o.a;
out.push(o.a, o.b.join("-"), o.c, typeof o.missing, void 0, !o.a, -o.a, ~o.a);
var i = 0, s = 0;
do { s += i; i++; if (i == 3) { continue; } if (i > 8) { break; } } while (i < 10);
out.push(s, i);
for (var k = 0; k < 5; k++) {
  switch (k % 3) { case 0: out.push("zero"); break; case 1: out.push("one");
    default: out.push("dflt"); }
}
var w = 0; while (true) { w++; if (w >= 4) { break; } }
out.push(w, 7 & 3, 7 | 8, 5 ^ 1, 1 << 4, -16 >> 2, -16 >>> 28, 7 % 3, 1 / 0, 0 / 0);
out.push(1 == "1", 1 === "1", null == undefined, null === undefined, "b" > "a", 2 <= 1);
out.push(typeof Infinity, typeof NaN, typeof undefined, (1, 2), true ? "t" : "f");
try { null.x; } catch (err) { out.push(err.name); }
try { undefinedFunction(); } catch (err) { out.push(err.message); }
try { try { throw 1; } finally { out.push("inner-finally"); } } catch (v) { out.push("caught " + v); }
function early() { try { return "try"; } finally { out.push("fin"); } }
out.push(early());
out.push("a-b-c".split("-").length, "abc".charAt(1), "Abc".toLowerCase(), (255).toString(16));
out.push(JSON.stringify({ n: [1, "two", null, true] }), Math.max(3, 9, 2), parseInt("42px"));
out.push("x1y22z".replace(/[0-9]+/g, "#"), /b+/.test("abbc"), 0.1 + 0.2, -0, 1e21, 123456789012);
console.log(out.join(" "));
</script>|}
    );
    ( "compute-loop",
      {|<script>
var total = 0;
function spin(n) { var i = 0; var acc = 0; while (i < n) { acc = acc + (i % 7); i++; } return acc; }
for (var r = 0; r < 8; r++) { total = total + spin(1000); }
console.log("total " + total);
setTimeout(function () { console.log("timer " + spin(10)); }, 20);
</script>|}
    );
  ]

(* Run only at the starved budgets: at the default budget its runaway
   timer would spend the whole step allowance. *)
let runaway_page =
  {|<script>
var before = 0;
function step() { before++; }
step();
setTimeout(function () { var j = 0; for (;;) { j++; step(); } }, 1);
setTimeout(function () { console.log("after runaway " + before); }, 20);
</script>|}

let fuels = [ 997; 20_011; 300_007 ]

let () =
  let examples_dir = Sys.argv.(1) in
  let corpus =
    List.mapi
      (fun i (p : Wr_sitegen.Profile.t) ->
        let name = Printf.sprintf "corpus/%03d-%s" i p.Wr_sitegen.Profile.name in
        let site = Wr_sitegen.Gen.generate p in
        let races =
          pin ~name ~seed:0 ~page:site.Wr_sitegen.Gen.page
            ~resources:site.Wr_sitegen.Gen.resources ()
        in
        (races, i, name, site))
      (Wr_sitegen.Profile.corpus ())
  in
  let examples =
    Sys.readdir examples_dir |> Array.to_list |> List.sort compare
    |> List.map (fun d ->
           let page, resources = example (Filename.concat examples_dir d) in
           List.iter
             (fun seed -> ignore (pin ~name:("example/" ^ d) ~seed ~page ~resources ()))
             [ 0; 1; 2; 3 ];
           ("example/" ^ d, page, resources))
  in
  List.iter
    (fun (s : Wr_sitegen.Adversarial.scenario) ->
      ignore (pin ~name:("adversarial/" ^ s.name) ~seed:0 ~page:s.page ~resources:s.resources ()))
    (Wr_sitegen.Adversarial.pack ());
  List.iter
    (fun (name, page) ->
      List.iter (fun seed -> ignore (pin ~name ~seed ~page ~resources:[] ())) [ 0; 1 ];
      List.iter (fun fuel -> ignore (pin ~name ~fuel ~seed:0 ~page ~resources:[] ())) fuels)
    compute_pages;
  List.iter
    (fun fuel ->
      ignore (pin ~name:"compute-runaway" ~fuel ~seed:0 ~page:runaway_page ~resources:[] ()))
    fuels;
  List.iter
    (fun (name, page, resources) ->
      pin_explain ~name ~seed:0 ~page ~resources)
    examples;
  (* Most races first; ties keep corpus order. *)
  List.sort (fun (ra, ia, _, _) (rb, ib, _, _) -> compare (rb, ia) (ra, ib)) corpus
  |> List.filteri (fun k _ -> k < 10)
  |> List.iter (fun (_, _, name, (site : Wr_sitegen.Gen.site)) ->
         pin_explain ~name ~seed:0 ~page:site.Wr_sitegen.Gen.page
           ~resources:site.Wr_sitegen.Gen.resources)
