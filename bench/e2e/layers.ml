(* The per-layer cost ledger of one page, measured from outside by
   timing calls into each layer's public functions under a span.

   Layers the browser runs interleaved are split by differential runs
   rather than by spans inside the program:
   - interp.self = no-detector browser run - HTML parse - JS parse - HB
     graph build;
   - detect.self = trace replay through dedup + last-access - graph
     rebuild;
   - report.encode = report encoding - witness extraction. *)

module Json = Wr_support.Json
module Html = Wr_html.Html
module Config = Wr_browser.Config
module Trace = Wr_detect.Trace

let rec iter_elements f nodes =
  List.iter
    (function
      | Html.Element e ->
          f e;
          iter_elements f e.Html.children
      | Html.Text _ -> ())
    nodes

(* The main document and, recursively, every iframe it can load. *)
let rec parse_documents ~resources ~depth html =
  let forest = Html.parse html in
  let frames = ref [] in
  iter_elements
    (fun e -> if e.Html.tag = "iframe" then Option.iter (fun s -> frames := s :: !frames) (Html.attr e "src"))
    forest;
  forest
  ::
  (if depth >= 4 then []
   else
     List.concat_map
       (fun src ->
         match List.assoc_opt src resources with
         | Some body -> parse_documents ~resources ~depth:(depth + 1) body
         | None -> [])
       (List.rev !frames))

(* Script bodies, external scripts, inline handlers and javascript:
   links: everything the browser hands to the JS parser. *)
let scripts ~resources forests =
  let acc = ref [] in
  let add s = if String.trim s <> "" then acc := s :: !acc in
  List.iter
    (iter_elements (fun e ->
         if e.Html.tag = "script" then
           match Html.attr e "src" with
           | Some src -> Option.iter add (List.assoc_opt src resources)
           | None ->
               add
                 (String.concat ""
                    (List.filter_map
                       (function Html.Text t -> Some t | Html.Element _ -> None)
                       e.Html.children));
         List.iter
           (fun (a : Html.attr) ->
             if String.length a.name > 2 && String.sub a.name 0 2 = "on" then add a.value
             else if a.name = "href" && String.starts_with ~prefix:"javascript:" a.value then
               add (String.sub a.value 11 (String.length a.value - 11)))
           e.Html.attrs))
    forests;
  List.rev !acc

type counts = {
  ops : int;
  edges : int;
  accesses : int;
  records : int;
  races : int;
  filtered : int;
  bytes : int;
  schedules : int;
}

let decompose spans ~item (p : Inputs.page) ~seed =
  let sp name f = Spans.with_span spans ~item name f in
  let page = p.Inputs.html and resources = p.Inputs.resources in
  let cfg = Webracer.config ~page ~resources ~seed () in
  sp "page" (fun () ->
      let docs = sp "html.parse" (fun () -> parse_documents ~resources ~depth:0 page) in
      sp "js.parse" (fun () ->
          List.iter
            (fun src -> try ignore (Wr_js.Parser.parse src) with _ -> ())
            (scripts ~resources docs));
      ignore
        (sp "browser.nodet" (fun () ->
             Webracer.analyze { cfg with Config.detector = Config.No_detector }));
      let captured =
        sp "trace.capture" (fun () ->
            Webracer.analyze { cfg with Config.detector = Config.No_detector; trace = true })
      in
      let trace = Option.get captured.Webracer.trace in
      ignore (sp "hb.build" (fun () -> Trace.rebuild_graph trace));
      let dedup = ref None in
      ignore
        (sp "detect.replay" (fun () ->
             Trace.replay trace ~detector:(fun g ->
                 let d, stats = Wr_detect.Dedup.wrap (Wr_detect.Last_access.create g) in
                 dedup := Some stats;
                 d)));
      let full = sp "page.analyze" (fun () -> Webracer.analyze cfg) in
      let g = full.Webracer.hb_graph in
      ignore
        (sp "explain.witness" (fun () ->
             ( Wr_explain.of_races g full.Webracer.races,
               Wr_explain.of_races g full.Webracer.filtered )));
      let doc =
        sp "report.encode" (fun () -> Json.to_string (Webracer.report_to_json full))
      in
      ignore (sp "static.model" (fun () -> Wr_static.Model.build ~page ~resources ()));
      ignore (sp "static.predict" (fun () -> Wr_static.Predict.predict ~page ~resources ()));
      let triage =
        sp "static.triage" (fun () -> Wr_static.Triage.run ~seed ~budget:8 ~page ~resources ())
      in
      let params = Wr_serve.Request.analyze_params ~page ~resources ~seed () in
      let line =
        Wr_serve.Request.to_line
          (Wr_serve.Request.make ~id:(Json.Int 1) (Wr_serve.Request.analyze params))
      in
      ignore (sp "serve.decode" (fun () -> Wr_serve.Request.of_line line));
      ignore (sp "serve.cache_key" (fun () -> Wr_serve.Cache.key params));
      let result = Webracer.report_to_json full in
      ignore
        (sp "serve.hit_encode" (fun () ->
             Wr_serve.Response.to_line (Wr_serve.Response.ok ~id:(Json.Int 1) result)));
      let seen, forwarded =
        match !dedup with
        | Some read ->
            let s = read () in
            (s.Wr_detect.Dedup.seen, s.Wr_detect.Dedup.forwarded)
        | None -> (0, 0)
      in
      {
        ops = full.Webracer.ops;
        edges = full.Webracer.hb_edges;
        accesses = seen;
        records = forwarded;
        races = List.length full.Webracer.races;
        filtered = List.length full.Webracer.filtered;
        bytes = String.length doc;
        schedules = triage.Wr_static.Triage.schedules_run;
      })

(* Per-page means of the span totals, plus the ledger against [e2e], the
   untraced analyze + encode seconds of the same pages. *)
let metrics spans ~pages ~e2e (counts : counts list) =
  let n = float_of_int (max 1 pages) in
  let per name = Spans.total spans name /. n in
  let ms name = Sample.ms (per name) in
  let mean f = float_of_int (List.fold_left (fun acc c -> acc + f c) 0 counts) /. n in
  let html = per "html.parse" and js = per "js.parse" and nodet = per "browser.nodet" in
  let build = per "hb.build" and replay = per "detect.replay" in
  let witness = per "explain.witness" and encode = per "report.encode" in
  let detect = replay -. build in
  let attributed = nodet +. detect +. encode in
  let e2e = e2e /. n in
  let m = Sample.metric in
  [
    m "html.parse_ms" "ms" (Sample.ms html);
    m "js.parse_ms" "ms" (Sample.ms js);
    m "browser.nodet_ms" "ms" (Sample.ms nodet);
    m "interp.self_ms" "ms" (Sample.ms (nodet -. html -. js -. build));
    m "hb.build_ms" "ms" (Sample.ms build);
    m "hb.ops" "count" (mean (fun c -> c.ops));
    m "hb.edges" "count" (mean (fun c -> c.edges));
    m "detect.self_ms" "ms" (Sample.ms detect);
    m "detect.accesses" "count" (mean (fun c -> c.accesses));
    m "detect.records" "count" (mean (fun c -> c.records));
    m "detect.dedup_ratio" "ratio"
      (mean (fun c -> c.accesses) /. Float.max 1. (mean (fun c -> c.records)));
    m "detect.races" "count" (mean (fun c -> c.races));
    m "detect.filtered" "count" (mean (fun c -> c.filtered));
    m "explain.witness_ms" "ms" (Sample.ms witness);
    m "report.encode_ms" "ms" (Sample.ms (encode -. witness));
    m "report.bytes" "bytes" (mean (fun c -> c.bytes));
    m "page.e2e_ms" "ms" (Sample.ms e2e);
    m "ledger.coverage" "ratio" (if e2e > 0. then attributed /. e2e else 0.);
    m "ledger.residual_ms" "ms" (Sample.ms (e2e -. attributed));
    m "static.model_ms" "ms" (ms "static.model");
    m "static.predict_ms" "ms" (ms "static.predict");
    m "static.triage_ms" "ms" (ms "static.triage");
    m "static.triage_schedules" "count" (mean (fun c -> c.schedules));
    m "serve.request_decode_us" "us" (per "serve.decode" *. 1e6);
    m "serve.cache_key_us" "us" (per "serve.cache_key" *. 1e6);
    m "serve.hit_encode_ms" "ms" (ms "serve.hit_encode");
  ]
