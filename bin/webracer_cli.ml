(* The WebRacer command-line interface.

   webracer run PAGE.html      analyze one page for races
   webracer batch PAGES...     analyze many pages over a domain pool
   webracer explain PAGE.html  show checkable witnesses for each race
   webracer predict PAGE.html  static race prediction, no execution
   webracer triage PAGE.html   confirm or refute predictions with guided schedules
   webracer replay PAGE.html   re-run a page under alternative schedules
   webracer profile PAGE.html  per-phase wall-clock breakdown of one analysis
   webracer offline TRACE      replay a recorded trace through a detector
   webracer corpus             regenerate the paper's evaluation tables
   webracer sitegen NAME DIR   write a synthetic corpus site to disk
   webracer serve              long-lived analysis daemon (socket/TCP)
   webracer call VERB          client for a running serve daemon
   webracer bench-serve        sustained load against a running daemon
   webracer top                live view of a running daemon

   Each flag has one definition below, shared by every subcommand that
   takes it. The page-analyzing subcommands (run, batch, explain,
   profile, predict, triage, replay, call) build their request as a
   [Wr_serve.Request.analyze_params] from the same PAGE and analysis
   flags; all but triage go through [Wr_serve.Api], the dispatch path
   the daemon uses, so `run --json` output and a served `analyze`
   result are byte-identical (modulo wall_clock_s). *)

open Cmdliner
module Telemetry = Wr_telemetry.Telemetry
module Log = Wr_support.Log
module Request = Wr_serve.Request
module Api = Wr_serve.Api

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let write_trace tm file =
  write_file file (Wr_support.Json.to_string (Telemetry.to_chrome_trace tm))

(* Resources for PAGE: every other regular file in the page's directory is
   fetchable under its relative name, so `webracer run dir/page.html` works
   on a directory of page + scripts + frames. *)
let resources_around page_path =
  let dir = Filename.dirname page_path in
  let page_base = Filename.basename page_path in
  match Sys.readdir dir with
  | entries ->
      Array.to_list entries
      |> List.filter (fun f ->
             f <> page_base && not (Sys.is_directory (Filename.concat dir f)))
      |> List.map (fun f -> (f, read_file (Filename.concat dir f)))
  | exception Sys_error _ -> []

(* [with_page ~params path] is the request [params] describe, aimed at
   PAGE [path]: the only place a PAGE is read. *)
let with_page ?(params = Request.analyze_params ~page:"" ()) path =
  { params with Request.page = read_file path; resources = resources_around path }

(* --- shared flags ------------------------------------------------------- *)

let page_arg ?(nth = 0) doc = Arg.(pos nth (some file) None & info [] ~docv:"PAGE" ~doc)

let seed_arg ?(default = 0) ?(doc = "Seed for network latencies and Math.random.") () =
  Arg.(value & opt int default & info [ "seed" ] ~doc)

let detector_arg =
  Arg.(
    value
    & opt (enum Request.detector_names) Webracer.Config.Last_access
    & info [ "detector" ]
        ~doc:("Race detector: " ^ doc_alts_enum Request.detector_names
              ^ " ($(b,last-access) is the paper's)."))

let hb_arg =
  Arg.(
    value & opt (enum Request.hb_names) Wr_hb.Graph.default_strategy
    & info [ "hb" ]
        ~doc:("Happens-before queries: " ^ doc_alts_enum Request.hb_names
              ^ " ($(b,dfs) is the paper's; $(b,chain-vc) is the default)."))

(* Durations and intervals: NaN, infinity and non-positive values fail
   at parse time, with the predicate the daemon applies on the wire. *)
let positive_finite =
  let parse s =
    match float_of_string_opt s with
    | Some x when Request.valid_time_limit x -> Ok x
    | _ ->
        Error (`Msg (Printf.sprintf "invalid value '%s', expected a positive finite number" s))
  in
  Arg.conv (parse, Format.pp_print_float)

(* The analysis flags of [Request.analyze_params]: the term yields the
   request with an empty page, which [with_page] aims at each PAGE. *)
let target_term ?(seed = seed_arg ()) () =
  let no_explore =
    Arg.(
      value & flag
      & info [ "no-explore" ] ~doc:"Disable automatic exploration of user events (§5.2.2).")
  in
  let time_limit =
    Arg.(
      value & opt positive_finite 60_000.
      & info [ "time-limit" ] ~docv:"MS" ~doc:"Virtual-time horizon in milliseconds.")
  in
  let no_dedup =
    Arg.(
      value & flag
      & info [ "no-dedup" ]
          ~doc:"Disable the per-operation access-dedup front-end, feeding the detector \
                every raw access (slower; race results are identical either way).")
  in
  let params seed no_explore detector hb time_limit no_dedup =
    Request.analyze_params ~page:"" ~seed ~explore:(not no_explore) ~detector ~hb
      ~time_limit ~dedup:(not no_dedup) ()
  in
  Term.(const params $ seed $ no_explore $ detector_arg $ hb_arg $ time_limit $ no_dedup)

let jobs_arg ?(default = 1) doc =
  let jobs n = if n = 0 then Wr_support.Pool.hardware_domains () else max 1 n in
  Term.(
    const jobs
    $ Arg.(
        value & opt int default
        & info [ "j"; "jobs" ] ~docv:"N"
            ~doc:(doc ^ " $(b,0) means one per hardware thread.")))

let limit_arg =
  Arg.(
    value & opt (some int) None
    & info [ "limit" ] ~docv:"N" ~doc:"Only the first $(docv) corpus sites.")

let gc_trace_arg =
  Arg.(
    value & flag
    & info [ "gc-trace" ]
        ~doc:"Observe the runtime's GC through Runtime_events: per-domain pause \
              histograms, and GC slices on each domain's track in $(b,--trace-out) \
              output.")

let trace_out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace_event JSON profile to $(docv) (open in \
              chrome://tracing or Perfetto), one track per domain.")

let connect_timeout_arg =
  Arg.(
    value & opt float 10.
    & info [ "connect-timeout" ] ~docv:"SECONDS"
        ~doc:"Keep retrying the connection this long (covers a daemon still \
              starting up).")

(* [schema_arg cmd] is the wire schema generation, checked against what
   this client speaks before [cmd] does anything else. *)
let schema_arg cmd =
  let checked schema =
    if not (Wr_support.Schema.is_supported schema) then begin
      Printf.eprintf "%s: unsupported --schema %d (this client speaks %s)\n" cmd
        schema (Wr_support.Schema.supported_names ());
      exit 1
    end;
    schema
  in
  Term.(
    const checked
    $ Arg.(
        value & opt int 1
        & info [ "schema" ] ~docv:"V"
            ~doc:"Wire schema generation to request (1 or 2). v2 responses carry \
                  HTTP-parity error objects; v1 is the byte-stable default."))

(* [--log-out FILE] routes the structured event log to a JSONL file; if
   WEBRACER_LOG did not already pick a level, recording everything is the
   useful default for an explicitly requested log file. The sink is
   flushed and closed at exit, whichever way the subcommand exits. *)
let log_out =
  let setup log_out =
    at_exit Log.close_sink;
    match log_out with
    | None -> ()
    | Some file ->
        Log.open_sink_file file;
        if Log.current_level () = None then Log.set_level (Some Log.Debug)
  in
  Term.(
    const setup
    $ Arg.(
        value & opt (some string) None
        & info [ "log-out" ] ~docv:"FILE"
            ~doc:"Write the structured pipeline event log as JSONL to $(docv) (level \
                  $(b,debug) unless $(b,WEBRACER_LOG) says otherwise)."))

(* --- run -------------------------------------------------------------- *)

let run_cmd =
  let page = Arg.(required & page_arg "HTML page to analyze.") in
  let raw =
    Arg.(
      value & flag
      & info [ "raw" ] ~doc:"Report unfiltered races instead of applying the §5.3 filters.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the full report as JSON.") in
  let dump_hb =
    Arg.(
      value & opt (some string) None
      & info [ "dump-hb" ] ~docv:"FILE"
          ~doc:"Write the happens-before graph as Graphviz DOT, with the first reported \
                race's operations highlighted.")
  in
  let dump_trace =
    Arg.(
      value & opt (some string) None
      & info [ "dump-trace" ] ~docv:"FILE"
          ~doc:"Record the execution trace (operations, edges, accesses) as JSON for \
                offline analysis with $(b,webracer offline).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Collect telemetry during the run and print a metrics summary (also \
                embedded under $(b,telemetry) with $(b,--json)).")
  in
  let action page target raw json dump_hb dump_trace trace_out metrics () =
    let tm = if trace_out <> None || metrics then Telemetry.create () else Telemetry.disabled in
    let report =
      Api.analyze ~trace:(dump_trace <> None) ~telemetry:tm (with_page ~params:target page)
    in
    Option.iter (write_trace tm) trace_out;
    (match dump_trace, report.Webracer.trace with
    | Some file, Some trace -> Wr_detect.Trace.save trace file
    | _ -> ());
    (match dump_hb with
    | Some file ->
        let highlight =
          match report.Webracer.races with
          | r :: _ ->
              [ r.Wr_detect.Race.first.Wr_mem.Access.op;
                r.Wr_detect.Race.second.Wr_mem.Access.op ]
          | [] -> []
        in
        write_file file (Wr_hb.Graph.to_dot ~highlight report.Webracer.hb_graph)
    | None -> ());
    if json then print_endline (Wr_support.Json.to_string (Webracer.report_to_json report))
    else begin
      let races = if raw then report.Webracer.races else report.Webracer.filtered in
      Format.printf "%a@.@." Webracer.pp_report report;
      if races = [] then
        print_endline (if raw then "No races detected." else "No races after filtering.")
      else begin
        Format.printf "%s races%s:@.@."
          (string_of_int (List.length races))
          (if raw then " (unfiltered)" else " (after §5.3 filters)");
        List.iteri
          (fun i r ->
            Format.printf "%2d. %a%s@.@." (i + 1) Wr_detect.Race.pp r
              (if Wr_detect.Race.heuristic_harmful r then "  [likely harmful]" else ""))
          races
      end;
      if report.Webracer.crashes <> [] then begin
        Format.printf "Script crashes hidden by the browser:@.";
        List.iter
          (fun (c : Wr_browser.Browser.crash) ->
            Format.printf "  - %s (in %s)@." c.Wr_browser.Browser.message
              c.Wr_browser.Browser.context)
          report.Webracer.crashes
      end;
      if metrics then
        print_endline (Wr_support.Json.to_string (Telemetry.metrics_json tm))
    end;
    (* CI-gate contract: exit 2 iff a likely-harmful race survives the
       filters, so `webracer run` can guard a pipeline (README: exit codes). *)
    if List.exists Wr_detect.Race.heuristic_harmful report.Webracer.filtered then exit 2
  in
  let doc = "Analyze a web page for races (WebRacer, PLDI 2012)." in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const action $ page $ target_term () $ raw $ json $ dump_hb $ dump_trace
      $ trace_out_arg $ metrics $ log_out)

(* --- batch -------------------------------------------------------------- *)

let batch_cmd =
  let pages =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"PAGES" ~doc:"HTML pages to analyze (each with its directory's \
                                    files as fetchable resources).")
  in
  let jobs =
    jobs_arg
      "Analyze up to $(docv) pages concurrently on an OCaml-domain worker pool. \
       Results are aggregated in input order, so the report is identical whatever \
       $(docv) is."
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the aggregated report as JSON.") in
  let action pages target jobs json () =
    let started = Wr_support.Clock.now () in
    let params = List.map (with_page ~params:target) pages in
    let reports = Wr_support.Pool.map_jobs ~jobs Api.analyze params in
    let rows = List.combine pages reports in
    if json then
      print_endline
        (Wr_support.Json.to_string
           (Wr_support.Json.List
              (List.map
                 (fun (page, r) ->
                   Wr_support.Json.Obj
                     [
                       ("page", Wr_support.Json.String page);
                       ("report", Webracer.report_to_json r);
                     ])
                 rows)))
    else begin
      let harmful r =
        List.length (List.filter Wr_detect.Race.heuristic_harmful r.Webracer.filtered)
      in
      Wr_support.Table.print
        ~header:[ "page"; "races"; "filtered"; "harmful"; "ops"; "accesses" ]
        (List.map
           (fun (page, r) ->
             [
               page;
               string_of_int (List.length r.Webracer.races);
               string_of_int (List.length r.Webracer.filtered);
               string_of_int (harmful r);
               string_of_int r.Webracer.ops;
               string_of_int r.Webracer.accesses;
             ])
           rows);
      let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 rows in
      Printf.printf "\n%d pages: %d races, %d after filters, %d likely harmful\n"
        (List.length rows)
        (sum (fun r -> List.length r.Webracer.races))
        (sum (fun r -> List.length r.Webracer.filtered))
        (sum harmful);
      Printf.printf "wall clock: %.3f s (%d jobs)\n" (Wr_support.Clock.now () -. started) jobs
    end;
    (* Same CI-gate contract as `run`: exit 2 iff any page keeps a
       likely-harmful race after filtering. *)
    if
      List.exists
        (fun (_, r) ->
          List.exists Wr_detect.Race.heuristic_harmful r.Webracer.filtered)
        rows
    then exit 2
  in
  let doc =
    "Analyze many pages concurrently on an OCaml 5 domain pool and aggregate the \
     reports deterministically (input order, independent of completion order)."
  in
  Cmd.v
    (Cmd.info "batch" ~doc)
    Term.(const action $ pages $ target_term () $ jobs $ json $ log_out)

(* --- explain ------------------------------------------------------------ *)

let explain_cmd =
  let page = Arg.(required & page_arg "HTML page whose races should be explained.") in
  let race_n =
    Arg.(
      value & opt (some int) None
      & info [ "race" ] ~docv:"N" ~doc:"Explain only the $(docv)-th reported race (1-based).")
  in
  let dot_out =
    Arg.(
      value & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:"Export the witness evidence as a Graphviz DOT $(i,subgraph): only the \
                provenance, frontier and ancestor operations, racing ops outlined red, \
                provenance paths bold red.")
  in
  let json_out =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the selected witnesses as JSON to $(docv).")
  in
  let action page target race_n dot_out json_out () =
    let report = Api.analyze (with_page ~params:target page) in
    let g = report.Webracer.hb_graph in
    let races = report.Webracer.races in
    let selection =
      match Api.select_races report ~race:race_n with
      | Ok selection -> selection
      | Error msg ->
          Printf.eprintf "explain: %s\n" msg;
          exit 1
    in
    let witnesses = List.map (fun (i, race) -> (i, race, Wr_explain.of_race g race)) selection in
    Printf.printf "races: %d raw, %d after filters\n\n" (List.length races)
      (List.length report.Webracer.filtered);
    if races = [] then print_endline "No races detected; nothing to explain."
    else
      List.iter
        (fun (i, race, w) ->
          let suppression =
            match List.find_opt (fun (_, r) -> r == race) report.Webracer.suppressed with
            | Some (filter, _) -> Printf.sprintf " [suppressed by %s filter]" filter
            | None -> ""
          in
          Format.printf "%2d.%s %a@.@." i suppression (Wr_explain.pp g) w)
        witnesses;
    (match dot_out with
    | Some file ->
        write_file file (Wr_explain.dot_many g (List.map (fun (_, _, w) -> w) witnesses));
        Printf.printf "witness subgraph written to %s\n" file
    | None -> ());
    (match json_out with
    | Some file ->
        write_file file (Wr_support.Json.to_string (Api.explain_json report selection));
        Printf.printf "witnesses written to %s\n" file
    | None -> ());
    if List.exists (fun (_, _, w) -> not (Wr_explain.verify g w)) witnesses then begin
      prerr_endline "explain: internal error: a witness failed its own certificate";
      exit 3
    end
  in
  let doc =
    "Explain each detected race with a checkable witness: the racing operations' \
     provenance chains, their nearest common happens-before ancestor, and the no-path \
     frontier certifying that neither access happens-before the other."
  in
  Cmd.v
    (Cmd.info "explain" ~doc)
    Term.(
      const action $ page $ target_term () $ race_n $ dot_out $ json_out $ log_out)

(* --- predict ----------------------------------------------------------- *)

let predict_cmd =
  let page =
    Arg.(value & page_arg "HTML page to predict races for (omit with $(b,--corpus)).")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the prediction document as JSON.") in
  let lint =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:"Report only the static lint findings (write-only globals, handlers on \
                missing ids, duplicate ids) as JSON; always exits 0.")
  in
  let compare =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:"Also run the dynamic detector and label predictions confirmed or \
                unconfirmed, and dynamic races predicted or missed. Exits 2 when a \
                dynamic race was missed.")
  in
  let corpus =
    Arg.(
      value & flag
      & info [ "corpus" ]
          ~doc:"Validate over the synthetic corpus instead of one page: predict and \
                $(b,--compare) every site, aggregate recall/precision.")
  in
  let target =
    target_term
      ~seed:
        (seed_arg ~default:42
           ~doc:"Seed for the dynamic comparison run (and the corpus sites)." ())
      ()
  in
  let jobs =
    jobs_arg
      "(corpus) validate up to $(docv) sites concurrently; per-site seeds are \
       position-fixed."
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ] ~doc:"Collect telemetry and print a metrics summary.")
  in
  let action page json lint compare corpus target limit jobs metrics () =
    if corpus then begin
      let outcomes =
        Wr_sitegen.Eval.predict_corpus ~seed:target.Request.seed ?limit ~jobs ()
      in
      print_string (Wr_sitegen.Eval.render_predict outcomes);
      let missed =
        List.fold_left
          (fun acc (o : Wr_sitegen.Eval.predict_outcome) ->
            acc + List.length o.Wr_sitegen.Eval.comparison.Wr_static.Compare.missed)
          0 outcomes
      in
      (* CI-gate contract: a dynamically detected race the static side
         missed is a soundness regression. *)
      if missed > 0 then exit 2
    end
    else begin
      let page =
        match page with
        | Some p -> p
        | None ->
            prerr_endline "predict: PAGE argument required (or use --corpus)";
            exit 1
      in
      let tm = if metrics then Telemetry.create () else Telemetry.disabled in
      let params = { Request.target = with_page ~params:target page; compare; lint } in
      let doc = Api.predict_json ~telemetry:tm params in
      (* As for --corpus: a dynamic race the prediction missed fails the
         run, whatever the output format. *)
      let missed_dynamic =
        let field name = function
          | Wr_support.Json.Obj fields -> List.assoc_opt name fields
          | _ -> None
        in
        match Option.bind (field "compare" doc) (field "missed") with
        | Some (Wr_support.Json.List (_ :: _)) -> true
        | _ -> false
      in
      if json || lint then
        print_endline (Wr_support.Json.to_string doc)
      else begin
        let member name =
          match doc with
          | Wr_support.Json.Obj fields -> List.assoc_opt name fields
          | _ -> None
        in
        let geti name j =
          match Wr_support.Json.member name j with
          | Wr_support.Json.Int n -> n
          | _ -> 0
        in
        (match (member "units", member "mhp_pairs", member "summary") with
        | Some units, Some mhp, Some summary ->
            Printf.printf "units: %d  mhp pairs: %d\n"
              (match units with Wr_support.Json.Int n -> n | _ -> 0)
              (match mhp with Wr_support.Json.Int n -> n | _ -> 0);
            Printf.printf
              "predicted races: %d (html %d, function %d, variable %d, dispatch %d)\n"
              (geti "total" summary) (geti "html" summary) (geti "function" summary)
              (geti "variable" summary) (geti "dispatch" summary)
        | _ -> ());
        (match member "predictions" with
        | Some (Wr_support.Json.List preds) ->
            List.iteri
              (fun i p ->
                let s name = Wr_support.Json.(to_str (member name p)) in
                let unit_label side =
                  Wr_support.Json.(to_str (member "label" (member side p)))
                in
                Printf.printf "%2d. %s race on %s\n      %s (%s)\n      %s (%s)\n"
                  (i + 1) (s "type") (s "location") (unit_label "first")
                  (s "first_kind") (unit_label "second") (s "second_kind"))
              preds
        | _ -> ());
        (match member "compare" with
        | Some c ->
            Printf.printf
              "compare: dynamic races %d, matched %d; predictions %d, confirmed %d\n"
              (geti "dynamic_races" c) (geti "matched_dynamic" c) (geti "predicted" c)
              (geti "confirmed" c);
            (match Wr_support.Json.member "missed" c with
            | Wr_support.Json.List [] -> ()
            | Wr_support.Json.List missed ->
                Printf.printf "missed dynamic races:\n";
                List.iter
                  (fun m ->
                    Printf.printf "  - %s race on %s\n"
                      Wr_support.Json.(to_str (member "type" m))
                      Wr_support.Json.(to_str (member "location" m)))
                  missed
            | _ -> ())
        | None -> ());
        if metrics then
          print_endline (Wr_support.Json.to_string (Telemetry.metrics_json tm))
      end;
      if missed_dynamic then exit 2
    end
  in
  let doc =
    "Predict races ahead of time from static effect analysis and a parse-derived \
     may-happen-in-parallel relation (no execution)."
  in
  Cmd.v
    (Cmd.info "predict" ~doc)
    Term.(
      const action $ page $ json $ lint $ compare $ corpus $ target $ limit_arg $ jobs
      $ metrics $ log_out)

(* --- triage ------------------------------------------------------------ *)

let triage_cmd =
  let page = Arg.(value & page_arg "HTML page to triage (omit with $(b,--corpus)).") in
  let corpus =
    Arg.(
      value & flag
      & info [ "corpus" ]
          ~doc:"Triage the synthetic corpus plus the adversarial pack (which \
                $(b,--limit) never cuts) instead of one page; exits 2 if any site \
                surfaces a dynamic race outside its prediction set.")
  in
  let budget =
    Arg.(
      value
      & opt int Wr_static.Triage.default_budget
      & info [ "budget" ] ~docv:"N"
          ~doc:"Schedule budget per page, baseline included; predictions left over \
                when it runs out stay $(b,unconfirmed).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the triage report as JSON (schema v2, stable field order; \
                single-page mode only).")
  in
  let blind =
    Arg.(
      value & flag
      & info [ "blind" ]
          ~doc:"Also report how many schedules blind seed enumeration needs to \
                confirm everything the guided search confirmed (capped at 64).")
  in
  let seed = seed_arg ~default:42 ~doc:"Base seed for the schedules." () in
  let jobs =
    jobs_arg
      "Schedule (or, with $(b,--corpus), site) parallelism; the reports are \
       identical whatever $(docv) is."
  in
  let action page corpus budget json blind seed limit jobs () =
    if corpus then begin
      let outcomes = Wr_sitegen.Eval.triage_corpus ~seed ?limit ~jobs ~budget () in
      print_string (Wr_sitegen.Eval.render_triage outcomes);
      (* CI-gate contract: a dynamic race the prediction set does not
         cover is a soundness regression. *)
      if not (Wr_sitegen.Eval.triage_sound outcomes) then exit 2
    end
    else begin
      let page =
        match page with
        | Some p -> p
        | None ->
            prerr_endline "triage: PAGE argument required (or use --corpus)";
            exit 1
      in
      let { Request.page = page_html; resources; _ } = with_page page in
      let t =
        Wr_static.Triage.run ~seed ~jobs ~budget ~page:page_html ~resources ()
      in
      if json then
        print_endline (Wr_support.Json.to_string (Wr_static.Triage.to_json t))
      else begin
        print_string (Wr_static.Triage.render t);
        if blind then begin
          let b =
            Wr_static.Triage.blind_equivalent ~jobs ~seed ~page:page_html
              ~resources t
          in
          Printf.printf "blind equivalent: %d schedules%s\n"
            b.Wr_static.Triage.blind_schedules
            (if b.Wr_static.Triage.blind_matched then ""
             else " (cap hit before matching)")
        end
      end;
      if not (Wr_static.Triage.sound t) then exit 2
    end
  in
  let doc =
    "Triage static race predictions with guided dynamic schedules: derive the \
     delay-channel directives that could realize each prediction from the MHP \
     model, run only those schedules, and classify every prediction confirmed, \
     refuted (with a certificate) or unconfirmed (exit 2 if a dynamic race \
     escapes the prediction set)."
  in
  Cmd.v
    (Cmd.info "triage" ~doc)
    Term.(
      const action $ page $ corpus $ budget $ json $ blind $ seed $ limit_arg $ jobs
      $ log_out)

(* --- corpus ------------------------------------------------------------ *)

let corpus_cmd =
  let seed = seed_arg ~default:42 ~doc:"Corpus analysis seed." () in
  let jobs =
    jobs_arg
      "Analyze up to $(docv) sites concurrently; per-site seeds are position-fixed \
       so the tables do not depend on $(docv)."
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:"Also print the fleet profile: per-domain queue-wait / run / idle / GC \
                breakdown (implies $(b,--gc-trace)), regex-cache hits and misses, and \
                the cross-domain telemetry phase table — the figures behind any \
                parallel speedup (or its absence).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"With $(b,--profile), emit the fleet profile as one JSON object \
                (pool, GC, regex-cache and telemetry sections — the same fields \
                as the rendered tables) instead of text.")
  in
  let action seed limit jobs profile json gc_trace trace_out =
    let observing = profile || gc_trace || trace_out <> None in
    let tm = if observing then Telemetry.create () else Telemetry.disabled in
    (* Start before the pool exists so every fleet domain announces its
       ring; the probe reads GC pauses from [Runtime_events], not
       [Gc.quick_stat] deltas. *)
    let probe =
      if profile || gc_trace then
        Some (Wr_telemetry.Runtime_probe.start ~telemetry:tm ())
      else None
    in
    let outcomes, pool_stats =
      Wr_sitegen.Eval.run_corpus_stats ~seed ?limit ~jobs ~telemetry:tm ()
    in
    Option.iter Wr_telemetry.Runtime_probe.stop probe;
    let n_ok =
      List.length (List.filter Wr_sitegen.Eval.fidelity outcomes)
    in
    let regex_hits = Telemetry.counter_value tm "js.regex_cache_hits" in
    let regex_misses = Telemetry.counter_value tm "js.regex_cache_misses" in
    if json then begin
      let fields =
        [
          ("sites", Wr_support.Json.Int (List.length outcomes));
          ("fidelity_ok", Wr_support.Json.Int n_ok);
          ("jobs", Wr_support.Json.Int jobs);
          ("fleet", Wr_support.Pool.stats_json pool_stats);
          ( "regex_cache",
            Wr_support.Json.Obj
              [
                ("hits", Wr_support.Json.Int regex_hits);
                ("misses", Wr_support.Json.Int regex_misses);
              ] );
        ]
        @ (match probe with
          | Some p -> [ ("gc", Wr_telemetry.Runtime_probe.stats_json p) ]
          | None -> [])
        @
        if Telemetry.enabled tm then
          [ ("telemetry", Telemetry.metrics_json tm) ]
        else []
      in
      print_endline (Wr_support.Json.to_string (Wr_support.Json.Obj fields))
    end
    else begin
      print_endline "Table 1 analogue (raw races per type across sites):\n";
      print_string (Wr_sitegen.Eval.render_table1 outcomes);
      print_endline "\nTable 2 analogue (filtered races per site, harmful in parens):\n";
      print_string (Wr_sitegen.Eval.render_table2 outcomes);
      Printf.printf "\nGround-truth fidelity: %d/%d sites\n" n_ok
        (List.length outcomes);
      if profile then begin
        Printf.printf "\nFleet profile (%d jobs):\n\n" jobs;
        print_string (Wr_support.Pool.render_stats pool_stats);
        Printf.printf "\nregex cache: %d hits, %d misses\n" regex_hits regex_misses;
        (match probe with
        | Some p ->
            Printf.printf "\nGC (runtime events, per domain):\n\n";
            print_string (Wr_telemetry.Runtime_probe.render_stats p)
        | None -> ());
        Printf.printf "\nTelemetry phases (%d recording domains, %d spans):\n\n"
          (Telemetry.domains tm) (Telemetry.n_spans tm);
        print_string (Telemetry.phase_table tm)
      end
      else
        match probe with
        | Some p ->
            Printf.printf "\nGC (runtime events, per domain):\n\n";
            print_string (Wr_telemetry.Runtime_probe.render_stats p)
        | None -> ()
    end;
    Option.iter
      (fun file ->
        write_trace tm file;
        if not json then Printf.printf "\ntrace written to %s\n" file)
      trace_out
  in
  let doc = "Regenerate the paper's evaluation tables over the synthetic corpus." in
  Cmd.v (Cmd.info "corpus" ~doc)
    Term.(
      const action $ seed $ limit_arg $ jobs $ profile $ json $ gc_trace_arg
      $ trace_out_arg)

(* --- offline ------------------------------------------------------------ *)

let offline_cmd =
  let trace_file =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"Trace recorded with $(b,webracer run --dump-trace).")
  in
  let atomicity =
    Arg.(
      value & flag
      & info [ "atomicity" ]
          ~doc:"Also run the atomicity-violation checker (unserializable interleavings).")
  in
  let action trace_file detector hb atomicity =
    let trace = Wr_detect.Trace.load trace_file in
    let mk g =
      match detector with
      | Webracer.Config.Last_access -> Wr_detect.Last_access.create g
      | Webracer.Config.Full_track -> Wr_detect.Full_track.create g
      | Webracer.Config.No_detector -> Wr_detect.Detector.null
    in
    let races = Wr_detect.Trace.replay ~strategy:hb trace ~detector:mk in
    Printf.printf "trace: %d ops, %d edges, %d accesses\n"
      (List.length trace.Wr_detect.Trace.ops)
      (List.length trace.Wr_detect.Trace.edges)
      (List.length trace.Wr_detect.Trace.accesses);
    Printf.printf "races: %d\n\n" (List.length races);
    List.iteri
      (fun i r -> Format.printf "%2d. %a@.@." (i + 1) Wr_detect.Race.pp r)
      races;
    if atomicity then begin
      let violations = Wr_detect.Atomicity.check_trace trace in
      Printf.printf "atomicity violations: %d\n\n" (List.length violations);
      List.iter
        (fun v -> Format.printf "%a@.@." Wr_detect.Atomicity.pp_violation v)
        violations
    end
  in
  let doc = "Replay a recorded trace through a detector (and optionally the atomicity checker)." in
  Cmd.v (Cmd.info "offline" ~doc)
    Term.(const action $ trace_file $ detector_arg $ hb_arg $ atomicity)

(* --- replay ------------------------------------------------------------ *)

let replay_cmd =
  let page = Arg.(required & page_arg "HTML page whose races should be made to manifest.") in
  let schedules =
    Arg.(
      value & opt int 25
      & info [ "schedules" ] ~doc:"How many alternative schedules to try.")
  in
  let parse_delay =
    Arg.(
      value & opt float 2.
      & info [ "parse-delay" ]
          ~doc:"Virtual ms per parsed element, letting resource arrivals interleave with \
                parsing.")
  in
  let jobs =
    jobs_arg
      "Try up to $(docv) schedules concurrently; the verdict stays seed-ordered \
       whatever $(docv) is."
  in
  let action page schedules parse_delay jobs =
    let params =
      {
        Request.target =
          with_page ~params:(Request.analyze_params ~page:"" ~explore:false ()) page;
        schedules;
        parse_delay;
        jobs;
      }
    in
    let verdict = Api.replay params in
    Format.printf "%a@." Webracer.Replay.pp_verdict verdict;
    if Webracer.Replay.manifests verdict then exit 2
  in
  let doc =
    "Re-run a page under alternative schedules until a detected race manifests as a crash \
     or divergent output (exit 2 when it does)."
  in
  Cmd.v (Cmd.info "replay" ~doc) Term.(const action $ page $ schedules $ parse_delay $ jobs)

(* --- profile ------------------------------------------------------------ *)

let profile_cmd =
  let page = Arg.(required & page_arg "HTML page to profile.") in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the profile as one JSON object (telemetry phases, counters, \
                histograms, race counts, GC when $(b,--gc-trace)) instead of text.")
  in
  let action page target trace_out json gc_trace =
    let tm = Telemetry.create () in
    let probe =
      if gc_trace then Some (Wr_telemetry.Runtime_probe.start ~telemetry:tm ())
      else None
    in
    let report = Api.analyze ~telemetry:tm (with_page ~params:target page) in
    Option.iter Wr_telemetry.Runtime_probe.stop probe;
    if json then begin
      let fields =
        [
          ("telemetry", Telemetry.metrics_json tm);
          ( "races",
            Wr_support.Json.Obj
              [
                ("raw", Wr_support.Json.Int (List.length report.Webracer.races));
                ( "filtered",
                  Wr_support.Json.Int (List.length report.Webracer.filtered) );
              ] );
        ]
        @
        match probe with
        | Some p -> [ ("gc", Wr_telemetry.Runtime_probe.stats_json p) ]
        | None -> []
      in
      print_endline (Wr_support.Json.to_string (Wr_support.Json.Obj fields))
    end
    else begin
      print_string (Telemetry.phase_table tm);
      Printf.printf "\nspans: %d  domains: %d  races: %d raw, %d after filters\n"
        (Telemetry.n_spans tm) (Telemetry.domains tm)
        (List.length report.Webracer.races)
        (List.length report.Webracer.filtered);
      (match Telemetry.counters tm with
      | [] -> ()
      | counters ->
          print_newline ();
          print_endline "counters:";
          List.iter (fun (k, v) -> Printf.printf "  %-30s %d\n" k v) counters);
      (match Telemetry.histograms tm with
      | [] -> ()
      | hs ->
          print_newline ();
          print_endline "histograms:                       count      mean       p50       p95       max";
          let module H = Wr_support.Stats.Histo in
          List.iter
            (fun (name, h) ->
              Printf.printf "  %-30s %6d %9.3f %9.3f %9.3f %9.3f\n" name (H.count h)
                (H.mean h) (H.percentile h 50.) (H.percentile h 95.) (H.maximum h))
            hs);
      match probe with
      | Some p ->
          Printf.printf "\nGC (runtime events):\n\n";
          print_string (Wr_telemetry.Runtime_probe.render_stats p)
      | None -> ()
    end;
    Option.iter
      (fun file ->
        write_trace tm file;
        if not json then Printf.printf "\ntrace written to %s\n" file)
      trace_out
  in
  let doc =
    "Analyze a page with telemetry enabled and print the per-phase wall-clock breakdown \
     (parse, js-exec, event-dispatch, scheduler, network, detector)."
  in
  Cmd.v
    (Cmd.info "profile" ~doc)
    Term.(
      const action $ page $ target_term () $ trace_out_arg $ json $ gc_trace_arg)

(* --- sitegen ------------------------------------------------------------ *)

let sitegen_cmd =
  let site_name =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"SITE" ~doc:"Profile name, e.g. Ford or MetLife.")
  in
  let out_dir =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"DIR" ~doc:"Output directory (created if missing).")
  in
  let action name dir =
    match
      List.find_opt
        (fun p -> p.Wr_sitegen.Profile.name = name)
        (Wr_sitegen.Profile.corpus ())
    with
    | None ->
        prerr_endline ("unknown site: " ^ name);
        exit 1
    | Some profile ->
        let site = Wr_sitegen.Gen.generate profile in
        Wr_support.Fs.mkdir_p dir;
        write_file (Filename.concat dir "index.html") site.Wr_sitegen.Gen.page;
        List.iter
          (fun (url, body) -> write_file (Filename.concat dir url) body)
        site.Wr_sitegen.Gen.resources;
        Printf.printf "wrote %s/index.html and %d resources\n" dir
          (List.length site.Wr_sitegen.Gen.resources)
  in
  let doc = "Write a synthetic corpus site to disk (then: webracer run DIR/index.html)." in
  Cmd.v (Cmd.info "sitegen" ~doc) Term.(const action $ site_name $ out_dir)

(* --- serve / call ------------------------------------------------------- *)

let address_term =
  let socket =
    Arg.(
      value & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on (or connect to) a Unix socket.")
  in
  let port =
    Arg.(
      value & opt (some int) None
      & info [ "port" ] ~docv:"N"
          ~doc:"Listen on (or connect to) TCP 127.0.0.1:$(docv) instead of a Unix \
                socket.")
  in
  let combine socket port =
    match (socket, port) with
    | Some path, None -> `Ok (Wr_serve.Daemon.Unix_socket path)
    | None, Some p -> `Ok (Wr_serve.Daemon.Tcp p)
    | None, None -> `Error (true, "one of --socket PATH or --port N is required")
    | Some _, Some _ -> `Error (true, "--socket and --port are mutually exclusive")
  in
  Term.(ret (const combine $ socket $ port))

let address_string = function
  | Wr_serve.Daemon.Unix_socket p -> "unix:" ^ p
  | Wr_serve.Daemon.Tcp p -> Printf.sprintf "tcp:127.0.0.1:%d" p

(* [connect cmd ~retry_for address] — or exit 3, the daemon-unreachable
   code of [cmd]. *)
let connect cmd ~retry_for address =
  try Wr_serve.Client.connect ~retry_for address
  with Unix.Unix_error (e, _, _) ->
    Printf.eprintf "%s: cannot connect to %s: %s\n" cmd (address_string address)
      (Unix.error_message e);
    exit 3

let serve_cmd =
  let jobs =
    jobs_arg ~default:4
      "Worker domains analyzing requests; the accept loop runs besides them."
  in
  (* Accepted so existing scripts keep working; the daemon has one
     event loop whatever the value. *)
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~deprecated:"the daemon runs one event loop; --shards is ignored"
          ~doc:"Ignored: the daemon runs one event loop.")
  in
  let queue =
    Arg.(
      value & opt int 128
      & info [ "queue" ] ~docv:"N"
          ~doc:"Bounded admission queue: requests arriving while $(docv) jobs are in \
                flight get an $(b,overload) error instead of piling up.")
  in
  let cache =
    Arg.(
      value & opt int 64
      & info [ "cache" ] ~docv:"N"
          ~doc:"LRU result-cache entries keyed by content hash of (page, resources, \
                config); 0 disables caching.")
  in
  let wall_limit =
    Arg.(
      value & opt float 60.
      & info [ "wall-limit" ] ~docv:"SECONDS"
          ~doc:"Per-request wall-clock budget; an overdue request is answered with a \
                $(b,timeout) error (0 = unlimited).")
  in
  let max_vtime =
    Arg.(
      value & opt float 600_000.
      & info [ "max-time-limit" ] ~docv:"MS"
          ~doc:"Clamp on the virtual-time horizon a request may ask for.")
  in
  let metrics_out =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"On shutdown, write the final $(b,metrics) document (per-stage \
                latency histograms, queue high-water, cache hit ratio, Prometheus \
                text) to $(docv).")
  in
  let postmortem_dir =
    Arg.(
      value & opt (some string) None
      & info [ "postmortem-dir" ] ~docv:"DIR"
          ~doc:"Where postmortems go. Request milestones and log events are \
                always recorded in per-domain ring buffers; the newest entries \
                are dumped to $(docv) as $(b,postmortem-<n>-<reason>.jsonl) \
                (+ a Chrome trace) on a worker crash, a blown request deadline, \
                or SIGUSR2.")
  in
  let action address jobs (_ : int) queue cache wall_limit max_vtime trace_out
      metrics_out postmortem_dir gc_trace () =
    let cfg =
      {
        Wr_serve.Daemon.address;
        jobs;
        queue_cap = max 1 queue;
        cache_cap = max 0 cache;
        wall_limit;
        max_time_limit = max_vtime;
        postmortem_dir;
      }
    in
    let stopped = Atomic.make false in
    let request_stop = Sys.Signal_handle (fun _ -> Atomic.set stopped true) in
    Sys.set_signal Sys.sigint request_stop;
    Sys.set_signal Sys.sigterm request_stop;
    let dump_requested = Atomic.make false in
    Sys.set_signal Sys.sigusr2
      (Sys.Signal_handle (fun _ -> Atomic.set dump_requested true));
    let on_ready addr =
      Printf.eprintf
        "webracer serve: listening on %s (jobs %d, queue %d, cache %d)\n%!"
        (address_string addr) jobs cfg.Wr_serve.Daemon.queue_cap
        cfg.Wr_serve.Daemon.cache_cap
    in
    let tm = Telemetry.create () in
    (* Before [Daemon.run] creates the pool, so every worker domain
       announces its GC event ring to the probe. *)
    let probe =
      if gc_trace then Some (Wr_telemetry.Runtime_probe.start ~telemetry:tm ())
      else None
    in
    let on_stop metrics =
      (match metrics_out with
      | Some file ->
          write_file file (Wr_support.Json.to_string metrics);
          Printf.eprintf "webracer serve: metrics written to %s\n%!" file
      | None -> ());
      Option.iter
        (fun file ->
          write_trace tm file;
          Printf.eprintf "webracer serve: trace written to %s\n%!" file)
        trace_out
    in
    let final =
      Wr_serve.Daemon.run
        ~stop:(fun () -> Atomic.get stopped)
        ~dump:(fun () -> Atomic.exchange dump_requested false)
        ~on_ready ~on_stop ~telemetry:tm cfg
    in
    Option.iter Wr_telemetry.Runtime_probe.stop probe;
    Printf.eprintf "webracer serve: drained and stopped\n%s\n%!"
      (Wr_support.Json.to_string final)
  in
  let doc =
    "Run the long-lived analysis daemon: newline-delimited JSON requests \
     ($(b,ping), $(b,stats), $(b,metrics), $(b,watch), $(b,analyze), \
     $(b,explain), $(b,predict), $(b,triage), $(b,replay)) over a Unix socket \
     or TCP, dispatched to a \
     domain worker pool behind a bounded queue with an LRU result cache. \
     SIGINT/SIGTERM drain in-flight work, then write $(b,--trace-out) and \
     $(b,--metrics-out), before exit; SIGUSR2 dumps a \
     postmortem when $(b,--postmortem-dir) is set."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const action $ address_term $ jobs $ shards $ queue $ cache $ wall_limit
      $ max_vtime $ trace_out_arg $ metrics_out $ postmortem_dir $ gc_trace_arg
      $ log_out)

let call_cmd =
  let verb =
    let verb_conv =
      Arg.enum
        [ ("ping", `Ping); ("stats", `Stats); ("metrics", `Metrics);
          ("watch", `Watch); ("analyze", `Analyze); ("explain", `Explain);
          ("predict", `Predict); ("triage", `Triage); ("replay", `Replay);
          ("raw", `Raw) ]
    in
    Arg.(
      required & pos 0 (some verb_conv) None
      & info [] ~docv:"VERB"
          ~doc:"One of $(b,ping), $(b,stats), $(b,metrics), $(b,watch), \
                $(b,analyze), $(b,explain), $(b,predict), $(b,triage), \
                $(b,replay), or $(b,raw) (send stdin lines verbatim).")
  in
  let page =
    Arg.(value & page_arg ~nth:1 "HTML page (analyze/explain/predict/triage/replay).")
  in
  let repeat =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:"Pipeline $(docv) copies of the request (ids 1..$(docv)) over one \
                connection; responses print in arrival order.")
  in
  let race_n =
    Arg.(
      value & opt (some int) None
      & info [ "race" ] ~docv:"N" ~doc:"(explain) only the $(docv)-th race, 1-based.")
  in
  let compare =
    Arg.(
      value & flag
      & info [ "compare" ] ~doc:"(predict) also run the dynamic detector and score recall.")
  in
  let lint =
    Arg.(value & flag & info [ "lint" ] ~doc:"(predict) answer with lint findings only.")
  in
  let schedules =
    Arg.(
      value & opt int 25
      & info [ "schedules" ] ~doc:"(replay) alternative schedules to try.")
  in
  let parse_delay =
    Arg.(
      value & opt float 2.
      & info [ "parse-delay" ] ~doc:"(replay) virtual ms per parsed element.")
  in
  let budget =
    Arg.(
      value
      & opt int Wr_static.Triage.default_budget
      & info [ "budget" ] ~docv:"N" ~doc:"(triage) schedule budget per page.")
  in
  let jobs = jobs_arg "(replay/triage) server-side schedule parallelism." in
  let watch_interval =
    Arg.(
      value & opt positive_finite 1.
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"(watch) seconds between snapshots.")
  in
  let watch_count =
    Arg.(
      value & opt int 1
      & info [ "count" ] ~docv:"N" ~doc:"(watch) snapshots to request.")
  in
  let http =
    Arg.(
      value & flag
      & info [ "http" ]
          ~doc:"Speak the daemon's HTTP/1.1 surface instead of the raw line \
                protocol (same connection retry logic; responses are always \
                schema v2). Not available for $(b,watch) and $(b,raw).")
  in
  let trace_id =
    Arg.(
      value & opt (some string) None
      & info [ "trace-id" ] ~docv:"ID"
          ~doc:"Tag the request(s) with this trace id; the daemon echoes it on the \
                response and stamps it on its logs and profiling spans.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:"Print each response's trace id on stderr (minting a client-side \
                trace id when $(b,--trace-id) is not given).")
  in
  let action verb page address repeat params race_n compare lint schedules
      parse_delay budget jobs watch_interval watch_count connect_timeout http schema
      trace_id verbose =
    if http && (verb = `Watch || verb = `Raw) then begin
      prerr_endline "call: --http does not support the watch and raw verbs";
      exit 1
    end;
    let client = connect "call" ~retry_for:connect_timeout address in
    let target () =
      match page with
      | Some p -> with_page ~params p
      | None ->
          prerr_endline "call: this verb needs a PAGE argument";
          exit 1
    in
    (* [~stream:true]: the [n_expected] responses answer one request, and
       an error response ends that stream early. *)
    let print_and_check ?(stream = false) n_expected =
      let rec loop n all_ok =
        if n = 0 then all_ok
        else
          match Wr_serve.Client.recv_line client with
          | None ->
              prerr_endline "call: connection closed before all responses arrived";
              exit 3
          | Some line ->
              print_endline line;
              let ok =
                match Wr_serve.Response.of_line line with
                | Ok r ->
                    if verbose then
                      Printf.eprintf "call: id=%s trace=%s\n%!"
                        (Wr_support.Json.to_string (Wr_serve.Response.id r))
                        (Option.value ~default:"-" (Wr_serve.Response.trace r));
                    Wr_serve.Response.is_ok r
                | Error _ -> false
              in
              if stream && not ok then false else loop (n - 1) (all_ok && ok)
      in
      loop n_expected true
    in
    let ok =
      match verb with
      | `Raw ->
          let sent = ref 0 in
          In_channel.fold_lines
            (fun () line ->
              Wr_serve.Client.send_line client line;
              if String.trim line <> "" then incr sent)
            () In_channel.stdin;
          print_and_check !sent
      | `Watch ->
          (* One request, [count] streamed responses on this connection. *)
          let count = max 1 watch_count in
          Wr_serve.Client.send client
            (Request.make ~schema ?trace:trace_id ~id:(Wr_support.Json.Int 1)
               (Request.watch ~interval_s:watch_interval ~count ()));
          print_and_check ~stream:true count
      | ( `Ping | `Stats | `Metrics | `Analyze | `Explain | `Predict | `Triage
        | `Replay ) as v ->
          let verb_value =
            (* The typed builders validate like the daemon's decoder, so a
               bad flag combination fails here instead of on the wire. *)
            try
              match v with
              | `Ping -> Request.Ping
              | `Stats -> Request.Stats
              | `Metrics -> Request.Metrics
              | `Analyze -> Request.analyze (target ())
              | `Explain -> Request.explain ?race:race_n (target ())
              | `Predict -> Request.predict ~compare ~lint (target ())
              | `Triage -> Request.triage ~budget ~jobs (target ())
              | `Replay -> Request.replay ~schedules ~parse_delay ~jobs (target ())
            with Invalid_argument msg ->
              Printf.eprintf "call: %s\n" msg;
              exit 1
          in
          let repeat = max 1 repeat in
          (* [--verbose] without [--trace-id] mints a client-side id so the
             echoed trace is still printable. *)
          let trace_for i =
            match trace_id with
            | Some tr -> Some tr
            | None -> if verbose then Some (Printf.sprintf "c-%d" i) else None
          in
          if http then begin
            let path =
              match Request.http_path verb_value with
              | Some p -> p
              | None ->
                  prerr_endline "call: this verb has no HTTP endpoint";
                  exit 1
            in
            let meth = Request.http_method verb_value in
            let body =
              match Request.http_body verb_value with
              | Some j -> Wr_support.Json.to_string j
              | None -> ""
            in
            let all_ok = ref true in
            for i = 1 to repeat do
              let headers =
                match trace_for i with
                | Some tr -> [ ("x-webracer-trace", tr) ]
                | None -> []
              in
              match
                Wr_serve.Client.http_request client ~meth ~path ~headers ~body ()
              with
              | Error msg ->
                  Printf.eprintf "call: %s\n" msg;
                  exit 3
              | Ok (status, resp_body) ->
                  print_endline resp_body;
                  if status <> 200 then all_ok := false;
                  if verbose then Printf.eprintf "call: http=%d\n%!" status
            done;
            !all_ok
          end
          else begin
            for i = 1 to repeat do
              Wr_serve.Client.send client
                (Request.make ~schema ?trace:(trace_for i)
                   ~id:(Wr_support.Json.Int i) verb_value)
            done;
            print_and_check repeat
          end
    in
    Wr_serve.Client.close client;
    if not ok then exit 1
  in
  let doc =
    "Send requests to a running $(b,webracer serve) daemon and print the raw \
     response lines (exit 1 if any response is an error, 3 if the daemon is \
     unreachable)."
  in
  Cmd.v
    (Cmd.info "call" ~doc)
    Term.(
      const action $ verb $ page $ address_term $ repeat $ target_term () $ race_n
      $ compare $ lint $ schedules $ parse_delay $ budget $ jobs $ watch_interval
      $ watch_count $ connect_timeout_arg $ http $ schema_arg "call" $ trace_id
      $ verbose)

(* --- bench-serve -------------------------------------------------------- *)

let bench_serve_cmd =
  let conns =
    Arg.(
      value & opt int 4
      & info [ "conns" ] ~docv:"N"
          ~doc:"Concurrent connections, one client thread each, released from a \
                barrier simultaneously once all are connected.")
  in
  let pipeline =
    Arg.(
      value & opt int 8
      & info [ "pipeline" ] ~docv:"N"
          ~doc:"Outstanding requests per connection (raw surface; the HTTP surface \
                is sequential round trips).")
  in
  let duration =
    Arg.(
      value & opt positive_finite 2.
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Sustained-load window, measured from the barrier release.")
  in
  let verb =
    let bench_verb_conv = Arg.enum [ ("ping", `Ping); ("analyze", `Analyze) ] in
    Arg.(
      value & opt bench_verb_conv `Ping
      & info [ "verb" ] ~docv:"VERB"
          ~doc:"Request to blast: $(b,ping) or $(b,analyze) (needs PAGE; identical \
                requests hit the daemon's result cache after the first).")
  in
  let page = Arg.(value & page_arg "HTML page for $(b,--verb analyze).") in
  let http =
    Arg.(
      value & flag
      & info [ "http" ]
          ~doc:"Blast the HTTP/1.1 surface instead of the raw line protocol.")
  in
  let json_out =
    Arg.(
      value & opt (some string) None
      & info [ "json-out" ] ~docv:"FILE"
          ~doc:"Write the result document (throughput, latency percentiles, \
                response-class distribution) to $(docv).")
  in
  let action address conns pipeline duration verb page http schema json_out =
    let module L = Wr_serve.Loadgen in
    let module H = Wr_support.Stats.Histo in
    let rverb =
      match verb with
      | `Ping -> Request.Ping
      | `Analyze -> (
          match page with
          | Some p -> Request.analyze (with_page p)
          | None ->
              prerr_endline "bench-serve: --verb analyze needs a PAGE argument";
              exit 1)
    in
    let cfg =
      {
        L.address;
        conns = max 1 conns;
        pipeline = max 1 pipeline;
        duration = Float.max 0.05 duration;
        verb = rverb;
        surface = (if http then L.Http else L.Raw);
        schema;
      }
    in
    let r = L.run cfg in
    Printf.printf "bench-serve: %d conns x pipeline %d, %.2f s, %s %s\n"
      r.L.conns_run r.L.pipeline_run r.L.duration_s
      (if http then "http" else "raw")
      (Request.verb_name rverb);
    Printf.printf "sent %d  received %d  throughput %.1f req/s\n" r.L.sent
      r.L.received r.L.throughput_rps;
    Printf.printf "latency p50 %.3f ms  p99 %.3f ms  p999 %.3f ms\n"
      (1000. *. H.percentile r.L.latency 50.)
      (1000. *. H.percentile r.L.latency 99.)
      (1000. *. H.percentile r.L.latency 99.9);
    Printf.printf "classes: %s\n"
      (String.concat " "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.L.classes));
    match json_out with
    | Some file ->
        write_file file (Wr_support.Json.to_string (L.to_json r));
        Printf.eprintf "bench-serve: result written to %s\n%!" file
    | None -> ()
  in
  let doc =
    "Generate sustained concurrent load against a running $(b,webracer serve) \
     daemon — barrier-synchronized burst clients on either surface — and report \
     throughput, p50/p99/p999 round-trip latency and the response-class \
     distribution (the interesting part under deliberate overload)."
  in
  Cmd.v
    (Cmd.info "bench-serve" ~doc)
    Term.(
      const action $ address_term $ conns $ pipeline $ duration $ verb $ page
      $ http $ schema_arg "bench-serve" $ json_out)

(* --- top ---------------------------------------------------------------- *)

(* Tiny JSON accessors for the watch snapshots; a malformed snapshot
   reads as zeros rather than crashing the display. *)
let jfield name = function
  | Wr_support.Json.Obj fields -> List.assoc_opt name fields
  | _ -> None

let jnum ?(default = 0.) j name =
  match jfield name j with
  | Some (Wr_support.Json.Float f) -> f
  | Some (Wr_support.Json.Int i) -> float_of_int i
  | _ -> default

let jint j name = int_of_float (jnum j name)

let jlist j name =
  match jfield name j with Some (Wr_support.Json.List l) -> l | _ -> []

let top_cmd =
  let interval =
    Arg.(
      value & opt positive_finite 1.
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Seconds between refreshes (daemon-side tick).")
  in
  let count =
    Arg.(
      value & opt (some int) None
      & info [ "count" ] ~docv:"N"
          ~doc:"Render $(docv) frames then exit (default: stream until Ctrl-C).")
  in
  (* One frame: rates come from the delta against the previous snapshot,
     so the first frame shows only gauges. *)
  let render address prev snap =
    let b = Buffer.create 1024 in
    let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    let ts = jnum snap "ts" in
    let dt = match prev with None -> 0. | Some p -> ts -. jnum p "ts" in
    let rate field =
      match prev with
      | Some p when dt > 0. -> (jnum snap field -. jnum p field) /. dt
      | _ -> 0.
    in
    let queue = Option.value ~default:Wr_support.Json.Null (jfield "queue" snap) in
    let cache = Option.value ~default:Wr_support.Json.Null (jfield "cache" snap) in
    add "webracer top — %s — up %.0f s — frame %d\n" (address_string address)
      (jnum snap "uptime_s") (jint snap "seq");
    add
      "req/s %.1f   in-flight %d/%d (hwm %d)   cache %.0f%% (%d/%d entries %d)   \
       analyses %d   timeouts %d   shed %d\n\n"
      (rate "requests_total") (jint queue "depth") (jint queue "cap")
      (jint queue "high_water")
      (100. *. jnum cache "hit_ratio")
      (jint cache "hits")
      (jint cache "hits" + jint cache "misses")
      (jint cache "entries") (jint snap "analyses_run") (jint snap "timeouts")
      (jint snap "shed");
    (match jfield "latency" snap with
    | Some (Wr_support.Json.Obj stages) ->
        add "stage     count   p50(ms)   p99(ms)   max(ms)\n";
        List.iter
          (fun (stage, h) ->
            add "%-8s %6d %9.2f %9.2f %9.2f\n" stage (jint h "count")
              (1e3 *. jnum h "p50") (1e3 *. jnum h "p99") (1e3 *. jnum h "max"))
          stages
    | _ -> ());
    (* Per-domain rows: fleet slots joined with GC rows on the OCaml
       domain id. Utilisation and GC share are deltas over this frame's
       window — what each domain did since the last refresh. *)
    let fleet = Option.value ~default:Wr_support.Json.Null (jfield "fleet" snap) in
    let gc_rows j =
      match jfield "gc" j with Some gc -> jlist gc "domains" | None -> []
    in
    let find_dom rows dom =
      List.find_opt (fun r -> jint r "dom" = dom) rows
    in
    let prev_fleet =
      match prev with
      | Some p -> Option.value ~default:Wr_support.Json.Null (jfield "fleet" p)
      | None -> Wr_support.Json.Null
    in
    (match jlist fleet "per_domain" with
    | [] -> ()
    | rows ->
        add "\ndomain      dom   tasks   util%%     gc%%   gc-p99(ms)\n";
        List.iter
          (fun row ->
            let worker = jint row "worker" in
            let dom = jint row "dom" in
            let prev_row =
              List.find_opt
                (fun r -> jint r "worker" = worker)
                (jlist prev_fleet "per_domain")
            in
            let drun =
              match prev_row with
              | Some p when dt > 0. -> (jnum row "run_s" -. jnum p "run_s") /. dt
              | _ -> 0.
            in
            let gc_now = find_dom (gc_rows snap) dom in
            let gc_prev =
              match prev with Some p -> find_dom (gc_rows p) dom | None -> None
            in
            let dgc =
              match (gc_now, gc_prev) with
              | Some g, Some gp when dt > 0. ->
                  (jnum g "gc_s" -. jnum gp "gc_s") /. dt
              | _ -> 0.
            in
            let gc_p99 =
              match gc_now with
              | Some g -> (
                  match jfield "pause_ms" g with
                  | Some h -> jnum h "p99"
                  | None -> 0.)
              | None -> 0.
            in
            add "%-10s %4d %7d %6.0f%% %6.0f%% %12.2f\n"
              (if worker = 0 then "submitter" else Printf.sprintf "worker-%d" worker)
              dom (jint row "tasks") (100. *. drun) (100. *. dgc) gc_p99)
          rows);
    Buffer.contents b
  in
  let action address interval count connect_timeout =
    let client = connect "top" ~retry_for:connect_timeout address in
    (* Ctrl-C ends the display, not the daemon: the connection drops and
       the daemon reaps the watch subscription on its side. *)
    Sys.set_signal Sys.sigint
      (Sys.Signal_handle
         (fun _ ->
           print_newline ();
           exit 0));
    let live = Unix.isatty Unix.stdout in
    Wr_serve.Client.send client
      (Request.make ~id:(Wr_support.Json.Int 1)
         (Request.watch ~interval_s:(Float.max 0.05 interval) ?count ()));
    let rec loop prev frames =
      if count = Some frames then ()
      else
        match Wr_serve.Client.recv client with
        | Error _ when count = None -> ()  (* daemon went away; plain exit *)
        | Error msg ->
            Printf.eprintf "top: %s\n" msg;
            exit 3
        | Ok (Wr_serve.Response.Error { message; _ }) ->
            Printf.eprintf "top: %s\n" message;
            exit 1
        | Ok (Wr_serve.Response.Ok { result; _ }) ->
            if live then print_string "\027[H\027[2J"
            else if frames > 0 then print_newline ();
            print_string (render address prev result);
            flush stdout;
            loop (Some result) (frames + 1)
    in
    loop None 0;
    Wr_serve.Client.close client
  in
  let doc =
    "Live view of a running $(b,webracer serve) daemon: req/s, queue depth, \
     per-stage latency, cache hit ratio, per-domain utilisation and GC share \
     (streamed via the $(b,watch) verb; refreshes in place on a terminal, exits \
     cleanly on Ctrl-C)."
  in
  Cmd.v
    (Cmd.info "top" ~doc)
    Term.(const action $ address_term $ interval $ count $ connect_timeout_arg)

let () =
  let doc = "dynamic race detection for (simulated) web applications" in
  let info = Cmd.info "webracer" ~version:"1.0.0" ~doc in
    exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; batch_cmd; explain_cmd; predict_cmd; triage_cmd; corpus_cmd;
            sitegen_cmd; bench_serve_cmd;
            replay_cmd; offline_cmd; profile_cmd; serve_cmd; call_cmd; top_cmd ]))
