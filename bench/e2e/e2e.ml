(* The repository benchmark: four workloads, end-to-end metrics and a
   per-layer cost ledger. See README.md in this directory.

     e2e.exe --workload W --seed N --seconds S --trace 0|1   one run
     e2e.exe [--runs N] --seed N --seconds S                 the suite
     e2e.exe --smoke                                         tiny, checks only
     e2e.exe agree A.json... -- B.json...                    compare two sets

   One run prints every metric by name with its unit, writes one JSON
   result file and ends with one JSON line:
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. It exits 1
   when an output check failed and 2 on a usage or set-up error. *)

module Json = Wr_support.Json

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("e2e: " ^ msg);
      exit 2)
    fmt

let read_json path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> (
      try Json.of_string text with Json.Parse_error e -> die "%s: %s" path e)
  | exception Sys_error e -> die "%s" e

let num = function Json.Int i -> float_of_int i | Json.Float f -> f | _ -> nan

(* --- BENCHMARK.json ---------------------------------------------------- *)

type declared = { d_name : string; d_unit : string; bound : float }

let declared bench key =
  List.map
    (fun m ->
      {
        d_name = Json.to_str (Json.member "name" m);
        d_unit = Json.to_str (Json.member "unit" m);
        bound =
          (match m with
          | Json.Obj f -> Option.fold ~none:nan ~some:num (List.assoc_opt "bound" f)
          | _ -> nan);
      })
    (Json.to_list (Json.member key bench))

(* --- run metadata and output ------------------------------------------- *)

let metrics_json (ms : Sample.metric list) =
  Json.Obj
    (List.map
       (fun (m : Sample.metric) ->
         (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
       ms)

let run_json (cfg : Workloads.config) (r : Workloads.result) =
  let open Json in
  Obj
    [
      ("workload", String cfg.workload);
      ("seed", Int cfg.seed);
      ("seconds", Float cfg.seconds);
      ("trace", Bool cfg.trace);
      ("correct", Bool r.correct);
      ("attempted", Int r.attempted);
      ("failed", Int r.failed);
      ("metrics", metrics_json r.metrics);
      ( "meta",
        Obj
          [
            ("nproc", Int Workloads.jobs);
            ("recommended_domain_count", Int (Domain.recommended_domain_count ()));
            ("ocaml_version", String Sys.ocaml_version);
            ("seed", Int cfg.seed);
            ( "phases",
              List
                (List.map
                   (fun (p : Workloads.phase) ->
                     Obj
                       [
                         ("phase", String p.phase);
                         ("samples", Int p.samples);
                         ("repeats", Int p.repeats);
                         ("tail_percentile", Float p.percentile);
                         ("tail_supported", Bool (Sample.supports ~n:p.samples p.percentile));
                         ("late_p99_ms", Float p.late_p99_ms);
                         ("generator_late", Bool (p.late_p99_ms > Workloads.late_limit_ms));
                       ])
                   r.phases) );
            ("failures", List (List.map (fun s -> String s) r.failures));
          ] );
    ]

let print_run (cfg : Workloads.config) (r : Workloads.result) =
  Printf.printf "%s seed %d%s: %d attempted, %d failed\n" cfg.workload cfg.seed
    (if cfg.trace then " (traced)" else "")
    r.attempted r.failed;
  List.iter
    (fun (p : Workloads.phase) ->
      Printf.printf "  phase %-16s %6d samples%s, tail p%g%s%s\n" p.phase p.samples
        (if p.repeats > 1 then Printf.sprintf " (fastest of %d each)" p.repeats else "")
        p.percentile
        (if Sample.supports ~n:p.samples p.percentile then "" else " (fewer than 10 beyond)")
        (if p.late_p99_ms > 0. then
           Printf.sprintf ", sends %.2f ms late at p99%s" p.late_p99_ms
             (if p.late_p99_ms > Workloads.late_limit_ms then " (generator late)" else "")
         else ""))
    r.phases;
  List.iter
    (fun (m : Sample.metric) -> Printf.printf "  %-26s %14.4f %s\n" m.name m.value m.unit_)
    r.metrics;
  List.iter (fun f -> Printf.printf "  FAILED: %s\n" f) r.failures

let write_result path runs =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string (Json.Obj [ ("runs", Json.List runs) ])))

let final_line ~correct ~attempted ~failed metrics =
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", metrics);
          ]))

(* --- one run ----------------------------------------------------------- *)

let run_one (cfg : Workloads.config) ~result =
  let r =
    try Workloads.run cfg with
    | Failure msg | Sys_error msg -> die "%s: %s" cfg.workload msg
    | Unix.Unix_error (e, fn, arg) ->
        die "%s: %s(%s): %s" cfg.workload fn arg (Unix.error_message e)
  in
  print_run cfg r;
  write_result result [ run_json cfg r ];
  final_line ~correct:r.correct ~attempted:r.attempted ~failed:r.failed (metrics_json r.metrics);
  exit (if r.correct then 0 else 1)

(* --- the suite: each workload in its own child process ----------------- *)

(* A fresh process per workload: the analysis heap and domain-local
   table size hints left by one workload measurably slow the next. *)
let spawn_child (cfg : Workloads.config) ~file =
  let args =
    [|
      Sys.executable_name; "--workload"; cfg.workload; "--seed"; string_of_int cfg.seed;
      "--seconds"; Printf.sprintf "%g" cfg.seconds; "--trace"; (if cfg.trace then "1" else "0");
      "--out"; cfg.out; "--cli"; cfg.cli; "--result"; file;
    |]
  in
  flush stdout;
  let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 2 -> die "%s failed to run (see above)" cfg.workload
  | _ -> (
      match Json.member "runs" (read_json file) with
      | Json.List [ run ] -> run
      | _ -> die "%s: malformed result %s" cfg.workload file)

let group runs =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun run ->
      let w = Json.to_str (Json.member "workload" run) in
      match Json.member "metrics" run with
      | Json.Obj ms ->
          List.iter
            (fun (name, m) ->
              let key = (w, name) in
              let prev = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
              Hashtbl.replace tbl key (num (Json.member "value" m) :: prev))
            ms
      | _ -> ())
    runs;
  tbl

let unit_of runs name =
  List.find_map
    (fun run ->
      match Json.member "metrics" run with
      | Json.Obj ms -> Option.map (fun m -> Json.member "unit" m) (List.assoc_opt name ms)
      | _ -> None)
    runs
  |> Option.value ~default:(Json.String "")

let summary runs =
  let tbl = group runs in
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []) in
  List.map
    (fun ((w, name) as key) ->
      let xs = Hashtbl.find tbl key in
      let q1, q2, q3 = Sample.quartiles xs in
      ( w ^ "/" ^ name,
        Json.Obj
          [
            ("unit", unit_of runs name);
            ("median", Json.Float q2);
            ("q1", Json.Float q1);
            ("q3", Json.Float q3);
            ("spread", Json.Float (Sample.spread xs));
            ("runs", Json.Int (List.length xs));
          ] ))
    keys

let suite (base : Workloads.config) ~runs ~workloads ~result =
  let all = ref [] in
  for k = 0 to runs - 1 do
    (* Alternate the order so no workload always runs first. *)
    let order = if k mod 2 = 0 then workloads else List.rev workloads in
    List.iter
      (fun w ->
        let cfg = { base with Workloads.workload = w; seed = base.seed + k } in
        let file =
          Filename.concat base.out (Printf.sprintf "run-%s-s%d-t%d.json" w cfg.seed (if cfg.trace then 1 else 0))
        in
        all := spawn_child cfg ~file :: !all)
      order
  done;
  let runs_json = List.rev !all in
  let sum = summary runs_json in
  Printf.printf "\n%-40s %12s %12s %12s %8s\n" "workload/metric" "median" "q1" "q3" "spread";
  List.iter
    (fun (k, s) ->
      Printf.printf "%-40s %12.4f %12.4f %12.4f %7.1f%% %s\n" k (num (Json.member "median" s))
        (num (Json.member "q1" s)) (num (Json.member "q3" s))
        (100. *. num (Json.member "spread" s))
        (Json.to_str (Json.member "unit" s)))
    sum;
  Out_channel.with_open_text result (fun oc ->
      Out_channel.output_string oc
        (Json.to_string (Json.Obj [ ("runs", Json.List runs_json); ("summary", Json.Obj sum) ])));
  let count key = List.fold_left (fun acc r -> acc + Json.to_int (Json.member key r)) 0 runs_json in
  let correct = List.for_all (fun r -> Json.member "correct" r = Json.Bool true) runs_json in
  final_line ~correct ~attempted:(count "attempted") ~failed:(count "failed")
    (Json.Obj
       (List.map
          (fun (k, s) ->
            (k, Json.Obj [ ("value", Json.member "median" s); ("unit", Json.member "unit" s) ]))
          sum));
  exit (if correct then 0 else 1)

(* --- agree: two sets of runs of one commit ----------------------------- *)

(* Medians of the two sets may differ by at most each metric's bound in
   BENCHMARK.json, in either direction. *)
let agree ~bench a b =
  let load files = List.concat_map (fun f -> Json.to_list (Json.member "runs" (read_json f))) files in
  let ta = group (load a) and tb = group (load b) in
  let bounds = declared (read_json bench) "end_to_end" in
  let ok = ref true in
  Printf.printf "%-34s %12s %12s %9s %7s\n" "workload/metric" "median A" "median B" "diff" "bound";
  List.iter
    (fun w ->
      List.iter
        (fun d ->
          match (Hashtbl.find_opt ta (w, d.d_name), Hashtbl.find_opt tb (w, d.d_name)) with
          | Some xa, Some xb ->
              let ma = Sample.median xa and mb = Sample.median xb in
              let diff = if ma = 0. then 0. else (mb -. ma) /. Float.abs ma in
              let fine = Float.abs diff <= d.bound in
              if not fine then ok := false;
              Printf.printf "%-34s %12.4f %12.4f %8.1f%% %6.0f%%%s\n" (w ^ "/" ^ d.d_name) ma mb
                (100. *. diff) (100. *. d.bound)
                (if fine then "" else "  DISAGREE")
          | _ -> ())
        bounds)
    Workloads.names;
  exit (if !ok then 0 else 1)

(* --- smoke: every workload at tiny size -------------------------------- *)

(* Every metric name and unit declared in BENCHMARK.json is emitted, and
   every output check passes. Timings are not looked at. *)
let smoke (base : Workloads.config) ~bench =
  let bench = read_json bench in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let declared_workloads =
    List.map (fun w -> Json.to_str (Json.member "name" w)) (Json.to_list (Json.member "workloads" bench))
  in
  if List.sort compare declared_workloads <> List.sort compare Workloads.names then
    problem "BENCHMARK.json workloads differ from the harness's";
  let checked = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let cfg = { base with Workloads.workload = w; trace; smoke = true; seconds = 0.5 } in
          let r = Workloads.run cfg in
          if not r.correct then
            problem "%s%s: %d failed: %s" w (if trace then " traced" else "") r.failed
              (String.concat "; " r.failures);
          List.iter
            (fun d ->
              incr checked;
              match List.find_opt (fun (m : Sample.metric) -> m.name = d.d_name) r.metrics with
              | None -> problem "%s: metric %s not emitted" w d.d_name
              | Some m when m.unit_ <> d.d_unit ->
                  problem "%s: metric %s in %s, declared %s" w d.d_name m.unit_ d.d_unit
              | Some _ -> ())
            (declared bench (if trace then "per_layer" else "end_to_end")))
        [ false; true ])
    Workloads.names;
  match List.rev !problems with
  | [] ->
      Printf.printf "e2e smoke: %d workloads, %d metric declarations emitted, all checks passed\n"
        (List.length Workloads.names) !checked;
      exit 0
  | ps ->
      List.iter (fun p -> Printf.printf "e2e smoke: %s\n" p) ps;
      exit 1

(* --- command line ------------------------------------------------------ *)

let () =
  (* A dead daemon surfaces as a write error, not a fatal signal; an
     interrupted run unwinds, so every daemon it started is stopped. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> raise Exit)))
    [ Sys.sigint; Sys.sigterm ];
  let argv = Array.to_list Sys.argv in
  let bench = ref "BENCHMARK.json" in
  match argv with
  | _ :: "agree" :: rest ->
      let rec split acc = function
        | "--" :: b -> (List.rev acc, b)
        | "--benchmark" :: f :: tl ->
            bench := f;
            split acc tl
        | x :: tl -> split (x :: acc) tl
        | [] -> die "usage: e2e.exe agree A.json... -- B.json..."
      in
      let a, b = split [] rest in
      if a = [] || b = [] then die "usage: e2e.exe agree A.json... -- B.json...";
      agree ~bench:!bench a b
  | _ ->
      let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
      let out = ref ".e2e_out" and result = ref "" in
      let cli = ref "_build/default/bin/webracer_cli.exe" in
      let runs = ref 0 and smoke_mode = ref false in
      let specs =
        [
          ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Workloads.names);
          ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
          ("--seconds", Arg.Set_float seconds, "S measured seconds per run (default 20)");
          ("--trace", Arg.Set_int trace, "0|1 1 = traced run: per-layer metrics and a Chrome trace");
          ("--out", Arg.Set_string out, "DIR result files, logs and sockets (default .e2e_out)");
          ("--result", Arg.Set_string result, "FILE the JSON result file");
          ("--cli", Arg.Set_string cli, "PATH the webracer CLI that serves");
          ("--runs", Arg.Set_int runs, "N run the suite N times, at seeds S, S+1, ...");
          ("--smoke", Arg.Set smoke_mode, " every workload at tiny size; checks only");
          ("--benchmark", Arg.Set_string bench, "FILE BENCHMARK.json to check against");
        ]
      in
      Arg.parse specs (fun a -> die "unexpected argument %s" a) "e2e.exe [options]";
      if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
      if !seconds <= 0. then die "--seconds must be positive";
      if !workload <> "" && not (List.mem !workload Workloads.names) then
        die "unknown workload %s (one of %s)" !workload (String.concat ", " Workloads.names);
      if not (Sys.file_exists !cli) then die "no CLI at %s: build it with dune build bin/webracer_cli.exe" !cli;
      (try Unix.mkdir !out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let cfg =
        {
          Workloads.workload = !workload;
          seed = !seed;
          seconds = !seconds;
          trace = !trace = 1;
          out = !out;
          cli = !cli;
          smoke = false;
        }
      in
      let default_result name = Filename.concat !out name in
      if !smoke_mode then smoke cfg ~bench:!bench
      else if !workload <> "" then
        run_one cfg
          ~result:
            (if !result <> "" then !result
             else default_result (Printf.sprintf "result-%s-s%d-t%d.json" !workload !seed !trace))
      else
        suite cfg ~runs:(max 1 !runs) ~workloads:Workloads.names
          ~result:
            (if !result <> "" then !result
             else default_result (Printf.sprintf "suite-s%d-n%d-t%d.json" !seed (max 1 !runs) !trace))
