(* Order statistics, process memory and the metric record every workload
   reports. *)

(* Linear interpolation between closest ranks; [p] in [0, 100]. *)
let percentile xs p = Wr_support.Stats.fpercentile xs p

let median xs = percentile xs 50.

let quartiles xs = (percentile xs 25., median xs, percentile xs 75.)

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then 0. else (q3 -. q1) /. Float.abs q2

(* A tail percentile is only reported as such when at least ten samples
   lie beyond it. *)
let supports ~n p = float_of_int n *. (100. -. p) >= 1000.

(* Sustained completion rate: completions per second in each of
   [buckets] equal slices of [start, last completion], first and last
   slice dropped (ramp-up and drain), median over the rest. *)
let sustained_rate ~start ~buckets times =
  let last = List.fold_left Float.max start times in
  let width = (last -. start) /. float_of_int buckets in
  if width <= 0. then 0.
  else
    let counts = Array.make buckets 0 in
    List.iter
      (fun t ->
        let b = min (buckets - 1) (max 0 (int_of_float ((t -. start) /. width))) in
        counts.(b) <- counts.(b) + 1)
      times;
    median
      (List.init (max 1 (buckets - 2)) (fun i ->
           float_of_int counts.(if buckets > 2 then i + 1 else i) /. width))

(* Peak resident set (VmHWM) of a process in MB, from /proc. *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; rest ] -> (
                 match String.split_on_char ' ' (String.trim rest) with
                 | kb :: _ -> Option.map (fun k -> float_of_int k /. 1024.) (int_of_string_opt kb)
                 | [] -> None)
             | _ -> None)

let nproc () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | text ->
      let n =
        List.length
          (List.filter
             (fun l -> String.starts_with ~prefix:"processor" l)
             (String.split_on_char '\n' text))
      in
      if n > 0 then n else Domain.recommended_domain_count ()
  | exception Sys_error _ -> Domain.recommended_domain_count ()

(* Where /proc is missing, the OCaml heap's high-water mark stands in. *)
let own_peak_rss_mb () =
  match peak_rss_mb () with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value =
  { name; unit_; value = (if Float.is_finite value then value else 0.) }

let ms s = s *. 1000.
