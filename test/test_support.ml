(* Unit and property tests for Wr_support. *)

open Wr_support

let feq' = Alcotest.(check (float 1e-9))

let test_rng_determinism () =
  let a = Rng.of_int 42 and b = Rng.of_int 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_bounds () =
  let r = Rng.of_int 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    if v < 0 || v >= 10 then Alcotest.failf "out of range: %d" v;
    let f = Rng.float r 2.5 in
    if f < 0. || f >= 2.5 then Alcotest.failf "float out of range: %f" f;
    let x = Rng.int_in_range r ~lo:5 ~hi:7 in
    if x < 5 || x > 7 then Alcotest.failf "range violation: %d" x
  done

let test_rng_split_independent () =
  let parent = Rng.of_int 3 in
  let child = Rng.split parent in
  let a = Rng.bits64 parent and b = Rng.bits64 child in
  if a = b then Alcotest.fail "split streams should diverge"

let test_bitset_basic () =
  let s = Bitset.create 10 in
  Alcotest.(check bool) "initially empty" false (Bitset.mem s 3);
  Bitset.add s 3;
  Bitset.add s 64;
  Bitset.add s 1000;
  Alcotest.(check bool) "mem 3" true (Bitset.mem s 3);
  Alcotest.(check bool) "mem 64" true (Bitset.mem s 64);
  Alcotest.(check bool) "mem 1000" true (Bitset.mem s 1000);
  Alcotest.(check bool) "mem 999" false (Bitset.mem s 999);
  Alcotest.(check int) "cardinal" 3 (Bitset.cardinal s);
  Bitset.remove s 64;
  Alcotest.(check bool) "removed" false (Bitset.mem s 64);
  Alcotest.(check int) "cardinal after remove" 2 (Bitset.cardinal s)

let test_bitset_union () =
  let a = Bitset.create 8 and b = Bitset.create 8 in
  Bitset.add a 1;
  Bitset.add b 2;
  Bitset.add b 200;
  Bitset.union_into ~into:a b;
  List.iter (fun i -> Alcotest.(check bool) (string_of_int i) true (Bitset.mem a i)) [ 1; 2; 200 ];
  Alcotest.(check int) "cardinal" 3 (Bitset.cardinal a)

let test_bitset_iter_order () =
  let s = Bitset.create 4 in
  List.iter (Bitset.add s) [ 17; 3; 99 ];
  let seen = ref [] in
  Bitset.iter (fun i -> seen := i :: !seen) s;
  Alcotest.(check (list int)) "increasing order" [ 3; 17; 99 ] (List.rev !seen)

let prop_bitset_model =
  QCheck.Test.make ~name:"bitset agrees with set model" ~count:200
    QCheck.(list (pair bool (int_bound 500)))
    (fun ops ->
      let s = Bitset.create 16 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (add, i) ->
          if add then begin
            Bitset.add s i;
            Hashtbl.replace model i ()
          end
          else begin
            Bitset.remove s i;
            Hashtbl.remove model i
          end)
        ops;
      Hashtbl.fold (fun i () acc -> acc && Bitset.mem s i) model true
      && Bitset.cardinal s = Hashtbl.length model)

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2. (Stats.mean [ 1; 2; 3 ]);
  Alcotest.(check (float 1e-9)) "median odd" 2. (Stats.median [ 3; 1; 2 ]);
  Alcotest.(check (float 1e-9)) "median even" 5.5 (Stats.median [ 4; 7; 5; 6 ]);
  Alcotest.(check int) "max" 7 (Stats.max [ 4; 7; 5 ]);
  Alcotest.(check int) "sum" 16 (Stats.sum [ 4; 7; 5 ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0. (Stats.mean []);
  Alcotest.(check int) "max empty" 0 (Stats.max [])

let test_float_stats () =
  (* Percentiles with linear interpolation between closest ranks. *)
  let xs = [ 10.; 20.; 30.; 40. ] in
  feq' "p0 = min" 10. (Stats.fpercentile xs 0.);
  feq' "p100 = max" 40. (Stats.fpercentile xs 100.);
  feq' "p50 interpolates" 25. (Stats.fpercentile xs 50.);
  feq' "p75" 32.5 (Stats.fpercentile xs 75.);
  feq' "clamped above" 40. (Stats.fpercentile xs 150.);
  feq' "clamped below" 10. (Stats.fpercentile xs (-5.));
  feq' "empty" 0. (Stats.fpercentile [] 50.);
  feq' "singleton" 7. (Stats.fpercentile [ 7. ] 95.);
  feq' "fpercentile 50 = median" (Stats.median [ 4; 7; 5; 6 ])
    (Stats.fpercentile [ 4.; 7.; 5.; 6. ] 50.);
  (* median must sort numerically, not lexicographically/polymorphically *)
  feq' "median large ints" 1_000_000. (Stats.median [ 2_000_000; 3; 1_000_000 ])

let test_json () =
  let j =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("s", Json.String "x\"y\n");
        ("l", Json.List [ Json.Bool true; Json.Null ]);
        ("f", Json.Float 1.5);
      ]
  in
  Alcotest.(check string) "compact"
    {|{"a":1,"s":"x\"y\n","l":[true,null],"f":1.5}|} (Json.to_string j)

let test_table_render () =
  let s = Table.render ~header:[ "name"; "n" ] [ [ "a"; "1" ]; [ "bb"; "22" ] ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "line count (incl. trailing)" 5 (List.length lines);
  Alcotest.(check string) "header" "name   n" (List.nth lines 0);
  Alcotest.(check string) "row alignment" "bb    22" (List.nth lines 3)

let suite =
  [
    Alcotest.test_case "rng: determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng: bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng: split" `Quick test_rng_split_independent;
    Alcotest.test_case "bitset: basic" `Quick test_bitset_basic;
    Alcotest.test_case "bitset: union" `Quick test_bitset_union;
    Alcotest.test_case "bitset: iter order" `Quick test_bitset_iter_order;
    QCheck_alcotest.to_alcotest prop_bitset_model;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "stats: float samples" `Quick test_float_stats;
    Alcotest.test_case "json" `Quick test_json;
    Alcotest.test_case "table" `Quick test_table_render;
  ]

(* --- JSON parsing -------------------------------------------------- *)

let test_json_parse_basics () =
  let open Json in
  Alcotest.(check bool) "scalar" true (of_string "42" = Int 42);
  Alcotest.(check bool) "float" true (of_string "1.5" = Float 1.5);
  Alcotest.(check bool) "negative exponent" true (of_string "-2e2" = Float (-200.));
  Alcotest.(check bool) "string escapes" true (of_string {|"a\n\"b"|} = String "a\n\"b");
  Alcotest.(check bool) "null/bool" true (of_string "[null, true, false]" = List [ Null; Bool true; Bool false ]);
  Alcotest.(check bool) "object" true
    (of_string {|{"a": 1, "b": [2]}|} = Obj [ ("a", Int 1); ("b", List [ Int 2 ]) ]);
  Alcotest.(check bool) "nested" true
    (of_string {|{"o": {"k": "v"}}|} = Obj [ ("o", Obj [ ("k", String "v") ]) ])

let test_json_parse_errors () =
  let bad s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted bad JSON %S" s
  in
  List.iter bad [ "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2"; "" ]

let gen_json =
  let open QCheck.Gen in
  let key = string_size ~gen:(char_range 'a' 'z') (int_range 1 5) in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (int_range (-1000) 1000);
        map (fun s -> Json.String s) (string_size ~gen:printable (int_bound 8));
      ]
  in
  let rec node depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (3, scalar);
          (1, map (fun l -> Json.List l) (list_size (int_bound 3) (node (depth - 1))));
          ( 1,
            map
              (fun kvs ->
                (* Duplicate keys are legal JSON but not preserved; dedup. *)
                Json.Obj (List.sort_uniq (fun (a, _) (b, _) -> compare a b) kvs))
              (list_size (int_bound 3) (pair key (node (depth - 1)))) );
        ]
  in
  node 3

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json: of_string (to_string j) = j" ~count:300 (QCheck.make gen_json)
    (fun j ->
      (* Floats are excluded from the generator; Int/strings round-trip
         exactly. *)
      Json.of_string (Json.to_string j) = j)

let rec has_raw = function
  | Json.Raw _ -> true
  | Json.List items -> List.exists has_raw items
  | Json.Obj fields -> List.exists (fun (_, v) -> has_raw v) fields
  | Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.String _ -> false

(* A pre-encoded fragment is spliced verbatim: wrapping [to_string j]
   in [Raw] encodes exactly as [j] itself, and the parser only ever
   builds ordinary values. *)
let prop_json_raw =
  QCheck.Test.make ~name:"json: Raw (to_string j) encodes as j" ~count:300
    (QCheck.make gen_json) (fun j ->
      let spliced = Json.to_string (Json.Obj [ ("r", Json.Raw (Json.to_string j)) ]) in
      spliced = Json.to_string (Json.Obj [ ("r", j) ])
      && not (has_raw (Json.of_string spliced)))

let json_suite =
  [
    Alcotest.test_case "json: parse basics" `Quick test_json_parse_basics;
    Alcotest.test_case "json: parse errors" `Quick test_json_parse_errors;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
  ]

let suite = suite @ json_suite

(* --- remaining small-surface coverage ------------------------------- *)

let test_table_align_option () =
  let s =
    Table.render ~header:[ "l"; "r" ]
      ~align:[ Table.Left; Table.Left ]
      [ [ "x"; "1" ]; [ "yy"; "22" ] ]
  in
  Alcotest.(check bool) "left-aligned numbers" true
    (List.nth (String.split_on_char '\n' s) 2 = "x   1")

let test_rng_choose_shuffle () =
  let r = Rng.of_int 5 in
  let arr = [| 1; 2; 3; 4; 5 |] in
  let picked = Rng.choose r arr in
  Alcotest.(check bool) "choose picks a member" true (Array.exists (( = ) picked) arr);
  let arr2 = Array.copy arr in
  Rng.shuffle r arr2;
  Alcotest.(check bool) "shuffle permutes" true
    (List.sort compare (Array.to_list arr2) = Array.to_list arr);
  (match Rng.choose r [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty choose accepted");
  let e = Rng.exponential r ~mean:10. in
  Alcotest.(check bool) "exponential nonnegative" true (e >= 0.)

let coverage_suite =
  [
    Alcotest.test_case "table: align option" `Quick test_table_align_option;
    Alcotest.test_case "rng: choose/shuffle/exp" `Quick test_rng_choose_shuffle;
  ]

let suite = suite @ coverage_suite

(* --- domain worker pool ---------------------------------------------- *)

let test_pool_map_order () =
  let xs = List.init 100 Fun.id in
  let doubled = Pool.map_jobs ~jobs:4 (fun x -> 2 * x) xs in
  Alcotest.(check (list int)) "input order preserved" (List.map (fun x -> 2 * x) xs) doubled

let test_pool_matches_sequential () =
  let xs = List.init 50 (fun i -> i * 7 mod 13) in
  let f x = x * x - x in
  Alcotest.(check (list int)) "jobs:4 = jobs:1"
    (Pool.map_jobs ~jobs:1 f xs)
    (Pool.map_jobs ~jobs:4 f xs)

let test_pool_reusable () =
  Pool.with_pool ~jobs:3 (fun p ->
      Alcotest.(check int) "jobs" 3 (Pool.jobs p);
      Alcotest.(check (list int)) "first batch" [ 2; 4; 6 ] (Pool.map p (( * ) 2) [ 1; 2; 3 ]);
      Alcotest.(check (list int)) "second batch" [ 1; 4; 9 ]
        (Pool.map p (fun x -> x * x) [ 1; 2; 3 ]);
      Alcotest.(check (list string)) "empty input" [] (Pool.map p string_of_int []))

let test_pool_exception_propagates () =
  match Pool.map_jobs ~jobs:4 (fun x -> if x = 17 then failwith "boom" else x) (List.init 32 Fun.id) with
  | exception Failure m -> Alcotest.(check string) "first error re-raised" "boom" m
  | _ -> Alcotest.fail "expected the worker's exception to propagate"

let test_pool_parallel_work () =
  (* Workers really run on distinct domains: observable as distinct
     domain ids when parallelism is available, and correct results
     regardless. *)
  let ids = Pool.map_jobs ~jobs:4 (fun _ -> (Domain.self () :> int)) (List.init 64 Fun.id) in
  Alcotest.(check int) "all items ran" 64 (List.length ids);
  Alcotest.(check bool) "at least one domain id" true (List.length (List.sort_uniq compare ids) >= 1)

let pool_suite =
  [
    Alcotest.test_case "pool: map preserves order" `Quick test_pool_map_order;
    Alcotest.test_case "pool: parallel = sequential" `Quick test_pool_matches_sequential;
    Alcotest.test_case "pool: reusable across batches" `Quick test_pool_reusable;
    Alcotest.test_case "pool: exception propagates" `Quick test_pool_exception_propagates;
    Alcotest.test_case "pool: spreads over domains" `Quick test_pool_parallel_work;
  ]

let suite = suite @ pool_suite

(* --- Lru --------------------------------------------------------------- *)

module Lru = Wr_support.Lru

let test_lru_eviction_order () =
  let c = Lru.create ~cap:3 in
  List.iter (fun k -> Lru.add c k k) [ "a"; "b"; "c" ];
  Alcotest.(check int) "full" 3 (Lru.length c);
  (* touch "a": "b" becomes the eviction victim *)
  Alcotest.(check (option string)) "find a" (Some "a") (Lru.find c "a");
  Lru.add c "d" "d";
  Alcotest.(check bool) "b evicted" false (Lru.mem c "b");
  Alcotest.(check bool) "a kept" true (Lru.mem c "a");
  Alcotest.(check bool) "c kept" true (Lru.mem c "c");
  Alcotest.(check bool) "d added" true (Lru.mem c "d");
  Alcotest.(check int) "still full" 3 (Lru.length c)

let test_lru_overwrite_and_remove () =
  let c = Lru.create ~cap:2 in
  Lru.add c "k" "v1";
  Lru.add c "k" "v2";
  Alcotest.(check int) "overwrite is not growth" 1 (Lru.length c);
  Alcotest.(check (option string)) "latest value wins" (Some "v2") (Lru.find c "k");
  Lru.remove c "k";
  Lru.remove c "k";
  Alcotest.(check int) "remove is idempotent" 0 (Lru.length c);
  Lru.add c "x" "x";
  Lru.add c "y" "y";
  Lru.clear c;
  Alcotest.(check int) "clear empties" 0 (Lru.length c);
  Alcotest.(check int) "cap unchanged" 2 (Lru.cap c)

let test_lru_zero_cap () =
  let c = Lru.create ~cap:0 in
  Lru.add c "k" "v";
  Alcotest.(check int) "cap 0 never stores" 0 (Lru.length c);
  Alcotest.(check (option string)) "cap 0 never hits" None (Lru.find c "k")

let test_lru_churn () =
  (* A long mixed workload stays within cap and keeps exactly the most
     recently used keys. *)
  let cap = 8 in
  let c = Lru.create ~cap in
  for i = 0 to 999 do
    Lru.add c (string_of_int (i mod 20)) (string_of_int i)
  done;
  Alcotest.(check int) "length = cap after churn" cap (Lru.length c);
  (* last adds were keys (999-7..999) mod 20 *)
  for i = 992 to 999 do
    Alcotest.(check bool)
      (Printf.sprintf "key %d survives" (i mod 20))
      true
      (Lru.mem c (string_of_int (i mod 20)))
  done

(* --- Hash -------------------------------------------------------------- *)

module Hash = Wr_support.Hash

let test_hash_hex () =
  let h = Hash.hex "webracer" in
  Alcotest.(check int) "32 hex chars" 32 (String.length h);
  Alcotest.(check bool) "lowercase hex" true
    (String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) h);
  Alcotest.(check string) "deterministic" h (Hash.hex "webracer");
  Alcotest.(check bool) "content-sensitive" false (h = Hash.hex "webracer2")

let test_hash_of_parts_unambiguous () =
  Alcotest.(check bool) "length-prefixing disambiguates" false
    (Hash.of_parts [ "ab"; "c" ] = Hash.of_parts [ "a"; "bc" ]);
  Alcotest.(check bool) "arity matters" false
    (Hash.of_parts [ "x" ] = Hash.of_parts [ "x"; "" ]);
  Alcotest.(check string) "deterministic"
    (Hash.of_parts [ "a"; "b" ])
    (Hash.of_parts [ "a"; "b" ])

let cache_suite =
  [
    Alcotest.test_case "lru: eviction follows recency" `Quick test_lru_eviction_order;
    Alcotest.test_case "lru: overwrite, remove, clear" `Quick test_lru_overwrite_and_remove;
    Alcotest.test_case "lru: cap 0 disables storage" `Quick test_lru_zero_cap;
    Alcotest.test_case "lru: bounded under churn" `Quick test_lru_churn;
    Alcotest.test_case "hash: hex digests" `Quick test_hash_hex;
    Alcotest.test_case "hash: of_parts is unambiguous" `Quick test_hash_of_parts_unambiguous;
  ]

let suite = suite @ cache_suite

(* --- HDR histogram ----------------------------------------------------- *)

module Histo = Wr_support.Stats.Histo

let feq msg ~tol expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %g within %g, got %g" msg expected tol actual

let test_histo_empty_singleton () =
  let h = Histo.create () in
  Alcotest.(check int) "empty count" 0 (Histo.count h);
  Alcotest.(check (float 0.)) "empty p50" 0. (Histo.percentile h 50.);
  Alcotest.(check (float 0.)) "empty mean" 0. (Histo.mean h);
  Histo.add h 3.25;
  Alcotest.(check int) "singleton count" 1 (Histo.count h);
  (* Every percentile of one sample is that sample (min/max clamping
     makes it exact despite bucketing). *)
  List.iter
    (fun p -> Alcotest.(check (float 0.)) "singleton percentile" 3.25 (Histo.percentile h p))
    [ 0.; 50.; 99.; 99.9; 100. ]

let test_histo_percentiles_skewed () =
  let h = Histo.create () in
  (* 999 fast samples at ~1ms, one slow outlier at 10s: the tail must
     show up in p999+ but not p50. *)
  for _ = 1 to 999 do
    Histo.add h 0.001
  done;
  Histo.add h 10.;
  feq "p50 near 1ms" ~tol:1e-4 0.001 (Histo.percentile h 50.);
  feq "p99 near 1ms" ~tol:1e-4 0.001 (Histo.percentile h 99.);
  feq "p99.9 still fast" ~tol:1e-4 0.001 (Histo.percentile h 99.9);
  Alcotest.(check (float 0.)) "p100 is the outlier" 10. (Histo.percentile h 100.);
  feq "mean pulled up" ~tol:1e-3 0.011 (Histo.mean h)

let test_histo_p999_small_sample () =
  (* With few samples, high percentiles must degrade to the maximum, not
     interpolate past it or read an empty bucket. *)
  let h = Histo.create () in
  List.iter (Histo.add h) [ 0.010; 0.020; 0.030 ];
  Alcotest.(check (float 0.)) "p999 of 3 samples = max" 0.030 (Histo.percentile h 99.9);
  Alcotest.(check (float 0.)) "p95 of 3 samples = max" 0.030 (Histo.percentile h 95.)

let test_histo_bucket_accuracy () =
  (* Log bucketing with 32 sub-buckets per octave: any percentile is
     within ~3% of the exact sample value. *)
  let h = Histo.create () in
  for i = 1 to 1000 do
    Histo.add h (float_of_int i /. 1000.)
  done;
  List.iter
    (fun p ->
      let exact = p /. 100. in
      let got = Histo.percentile h p in
      if Float.abs (got -. exact) /. exact > 0.03 then
        Alcotest.failf "p%g: %g more than 3%% from %g" p got exact)
    [ 10.; 50.; 90.; 99. ]

let test_histo_merge () =
  (* Per-domain histograms merged at read time must agree with one
     histogram fed every sample — same count, sum, extremes and
     percentiles (the telemetry merge path). *)
  let parts = List.init 4 (fun _ -> Histo.create ()) in
  let all = Histo.create () in
  List.iteri
    (fun d h ->
      for i = 1 to 250 do
        let v = float_of_int ((d * 250) + i) /. 100. in
        Histo.add h v;
        Histo.add all v
      done)
    parts;
  let merged =
    List.fold_left (fun acc h -> Histo.merge acc h) (Histo.create ()) parts
  in
  Alcotest.(check int) "count" (Histo.count all) (Histo.count merged);
  feq "sum" ~tol:1e-9 (Histo.sum all) (Histo.sum merged);
  Alcotest.(check (float 0.)) "min" (Histo.minimum all) (Histo.minimum merged);
  Alcotest.(check (float 0.)) "max" (Histo.maximum all) (Histo.maximum merged);
  List.iter
    (fun p ->
      Alcotest.(check (float 0.)) "percentile agrees" (Histo.percentile all p)
        (Histo.percentile merged p))
    [ 1.; 50.; 95.; 99.; 99.9 ];
  (* merge leaves its inputs untouched *)
  Alcotest.(check int) "part count intact" 250 (Histo.count (List.hd parts))

let test_histo_underflow () =
  let h = Histo.create () in
  List.iter (Histo.add h) [ -1.; 0.; 5. ];
  Alcotest.(check int) "all counted" 3 (Histo.count h);
  Alcotest.(check (float 0.)) "min is the negative" (-1.) (Histo.minimum h);
  Alcotest.(check (float 0.)) "p100" 5. (Histo.percentile h 100.)

let histo_suite =
  [
    Alcotest.test_case "histo: empty and singleton" `Quick test_histo_empty_singleton;
    Alcotest.test_case "histo: skewed tail percentiles" `Quick test_histo_percentiles_skewed;
    Alcotest.test_case "histo: p999 on small samples" `Quick test_histo_p999_small_sample;
    Alcotest.test_case "histo: bucket accuracy" `Quick test_histo_bucket_accuracy;
    Alcotest.test_case "histo: per-domain merge" `Quick test_histo_merge;
    Alcotest.test_case "histo: underflow bucket" `Quick test_histo_underflow;
  ]

let suite = suite @ histo_suite

(* --- pool profiling ---------------------------------------------------- *)

let test_pool_stats_accounting () =
  let p = Pool.create ~jobs:3 () in
  let xs = List.init 20 Fun.id in
  let _ = Pool.map p (fun x -> x * x) xs in
  Pool.close p;
  let st = Pool.stats p in
  Alcotest.(check int) "one row per domain" 3 (List.length st.Pool.per_domain);
  Alcotest.(check int) "submitted" 20 st.Pool.submitted;
  let total_tasks =
    List.fold_left (fun acc d -> acc + d.Pool.tasks) 0 st.Pool.per_domain
  in
  Alcotest.(check int) "every task charged to a domain" 20 total_tasks;
  List.iter
    (fun d ->
      Alcotest.(check bool) "non-negative queue wait" true (d.Pool.queue_wait_s >= 0.);
      Alcotest.(check bool) "non-negative run" true (d.Pool.run_s >= 0.))
    st.Pool.per_domain;
  (* The rendering includes every row and the summary counters. *)
  let rendered = Pool.render_stats st in
  let contains needle =
    let nl = String.length needle and hl = String.length rendered in
    let rec at i = i + nl <= hl && (String.sub rendered i nl = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in render") true (contains needle))
    [ "submitter"; "worker-1"; "worker-2"; "tasks submitted: 20" ]

let test_pool_stats_sequential () =
  (* jobs:1 charges everything to the submitter with zero queue wait. *)
  let p = Pool.create ~jobs:1 () in
  let _ = Pool.map p Fun.id (List.init 5 Fun.id) in
  Pool.close p;
  let st = Pool.stats p in
  (match st.Pool.per_domain with
  | [ d ] ->
      Alcotest.(check int) "all on submitter" 5 d.Pool.tasks;
      Alcotest.(check (float 0.)) "no queue wait" 0. d.Pool.queue_wait_s
  | rows -> Alcotest.failf "expected 1 domain row, got %d" (List.length rows));
  Alcotest.(check int) "submitted" 5 st.Pool.submitted

let test_pool_stats_partition_uneven_batch () =
  (* [min_workers] forces real spawned domains even on one-core hardware,
     and very uneven work spreads the items unevenly over the lanes.
     Wherever each item ran, it must be charged to exactly one lane:
     after [close] the per-lane task counts partition the batch. The
     case keeps its name from when lanes stole from each other's deques;
     they now claim items from one shared cursor, and [stolen] reads 0. *)
  let n = 400 in
  let work x =
    let rounds = if x mod 13 = 0 then 50_000 else 500 in
    let acc = ref 0 in
    for i = 1 to rounds do
      acc := !acc + (i * x mod 7)
    done;
    !acc
  in
  let p = Pool.create ~min_workers:3 ~jobs:4 () in
  let results =
    Fun.protect
      ~finally:(fun () -> Pool.close p)
      (fun () -> Pool.map p work (List.init n Fun.id))
  in
  Alcotest.(check (list int)) "results deterministic in input order"
    (List.map work (List.init n Fun.id))
    results;
  let st = Pool.stats p in
  Alcotest.(check int) "submitted counts items" n st.Pool.submitted;
  let total_tasks =
    List.fold_left (fun acc d -> acc + d.Pool.tasks) 0 st.Pool.per_domain
  in
  Alcotest.(check int) "per-lane tasks partition the batch" n total_tasks;
  Alcotest.(check int) "nothing is stolen" 0 st.Pool.stolen;
  List.iter
    (fun d ->
      Alcotest.(check bool) "non-negative queue wait" true (d.Pool.queue_wait_s >= 0.);
      Alcotest.(check bool) "non-negative idle" true (d.Pool.idle_s >= 0.))
    st.Pool.per_domain

(* Spin until [cond ()] holds, failing after a few seconds instead of
   hanging the suite. *)
let await what cond =
  let deadline = Clock.now () +. 5. in
  while not (cond ()) do
    if Clock.now () > deadline then Alcotest.failf "timed out waiting for %s" what;
    Domain.cpu_relax ()
  done

let test_pool_submit_raise_keeps_worker () =
  (* One worker: if the raising task killed it, the later task would
     never run. *)
  let p = Pool.create ~min_workers:1 ~jobs:2 () in
  let ran = Atomic.make false in
  Pool.submit p (fun () -> failwith "task failure");
  Pool.submit p (fun () -> Atomic.set ran true);
  await "the task after the raising one" (fun () -> Atomic.get ran);
  Pool.close p;
  Alcotest.(check int) "both tasks charged" 2
    (List.fold_left (fun acc d -> acc + d.Pool.tasks) 0 (Pool.stats p).Pool.per_domain)

let test_pool_map_with_workers_blocked () =
  (* Every worker sits in a [submit] task until the gate opens, so the
     submitter has to drain the whole batch alone. *)
  let p = Pool.create ~min_workers:2 ~jobs:3 () in
  let started = Atomic.make 0 and gate = Atomic.make false in
  for _ = 1 to 2 do
    Pool.submit p (fun () ->
        Atomic.incr started;
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done)
  done;
  await "both workers to block" (fun () -> Atomic.get started = 2);
  let xs = List.init 50 Fun.id in
  let got =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set gate true;
        Pool.close p)
      (fun () -> Pool.map p (fun x -> x * 3) xs)
  in
  Alcotest.(check (list int)) "results in input order" (List.map (fun x -> x * 3) xs) got;
  match (Pool.stats p).Pool.per_domain with
  | submitter :: _ -> Alcotest.(check int) "all items on the submitter" 50 submitter.Pool.tasks
  | [] -> Alcotest.fail "no domain rows"

let test_clock_monotonic () =
  (* The whole point of Clock over Unix.gettimeofday: deltas never go
     negative, so pool/daemon timing needs no clamping. *)
  let prev = ref (Clock.now ()) in
  for _ = 1 to 10_000 do
    let t = Clock.now () in
    if t < !prev then Alcotest.failf "clock stepped backwards: %.9f < %.9f" t !prev;
    prev := t
  done;
  let a = Clock.now_ns () in
  let b = Clock.now_ns () in
  Alcotest.(check bool) "ns reading non-decreasing" true (Int64.compare b a >= 0);
  Alcotest.(check bool) "plausible ns epoch (non-zero)" true (Int64.compare a 0L > 0)

let pool_stats_suite =
  [
    Alcotest.test_case "pool: stats account every task" `Quick test_pool_stats_accounting;
    Alcotest.test_case "pool: sequential stats" `Quick test_pool_stats_sequential;
    Alcotest.test_case "pool: stats exact after stealing" `Quick
      test_pool_stats_partition_uneven_batch;
    Alcotest.test_case "pool: a raising submit task leaves its worker alive" `Quick
      test_pool_submit_raise_keeps_worker;
    Alcotest.test_case "pool: map completes while every worker is blocked in a submit task"
      `Quick test_pool_map_with_workers_blocked;
    Alcotest.test_case "clock: monotonic" `Quick test_clock_monotonic;
  ]

let suite = suite @ pool_stats_suite

(* --- ambient trace context --------------------------------------------- *)

module Log = Wr_support.Log

let test_log_trace_context () =
  Alcotest.(check (pair (option string) (option string)))
    "no ambient trace outside with_trace" (None, None) (Log.current_trace ());
  let inner =
    Log.with_trace ~trace_id:"t-1" ~span_id:"7" (fun () ->
        let outer = Log.current_trace () in
        let nested =
          Log.with_trace ~trace_id:"t-2" (fun () -> Log.current_trace ())
        in
        (outer, nested))
  in
  Alcotest.(check (pair (option string) (option string)))
    "ambient trace inside" (Some "t-1", Some "7") (fst inner);
  Alcotest.(check (pair (option string) (option string)))
    "innermost wins, span resets" (Some "t-2", None) (snd inner);
  Alcotest.(check (pair (option string) (option string)))
    "restored after" (None, None) (Log.current_trace ())

let test_log_trace_survives_exception () =
  (try
     Log.with_trace ~trace_id:"t-err" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check (pair (option string) (option string)))
    "restored after exception" (None, None) (Log.current_trace ())

let trace_suite =
  [
    Alcotest.test_case "log: ambient trace context" `Quick test_log_trace_context;
    Alcotest.test_case "log: trace restored on exception" `Quick test_log_trace_survives_exception;
  ]

let suite = suite @ trace_suite

(* --- flight recorder --------------------------------------------------- *)

module Flight = Wr_support.Flight

(* A deterministic clock: 1., 2., 3., ... *)
let ticker () =
  let n = ref 0. in
  fun () ->
    n := !n +. 1.;
    !n

let with_flight ?(capacity = 4) ?clock f =
  Flight.configure ~capacity ?clock ();
  Flight.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Flight.set_enabled false;
      Flight.configure ())
    f

let contains ~sub s =
  let sl = String.length sub and l = String.length s in
  let rec go i = i + sl <= l && (String.sub s i sl = sub || go (i + 1)) in
  sl = 0 || go 0

let test_flight_wraparound () =
  with_flight ~capacity:4 ~clock:(ticker ()) (fun () ->
      for i = 1 to 10 do
        Flight.record ~kind:"tick" [ ("i", Json.Int i) ]
      done;
      let evs = Flight.snapshot () in
      Alcotest.(check int) "ring keeps the last [capacity] events" 4
        (List.length evs);
      let is =
        List.map
          (fun (e : Flight.event) ->
            match List.assoc "i" e.fields with Json.Int i -> i | _ -> -1)
          evs
      in
      Alcotest.(check (list int)) "oldest first, newest retained" [ 7; 8; 9; 10 ]
        is)

let test_flight_virtual_clock_deterministic () =
  let run () =
    with_flight ~capacity:8 ~clock:(ticker ()) (fun () ->
        Flight.record ~kind:"request.start" ~trace:"t-flight" [];
        Flight.record ~kind:"request.end" [ ("outcome", Json.String "ok") ];
        Flight.to_jsonl (Flight.snapshot ()))
  in
  let one = run () and two = run () in
  Alcotest.(check string) "identical dumps under a virtual clock" one two;
  Alcotest.(check bool) "trace id survives into the dump" true
    (contains ~sub:"t-flight" one);
  Alcotest.(check bool) "virtual timestamps, not wall time" true
    (contains ~sub:"\"ts\":1" one)

let test_flight_disabled_and_reset () =
  Flight.configure ~capacity:4 ();
  Flight.record ~kind:"dropped" [];
  Alcotest.(check int) "record is a no-op while disabled" 0
    (List.length (Flight.snapshot ()));
  Flight.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Flight.set_enabled false)
    (fun () ->
      Flight.record ~kind:"kept" [];
      Alcotest.(check int) "recorded once enabled" 1
        (List.length (Flight.snapshot ()));
      Flight.reset ();
      Alcotest.(check int) "reset drops retained events" 0
        (List.length (Flight.snapshot ())))

let test_flight_log_tee () =
  with_flight ~capacity:8 (fun () ->
      (* Debug is below the default log level: nothing is emitted, but
         the flight recorder still captures it for postmortems. *)
      Log.with_trace ~trace_id:"t-tee" (fun () ->
          Log.debug "tee.probe" [ ("k", Json.String "v") ]);
      let evs = Flight.snapshot () in
      let tee =
        List.find_opt (fun (e : Flight.event) -> e.kind = "log.debug") evs
      in
      match tee with
      | None -> Alcotest.fail "log line not teed into the flight ring"
      | Some e ->
          Alcotest.(check (option string))
            "ambient trace id attached" (Some "t-tee") e.trace;
          Alcotest.(check bool) "event name captured" true
            (List.mem_assoc "event" e.fields))

let test_flight_chrome_trace () =
  with_flight ~capacity:8 ~clock:(ticker ()) (fun () ->
      Flight.record ~kind:"a" [];
      Flight.record ~kind:"b" [];
      match Flight.to_chrome_trace (Flight.snapshot ()) with
      | Json.Obj fields -> (
          match List.assoc_opt "traceEvents" fields with
          | Some (Json.List evs) ->
              let instants =
                List.filter
                  (function
                    | Json.Obj f -> List.assoc_opt "ph" f = Some (Json.String "i")
                    | _ -> false)
                  evs
              in
              Alcotest.(check int) "one instant event per record" 2
                (List.length instants)
          | _ -> Alcotest.fail "traceEvents missing")
      | _ -> Alcotest.fail "chrome trace is not an object")

let flight_suite =
  [
    Alcotest.test_case "flight: ring wraparound" `Quick test_flight_wraparound;
    Alcotest.test_case "flight: deterministic under virtual clock" `Quick
      test_flight_virtual_clock_deterministic;
    Alcotest.test_case "flight: disabled no-op and reset" `Quick
      test_flight_disabled_and_reset;
    Alcotest.test_case "flight: log tee with ambient trace" `Quick
      test_flight_log_tee;
    Alcotest.test_case "flight: chrome trace instants" `Quick
      test_flight_chrome_trace;
  ]

let suite = suite @ flight_suite

(* Appended last so the numbering of the cases above stays stable. *)
let suite = suite @ [ QCheck_alcotest.to_alcotest prop_json_raw ]

(* JSON has no literal for infinity or NaN: they encode as [null], like
   [JSON.stringify], so every encoded float parses back. *)
let prop_json_float_parses =
  let special =
    QCheck.Gen.oneofl
      [ Float.nan; Float.infinity; Float.neg_infinity; 0.; -0.; Float.max_float;
        Float.min_float; Float.epsilon; 1e15; -1e21; 5e-324 ]
  in
  QCheck.Test.make ~name:"json: of_string accepts to_string (Float f)" ~count:500
    (QCheck.make ~print:string_of_float QCheck.Gen.(oneof [ float; special ]))
    (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Json.Null -> not (Float.is_finite f)
      | Json.Int _ | Json.Float _ -> Float.is_finite f
      | _ -> false)

let test_json_non_finite () =
  List.iter
    (fun f -> Alcotest.(check string) (string_of_float f) "null" (Json.to_string (Json.Float f)))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  Alcotest.(check string) "inside a document" {|{"t":null,"n":1.5}|}
    (Json.to_string (Json.Obj [ ("t", Json.Float Float.infinity); ("n", Json.Float 1.5) ]))

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_json_float_parses;
      Alcotest.test_case "json: non-finite floats encode as null" `Quick test_json_non_finite;
    ]

let test_json_depth_capped () =
  let nested k = String.make k '[' ^ String.make k ']' in
  (match Json.of_string (nested 512) with
  | _ -> ()
  | exception Json.Parse_error m -> Alcotest.failf "512 levels must parse: %s" m);
  List.iter
    (fun text ->
      match Json.of_string text with
      | _ -> Alcotest.failf "accepted %d bytes nested past the cap" (String.length text)
      | exception Json.Parse_error _ -> ())
    [ nested 513; {|{"a":|} ^ nested 600 ^ "}"; String.make 1_000_000 '[' ]

let suite =
  suite @ [ Alcotest.test_case "json: nesting depth is capped" `Quick test_json_depth_capped ]
