let mean = function
  | [] -> 0.
  | xs -> float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs)

let median = function
  | [] -> 0.
  | xs ->
      let arr = Array.of_list xs in
      Array.sort Int.compare arr;
      let n = Array.length arr in
      if n mod 2 = 1 then float_of_int arr.(n / 2)
      else float_of_int (arr.((n / 2) - 1) + arr.(n / 2)) /. 2.

let max = function [] -> 0 | x :: xs -> List.fold_left Stdlib.max x xs

let sum = List.fold_left ( + ) 0

(* --- float samples -------------------------------------------------- *)

let fpercentile xs p =
  match xs with
  | [] -> 0.
  | xs ->
      let arr = Array.of_list xs in
      Array.sort Float.compare arr;
      let n = Array.length arr in
      let p = Float.min 100. (Float.max 0. p) in
      (* Linear interpolation between closest ranks. *)
      let rank = p /. 100. *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = int_of_float (Float.ceil rank) in
      if lo = hi then arr.(lo)
      else begin
        let frac = rank -. float_of_int lo in
        (arr.(lo) *. (1. -. frac)) +. (arr.(hi) *. frac)
      end

(* --- HDR-style histogram -------------------------------------------- *)

module Histo = struct
  (* Log-bucketed: each power-of-two range (octave) is split into
     [sub_buckets] linear sub-buckets, giving a bounded relative error of
     about 1/(2*sub_buckets) for the bucket representative. Exponents are
     clamped to [min_exp, max_exp); everything at or below zero lands in
     the dedicated bucket 0. Exact min/max/sum ride along so the tails and
     the mean stay precise even though samples are bucketed. *)

  let sub_buckets = 32
  let min_exp = -32 (* 2^-32 s ~ a fraction of a nanosecond *)
  let max_exp = 32 (* 2^32 s ~ a century *)
  let octaves = max_exp - min_exp
  let n_buckets = 1 + (octaves * sub_buckets)

  type t = {
    mutable buckets : int array;
    mutable count : int;
    mutable sum : float;
    mutable vmin : float;
    mutable vmax : float;
  }

  let create () =
    { buckets = Array.make n_buckets 0; count = 0; sum = 0.; vmin = infinity; vmax = neg_infinity }

  let copy t =
    { t with buckets = Array.copy t.buckets }

  let index v =
    if v <= 0. || Float.is_nan v then 0
    else begin
      let m, e = Float.frexp v in
      (* v = m * 2^e with m in [0.5, 1). *)
      let e = Stdlib.min (max_exp - 1) (Stdlib.max min_exp e) in
      let sub = int_of_float ((m -. 0.5) *. 2. *. float_of_int sub_buckets) in
      let sub = Stdlib.min (sub_buckets - 1) (Stdlib.max 0 sub) in
      1 + (((e - min_exp) * sub_buckets) + sub)
    end

  (* Midpoint of the bucket's value range — the resolution-bounded
     representative returned for interior percentiles. *)
  let representative i =
    if i = 0 then 0.
    else begin
      let i = i - 1 in
      let e = (i / sub_buckets) + min_exp in
      let sub = i mod sub_buckets in
      let m_lo = 0.5 +. (float_of_int sub /. (2. *. float_of_int sub_buckets)) in
      Float.ldexp (m_lo +. (1. /. (4. *. float_of_int sub_buckets))) e
    end

  let add t v =
    let i = index v in
    t.buckets.(i) <- t.buckets.(i) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum +. v;
    if v < t.vmin then t.vmin <- v;
    if v > t.vmax then t.vmax <- v

  let merge_into ~into t =
    Array.iteri (fun i n -> if n > 0 then into.buckets.(i) <- into.buckets.(i) + n) t.buckets;
    into.count <- into.count + t.count;
    into.sum <- into.sum +. t.sum;
    if t.vmin < into.vmin then into.vmin <- t.vmin;
    if t.vmax > into.vmax then into.vmax <- t.vmax

  let merge a b =
    let t = copy a in
    merge_into ~into:t b;
    t

  let count t = t.count
  let sum t = t.sum
  let minimum t = if t.count = 0 then 0. else t.vmin
  let maximum t = if t.count = 0 then 0. else t.vmax
  let mean t = if t.count = 0 then 0. else t.sum /. float_of_int t.count

  let percentile t p =
    if t.count = 0 then 0.
    else begin
      let p = Float.min 100. (Float.max 0. p) in
      (* Smallest rank whose cumulative count covers p% of the samples.
         The epsilon keeps binary rounding (99.9/100 * 1000 =
         999.0000000000001) from bumping the rank past the exact one. *)
      let target =
        Stdlib.max 1
          (int_of_float
             (Float.ceil ((p /. 100. *. float_of_int t.count) -. 1e-9)))
      in
      let rec find i acc =
        if i >= n_buckets then t.vmax
        else begin
          let acc = acc + t.buckets.(i) in
          if acc >= target then representative i else find (i + 1) acc
        end
      in
      let v = find 0 0 in
      (* The exact extremes beat any bucket midpoint. *)
      Float.min t.vmax (Float.max t.vmin v)
    end

  let summary_json t =
    Json.Obj
      [
        ("count", Json.Int t.count);
        ("mean", Json.Float (mean t));
        ("p50", Json.Float (percentile t 50.));
        ("p95", Json.Float (percentile t 95.));
        ("p99", Json.Float (percentile t 99.));
        ("p999", Json.Float (percentile t 99.9));
        ("max", Json.Float (maximum t));
      ]
end
