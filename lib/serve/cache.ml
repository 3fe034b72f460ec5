module Json = Wr_support.Json
module Lru = Wr_support.Lru

type t = { lru : string Lru.t; mutable hits : int; mutable misses : int }

let create ~cap = { lru = Lru.create ~cap:(max 0 cap); hits = 0; misses = 0 }
let key p = Wr_support.Hash.hex (Json.to_string (Request.analyze_params_to_json p))

let find t k =
  match Lru.find t.lru k with
  | Some _ as hit ->
      t.hits <- t.hits + 1;
      hit
  | None ->
      t.misses <- t.misses + 1;
      None

let store t k v = Lru.add t.lru k v
let hits t = t.hits
let misses t = t.misses
let length t = Lru.length t.lru
let cap t = Lru.cap t.lru
