module Json = Wr_support.Json
module Lru = Wr_support.Lru

type t = string Lru.t

let create ~cap = Lru.create ~cap:(max 0 cap)
let key p = Wr_support.Hash.hex (Json.to_string (Request.analyze_params_to_json p))
let find = Lru.find
let store = Lru.add
let length = Lru.length
let cap = Lru.cap
