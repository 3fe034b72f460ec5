type t = { mutable words : Bytes.t }

(* One byte per 8 members; Bytes gives cheap blits and growth. *)

let create n =
  let nbytes = max 1 ((max 0 n + 7) / 8) in
  { words = Bytes.make nbytes '\000' }

let capacity t = Bytes.length t.words * 8

let ensure t i =
  if i >= capacity t then begin
    let nbytes = max (Bytes.length t.words * 2) ((i / 8) + 1) in
    let words = Bytes.make nbytes '\000' in
    Bytes.blit t.words 0 words 0 (Bytes.length t.words);
    t.words <- words
  end

let mem t i =
  if i < 0 || i >= capacity t then false
  else Char.code (Bytes.get t.words (i / 8)) land (1 lsl (i land 7)) <> 0

let add t i =
  if i < 0 then invalid_arg "Bitset.add: negative index";
  ensure t i;
  let b = i / 8 in
  Bytes.set t.words b (Char.chr (Char.code (Bytes.get t.words b) lor (1 lsl (i land 7))))

let remove t i =
  if i >= 0 && i < capacity t then begin
    let b = i / 8 in
    Bytes.set t.words b
      (Char.chr (Char.code (Bytes.get t.words b) land lnot (1 lsl (i land 7)) land 0xff))
  end

let union_into ~into src =
  ensure into (capacity src - 1);
  for b = 0 to Bytes.length src.words - 1 do
    let c = Char.code (Bytes.get src.words b) in
    if c <> 0 then
      Bytes.set into.words b (Char.chr (Char.code (Bytes.get into.words b) lor c))
  done

let popcount_byte =
  let tbl = Array.init 256 (fun c ->
      let rec count c = if c = 0 then 0 else (c land 1) + count (c lsr 1) in
      count c)
  in
  fun c -> tbl.(c)

let cardinal t =
  let n = ref 0 in
  for b = 0 to Bytes.length t.words - 1 do
    n := !n + popcount_byte (Char.code (Bytes.get t.words b))
  done;
  !n

let iter f t =
  for b = 0 to Bytes.length t.words - 1 do
    let c = Char.code (Bytes.get t.words b) in
    if c <> 0 then
      for bit = 0 to 7 do
        if c land (1 lsl bit) <> 0 then f ((b * 8) + bit)
      done
  done
