let hex s = Digest.to_hex (Digest.string s)

let of_parts parts =
  let buf = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string buf (string_of_int (String.length p));
      Buffer.add_char buf ':';
      Buffer.add_string buf p)
    parts;
  hex (Buffer.contents buf)

(* MurmurHash3's 64-bit finaliser (fmix64) with its multipliers cut to
   OCaml's 63-bit ints; both stay odd, so each step is a bijection. *)
let mix h =
  let h = h lxor (h lsr 33) in
  let h = h * 0x3f51afd7ed558ccd in
  let h = h lxor (h lsr 33) in
  let h = h * 0x04ceb9fe1a85ec53 in
  (h lxor (h lsr 33)) land max_int
