let initial = 256

let key loc =
  let k = Wr_mem.Location.key loc in
  if k < 0 then invalid_arg "Columns.key: location without a key";
  k

let grow col fill k =
  let n = Array.length col in
  let grown = Array.make (max (k + 1) (2 * n)) fill in
  Array.blit col 0 grown 0 n;
  grown
