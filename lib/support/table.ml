let pad ~left width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    if left then s ^ fill else fill ^ s

let rstrip s =
  let rec last i = if i > 0 && s.[i - 1] = ' ' then last (i - 1) else i in
  String.sub s 0 (last (String.length s))

let render ~header rows =
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) (List.length header) rows in
  let normalize row =
    Array.init ncols (fun i -> match List.nth_opt row i with Some c -> c | None -> "")
  in
  let header = normalize header in
  let rows = List.map normalize rows in
  let widths = Array.make ncols 0 in
  let measure row = Array.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) row in
  measure header;
  List.iter measure rows;
  let row_to_string row =
    let cells = Array.mapi (fun i c -> pad ~left:(i = 0) widths.(i) c) row in
    rstrip (String.concat "  " (Array.to_list cells))
  in
  let rule = String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths)) in
  let lines = row_to_string header :: rule :: List.map row_to_string rows in
  String.concat "\n" lines ^ "\n"

let print ~header rows = print_string (render ~header rows)
