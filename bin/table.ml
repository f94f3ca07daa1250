(* Plain-text tables for the command-line tools: every column is
   padded to its widest cell (header included), columns are separated
   by one space, and no line ends in spaces. *)

let rtrim s =
  let n = ref (String.length s) in
  while !n > 0 && s.[!n - 1] = ' ' do
    decr n
  done;
  String.sub s 0 !n

let lines ~header rows =
  let all = if header = [] then rows else header :: rows in
  let widths =
    Array.make (List.fold_left (fun m r -> max m (List.length r)) 0 all) 0
  in
  List.iter
    (List.iteri (fun i cell ->
         widths.(i) <- max widths.(i) (String.length cell)))
    all;
  let pad i cell = cell ^ String.make (widths.(i) - String.length cell) ' ' in
  List.map (fun cells -> rtrim (String.concat " " (List.mapi pad cells))) all
