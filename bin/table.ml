(* Shared by the command-line tools: plain-text tables, where every
   column is padded to its widest cell (header included), columns are
   separated by one space, and no line ends in spaces; and the one
   converter for count flags. *)

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

(* A count flag: a positive integer, so [0] or [-3] is a usage error
   (exit 124) rather than a vacuous run. *)
let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Fmt.str "expected a positive integer, got %S" s))
  in
  Cmdliner.Arg.conv ~docv:"N" (parse, Fmt.int)
