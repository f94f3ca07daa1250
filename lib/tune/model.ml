(** Analytic load / latency / availability model over quorum systems,
    after "Read-Write Quorum Systems Made Practical" (PAPERS.md).

    A system is scored against an observed workload (read fraction),
    an assumed per-replica alive probability, and a per-replica
    latency estimate (typically a [Ewma] fed by live RPC replies):

    - {b peak load} — the classic load of a quorum system: assuming
      clients pick uniformly among the {e smallest} minimal quorums
      (which is what [Store.Client]'s random targeting does), the
      expected fraction of ops that touch each replica; the maximum
      over replicas bounds attainable throughput.
    - {b expected latency} — mean over the smallest minimal quorums of
      the slowest member's latency estimate; writes pay a read-side
      version query plus a write-side install.
    - {b availability} — probability that some read (resp. write)
      quorum is fully alive under independent replica failures.

    Everything is exhaustive over the [2^n] masks — systems here are
    small (n ≤ 12 or so), exactly like [Store.Strategy].  The bitmask
    helpers ([popcount], [full], [legal], [minimal_quorums]) live here
    and [Store.Strategy] delegates to them: [tune] sits below [store]
    so the store's client can consume [Ewma]/[Steer] without a
    cycle. *)

type system = {
  name : string;
  n : int;  (** replica count; replica [i] is bit [i] *)
  read_ok : int -> bool;  (** does this mask contain a read quorum? *)
  write_ok : int -> bool;  (** does this mask contain a write quorum? *)
}

let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go mask 0

let full n = (1 lsl n) - 1

let legal s =
  let f = full s.n in
  let bad = ref false in
  for r = 0 to f do
    if s.read_ok r && s.write_ok (f land lnot r) then bad := true
  done;
  not !bad

let minimal_quorums ok n =
  let all = ref [] in
  for m = full n downto 1 do
    if ok m then all := m :: !all
  done;
  let masks = !all in
  List.filter
    (fun q ->
      not (List.exists (fun q' -> q' <> q && q' land lnot q = 0) masks))
    masks

let minimal_read_quorums s = minimal_quorums s.read_ok s.n
let minimal_write_quorums s = minimal_quorums s.write_ok s.n

let smallest masks =
  let card =
    List.fold_left (fun acc q -> min acc (popcount q)) max_int masks
  in
  List.filter (fun q -> popcount q = card) masks

let cross_legal ~reads ~writes =
  List.for_all (fun r -> List.for_all (fun w -> r land w <> 0) writes) reads

let availability s ~p =
  if Float.compare p 0.0 < 0 || Float.compare p 1.0 > 0 then
    invalid_arg "Model.availability: p must be in [0, 1]";
  let read = ref 0.0 and write = ref 0.0 in
  for m = 0 to full s.n do
    let prob = ref 1.0 in
    for i = 0 to s.n - 1 do
      prob := !prob *. (if m land (1 lsl i) <> 0 then p else 1.0 -. p)
    done;
    if s.read_ok m then read := !read +. !prob;
    if s.write_ok m then write := !write +. !prob
  done;
  (!read, !write)

(* Per-replica probability of being touched by a uniform pick among
   [masks].  Empty mask lists (an always-false side) yield zeros. *)
let membership ~n masks =
  let k = List.length masks in
  Array.init n (fun i ->
      if k = 0 then 0.0
      else
        let c =
          List.fold_left
            (fun acc q -> if q land (1 lsl i) <> 0 then acc + 1 else acc)
            0 masks
        in
        float_of_int c /. float_of_int k)

(* Mean over [masks] of the slowest member under [lat]. *)
let expected_max ~n ~lat masks =
  match masks with
  | [] -> infinity
  | _ ->
      let total =
        List.fold_left
          (fun acc q ->
            let worst = ref neg_infinity in
            for i = 0 to n - 1 do
              if q land (1 lsl i) <> 0 then worst := Float.max !worst (lat i)
            done;
            acc +. !worst)
          0.0 masks
      in
      total /. float_of_int (List.length masks)

type score = {
  peak_load : float;
  read_latency : float;
  write_latency : float;
  op_latency : float;
      (** mix-weighted: [f * read + (1 - f) * (read + write)] — a
          write pays the version query before the install *)
  read_availability : float;
  write_availability : float;
}

let score s ~read_fraction ~p_alive ~lat =
  if Float.compare read_fraction 0.0 < 0 || Float.compare read_fraction 1.0 > 0
  then invalid_arg "Model.score: read_fraction must be in [0, 1]";
  let f = read_fraction in
  let reads = smallest (minimal_read_quorums s)
  and writes = smallest (minimal_write_quorums s) in
  let rmem = membership ~n:s.n reads and wmem = membership ~n:s.n writes in
  let peak = ref 0.0 in
  for i = 0 to s.n - 1 do
    (* reads touch a read quorum; writes touch a read quorum (version
       query) and a write quorum (install) *)
    let li = (f *. rmem.(i)) +. ((1.0 -. f) *. (rmem.(i) +. wmem.(i))) in
    if Float.compare li !peak > 0 then peak := li
  done;
  let rl = expected_max ~n:s.n ~lat reads
  and wl = expected_max ~n:s.n ~lat writes in
  let ra, wa = availability s ~p:p_alive in
  {
    peak_load = !peak;
    read_latency = rl;
    write_latency = wl;
    op_latency = (f *. rl) +. ((1.0 -. f) *. (rl +. wl));
    read_availability = ra;
    write_availability = wa;
  }

type config = {
  w_load : float;
  w_latency : float;
  min_read_availability : float;
  min_write_availability : float;
}

let default_config =
  {
    w_load = 1.0;
    w_latency = 0.1;
    min_read_availability = 0.99;
    min_write_availability = 0.98;
  }

let admissible config sc =
  Float.compare sc.read_availability config.min_read_availability >= 0
  && Float.compare sc.write_availability config.min_write_availability >= 0

let objective config sc =
  (config.w_load *. sc.peak_load) +. (config.w_latency *. sc.op_latency)

let choose ?(config = default_config) ~read_fraction ~p_alive ~lat systems =
  let best = ref None in
  List.iteri
    (fun idx s ->
      if legal s then begin
        let sc = score s ~read_fraction ~p_alive ~lat in
        if admissible config sc then begin
          let obj = objective config sc in
          match !best with
          | Some (_, _, b) when Float.compare obj b >= 0 -> ()
          | _ -> best := Some (idx, sc, obj)
        end
      end)
    systems;
  match !best with None -> None | Some (idx, sc, _) -> Some (idx, sc)

let pp_score ppf sc =
  Fmt.pf ppf "load=%.3f lat(r/w/op)=%.2f/%.2f/%.2f avail(r/w)=%.4f/%.4f"
    sc.peak_load sc.read_latency sc.write_latency sc.op_latency
    sc.read_availability sc.write_availability
