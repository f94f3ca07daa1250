(** Quorum strategies over [n] replicas, represented as predicates on
    bitmasks of replica indices.  This is the practical-systems
    counterpart of {!Quorum.Config}: the paper's generalized
    configurations instantiated for a replica set, with exact analytic
    availability by enumeration.

    All the classical schemes the paper's algorithm generalizes are
    here: read-one/write-all, majority, Gifford's weighted voting, and
    grid quorums; [primary] is the non-replicated baseline. *)

module Model = Tune.Model

type t = {
  name : string;
  n : int;
  read_ok : int -> bool;  (** does this replica set contain a read quorum? *)
  write_ok : int -> bool;
  min_read : int;  (** size of the smallest read quorum *)
  min_write : int;
  tables : tables Lazy.t;
}

(* The strategy's quorum lists, enumerated once on first use: every
   targeted operation picks from them, so re-deriving them per
   operation (an exponential scan) is pure waste. *)
and tables = {
  minimal_reads : int list;
  minimal_writes : int list;
  smallest_reads : int list;
  smallest_writes : int list;
}

(* The bitmask helpers live in {!Tune.Model}, which sits below this
   library; one copy serves both. *)
let popcount = Model.popcount
let full = Model.full

let system t =
  { Model.name = t.name; n = t.n; read_ok = t.read_ok; write_ok = t.write_ok }

(* smallest popcount among masks satisfying ok *)
let min_quorum n ok =
  let best = ref (n + 1) in
  for m = 1 to full n do
    if ok m then best := min !best (popcount m)
  done;
  if !best > n then n else !best

(** All minimal quorums of [ok] as bitmasks, in descending mask order
    (the order targeted sends pick from by position).  Exponential
    enumeration (n <= ~12). *)
let minimal_quorums ok n = List.rev (Model.minimal_quorums ok n)

let make ~name ~n ~read_ok ~write_ok =
  let tables =
    lazy
      (let minimal_reads = minimal_quorums read_ok n
       and minimal_writes = minimal_quorums write_ok n in
       {
         minimal_reads;
         minimal_writes;
         smallest_reads = Model.smallest minimal_reads;
         smallest_writes = Model.smallest minimal_writes;
       })
  in
  {
    name;
    n;
    read_ok;
    write_ok;
    min_read = min_quorum n read_ok;
    min_write = min_quorum n write_ok;
    tables;
  }

(** Sanity: every read quorum intersects every write quorum —
    equivalently, no disjoint pair (r, w) with read_ok r and
    write_ok w, the empty read quorum included.  Exact check by
    enumeration (n <= ~12). *)
let legal t = Model.legal (system t)

let rowa n =
  make ~name:"read-one/write-all" ~n
    ~read_ok:(fun m -> m <> 0)
    ~write_ok:(fun m -> m = full n)

let majority n =
  let need = (n / 2) + 1 in
  make ~name:"majority" ~n
    ~read_ok:(fun m -> popcount m >= need)
    ~write_ok:(fun m -> popcount m >= need)

(** Gifford's weighted voting: votes per replica, read and write
    vote thresholds with [r + w > total]. *)
let weighted ~name ~votes ~r ~w =
  let n = Array.length votes in
  let total = Array.fold_left ( + ) 0 votes in
  if r + w <= total then invalid_arg "Strategy.weighted: r + w must exceed v";
  let sum m =
    let acc = ref 0 in
    for i = 0 to n - 1 do
      if m land (1 lsl i) <> 0 then acc := !acc + votes.(i)
    done;
    !acc
  in
  make ~name ~n ~read_ok:(fun m -> sum m >= r) ~write_ok:(fun m -> sum m >= w)

(** Grid quorums: read = one full row; write = one full row plus one
    replica from every row. *)
let grid ~rows ~cols =
  let n = rows * cols in
  let row i =
    let m = ref 0 in
    for j = 0 to cols - 1 do
      m := !m lor (1 lsl ((i * cols) + j))
    done;
    !m
  in
  let some_full_row m =
    let rec go i = i < rows && ((m land row i) = row i || go (i + 1)) in
    go 0
  in
  let covers_all_rows m =
    let rec go i = i >= rows || (m land row i <> 0 && go (i + 1)) in
    go 0
  in
  make
    ~name:(Fmt.str "grid-%dx%d" rows cols)
    ~n ~read_ok:some_full_row
    ~write_ok:(fun m -> some_full_row m && covers_all_rows m)

(** Two-level hierarchical ("tree") quorums after Kumar: the replicas
    split into [groups] contiguous subtrees, and a quorum is a
    majority of subtrees each represented by a majority of its
    members.  Any two quorums share a subtree, and inside it two
    majorities intersect — so the family is legal with read = write,
    at quorums of ~[n^0.63] for ternary trees vs. [n/2 + 1] for flat
    majority (e.g. 4 of 9 instead of 5 of 9). *)
let tree ?(groups = 3) n =
  if groups < 1 || groups > n then
    invalid_arg "Strategy.tree: groups must be in [1, n]";
  let lo g = g * n / groups in
  let hi g = (g + 1) * n / groups in
  let group_ok m g =
    let size = hi g - lo g in
    let members = (m lsr lo g) land full size in
    popcount members >= (size / 2) + 1
  in
  let ok m =
    let represented = ref 0 in
    for g = 0 to groups - 1 do
      if group_ok m g then incr represented
    done;
    !represented >= (groups / 2) + 1
  in
  make ~name:(Fmt.str "tree-%d/%d" groups n) ~n ~read_ok:ok ~write_ok:ok

(** Non-replicated baseline: everything on replica 0. *)
let primary n =
  make ~name:"primary-copy" ~n
    ~read_ok:(fun m -> m land 1 <> 0)
    ~write_ok:(fun m -> m land 1 <> 0)

(** {1 Analytic availability}

    With each replica independently alive with probability [p], the
    probability that some live quorum exists is the sum over all
    live-sets.  Exact enumeration, exponential in [n] (fine for the
    paper-scale n <= 12). *)
let availability t ~p =
  let read = ref 0.0 and write = ref 0.0 in
  for m = 0 to full t.n do
    let k = popcount m in
    let prob =
      (p ** float_of_int k) *. ((1.0 -. p) ** float_of_int (t.n - k))
    in
    if t.read_ok m then read := !read +. prob;
    if t.write_ok m then write := !write +. prob
  done;
  (!read, !write)

(** All minimal read (resp. write) quorums as bitmasks — used by the
    targeted-send client mode, which messages one quorum instead of
    broadcasting. *)
let minimal_read_quorums t = (Lazy.force t.tables).minimal_reads
let minimal_write_quorums t = (Lazy.force t.tables).minimal_writes

(** The minimal quorums of least cardinality, in the same order — what
    a latency-greedy targeted client picks among. *)
let smallest_read_quorums t = (Lazy.force t.tables).smallest_reads
let smallest_write_quorums t = (Lazy.force t.tables).smallest_writes

(** The live-replica bitmask for a predicate of liveness. *)
let mask_of_live ~n is_live =
  let m = ref 0 in
  for i = 0 to n - 1 do
    if is_live i then m := !m lor (1 lsl i)
  done;
  !m
