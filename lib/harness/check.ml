(** Reusable cluster-correctness predicates: the single-writer
    consistency audit, static quorum-intersection checks, and
    liveness-after-heal.

    The audit is the oracle of every nemesis test and of the seed
    swarm.  It exploits the single-writer-per-key discipline of the
    workload: per key, completed writes carry strictly increasing
    version numbers, and every successful read must return a version
    at least as new as the newest write completed before the read
    began, with the value actually written at that version.  Quorum
    intersection is exactly what makes this hold across failures; a
    configuration without intersection (or a protocol bug) fails the
    audit.  The violation strings are part of the golden-digest
    surface — they render into {!Store.Cluster.digest} — so their
    wording is frozen. *)

type entry = { vn : int; value : int; completed_at : float }

(** Audit state: per-key completed-write history plus the violation
    log (newest first, the historical order). *)
type audit = {
  completed_writes : (string, entry list) Hashtbl.t;
  mutable violations : string list;
}

let audit () = { completed_writes = Hashtbl.create 64; violations = [] }

let note a fmt = Fmt.kstr (fun s -> a.violations <- s :: a.violations) fmt

(* The newest version among [writes] completed by [started]. *)
let rec newest_by started acc = function
  | [] -> acc
  | e :: rest ->
      newest_by started
        (if e.completed_at <= started && e.vn > acc then e.vn else acc)
        rest

(* The first of [writes] at version [vn].  @raise Not_found *)
let rec write_at vn = function
  | [] -> raise Not_found
  | e :: rest -> if e.vn = vn then e else write_at vn rest

(** Check one successful read: [started] is when the read was issued,
    [vn]/[value] what it returned. *)
let read_ok a ~key ~started ~vn ~value =
  let writes =
    match Hashtbl.find a.completed_writes key with
    | ws -> ws
    | exception Not_found -> []
  in
  (* audit: newest write completed before we started *)
  let newest = newest_by started 0 writes in
  if vn < newest then
    note a "stale read of %s: returned vn %d < completed vn %d" key vn newest;
  (* the value must be what was written at that vn *)
  if vn > 0 then
    match write_at vn writes with
    | e ->
        if e.value <> value then
          note a "corrupt read of %s: vn %d has %d, read %d" key vn e.value
            value
    | exception Not_found -> ()

(** Record one successful write completing at [now] with version [vn]
    of [value]. *)
let write_ok a ~key ~vn ~value ~now =
  let prev =
    Option.value ~default:[] (Hashtbl.find_opt a.completed_writes key)
  in
  (* single-writer-per-key: versions must increase *)
  List.iter
    (fun e ->
      if e.vn >= vn then
        note a "non-monotonic write to %s: vn %d after %d" key vn e.vn)
    prev;
  Hashtbl.replace a.completed_writes key
    ({ vn; value; completed_at = now } :: prev)

let violations a = a.violations

(* ---------- multi-key transaction audit ---------- *)

type txn_report = {
  t_txid : string;
  t_started : float;
  t_completed : float;
  t_reads : (string * int * int) list;  (** (key, vn, value) snapshot *)
  t_writes : (string * int * int) list;  (** (key, vn, value) installed *)
}

(** Audit state for multi-key transaction histories.  Two sources
    feed it: {e decided} commits (the replica-side decision hook —
    authoritative, covers transactions whose coordinator died after
    the decision was chosen) and {e acked} commits (the client saw
    the commit complete — these carry the read snapshots and anchor
    the recency check).  Acked is a subset of decided. *)
type txn_audit = {
  mutable acked : txn_report list;  (** newest first *)
  decided_w : (string, (string * int * int) list) Hashtbl.t;
      (** txid -> committed write set *)
  mutable txn_violations : string list;
}

let txn_audit () =
  { acked = []; decided_w = Hashtbl.create 64; txn_violations = [] }

let txn_note a fmt =
  Fmt.kstr (fun s -> a.txn_violations <- s :: a.txn_violations) fmt

(** Record a decision learned at some replica.  Aborts are ignored;
    duplicate commit records (every participant fires the hook) must
    agree on the write set. *)
let txn_decided a ~txid ~commit ~writes =
  if commit then
    match Hashtbl.find_opt a.decided_w txid with
    | None -> Hashtbl.replace a.decided_w txid writes
    | Some prior ->
        if prior <> writes then
          txn_note a "txn %s decided with two write sets" txid

(** Record a client-acked commit. *)
let txn_committed a ~txid ~started ~now ~reads ~writes =
  a.acked <-
    {
      t_txid = txid;
      t_started = started;
      t_completed = now;
      t_reads = reads;
      t_writes = writes;
    }
    :: a.acked

(** Run the end-of-run transaction checks, appending to the violation
    log: acked ⊆ decided, per-key version uniqueness across decided
    commits, read validity (every read snapshot names a version some
    decided commit installed, with its value), recency (an acked
    commit is visible to every acked transaction that starts later),
    and acyclicity of the serialization graph (ww edges by version
    order, wr read-from edges, rw anti-dependency edges). *)
let txn_check a =
  let acked = List.rev a.acked in
  (* acked commits must have been decided, with the acked write set *)
  List.iter
    (fun r ->
      match Hashtbl.find_opt a.decided_w r.t_txid with
      | None -> txn_note a "acked txn %s was never decided" r.t_txid
      | Some w ->
          if w <> r.t_writes then
            txn_note a "acked txn %s: acked writes differ from decided"
              r.t_txid)
    acked;
  (* committed versions per key, each installed by exactly one txn *)
  let versions : (string, (int * int * string) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let decided =
    (* lint: order-insensitive *)
    Hashtbl.fold (fun txid w acc -> (txid, w) :: acc) a.decided_w []
    |> List.sort (fun (x, _) (y, _) -> String.compare x y)
  in
  List.iter
    (fun (txid, writes) ->
      List.iter
        (fun (k, vn, v) ->
          let r =
            match Hashtbl.find_opt versions k with
            | Some r -> r
            | None ->
                let r = ref [] in
                Hashtbl.replace versions k r;
                r
          in
          (match
             List.find_opt (fun (vn', _, _) -> vn' = vn) !r
           with
          | Some (_, _, other) ->
              txn_note a "duplicate version %d of %s (txns %s and %s)" vn k
                other txid
          | None -> ());
          r := (vn, v, txid) :: !r)
        writes)
    decided;
  let writer k vn =
    match Hashtbl.find_opt versions k with
    | None -> None
    | Some r -> List.find_opt (fun (vn', _, _) -> vn' = vn) !r
  in
  (* read validity + recency *)
  List.iter
    (fun r ->
      List.iter
        (fun (k, vn, v) ->
          (if vn = 0 then begin
             if v <> 0 then
               txn_note a "txn %s read unwritten %s as %d" r.t_txid k v
           end
           else
             match writer k vn with
             | None ->
                 txn_note a "txn %s read %s at unknown version %d" r.t_txid k
                   vn
             | Some (_, v', _) ->
                 if v' <> v then
                   txn_note a "corrupt txn read of %s: vn %d has %d, read %d"
                     k vn v' v);
          List.iter
            (fun w ->
              if w.t_completed <= r.t_started then
                List.iter
                  (fun (k', wvn, _) ->
                    if String.equal k' k && vn < wvn then
                      txn_note a
                        "stale txn read of %s: vn %d < committed vn %d" k vn
                        wvn)
                  w.t_writes)
            acked)
        r.t_reads)
    acked;
  (* serialization graph over decided commits (reads known only for
     acked ones): ww by version order, wr read-from, rw
     anti-dependency; a cycle breaks serializability *)
  let succs : (string, string list ref) Hashtbl.t = Hashtbl.create 64 in
  let nodes = List.map fst decided in
  List.iter (fun n -> Hashtbl.replace succs n (ref [])) nodes;
  let edge x y =
    if not (String.equal x y) then
      match Hashtbl.find_opt succs x with
      | Some r -> if not (List.exists (String.equal y) !r) then r := y :: !r
      | None -> ()
  in
  let keys =
    (* lint: order-insensitive *)
    Hashtbl.fold (fun k _ acc -> k :: acc) versions []
    |> List.sort String.compare
  in
  List.iter
    (fun k ->
      let chain =
        List.sort
          (fun (a', _, _) (b, _, _) -> Int.compare a' b)
          !(Hashtbl.find versions k)
      in
      let rec ww = function
        | (_, _, t1) :: ((_, _, t2) :: _ as rest) ->
            edge t1 t2;
            ww rest
        | _ -> ()
      in
      ww chain)
    keys;
  List.iter
    (fun r ->
      List.iter
        (fun (k, vn, _) ->
          (* wr: the version's writer happens before the reader *)
          (match writer k vn with
          | Some (_, _, w) -> edge w r.t_txid
          | None -> ());
          (* rw: the reader happens before every later writer *)
          match Hashtbl.find_opt versions k with
          | None -> ()
          | Some vr ->
              List.iter
                (fun (vn', _, w') -> if vn' > vn then edge r.t_txid w')
                !vr)
        r.t_reads)
    acked;
  (* DFS cycle detection, nodes in sorted order for determinism *)
  let color : (string, [ `Grey | `Black ]) Hashtbl.t = Hashtbl.create 64 in
  let cycle = ref None in
  let rec visit n =
    match Hashtbl.find_opt color n with
    | Some `Black -> ()
    | Some `Grey -> if !cycle = None then cycle := Some n
    | None ->
        Hashtbl.replace color n `Grey;
        (match Hashtbl.find_opt succs n with
        | Some r -> List.iter visit (List.sort String.compare !r)
        | None -> ());
        Hashtbl.replace color n `Black
  in
  List.iter visit nodes;
  match !cycle with
  | Some n -> txn_note a "serialization graph cycle through txn %s" n
  | None -> ()

let txn_violations a = a.txn_violations
let txn_acked_count a = List.length a.acked
let txn_decided_count a = Hashtbl.length a.decided_w

(* ---------- static quorum sanity ---------- *)

(** Does the configuration pass the static lint gate — legal
    read/write intersection and a minimization that preserves it?
    Swarm runs check this up front so a fuzzing campaign on a broken
    configuration fails fast with a structural message rather than a
    pile of stale reads. *)
let quorum_ok ~name (config : Quorum.Config.t) : (unit, string) result =
  let v = Lint.Quorum_check.check_config ~name config in
  if not v.Lint.Quorum_check.legal_rw then
    Error
      (Fmt.str "%s: read/write quorums do not all intersect (R=%d, W=%d)" name
         v.Lint.Quorum_check.n_read v.Lint.Quorum_check.n_write)
  else if not v.Lint.Quorum_check.minimize_preserves then
    Error (Fmt.str "%s: minimization does not preserve intersection" name)
  else Ok ()

(* ---------- liveness after heal ---------- *)

(** After a script that provably settles ({!Script.quiesces_at}), the
    cluster must make progress again: among operations completing
    after the quiesce time, at least one must succeed.  [completions]
    is the run's chronological [(finished_at, ok)] log.  Vacuously [Ok]
    when the script never settles or nothing completes afterwards
    (the workload may simply have finished first). *)
let liveness_after_heal ~script ~completions : (unit, string) result =
  match Script.quiesces_at script with
  | None -> Ok ()
  | Some t ->
      let after = List.filter (fun (at, _) -> at > t) completions in
      if after = [] then Ok ()
      else if List.exists (fun (_, ok) -> ok) after then Ok ()
      else
        Error
          (Fmt.str
             "no operation succeeded after the script healed at %.12g (%d \
              completions, all failed)"
             t (List.length after))
