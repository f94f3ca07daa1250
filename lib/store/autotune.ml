(** Workload-aware strategy optimization: the candidate families, the
    lowering of {!Strategy} onto {!Tune.Model}'s analytic
    load/latency/availability model, and the per-shard chooser shared
    by the cluster's re-strategizing epoch, the REPL's [tune] command,
    and the [tables.exe tune] ablation. *)

(** The search space over [n] replicas.  Majority comes first so that
    objective ties resolve to the conservative baseline; the threshold
    sweep covers every read-[r]/write-[w] split of unit votes with
    [r + w = n + 1] (including read-one/write-all at [r = 1] and its
    mirror at [w = 1]); grids cover every [rows * cols = n]
    factorization with both sides >= 2; the tree family joins at
    [n >= 4]; primary-copy rides along as a legality/availability
    exercise for the gates. *)
let candidates n =
  if n < 1 then invalid_arg "Autotune.candidates: n must be >= 1";
  let maj = (n / 2) + 1 in
  let thresholds =
    List.filter_map
      (fun r ->
        let w = n + 1 - r in
        if r = maj && w = maj then None (* duplicate of majority *)
        else
          Some
            (Strategy.weighted
               ~name:(Fmt.str "read-%d/write-%d" r w)
               ~votes:(Array.make n 1) ~r ~w))
      (List.init n (fun i -> i + 1))
  in
  let grids =
    List.concat_map
      (fun rows ->
        if rows >= 2 && n mod rows = 0 && n / rows >= 2 then
          [ Strategy.grid ~rows ~cols:(n / rows) ]
        else [])
      (List.init n (fun i -> i + 1))
  in
  let trees = if n >= 4 then [ Strategy.tree ~groups:3 n ] else [] in
  (Strategy.majority n :: thresholds) @ grids @ trees @ [ Strategy.primary n ]

type choice = { strategy : Strategy.t; score : Tune.Model.score }

let choose ?config ~read_fraction ~p_alive ~lat n =
  (* every candidate is gated through Strategy.legal before it can be
     adopted — defense in depth on top of the model's own check *)
  let cands = List.filter Strategy.legal (candidates n) in
  match
    Tune.Model.choose ?config ~read_fraction ~p_alive ~lat
      (List.map Strategy.system cands)
  with
  | None -> None
  | Some (idx, score) -> Some { strategy = List.nth cands idx; score }

(** The transitional strategy for re-strategizing [a] -> [b]: quorums
    must satisfy {e both} predicates, so joint reads see data at rest
    under [a]'s write quorums while joint writes already land on [b]'s
    — the two-phase fence that makes a switch safe without assuming
    the old and new quorum systems intersect each other (DESIGN.md
    §16). *)
let joint (a : Strategy.t) (b : Strategy.t) =
  if a.Strategy.n <> b.Strategy.n then
    invalid_arg "Autotune.joint: replica counts differ";
  Strategy.make
    ~name:(Fmt.str "%s+%s" a.Strategy.name b.Strategy.name)
    ~n:a.Strategy.n
    ~read_ok:(fun m -> a.Strategy.read_ok m && b.Strategy.read_ok m)
    ~write_ok:(fun m -> a.Strategy.write_ok m && b.Strategy.write_ok m)
