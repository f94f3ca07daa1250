(** Workload-aware strategy optimization: candidate families over [n]
    replicas, lowered onto {!Tune.Model}'s analytic model.  Shared by
    the cluster's re-strategizing epoch, the REPL's [tune] command and
    the [tables.exe tune] ablation. *)

val candidates : int -> Strategy.t list
(** Majority (first, so ties resolve conservatively), the full unit-
    vote threshold sweep (read-[r]/write-[n+1-r], covering rowa and
    write-one), every [rows * cols = n] grid with both sides >= 2,
    the tree family at [n >= 4], and primary-copy.
    @raise Invalid_argument unless [n >= 1]. *)

type choice = { strategy : Strategy.t; score : Tune.Model.score }

val choose :
  ?config:Tune.Model.config ->
  read_fraction:float ->
  p_alive:float ->
  lat:(int -> float) ->
  int ->
  choice option
(** The objective-minimal legal, availability-admissible candidate
    over [n] replicas — [None] if nothing meets the floors.  Every
    candidate passes [Strategy.legal] before it can be returned. *)

val joint : Strategy.t -> Strategy.t -> Strategy.t
(** The transitional strategy for re-strategizing [a] -> [b]: quorums
    satisfy both predicates.  Reads still cover data at rest under
    [a]; writes already land on [b]'s quorums (DESIGN.md §16).
    @raise Invalid_argument if replica counts differ. *)
