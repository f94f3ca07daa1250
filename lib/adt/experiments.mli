(** E13: General Quorum Consensus for ADTs vs. read-write quorum
    replication — blind-mutator latency and the lost-update effect. *)

type row = {
  scheme : string;
  mutation_mean : float;
  mutation_p90 : float;
  observe_mean : float;
  final_total : int;
  expected_total : int;
  rounds_per_mutation : float;
}

val counter_comparison : unit -> row list
(** Sequential increments: event-log (1 round) vs read-write
    (read + query + install). *)

type race_row = { scheme : string; issued : int; final : int; lost : int }

val race_comparison : unit -> race_row list
(** Two racing incrementers: union-merged increments commute (0 lost)
    while read-modify-write over the plain store loses interleaved
    updates. *)
