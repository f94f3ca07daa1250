(** Quorum strategies over [n] replicas as bitmask predicates — the
    practical-systems counterpart of {!Quorum.Config}, with exact
    analytic availability by enumeration. *)

type t = {
  name : string;
  n : int;
  read_ok : int -> bool;  (** mask of replicas contains a read quorum? *)
  write_ok : int -> bool;
  min_read : int;  (** size of the smallest read quorum *)
  min_write : int;
  tables : tables Lazy.t;
      (** minimal and smallest quorum lists, enumerated on first use *)
}

and tables

val popcount : int -> int
val full : int -> int

val system : t -> Tune.Model.system
(** The strategy as a {!Tune.Model} system (same predicates). *)

val make : name:string -> n:int -> read_ok:(int -> bool) -> write_ok:(int -> bool) -> t

val legal : t -> bool
(** No disjoint (read-quorum, write-quorum) pair, the empty read
    quorum included — {!Tune.Model.legal} on {!system}. *)

val rowa : int -> t
val majority : int -> t

val weighted : name:string -> votes:int array -> r:int -> w:int -> t
(** Gifford's weighted voting.
    @raise Invalid_argument unless [r + w] exceeds the total votes. *)

val grid : rows:int -> cols:int -> t
(** Read = one full row; write = one full row + one per row. *)

val tree : ?groups:int -> int -> t
(** Two-level hierarchical (Kumar) quorums: a majority of [groups]
    contiguous subtrees, each represented by a within-subtree
    majority; read = write.  Quorums of ~[n^0.63] vs. majority's
    [n/2 + 1] (e.g. 4 of 9).  [groups] defaults to 3.
    @raise Invalid_argument unless [1 <= groups <= n]. *)

val primary : int -> t
(** Non-replicated baseline (everything on replica 0). *)

val availability : t -> p:float -> float * float
(** [(read, write)] probability a live quorum exists when each replica
    is independently alive with probability [p] — exact enumeration. *)

val minimal_read_quorums : t -> int list
(** All minimal read quorums, as bitmasks in descending mask order
    (for targeted sends).  Computed once per strategy. *)

val minimal_write_quorums : t -> int list

val smallest_read_quorums : t -> int list
(** The minimal read quorums of least cardinality, in the order of
    {!minimal_read_quorums} — a targeted client picks among them by
    position.  Computed once per strategy. *)

val smallest_write_quorums : t -> int list

val mask_of_live : n:int -> (int -> bool) -> int
