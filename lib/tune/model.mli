(** Analytic load / latency / availability model over quorum systems,
    after "Read-Write Quorum Systems Made Practical" (PAPERS.md).
    Exhaustive over the [2^n] replica masks, like [Store.Strategy] —
    deliberately dependency-free so [store] can sit on top of [tune]. *)

type system = {
  name : string;
  n : int;  (** replica count; replica [i] is bit [i] *)
  read_ok : int -> bool;  (** does this mask contain a read quorum? *)
  write_ok : int -> bool;  (** does this mask contain a write quorum? *)
}

val popcount : int -> int
val full : int -> int

val legal : system -> bool
(** Every read quorum intersects every write quorum: no mask [r] with
    [read_ok r] may leave [write_ok] satisfiable on its complement. *)

val minimal_quorums : (int -> bool) -> int -> int list
(** [minimal_quorums ok n]: the masks satisfying [ok] with no proper
    subset satisfying it, in ascending mask order. *)

val minimal_read_quorums : system -> int list
val minimal_write_quorums : system -> int list

val smallest : int list -> int list
(** The masks of minimum cardinality — the ones [Store.Client]'s
    quorum targeting actually picks among. *)

val cross_legal : reads:int list -> writes:int list -> bool
(** Every mask in [reads] intersects every mask in [writes] — the
    cross-strategy intersection check behind safe re-strategizing. *)

val availability : system -> p:float -> float * float
(** [(read, write)] availability under independent per-replica alive
    probability [p]. *)

type score = {
  peak_load : float;
      (** max over replicas of expected touch probability per op *)
  read_latency : float;
  write_latency : float;
  op_latency : float;
      (** mix-weighted: [f * read + (1 - f) * (read + write)] *)
  read_availability : float;
  write_availability : float;
}

val score :
  system -> read_fraction:float -> p_alive:float -> lat:(int -> float) -> score
(** Score under read fraction [f], per-replica alive probability, and
    per-replica latency estimate [lat] (e.g. [Ewma.value]). *)

type config = {
  w_load : float;
  w_latency : float;
  min_read_availability : float;
  min_write_availability : float;
}

val default_config : config

val admissible : config -> score -> bool
(** Meets both availability floors. *)

val objective : config -> score -> float
(** [w_load * peak_load + w_latency * op_latency] — lower is better. *)

val choose :
  ?config:config ->
  read_fraction:float ->
  p_alive:float ->
  lat:(int -> float) ->
  system list ->
  (int * score) option
(** Index and score of the objective-minimal {e legal, admissible}
    system; earlier entries win ties, so listing majority first makes
    ties resolve conservatively.  [None] if nothing qualifies. *)

val pp_score : score Fmt.t
