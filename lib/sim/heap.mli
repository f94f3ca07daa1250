(** A binary min-heap over (time, sequence-number) keys — the event
    queue of the discrete-event simulator.  Keys are ordered by
    [Float.compare] on time, then by sequence number, so equal times
    pop FIFO in sequence order and runs stay deterministic.  Times,
    sequence numbers and payloads live in three parallel arrays, and
    [push] and [pop_min] allocate nothing (apart from growing the
    arrays). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> float -> int -> 'a -> unit

val min_time : 'a t -> float
(** The smallest key's time.  Raises [Invalid_argument] when empty. *)

val min_seq : 'a t -> int
(** The smallest key's sequence number.  Raises [Invalid_argument]
    when empty. *)

val pop_min : 'a t -> 'a
(** Remove the smallest key and return its payload.  Raises
    [Invalid_argument] when empty. *)
