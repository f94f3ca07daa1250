(** The discrete-event simulation core: a virtual clock and an event
    queue of callbacks.  Deterministic given the seed. *)

type t

val create : seed:int -> t
(** Starts with a disabled tracer: every emission is a no-op until
    {!attach_tracer}. *)

val now : t -> float
val rng : t -> Qc_util.Prng.t
val executed_events : t -> int

val tracer : t -> Obs.Trace.t
(** The simulator's trace sink, shared by every layer built on it. *)

val attach_tracer : t -> Obs.Trace.t -> unit
(** Install a trace sink and wire its clock to the virtual time. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run the callback at [now + delay] (clamped to now).
    Raises [Invalid_argument] on a NaN delay. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Process events until the queue empties or virtual time passes
    [until]. *)
