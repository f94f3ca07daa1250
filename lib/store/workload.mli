(** Workload generation: Zipf keys, read/write mix, closed-loop
    clients.  Single designated writer per key (see the module
    implementation notes). *)

type zipf

val zipf : n:int -> s:float -> zipf
(** Zipf(s) over [n] ranks ([s = 0] is uniform). *)

val sample : zipf -> Qc_util.Prng.t -> int

type spec = {
  n_keys : int;
  zipf_s : float;
  read_fraction : float;
  think_time : float;
  ops_per_client : int;
  burst : int;
      (** concurrent operations per think interval (default 1 = the
          historical strictly-closed loop); bursts give the engine
          several keys in flight to batch *)
}

val default_spec : spec

type op = Read of string | Write of string * int

val key_name : int -> string

val key_names : spec -> string array
(** A run's key-name table for {!next_op} and {!name_in}: one slot per
    key, filled with [key_name i] on first use. *)

val name_in : string array -> int -> string
(** [name_in names i] is [key_name i], taken from (and memoised in)
    the table [names] when [i] lies inside it. *)

val next_op :
  spec ->
  zipf ->
  Qc_util.Prng.t ->
  names:string array ->
  ci:int ->
  n_clients:int ->
  op_counter:int ->
  op
(** The next operation for client [ci]: reads anywhere, writes only to
    keys the client owns (key index mod n_clients = ci).  [names] is
    {!key_names} of the spec. *)
