(** Workload generation: Zipf-distributed keys, a read/write mix, and
    closed-loop clients with think time.

    Each key has a single designated writing client (readers are
    unrestricted).  Single-writer-per-key keeps version numbers
    strictly increasing without a distributed concurrency-control
    layer — CC is the business of {!Cc} and of the formal systems;
    the store isolates the replication behaviour the way Gifford's
    original evaluation did. *)

module Prng = Qc_util.Prng

type zipf = { cdf : float array }

(** Zipf(s) over [n] ranks, by inverse-CDF sampling. *)
let zipf ~n ~s =
  let weights = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  { cdf }

(* Binary search for the first index in [lo, hi] with cdf >= u. *)
let rec first_at_least (cdf : float array) (u : float) lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if cdf.(mid) >= u then first_at_least cdf u lo mid
    else first_at_least cdf u (mid + 1) hi

let sample z rng =
  first_at_least z.cdf (Prng.float rng) 0 (Array.length z.cdf - 1)

type spec = {
  n_keys : int;
  zipf_s : float;  (** 0.0 = uniform *)
  read_fraction : float;
  think_time : float;  (** mean think time between a client's ops *)
  ops_per_client : int;
  burst : int;
      (** operations a client issues concurrently per think interval
          (waiting for the whole burst before thinking again); 1 — the
          default, and the historical behaviour — is strictly one
          operation in flight.  Bursts are what give the engine
          several distinct keys in flight to batch. *)
}

let default_spec =
  {
    n_keys = 16;
    zipf_s = 0.9;
    read_fraction = 0.9;
    think_time = 5.0;
    ops_per_client = 200;
    burst = 1;
  }

type op = Read of string | Write of string * int

let key_name i = "k" ^ string_of_int i

(** The run's key-name table: slot [i] holds [key_name i] once key [i]
    has been drawn ([""] before).  One table per run means drawing an
    operation allocates no string after a key's first use. *)
let key_names spec = Array.make (max 0 spec.n_keys) ""

(* Key [k]'s name from the table, filled on first use.  A write falls
   back to key [ci], which lies past the table when there are more
   clients than keys. *)
let name_in names k =
  if k >= Array.length names then key_name k
  else begin
    if String.length names.(k) = 0 then names.(k) <- key_name k;
    names.(k)
  end

let next_op spec z rng ~names ~ci ~n_clients ~op_counter : op =
  if Prng.float rng < spec.read_fraction then Read (name_in names (sample z rng))
  else
    (* project the sampled key onto this client's ownership class *)
    let k = sample z rng in
    let k = k - (k mod n_clients) + ci in
    let k = if k < spec.n_keys then k else ci in
    Write (name_in names k, (op_counter * 1000) + ci)
