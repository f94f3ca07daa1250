(** A binary min-heap, the event queue of the discrete-event
    simulator.  Keys are (time, sequence-number) pairs; the sequence
    number breaks ties FIFO so simultaneous events run in scheduling
    order, keeping runs deterministic.

    The heap is a struct of arrays: times in a flat [float array],
    sequence numbers in an [int array] and payloads in their own
    array, all indexed alike.  Push, compare and pop read and write
    the arrays in place, so none of them allocates (growth aside). *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
}

let create () = { times = [||]; seqs = [||]; vals = [||]; size = 0 }

let length h = h.size
let is_empty h = h.size = 0

(* Key order: [Float.compare] on time, then seq.  For non-NaN times
   this is the order of polymorphic [compare] on [(time, seq)].
   Inlined, so the floats it compares are never boxed. *)
let[@inline] before t1 s1 t2 s2 =
  let c = Float.compare t1 t2 in
  c < 0 || (c = 0 && s1 < s2)

(* Double the capacity (16 at first); [v] fills the new payload slots,
   which are written before they are read. *)
let grow h v =
  let cap = Array.length h.times in
  let ncap = max 16 (2 * cap) in
  let times = Array.make ncap 0.0 and seqs = Array.make ncap 0 in
  let vals = Array.make ncap v in
  Array.blit h.times 0 times 0 h.size;
  Array.blit h.seqs 0 seqs 0 h.size;
  Array.blit h.vals 0 vals 0 h.size;
  h.times <- times;
  h.seqs <- seqs;
  h.vals <- vals

let push h time seq v =
  if h.size = Array.length h.times then grow h v;
  (* sift up: move parents down into the hole until [time, seq] fits *)
  let i = ref h.size in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if before time seq h.times.(p) h.seqs.(p) then begin
      h.times.(!i) <- h.times.(p);
      h.seqs.(!i) <- h.seqs.(p);
      h.vals.(!i) <- h.vals.(p);
      i := p
    end
    else continue := false
  done;
  h.times.(!i) <- time;
  h.seqs.(!i) <- seq;
  h.vals.(!i) <- v;
  h.size <- h.size + 1

let check_nonempty h fn =
  if h.size = 0 then invalid_arg ("Sim.Heap." ^ fn ^ ": empty heap")

let min_time h =
  check_nonempty h "min_time";
  h.times.(0)

let min_seq h =
  check_nonempty h "min_seq";
  h.seqs.(0)

let pop_min h =
  check_nonempty h "pop_min";
  let top = h.vals.(0) in
  let n = h.size - 1 in
  h.size <- n;
  (* sift down: re-insert the last element from the root's hole *)
  let time = h.times.(n) and seq = h.seqs.(n) and v = h.vals.(n) in
  let i = ref 0 in
  let continue = ref (n > 0) in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < n && before h.times.(r) h.seqs.(r) h.times.(l) h.seqs.(l)
        then r
        else l
      in
      if before h.times.(c) h.seqs.(c) time seq then begin
        h.times.(!i) <- h.times.(c);
        h.seqs.(!i) <- h.seqs.(c);
        h.vals.(!i) <- h.vals.(c);
        i := c
      end
      else continue := false
    end
  done;
  h.times.(!i) <- time;
  h.seqs.(!i) <- seq;
  h.vals.(!i) <- v;
  top
