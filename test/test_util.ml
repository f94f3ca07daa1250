(* Tests for the deterministic PRNG. *)

module Prng = Qc_util.Prng

let test_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_different_seeds () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let xs = List.init 20 (fun _ -> Prng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Prng.int b 1_000_000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_int_range () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Prng.int rng 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10)
  done

let test_range_inclusive () =
  let rng = Prng.create 8 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    let x = Prng.range rng 3 7 in
    Alcotest.(check bool) "in [3,7]" true (x >= 3 && x <= 7);
    seen.(x - 3) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_float_unit () =
  let rng = Prng.create 9 in
  for _ = 1 to 1000 do
    let x = Prng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_shuffle_permutation () =
  let rng = Prng.create 10 in
  let xs = List.init 50 Fun.id in
  let ys = Prng.shuffle rng xs in
  Alcotest.(check (list int)) "same multiset" xs (List.sort compare ys)

let test_choose_member () =
  let rng = Prng.create 11 in
  for _ = 1 to 100 do
    let x = Prng.choose rng [ 1; 2; 3 ] in
    Alcotest.(check bool) "member" true (List.mem x [ 1; 2; 3 ])
  done

let test_choose_empty () =
  Alcotest.(check (option int)) "empty" None
    (Prng.choose_opt (Prng.create 1) [])

let test_exponential_mean () =
  let rng = Prng.create 12 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Prng.exponential rng ~mean:5.0
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool)
    (Fmt.str "mean %.3f close to 5.0" mean)
    true
    (abs_float (mean -. 5.0) < 0.2)

let test_subset_probability () =
  let rng = Prng.create 13 in
  let xs = List.init 100 Fun.id in
  let total = ref 0 in
  for _ = 1 to 200 do
    total := !total + List.length (Prng.subset rng xs ~p:0.3)
  done;
  let mean = float_of_int !total /. 200.0 in
  Alcotest.(check bool)
    (Fmt.str "mean subset size %.1f close to 30" mean)
    true
    (abs_float (mean -. 30.0) < 3.0)

let test_split_independent () =
  let parent = Prng.create 99 in
  let c1 = Prng.split parent in
  let c2 = Prng.split parent in
  let xs = List.init 10 (fun _ -> Prng.int c1 1_000_000) in
  let ys = List.init 10 (fun _ -> Prng.int c2 1_000_000) in
  Alcotest.(check bool) "children differ" true (xs <> ys)

(* ---------- golden streams ----------

   The first eight outputs of every draw function, for a spread of
   seeds, pinned from the boxed-[Int64] generator this module started
   with.  Every seeded run in the repository replays these streams, so
   a change to the generator's representation must leave them exactly
   as they are.  Floats are compared by their hex image. *)

let streams : (string * (Prng.t -> string)) list =
  let eight f t = String.concat " " (List.init 8 (fun _ -> f t)) in
  let fl x = Printf.sprintf "%h" x in
  let bits t = string_of_int (Prng.bits t) in
  [
    ("bits", eight bits);
    ("int", eight (fun t -> string_of_int (Prng.int t 1000)));
    ("float", eight (fun t -> fl (Prng.float t)));
    ("bool", eight (fun t -> if Prng.bool t then "1" else "0"));
    ("exponential", eight (fun t -> fl (Prng.exponential t ~mean:5.0)));
    ("lognormal", eight (fun t -> fl (Prng.lognormal t ~mu:0.0 ~sigma:1.0)));
    ("split", fun t -> eight bits (Prng.split t));
    ( "copy",
      fun t ->
        for _ = 1 to 3 do
          ignore (Prng.bits t)
        done;
        eight bits (Prng.copy t) );
  ]

let golden =
  [
    (0, "bits",
     "4073552104164651883 1990071630548588925 121904254867886419 4477402844195135611 490437550606523686 1509523650315790522 801824006500076728 3558130466400086735");
    (0, "int",
     "883 925 419 611 686 522 728 735");
    (0, "float",
     "0x1.c4415072f63b9p-1 0x1.b9e279aa86e58p-2 0x1.b1174620025p-6 0x1.f1177150e499p-1 0x1.b39896a51a87p-4 0x1.4f2e7c31d1fa8p-2 0x1.6414d5f0fa298p-3 0x1.8b082675922d5p-1");
    (0, "bool",
     "1 0 1 0 1 0 1 0");
    (0, "exponential",
     "0x1.57b7f750f28adp+3 0x1.69795bce7f0d7p+1 0x1.1252def4e24bap-3 0x1.1ae96e49f6eabp+4 0x1.1fd6f5a305bd4p-1 0x1.fb8330ffff23ap+0 0x1.e8f61ec81027fp-1 0x1.d8748f0e223e9p+2");
    (0, "lognormal",
     "0x1.374919b242828p-3 0x1.416e8a38bd01p+0 0x1.9a4c9aeb861b6p-1 0x1.164569ea5b83fp+0 0x1.06338efeb2cf5p+1 0x1.1275123366388p+0 0x1.458f9c7fce97dp-2 0x1.aecb041a09b6ap-3");
    (0, "split",
     "2080277311359033222 555142214903429907 1683367032077260517 4054116346033167056 3183165483393332590 2608606328893792347 1330135920796656615 4355053920949562244");
    (0, "copy",
     "4477402844195135611 490437550606523686 1509523650315790522 801824006500076728 3558130466400086735 1133040290248155824 4390466628494765097 1828385819961610050");
    (1, "bits",
     "2612804094800205616 3439311302766607129 4477959822570722647 2049245188455445058 2048809309281742190 3518229400716132512 4046056672035966761 2412221600017015133");
    (1, "int",
     "616 129 647 58 190 512 761 133");
    (1, "float",
     "0x1.22145bd91204bp-1 0x1.7dd71b42cb1ddp-1 0x1.f12745ddf664ap-1 0x1.c7061a43b90b2p-2 0x1.c6ed53634406cp-2 0x1.869a17ff202ap-1 0x1.c133d8d9ae6c7p-1 0x1.0bcf761e244fp-1");
    (1, "bool",
     "1 1 0 1 1 0 1 1");
    (1, "exponential",
     "0x1.0b8592cae461p+2 0x1.b642882d6d9b2p+2 0x1.1b3e8de0b0958p+4 0x1.7815d5a379349p+1 0x1.77f9f79a7b998p+1 0x1.cc8f547887403p+2 0x1.4fbedd8e7981ap+3 0x1.d9d7ccb30ecf7p+1");
    (1, "lognormal",
     "0x1.eec0990054da4p-1 0x1.50328ce6fb426p-4 0x1.1778acc5f3351p+0 0x1.0dbf354d6d16cp-3 0x1.4035ad7f8eb4fp+0 0x1.cb015446ebad4p-2 0x1.5b06ec22eea89p-2 0x1.b43550f38fa88p+0");
    (1, "split",
     "3658791672822701942 2274408986450076736 701963219902530177 4343633548517424207 3099452628224062380 350261235686901744 4515147101990588007 3157662457392393860");
    (1, "copy",
     "2049245188455445058 2048809309281742190 3518229400716132512 4046056672035966761 2412221600017015133 1316676407973089130 3661663045011659237 1863776790465844184");
    (42, "bits",
     "3419864383188818853 737456523031723072 1284820937115690964 1587299515064563941 175383196535490812 4003995281415747265 1007216178194406231 3692262831746943977");
    (42, "int",
     "853 72 964 941 812 265 231 977");
    (42, "float",
     "0x1.7bae644c5fd6dp-1 0x1.477f199d93378p-3 0x1.1d499d5c4c3e6p-2 0x1.607387fc392b8p-2 0x1.378b0b448904p-5 0x1.bc8863f47901bp-1 0x1.bf4b38e229bb4p-3 0x1.99ec6bdd3d3c5p-1");
    (42, "bool",
     "1 1 0 0 0 0 1 0");
    (42, "exponential",
     "0x1.b0fed1f9294abp+2 0x1.be12543309a76p-1 0x1.a200306cb2dccp+0 0x1.0e01ae481d79ap+1 0x1.8d06f79c59a8cp-3 0x1.4444ec6cc286fp+3 0x1.3b6a851ee4dc4p+0 0x1.020430aa77b74p+3");
    (42, "lognormal",
     "0x1.354a39d538638p+1 0x1.463032e027907p-1 0x1.350eefb6907aap+0 0x1.3edd1d37bff0ap+0 0x1.05e5c1c3bc16dp-1 0x1.044a419b59046p-1 0x1.3747d48359a55p-2 0x1.883870ae375c6p+0");
    (42, "split",
     "2375575238713981129 1473256190665000421 2776698556123050783 2864268760530246142 1661763825855416884 4360355305507614381 1951720093411556571 2926548912770554987");
    (42, "copy",
     "1587299515064563941 175383196535490812 4003995281415747265 1007216178194406231 3692262831746943977 1567655219403120501 2852245098062667243 944942912856573551");
    (-1, "bits",
     "4122584066742110984 4208611764272472242 1012181899581104250 1965659451078369460 3253870296865708651 3803126536585752268 4347041532499595241 1159510938607919129");
    (-1, "int",
     "984 242 250 460 651 268 241 129");
    (-1, "float",
     "0x1.c9b2e2ee36ca5p-1 0x1.d33ff0cfb7edp-1 0x1.c17fc2659394p-3 0x1.b476cdb32ea6p-2 0x1.69408e5caf00dp-1 0x1.a63b5b7b48717p-1 0x1.e29e59f004107p-1 0x1.017690e28e7ap-2");
    (-1, "bool",
     "0 1 1 0 0 1 1 0");
    (-1, "exponential",
     "0x1.670123f18d9a4p+3 0x1.85f4dbe32c06ep+3 0x1.3d2e430121c6fp+0 0x1.638ac22c64ab7p+1 0x1.8744e93a5f1d8p+2 0x1.16933b9e6a9ap+3 0x1.c94619b7de3d8p+3 0x1.72ac8894c0bd6p+0");
    (-1, "lognormal",
     "0x1.85db4b5285176p+2 0x1.10c3c0ddd5e75p-1 0x1.0396b83f40923p+1 0x1.f520ae3457968p-1 0x1.6137701ac8276p+2 0x1.0fa0f206355f3p+0 0x1.14ea8881281f6p+0 0x1.782fc6166dfb2p-1");
    (-1, "split",
     "4430386461256409626 4417613346376340383 1201678251380242286 1603278528802826748 328850848755975623 794398971146830389 2353353954547771091 2329571356060087537");
    (-1, "copy",
     "1965659451078369460 3253870296865708651 3803126536585752268 4347041532499595241 1159510938607919129 3548741682169873185 56176521335757703 66583286832198597");
    (max_int, "bits",
     "1222659272267685417 289363092483287935 4450840035883500872 1994192896764794629 3338615807169584594 4043764262231182253 3403149743902125343 142892567260912733");
    (max_int, "int",
     "417 935 872 629 594 253 343 733");
    (max_int, "float",
     "0x1.0f7c22154da5ep-2 0x1.01018cc4a4ca8p-4 0x1.ee247b72d7622p-1 0x1.baccbdfb945d6p-2 0x1.72a92b1a5ec6ep-1 0x1.c0f2b15fadac5p-1 0x1.79d3554a95fb6p-1 0x1.fba80868a15cp-6");
    (max_int, "bool",
     "0 1 1 0 0 1 0 1");
    (max_int, "exponential",
     "0x1.8a4e10b2fec2ep+0 0x1.4bc760107cd23p-2 0x1.0c78dcf9e1b87p+4 0x1.6a7b1f8f95826p+1 0x1.9be450a53c7f9p+2 0x1.4f19323fedb28p+3 0x1.ac89eb508a4bbp+2 0x1.424e01f819d1p-3");
    (max_int, "lognormal",
     "0x1.0835607e2d52p+1 0x1.827d5fb2cd3dfp-4 0x1.934d218c74ef5p+1 0x1.3ecab2f3ea601p+2 0x1.10954d049327ap+0 0x1.be746055ae219p-1 0x1.f389b942bee9fp-2 0x1.43fb99be061bp-1");
    (max_int, "split",
     "2237657189737997098 1886282896853899544 2478342112489031927 193556063749004357 3335487662330829625 1238780838715540316 3185514213600166424 3081376353993142498");
    (max_int, "copy",
     "1994192896764794629 3338615807169584594 4043764262231182253 3403149743902125343 142892567260912733 562189076470696132 1062343583431167048 1781949443114955361");
  ]

let test_golden_streams () =
  List.iter
    (fun (seed, kind, expected) ->
      Alcotest.(check string)
        (Fmt.str "seed %d %s" seed kind)
        expected
        ((List.assoc kind streams) (Prng.create seed)))
    golden

(* ---------- differential oracle ----------

   The original generator, verbatim: splitmix64 over a boxed [int64]
   state.  A random program of draws must produce the same outputs on
   both, from any seed. *)

module Boxed = struct
  type t = { mutable state : int64 }

  let create seed = { state = Int64.of_int seed }

  let copy t = { state = t.state }

  (* One splitmix64 step: advance by the golden-gamma constant and mix. *)
  let next_int64 t =
    let open Int64 in
    t.state <- add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  (** [bits t] returns 62 uniformly random non-negative bits. *)
  let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

  (** [int t n] is uniform on [0, n). Requires [n > 0]. *)
  let int t n =
    assert (n > 0);
    bits t mod n

  (** [float t] is uniform on [0, 1). *)
  let float t =
    let mantissa = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
    float_of_int mantissa /. 9007199254740992.0 (* 2^53 *)

  (** [bool t] is a fair coin flip. *)
  let bool t = Int64.logand (next_int64 t) 1L = 1L

  (** [range t lo hi] is uniform on the inclusive range [lo, hi]. *)
  let range t lo hi =
    assert (lo <= hi);
    lo + int t (hi - lo + 1)

  (** [choose t xs] picks a uniform element of the non-empty list [xs]. *)
  let choose t xs =
    match xs with
    | [] -> invalid_arg "Prng.choose: empty list"
    | _ -> List.nth xs (int t (List.length xs))

  (** [choose_opt t xs] is [None] on the empty list, otherwise a uniform pick. *)
  let choose_opt t xs = match xs with [] -> None | _ -> Some (choose t xs)

  (** [shuffle t xs] is a uniform permutation of [xs] (Fisher-Yates). *)
  let shuffle t xs =
    let a = Array.of_list xs in
    let n = Array.length a in
    for i = n - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    Array.to_list a

  (** [exponential t ~mean] draws from an exponential distribution. *)
  let exponential t ~mean =
    let u = 1.0 -. float t in
    -.mean *. log u

  (** [lognormal t ~mu ~sigma] draws from a log-normal distribution,
      using a Box-Muller normal variate underneath. *)
  let lognormal t ~mu ~sigma =
    let u1 = 1.0 -. float t and u2 = float t in
    let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
    exp (mu +. (sigma *. z))

  (** [split t] derives an independent child generator; the parent
      advances so successive splits are independent of each other. *)
  let split t =
    let child_seed = bits t in
    create child_seed

  (** [subset t xs ~p] keeps each element of [xs] independently with
      probability [p]. *)
  let subset t xs ~p = List.filter (fun _ -> float t < p) xs
end

type draw =
  | Bits
  | Int of int
  | Float
  | Bool
  | Range of int * int
  | Choose of int
  | Shuffle of int
  | Exponential
  | Lognormal
  | Split
  | Copy
  | Subset of int

let draw_gen =
  QCheck.Gen.(
    oneof
      [
        return Bits;
        map (fun n -> Int n) (oneof [ int_range 1 10; int_range 1 max_int ]);
        return Float;
        return Bool;
        map2 (fun lo d -> Range (lo, lo + d)) (int_range (-50) 50) (int_range 0 100);
        map (fun n -> Choose n) (int_range 1 9);
        map (fun n -> Shuffle n) (int_range 0 9);
        return Exponential;
        return Lognormal;
        return Split;
        return Copy;
        map (fun n -> Subset n) (int_range 0 9);
      ])

(* Run [draws] against one generator; a [Split] or [Copy] continues on
   the derived generator, so their streams are compared too. *)
let replay ~create ~bits ~int ~float ~bool ~range ~choose ~shuffle
    ~exponential ~lognormal ~split ~copy ~subset seed draws =
  let rng = ref (create seed) in
  let ints l = String.concat "," (List.map string_of_int l) in
  List.map
    (fun d ->
      let t = !rng in
      match d with
      | Bits -> string_of_int (bits t)
      | Int n -> string_of_int (int t n)
      | Float -> Printf.sprintf "%h" (float t)
      | Bool -> string_of_bool (bool t)
      | Range (lo, hi) -> string_of_int (range t lo hi)
      | Choose n -> string_of_int (choose t (List.init n Fun.id))
      | Shuffle n -> ints (shuffle t (List.init n Fun.id))
      | Exponential -> Printf.sprintf "%h" (exponential t ~mean:3.0)
      | Lognormal -> Printf.sprintf "%h" (lognormal t ~mu:1.0 ~sigma:0.5)
      | Split ->
          rng := split t;
          "split"
      | Copy ->
          rng := copy t;
          string_of_int (bits t)
      | Subset n -> ints (subset t (List.init n Fun.id) ~p:0.4))
    draws

let prop_matches_boxed =
  QCheck.Test.make ~count:300 ~name:"matches the boxed Int64 generator"
    QCheck.(
      pair
        (make
           ~print:string_of_int
           Gen.(oneof [ int; oneofl [ 0; 1; -1; max_int; min_int ] ]))
        (make
           ~print:(fun l -> string_of_int (List.length l) ^ " draws")
           Gen.(list_size (int_range 0 60) draw_gen)))
    (fun (seed, draws) ->
      replay ~create:Prng.create ~bits:Prng.bits ~int:Prng.int
        ~float:Prng.float ~bool:Prng.bool ~range:Prng.range
        ~choose:Prng.choose ~shuffle:Prng.shuffle
        ~exponential:Prng.exponential ~lognormal:Prng.lognormal
        ~split:Prng.split ~copy:Prng.copy ~subset:Prng.subset seed draws
      = replay ~create:Boxed.create ~bits:Boxed.bits ~int:Boxed.int
          ~float:Boxed.float ~bool:Boxed.bool ~range:Boxed.range
          ~choose:Boxed.choose ~shuffle:Boxed.shuffle
          ~exponential:Boxed.exponential ~lognormal:Boxed.lognormal
          ~split:Boxed.split ~copy:Boxed.copy ~subset:Boxed.subset seed draws)

(* The state is unboxed, so integer draws allocate nothing (the boxed
   generator allocated on every one). *)
let test_int_draws_allocate_nothing () =
  let rng = Prng.create 5 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc lxor Prng.bits rng lxor Prng.int rng 97;
    if Prng.bool rng then incr acc
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !acc);
  Alcotest.(check bool)
    (Fmt.str "%.0f words for 30000 draws" words)
    true (words < 64.0)

let suites =
  [
    ( "util.prng",
      [
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "different seeds" `Quick test_different_seeds;
        Alcotest.test_case "int range" `Quick test_int_range;
        Alcotest.test_case "range inclusive" `Quick test_range_inclusive;
        Alcotest.test_case "float unit interval" `Quick test_float_unit;
        Alcotest.test_case "shuffle is a permutation" `Quick
          test_shuffle_permutation;
        Alcotest.test_case "choose picks members" `Quick test_choose_member;
        Alcotest.test_case "choose_opt empty" `Quick test_choose_empty;
        Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
        Alcotest.test_case "subset probability" `Quick test_subset_probability;
        Alcotest.test_case "split independence" `Quick test_split_independent;
        Alcotest.test_case "golden streams" `Quick test_golden_streams;
        Alcotest.test_case "int draws allocate nothing" `Quick
          test_int_draws_allocate_nothing;
        QCheck_alcotest.to_alcotest
          ~rand:(Random.State.make [| 0x5eed |])
          prop_matches_boxed;
      ] );
  ]
