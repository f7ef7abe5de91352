(* The splitmix64 state lives unboxed in 8 bytes: a mutable [int64]
   field would box a fresh [Int64] on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] state t = Bytes.get_int64_ne t 0
let[@inline] set_state t z = Bytes.set_int64_ne t 0 z

(* The state advances by the odd [golden_gamma] on every draw, so its
   low 63 bits repeat only after 2^63 draws. *)
let[@inline] position t = Int64.to_int (state t)

let[@inline] next t =
  let z = Int64.add (state t) golden_gamma in
  set_state t z;
  mix z

let seed_state seed = mix (Int64.of_int ((seed * 2) + 1))

let make seed =
  let t = Bytes.create 8 in
  set_state t (seed_state seed);
  t

let reseed t seed = set_state t (seed_state seed)

let split t =
  let c = Bytes.create 8 in
  set_state c (mix (next t));
  c

let split_into parent child = set_state child (mix (next parent))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's immediate int non-negatively. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next t) 1L = 1L

let chance t p =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  v /. 9007199254740992.0 < p

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let shuffle t l =
  let arr = Array.of_list l in
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr
