let nbuckets = 64

(* [counts] covers buckets [0, Array.length counts) — at least every
   bucket used since the last [clear]; the rest of the 64 are implicitly
   zero.  Snapshots trim it to [used], so their length is a function of
   [max_v] alone. *)
type t = {
  mutable counts : int array;
  mutable n : int;
  mutable total : int;
  mutable max_v : int;
}

let create () = { counts = [||]; n = 0; total = 0; max_v = 0 }

let clear t =
  if t.n > 0 then begin
    for i = 0 to Array.length t.counts - 1 do
      Array.unsafe_set t.counts i 0
    done;
    t.n <- 0;
    t.total <- 0;
    t.max_v <- 0
  end

(* bucket 0: value 0; bucket i>0: values in [2^(i-1), 2^i) — the bit
   length of [v], read from a table for each byte. *)
let bits_table =
  String.init 256 (fun v ->
      let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
      Char.chr (bits 0 v))

let bucket_of v =
  if v <= 0 then 0
  else if v < 256 then Char.code (String.unsafe_get bits_table v)
  else
    let rec go acc v =
      if v < 256 then acc + Char.code (String.unsafe_get bits_table v)
      else go (acc + 8) (v lsr 8)
    in
    Int.min (nbuckets - 1) (go 0 v)

let used t = if t.n = 0 then 0 else bucket_of t.max_v + 1

let bounds i = if i = 0 then (0, 0) else (1 lsl (i - 1), (1 lsl i) - 1)

let add t v =
  let v = Int.max 0 v in
  let b = bucket_of v in
  if b >= Array.length t.counts then begin
    let counts = Array.make (b + 1) 0 in
    Array.blit t.counts 0 counts 0 (Array.length t.counts);
    t.counts <- counts
  end;
  Array.unsafe_set t.counts b (Array.unsafe_get t.counts b + 1);
  t.n <- t.n + 1;
  t.total <- t.total + v;
  if v > t.max_v then t.max_v <- v

let copy t =
  { counts = Array.sub t.counts 0 (used t); n = t.n; total = t.total; max_v = t.max_v }

let count t = t.n

let sum t = t.total

let max_value t = t.max_v

let mean t = if t.n = 0 then 0.0 else float_of_int t.total /. float_of_int t.n

let buckets t =
  let acc = ref [] in
  for i = used t - 1 downto 0 do
    if t.counts.(i) > 0 then begin
      let lo, hi = bounds i in
      acc := (lo, hi, t.counts.(i)) :: !acc
    end
  done;
  !acc

let merge a b =
  let at i h = if i < used h then h.counts.(i) else 0 in
  {
    counts = Array.init (Int.max (used a) (used b)) (fun i -> at i a + at i b);
    n = a.n + b.n;
    total = a.total + b.total;
    max_v = Int.max a.max_v b.max_v;
  }

let to_json t =
  Json.Obj
    [
      ("count", Json.Int t.n);
      ("sum", Json.Int t.total);
      ("mean", Json.Float (mean t));
      ("max", Json.Int t.max_v);
      ( "buckets",
        Json.List
          (List.map
             (fun (lo, hi, n) ->
               Json.Obj
                 [ ("lo", Json.Int lo); ("hi", Json.Int hi); ("n", Json.Int n) ])
             (buckets t)) );
    ]
