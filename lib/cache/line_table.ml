(* Open addressing with linear probing and an identity hash: [slot] of a
   location starts at [loc land mask].  A slot is free iff it holds
   [dummy] (compared physically), so no key value is reserved.  Removal
   shifts the rest of the probe run back (no tombstones), so a lookup
   stops at the first free slot.

   A record is resident iff its slot's epoch is the table's: [reset]
   just starts a new epoch, leaving last run's records parked in their
   slots, and a location that comes back is revived in the slot it
   already occupies ([reuse]) — a steady stream of runs over the same
   locations moves no record at all.  Parked records that crowd the
   table are swept into the pool at a reset ([sweep_limit]).

   [stamps] and [hb] exist only to reproduce [Hashtbl]'s iteration
   order (see the mli): every insertion takes the next stamp, and [hb]
   follows the bucket count a [Hashtbl.create 64] would have reached. *)

type 'a t = {
  dummy : 'a;
  mutable keys : int array;
  mutable vals : 'a array;
  mutable stamps : int array;
  mutable epochs : int array;
  mutable mask : int;
  mutable epoch : int;
  mutable count : int;  (* resident records *)
  mutable occupied : int;  (* resident and parked records *)
  mutable next_stamp : int;
  mutable hb : int;
  (* records out of the table: [pool.(0 .. pooled-1)] are free for
     reuse; [retired] holds records removed during this run, which may
     still be referenced and become reusable only at [reset] *)
  mutable pool : 'a array;
  mutable pooled : int;
  mutable retired : 'a array;
  mutable nretired : int;
  (* [iter_hashtbl_order] scratch *)
  mutable order : int array;
  mutable order_keys : int array;
}

let hashtbl_initial_buckets = 64

let initial_slots = 8

let create ~dummy () =
  {
    dummy;
    keys = Array.make initial_slots 0;
    vals = Array.make initial_slots dummy;
    stamps = Array.make initial_slots 0;
    epochs = Array.make initial_slots 0;
    mask = initial_slots - 1;
    epoch = 1;
    count = 0;
    occupied = 0;
    next_stamp = 0;
    hb = hashtbl_initial_buckets;
    pool = [||];
    pooled = 0;
    retired = [||];
    nretired = 0;
    order = [||];
    order_keys = [||];
  }

let dummy t = t.dummy
let length t = t.count

let rec probe t loc i =
  let v = Array.unsafe_get t.vals i in
  if v == t.dummy || Array.unsafe_get t.keys i = loc then i
  else probe t loc ((i + 1) land t.mask)

let find t loc =
  let i = loc land t.mask in
  (* most lookups hit their home slot: no probe call *)
  let i =
    if Array.unsafe_get t.keys i = loc && Array.unsafe_get t.vals i != t.dummy then i
    else probe t loc i
  in
  if Array.unsafe_get t.epochs i = t.epoch then Array.unsafe_get t.vals i
  else t.dummy

let push stack n v dummy =
  let stack =
    if n < Array.length stack then stack
    else begin
      let s = Array.make (max 8 (2 * n)) dummy in
      Array.blit stack 0 s 0 n;
      s
    end
  in
  stack.(n) <- v;
  stack

let take_pooled t =
  if t.pooled = 0 then t.dummy
  else begin
    t.pooled <- t.pooled - 1;
    let v = t.pool.(t.pooled) in
    t.pool.(t.pooled) <- t.dummy;
    v
  end

let grow t =
  let keys = t.keys and vals = t.vals and stamps = t.stamps and epochs = t.epochs in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap 0;
  t.vals <- Array.make cap t.dummy;
  t.stamps <- Array.make cap 0;
  t.epochs <- Array.make cap 0;
  t.mask <- cap - 1;
  Array.iteri
    (fun i v ->
      if v != t.dummy then begin
        let j = probe t keys.(i) (keys.(i) land t.mask) in
        t.keys.(j) <- keys.(i);
        t.vals.(j) <- v;
        t.stamps.(j) <- stamps.(i);
        t.epochs.(j) <- epochs.(i)
      end)
    vals

let make_resident t i =
  t.epochs.(i) <- t.epoch;
  t.stamps.(i) <- t.next_stamp;
  t.next_stamp <- t.next_stamp + 1;
  t.count <- t.count + 1;
  if t.count > 2 * t.hb then t.hb <- 2 * t.hb

let reuse t loc =
  let i = probe t loc (loc land t.mask) in
  let v = Array.unsafe_get t.vals i in
  if v == t.dummy then t.dummy
  else if t.epochs.(i) = t.epoch then
    invalid_arg "Line_table.reuse: location already present"
  else begin
    make_resident t i;
    v
  end

let add t loc v =
  if v == t.dummy then invalid_arg "Line_table.add: dummy record";
  if 2 * (t.occupied + 1) > Array.length t.keys then grow t;
  let i = probe t loc (loc land t.mask) in
  if Array.unsafe_get t.vals i != t.dummy then
    invalid_arg "Line_table.add: location already present";
  t.keys.(i) <- loc;
  t.vals.(i) <- v;
  t.occupied <- t.occupied + 1;
  make_resident t i

(* Backward-shift deletion: walk the probe run after the hole and move
   back every entry whose probe path passes through the hole. *)
let rec close_hole t hole j =
  let j = (j + 1) land t.mask in
  let v = Array.unsafe_get t.vals j in
  if v == t.dummy then t.vals.(hole) <- t.dummy
  else begin
    let home = t.keys.(j) land t.mask in
    if (hole - home) land t.mask < (j - home) land t.mask then begin
      t.keys.(hole) <- t.keys.(j);
      t.vals.(hole) <- v;
      t.stamps.(hole) <- t.stamps.(j);
      t.epochs.(hole) <- t.epochs.(j);
      close_hole t j j
    end
    else close_hole t hole j
  end

let remove t loc =
  let i = probe t loc (loc land t.mask) in
  let v = Array.unsafe_get t.vals i in
  if v != t.dummy && t.epochs.(i) = t.epoch then begin
    t.retired <- push t.retired t.nretired v t.dummy;
    t.nretired <- t.nretired + 1;
    t.count <- t.count - 1;
    t.occupied <- t.occupied - 1;
    close_hole t i i
  end

(* Parked records beyond this many are pooled at the next reset, so a
   session that has seen many locations does not scan them forever. *)
let sweep_limit = 32

let reset t =
  if t.occupied > sweep_limit then begin
    Array.iteri
      (fun i v ->
        if v != t.dummy then begin
          t.pool <- push t.pool t.pooled v t.dummy;
          t.pooled <- t.pooled + 1;
          t.vals.(i) <- t.dummy
        end)
      t.vals;
    t.occupied <- 0
  end;
  t.epoch <- t.epoch + 1;
  for i = 0 to t.nretired - 1 do
    t.pool <- push t.pool t.pooled t.retired.(i) t.dummy;
    t.pooled <- t.pooled + 1;
    t.retired.(i) <- t.dummy
  done;
  t.nretired <- 0;
  t.count <- 0;
  t.next_stamp <- 0;
  t.hb <- hashtbl_initial_buckets

let resident t i =
  Array.unsafe_get t.vals i != t.dummy && Array.unsafe_get t.epochs i = t.epoch

let iter f t =
  for i = 0 to Array.length t.vals - 1 do
    if resident t i then f (Array.unsafe_get t.vals i)
  done

let fold f t acc =
  let acc = ref acc in
  iter (fun v -> acc := f v !acc) t;
  !acc

(* Hashtbl's order: bucket ascending, newest insertion first. *)
let before t bucket_a a bucket_b b =
  bucket_a < bucket_b
  || (bucket_a = bucket_b && t.stamps.(a) > t.stamps.(b))

let iter_hashtbl_order t keep f =
  if Array.length t.order < Array.length t.vals then begin
    t.order <- Array.make (Array.length t.vals) 0;
    t.order_keys <- Array.make (Array.length t.vals) 0
  end;
  let n = ref 0 in
  for i = 0 to Array.length t.vals - 1 do
    if resident t i && keep (Array.unsafe_get t.vals i) then begin
      t.order.(!n) <- i;
      incr n
    end
  done;
  let n = !n in
  if n = 1 then f t.vals.(t.order.(0))
  else if n > 1 then begin
    let order = t.order and bkeys = t.order_keys in
    for k = 0 to n - 1 do
      bkeys.(k) <- Hashtbl.hash t.keys.(order.(k)) land (t.hb - 1)
    done;
    (* insertion sort: resident line counts are small *)
    for k = 1 to n - 1 do
      let s = order.(k) and b = bkeys.(k) in
      let j = ref (k - 1) in
      while !j >= 0 && before t b s bkeys.(!j) order.(!j) do
        order.(!j + 1) <- order.(!j);
        bkeys.(!j + 1) <- bkeys.(!j);
        decr j
      done;
      order.(!j + 1) <- s;
      bkeys.(!j + 1) <- b
    done;
    for k = 0 to n - 1 do
      f t.vals.(order.(k))
    done
  end
