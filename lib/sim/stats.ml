(* Slot [i] is named [names.(i)], holds [values.(i)] and has been touched
   iff [touched.[i]] is set.  Registration appends one slot (arrays grow
   by exactly one), so a collector's arrays always have one entry per
   registered name and a snapshot is plain data.  [order] lists the
   slots by name once [sorted] is set: it is rebuilt on first use after
   a registration, so listing and snapshotting sort only once per build.
   An empty [order] with [sorted] set means the slots are already in
   name order, as in a snapshot. *)
type t = {
  mutable names : string array;
  mutable values : int array;
  mutable touched : Bytes.t;
  mutable order : int array;
  mutable sorted : bool;
}

type counter = { stats : t; slot : int }

let create () =
  {
    names = [||];
    values = [||];
    touched = Bytes.empty;
    order = [||];
    sorted = true;
  }

let sort_order t =
  if not t.sorted then begin
    let order = Array.init (Array.length t.names) Fun.id in
    Array.sort (fun a b -> String.compare t.names.(a) t.names.(b)) order;
    t.order <- order;
    t.sorted <- true
  end

(* after [sort_order] *)
let slot_at t k = if Array.length t.order = 0 then k else Array.unsafe_get t.order k

(* Plain loops: the collector is small, and [Array.fill]/[Bytes.fill]
   are C calls whose fixed cost exceeds the work. *)
let clear t =
  for i = 0 to Array.length t.values - 1 do
    Array.unsafe_set t.values i 0;
    Bytes.unsafe_set t.touched i '\000'
  done

(* Names are few (tens) and resolved at component build time, so a
   linear scan beats hashing and keeps the collector free of tables. *)
let find t name =
  let n = Array.length t.names in
  let rec go i =
    if i = n then -1 else if String.equal t.names.(i) name then i else go (i + 1)
  in
  go 0

let slot t name =
  match find t name with
  | -1 ->
    let i = Array.length t.names in
    t.names <- Array.append t.names [| name |];
    t.values <- Array.append t.values [| 0 |];
    t.touched <- Bytes.extend t.touched 0 1;
    Bytes.set t.touched i '\000';
    t.sorted <- false;
    i
  | i -> i

let counter t name = { stats = t; slot = slot t name }

let bump_by c n =
  let t = c.stats in
  Array.unsafe_set t.values c.slot (Array.unsafe_get t.values c.slot + n);
  Bytes.unsafe_set t.touched c.slot '\001'

let bump c = bump_by c 1

let bump_max c n =
  let t = c.stats in
  if n > Array.unsafe_get t.values c.slot then begin
    Array.unsafe_set t.values c.slot n;
    Bytes.unsafe_set t.touched c.slot '\001'
  end

let get t name = match find t name with -1 -> 0 | i -> t.values.(i)

let add t name n = bump_by (counter t name) n

let incr t name = add t name 1

let max_to t name n = if n > get t name then bump_max (counter t name) n

let to_list t =
  sort_order t;
  let acc = ref [] in
  for k = Array.length t.names - 1 downto 0 do
    let i = slot_at t k in
    if Bytes.get t.touched i <> '\000' then acc := (t.names.(i), t.values.(i)) :: !acc
  done;
  !acc

let snapshot t =
  sort_order t;
  let slots = Array.length t.names in
  let n = ref 0 in
  for i = 0 to slots - 1 do
    if Bytes.unsafe_get t.touched i <> '\000' then Stdlib.incr n
  done;
  let n = !n in
  let names = Array.make n "" and values = Array.make n 0 in
  let j = ref 0 in
  for k = 0 to slots - 1 do
    let i = slot_at t k in
    if Bytes.unsafe_get t.touched i <> '\000' then begin
      Array.unsafe_set names !j (Array.unsafe_get t.names i);
      Array.unsafe_set values !j (Array.unsafe_get t.values i);
      Stdlib.incr j
    end
  done;
  { names; values; touched = Bytes.make n '\001'; order = [||]; sorted = true }

let merge a b =
  let t = create () in
  List.iter (fun (k, v) -> add t k v) (to_list a);
  List.iter (fun (k, v) -> add t k v) (to_list b);
  t

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter (fun (k, v) -> Format.fprintf ppf "%s = %d@," k v) (to_list t);
  Format.fprintf ppf "@]"
