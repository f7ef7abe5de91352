(* Slot [i] is named [names.(i)], holds [values.(i)] and has been touched
   iff [touched.[i]] is set.  Registration appends one slot (arrays grow
   by exactly one), so a collector's arrays always have one entry per
   registered name and a snapshot is plain data. *)
type t = {
  mutable names : string array;
  mutable values : int array;
  mutable touched : Bytes.t;
}

type counter = { stats : t; slot : int }

let create () = { names = [||]; values = [||]; touched = Bytes.empty }

let clear t =
  Array.fill t.values 0 (Array.length t.values) 0;
  Bytes.fill t.touched 0 (Bytes.length t.touched) '\000'

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
  let acc = ref [] in
  Array.iteri
    (fun i name ->
      if Bytes.get t.touched i <> '\000' then acc := (name, t.values.(i)) :: !acc)
    t.names;
  List.sort compare !acc

let snapshot t =
  let l = to_list t in
  {
    names = Array.of_list (List.map fst l);
    values = Array.of_list (List.map snd l);
    touched = Bytes.make (List.length l) '\001';
  }

let merge a b =
  let t = create () in
  List.iter (fun (k, v) -> add t k v) (to_list a);
  List.iter (fun (k, v) -> add t k v) (to_list b);
  t

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter (fun (k, v) -> Format.fprintf ppf "%s = %d@," k v) (to_list t);
  Format.fprintf ppf "@]"
