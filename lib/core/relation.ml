module Int_set = Set.Make (Int)
module Int_map = Map.Make (Int)

(* A relation is an adjacency map from node to successor set, plus the set of
   nodes mentioned anywhere (so isolated predecessors are not lost). *)
type t = { succ : Int_set.t Int_map.t; universe : Int_set.t }

let empty = { succ = Int_map.empty; universe = Int_set.empty }

let add a b r =
  let set = match Int_map.find_opt a r.succ with
    | None -> Int_set.singleton b
    | Some s -> Int_set.add b s
  in
  { succ = Int_map.add a set r.succ;
    universe = Int_set.add a (Int_set.add b r.universe) }

let mem a b r =
  match Int_map.find_opt a r.succ with
  | None -> false
  | Some s -> Int_set.mem b s

let of_list l = List.fold_left (fun r (a, b) -> add a b r) empty l

let pairs r =
  Int_map.fold
    (fun a s acc -> Int_set.fold (fun b acc -> (a, b) :: acc) s acc)
    r.succ []
  |> List.sort compare

let union a b =
  (* Direct map merge; building via [pairs] would allocate and re-sort an
     intermediate list per call, and union is on the happens-before path. *)
  {
    succ = Int_map.union (fun _ s1 s2 -> Some (Int_set.union s1 s2)) a.succ b.succ;
    universe = Int_set.union a.universe b.universe;
  }

let successors a r =
  match Int_map.find_opt a r.succ with
  | None -> []
  | Some s -> Int_set.elements s

let nodes r = Int_set.elements r.universe

let cardinal r = Int_map.fold (fun _ s n -> n + Int_set.cardinal s) r.succ 0

let is_empty r = Int_map.is_empty r.succ

let reachable_set start r =
  (* Nodes reachable from [start] in one or more steps (depth-first). *)
  let seen = ref Int_set.empty in
  let rec visit a =
    List.iter
      (fun b ->
        if not (Int_set.mem b !seen) then begin
          seen := Int_set.add b !seen;
          visit b
        end)
      (successors a r)
  in
  visit start;
  !seen

let reachable start r = Int_set.elements (reachable_set start r)

(* Dense bitset representation: one row of bits per node, 64-bit words packed
   in a single Bytes buffer.  Arbitrary node ids are index-compressed, so the
   footprint is n^2 bits for n distinct nodes regardless of id span.  All
   whole-row operations (Warshall's union step) run a word at a time. *)
module Dense = struct
  type m = {
    n : int;
    words : int; (* 64-bit words per row *)
    bits : Bytes.t; (* n rows, row-major *)
    ids : int array; (* index -> original node id, ascending *)
  }

  let size m = m.n

  let create_like ids n =
    let words = (n + 63) / 64 in
    { n; words; bits = Bytes.make (n * words * 8) '\000'; ids }

  (* Original node id -> index, by binary search over the ascending
     [ids]; -1 when absent.  Cheaper than hashing for the queries the
     happens-before checks make. *)
  let index_of m id =
    let rec go lo hi =
      if lo >= hi then -1
      else
        let mid = (lo + hi) lsr 1 in
        let x = Array.unsafe_get m.ids mid in
        if x = id then mid else if x < id then go (mid + 1) hi else go lo mid
    in
    go 0 m.n

  let row_off m i = i * m.words * 8

  let set_bit m i j =
    let off = row_off m i + (j lsr 6) * 8 in
    let w = Bytes.get_int64_ne m.bits off in
    Bytes.set_int64_ne m.bits off
      (Int64.logor w (Int64.shift_left 1L (j land 63)))

  let get_bit m i j =
    let w = Bytes.get_int64_ne m.bits (row_off m i + (j lsr 6) * 8) in
    Int64.logand (Int64.shift_right_logical w (j land 63)) 1L <> 0L

  (* row i |= row k, one word at a time *)
  let or_row m i k =
    let oi = row_off m i and ok = row_off m k in
    for w = 0 to m.words - 1 do
      let b = w * 8 in
      let wi = Bytes.get_int64_ne m.bits (oi + b) in
      let wk = Bytes.get_int64_ne m.bits (ok + b) in
      let u = Int64.logor wi wk in
      if u <> wi then Bytes.set_int64_ne m.bits (oi + b) u
    done

  let of_sparse r =
    let n = Int_set.cardinal r.universe in
    let ids = Array.make n 0 in
    let i = ref 0 in
    Int_set.iter
      (fun id ->
        ids.(!i) <- id;
        incr i)
      r.universe;
    let m = create_like ids n in
    Int_map.iter
      (fun a s ->
        let ia = index_of m a in
        Int_set.iter (fun b -> set_bit m ia (index_of m b)) s)
      r.succ;
    m

  let to_sparse m =
    let succ = ref Int_map.empty in
    for i = 0 to m.n - 1 do
      let s = ref Int_set.empty in
      for j = 0 to m.n - 1 do
        if get_bit m i j then s := Int_set.add m.ids.(j) !s
      done;
      if not (Int_set.is_empty !s) then
        succ := Int_map.add m.ids.(i) !s !succ
    done;
    { succ = !succ; universe = Int_set.of_list (Array.to_list m.ids) }

  let mem a b m =
    let i = index_of m a and j = index_of m b in
    i >= 0 && j >= 0 && get_bit m i j

  let copy m = { m with bits = Bytes.copy m.bits }

  (* Warshall with bitset rows: closure in O(n^3 / 64) word operations. *)
  let transitive_closure m =
    let c = copy m in
    for k = 0 to c.n - 1 do
      for i = 0 to c.n - 1 do
        if get_bit c i k then or_row c i k
      done
    done;
    c

  let is_irreflexive m =
    let ok = ref true in
    for i = 0 to m.n - 1 do
      if get_bit m i i then ok := false
    done;
    !ok

  (* A relation is acyclic iff no node reaches itself in its closure. *)
  let is_acyclic m = is_irreflexive (transitive_closure m)

  let reachable a m =
    match index_of m a with
    | -1 -> []
    | i ->
      let c = transitive_closure m in
      let out = ref [] in
      for j = m.n - 1 downto 0 do
        if get_bit c i j then out := m.ids.(j) :: !out
      done;
      !out
end

(* Below this node count the map-based DFS closure wins on constant factors
   and allocation; above it the Warshall bitset sweep dominates. *)
let dense_threshold = 32

let transitive_closure r =
  if Int_set.cardinal r.universe >= dense_threshold then
    Dense.(to_sparse (transitive_closure (of_sparse r)))
  else
    Int_set.fold
      (fun a acc ->
        Int_set.fold (fun b acc -> add a b acc) (reachable_set a r) acc)
      r.universe empty

let is_irreflexive r =
  not (Int_map.exists (fun a s -> Int_set.mem a s) r.succ)

let is_transitive r =
  List.for_all
    (fun (a, b) -> List.for_all (fun c -> mem a c r) (successors b r))
    (pairs r)

let is_acyclic r =
  (* DFS three-colouring: a back edge to a node on the current stack is a
     cycle. *)
  let state = Hashtbl.create 97 in
  let rec visit a =
    match Hashtbl.find_opt state a with
    | Some `Done -> true
    | Some `Active -> false
    | None ->
      Hashtbl.replace state a `Active;
      let ok = List.for_all visit (successors a r) in
      Hashtbl.replace state a `Done;
      ok
  in
  List.for_all visit (nodes r)

let restrict ~keep r =
  List.fold_left
    (fun acc (a, b) -> if keep a && keep b then add a b acc else acc)
    empty (pairs r)

let in_degrees ~nodes r =
  let node_set = Int_set.of_list nodes in
  let deg = Hashtbl.create 97 in
  List.iter (fun a -> Hashtbl.replace deg a 0) nodes;
  List.iter
    (fun (a, b) ->
      if Int_set.mem a node_set && Int_set.mem b node_set then
        Hashtbl.replace deg b (Hashtbl.find deg b + 1))
    (pairs r);
  deg

let topological_sort ~nodes r =
  let deg = in_degrees ~nodes r in
  let node_set = Int_set.of_list nodes in
  let module Q = Set.Make (Int) in
  let ready =
    List.filter (fun a -> Hashtbl.find deg a = 0) nodes |> Q.of_list
  in
  let rec go ready acc n =
    if Q.is_empty ready then
      if n = List.length nodes then Some (List.rev acc) else None
    else
      let a = Q.min_elt ready in
      let ready = Q.remove a ready in
      let ready =
        List.fold_left
          (fun q b ->
            if Int_set.mem b node_set then begin
              let d = Hashtbl.find deg b - 1 in
              Hashtbl.replace deg b d;
              if d = 0 then Q.add b q else q
            end
            else q)
          ready (successors a r)
      in
      go ready (a :: acc) (n + 1)
  in
  go ready [] 0

let linearizations ?limit ~nodes r =
  let node_set = Int_set.of_list nodes in
  let deg = in_degrees ~nodes r in
  let total = List.length nodes in
  let results = ref [] in
  let count = ref 0 in
  let hit_limit () = match limit with None -> false | Some l -> !count >= l in
  let rec go acc placed ready =
    if hit_limit () then ()
    else if placed = total then begin
      incr count;
      results := List.rev acc :: !results
    end
    else
      Int_set.iter
        (fun a ->
          if not (hit_limit ()) then begin
            let newly_ready = ref Int_set.empty in
            List.iter
              (fun b ->
                if Int_set.mem b node_set then begin
                  let d = Hashtbl.find deg b - 1 in
                  Hashtbl.replace deg b d;
                  if d = 0 then newly_ready := Int_set.add b !newly_ready
                end)
              (successors a r);
            go (a :: acc) (placed + 1)
              (Int_set.union (Int_set.remove a ready) !newly_ready);
            (* undo *)
            List.iter
              (fun b ->
                if Int_set.mem b node_set then
                  Hashtbl.replace deg b (Hashtbl.find deg b + 1))
              (successors a r)
          end)
        ready
  in
  let ready =
    List.filter (fun a -> Hashtbl.find deg a = 0) nodes |> Int_set.of_list
  in
  go [] 0 ready;
  List.rev !results

let consistent a b = is_acyclic (union a b)

let equal a b = pairs a = pairs b

let pp ppf r =
  Format.fprintf ppf "@[<hov 1>{";
  List.iteri
    (fun i (a, b) ->
      if i > 0 then Format.fprintf ppf ";@ ";
      Format.fprintf ppf "%d->%d" a b)
    (pairs r);
  Format.fprintf ppf "}@]"
