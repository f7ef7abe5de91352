type t = {
  registers : (Wo_core.Event.proc * Instr.reg * Wo_core.Event.value) list;
  memory : (Wo_core.Event.loc * Wo_core.Event.value) list;
}

(* Lexicographic [Int.compare]: the order polymorphic [compare] gives
   these int tuples, without its generic traversal. *)
let compare_register (p, r, v) (p', r', v') =
  let c = Int.compare p p' in
  if c <> 0 then c
  else
    let c = Int.compare r r' in
    if c <> 0 then c else Int.compare v v'

let compare_cell (l, v) (l', v') =
  let c = Int.compare l l' in
  if c <> 0 then c else Int.compare v v'

(* Machines assemble both lists already in order; keep them as they are
   then, rather than rebuilding them through a sort. *)
let rec is_sorted cmp = function
  | a :: (b :: _ as rest) -> cmp a b <= 0 && is_sorted cmp rest
  | [ _ ] | [] -> true

let sort cmp l = if is_sorted cmp l then l else List.sort cmp l

let make ~registers ~memory =
  { registers = sort compare_register registers; memory = sort compare_cell memory }

let rec compare_list cmp a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: a, y :: b ->
    let c = cmp x y in
    if c <> 0 then c else compare_list cmp a b

(* The order polymorphic [compare] gives [(registers, memory)] pairs. *)
let compare a b =
  let c = compare_list compare_register a.registers b.registers in
  if c <> 0 then c else compare_list compare_cell a.memory b.memory

let equal a b = compare a b = 0

let register t proc reg =
  List.find_map
    (fun (p, r, v) -> if p = proc && r = reg then Some v else None)
    t.registers

let memory_value t loc = List.assoc_opt loc t.memory

let pp ppf t =
  Format.fprintf ppf "@[<hov 2>{";
  List.iter
    (fun (p, r, v) -> Format.fprintf ppf "@ P%d:r%d=%d;" p r v)
    t.registers;
  List.iter
    (fun (l, v) -> Format.fprintf ppf "@ %a=%d;" Wo_core.Event.pp_loc l v)
    t.memory;
  Format.fprintf ppf "@ }@]"
