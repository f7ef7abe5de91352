type entry = {
  event : Wo_core.Event.t;
  issued : int;
  committed : int;
  performed : int;
}

type t = { mutable entries_rev : entry list; mutable size : int }

let create () = { entries_rev = []; size = 0 }

let add t e =
  t.entries_rev <- e :: t.entries_rev;
  t.size <- t.size + 1

let size t = t.size

(* Lexicographic on (time, event id), without building key tuples. *)
let by_commit a b =
  let c = Int.compare a.committed b.committed in
  if c <> 0 then c else Int.compare a.event.Wo_core.Event.id b.event.Wo_core.Event.id

let by_issue a b =
  let c = Int.compare a.issued b.issued in
  if c <> 0 then c else Int.compare a.event.Wo_core.Event.id b.event.Wo_core.Event.id

let entries t = List.sort by_commit t.entries_rev

let entries_by_issue t = List.sort by_issue t.entries_rev

let events t = List.map (fun e -> e.event) (entries t)

(* Edges between neighbours of [sorted] that agree on [group]. *)
let rec adjacent_pairs group r = function
  | a :: (b :: _ as rest) ->
    let r =
      if group a = group b then
        Wo_core.Relation.add a.event.Wo_core.Event.id b.event.Wo_core.Event.id r
      else r
    in
    adjacent_pairs group r rest
  | [ _ ] | [] -> r

let proc_of e = e.event.Wo_core.Event.proc
let loc_of e = e.event.Wo_core.Event.loc

let program_order t =
  let by_proc_seq a b =
    let c = Int.compare (proc_of a) (proc_of b) in
    if c <> 0 then c else Int.compare a.event.Wo_core.Event.seq b.event.Wo_core.Event.seq
  in
  adjacent_pairs proc_of Wo_core.Relation.empty
    (List.stable_sort by_proc_seq (List.rev t.entries_rev))

let sync_commit_order t =
  let by_loc_commit a b =
    let c = Int.compare (loc_of a) (loc_of b) in
    if c <> 0 then c else by_commit a b
  in
  adjacent_pairs loc_of Wo_core.Relation.empty
    (List.stable_sort by_loc_commit
       (List.filter (fun e -> Wo_core.Event.is_sync e.event) t.entries_rev))

let find t id =
  List.find_opt (fun e -> e.event.Wo_core.Event.id = id) t.entries_rev

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun e ->
      Format.fprintf ppf "%4d/%4d/%4d  %a@," e.issued e.committed e.performed
        Wo_core.Event.pp e.event)
    (entries t);
  Format.fprintf ppf "@]"
