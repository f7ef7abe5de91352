type reason =
  | Read_miss
  | Rmw_wait
  | Rmw_order
  | Sync_commit
  | Release_gate
  | Reserve_wait
  | Counter_drain
  | Buffer_full
  | Buffer_drain
  | Write_ack
  | Migration

let all_reasons =
  [
    Read_miss;
    Rmw_wait;
    Rmw_order;
    Sync_commit;
    Release_gate;
    Reserve_wait;
    Counter_drain;
    Buffer_full;
    Buffer_drain;
    Write_ack;
    Migration;
  ]

let reason_name = function
  | Read_miss -> "read_miss"
  | Rmw_wait -> "rmw"
  | Rmw_order -> "rmw_order"
  | Sync_commit -> "sync_commit"
  | Release_gate -> "release_gate"
  | Reserve_wait -> "reserve"
  | Counter_drain -> "counter_drain"
  | Buffer_full -> "buffer_full"
  | Buffer_drain -> "buffer_drain"
  | Write_ack -> "write_ack"
  | Migration -> "migration"

let reason_of_name s =
  List.find_opt (fun r -> reason_name r = s) all_reasons

let nreasons = List.length all_reasons

(* Position in [all_reasons]. *)
let reason_index = function
  | Read_miss -> 0
  | Rmw_wait -> 1
  | Rmw_order -> 2
  | Sync_commit -> 3
  | Release_gate -> 4
  | Reserve_wait -> 5
  | Counter_drain -> 6
  | Buffer_full -> 7
  | Buffer_drain -> 8
  | Write_ack -> 9
  | Migration -> 10

(* Processor [p]'s accounts are [cells.(p * nreasons + reason_index r)].
   Rows [0, used) are this run's; storage beyond them is kept, zeroed,
   from earlier runs so a cleared collector allocates nothing.  [used]
   grows exactly as a fresh collector's row count would, and storage
   grows to exactly [used] rows, so a fresh collector and a copy (which
   keeps only the used rows) have identical Marshal fingerprints. *)
type t = {
  mutable cells : int array;
  mutable used : int;
  mutable grand_total : int;
}

let create () = { cells = [||]; used = 0; grand_total = 0 }

let clear t =
  for i = 0 to (t.used * nreasons) - 1 do
    Array.unsafe_set t.cells i 0
  done;
  t.used <- 0;
  t.grand_total <- 0

let copy t =
  {
    cells = Array.sub t.cells 0 (t.used * nreasons);
    used = t.used;
    grand_total = t.grand_total;
  }

let ensure t proc =
  if proc >= t.used then begin
    let need = (proc + 1) * nreasons in
    if need > Array.length t.cells then begin
      let cells = Array.make need 0 in
      Array.blit t.cells 0 cells 0 (Array.length t.cells);
      t.cells <- cells
    end;
    t.used <- proc + 1
  end

let record t sink ~span ~now ~proc reason cycles =
  if cycles > 0 && proc >= 0 then begin
    ensure t proc;
    let i = (proc * nreasons) + reason_index reason in
    t.cells.(i) <- t.cells.(i) + cycles;
    t.grand_total <- t.grand_total + cycles;
    if span && Recorder.enabled sink then
      Recorder.span sink ~cat:Recorder.Proc ~track:proc
        ~name:("stall." ^ reason_name reason)
        ~ts:(now - cycles) ~dur:cycles
  end

let add t ?(sink = Recorder.disabled) ?now ~proc reason cycles =
  match now with
  | None -> record t sink ~span:false ~now:0 ~proc reason cycles
  | Some now -> record t sink ~span:true ~now ~proc reason cycles

let add_at t ~sink ~now ~proc reason cycles =
  record t sink ~span:true ~now ~proc reason cycles

let get t ~proc reason =
  if proc < 0 || proc >= t.used then 0
  else t.cells.((proc * nreasons) + reason_index reason)

let proc_total t ~proc =
  if proc < 0 || proc >= t.used then 0
  else begin
    let sum = ref 0 in
    for i = proc * nreasons to ((proc + 1) * nreasons) - 1 do
      sum := !sum + t.cells.(i)
    done;
    !sum
  end

let total t = t.grand_total

let procs t =
  let acc = ref [] in
  for p = t.used - 1 downto 0 do
    if proc_total t ~proc:p > 0 then acc := p :: !acc
  done;
  !acc

let per_proc t ~proc =
  List.filter_map
    (fun r ->
      let c = get t ~proc r in
      if c > 0 then Some (r, c) else None)
    all_reasons

let merge a b =
  let t = create () in
  let absorb src =
    for p = 0 to src.used - 1 do
      List.iter
        (fun r ->
          let c = get src ~proc:p r in
          if c > 0 then add t ~proc:p r c)
        all_reasons
    done
  in
  absorb a;
  absorb b;
  t

let to_stats t =
  let entries =
    List.concat_map
      (fun p ->
        List.map
          (fun (r, c) -> (Printf.sprintf "P%d.stall.%s" p (reason_name r), c))
          (per_proc t ~proc:p))
      (procs t)
    |> List.sort compare
  in
  if t.grand_total > 0 then entries @ [ ("stall.total", t.grand_total) ]
  else entries

let to_json t =
  Json.Obj
    [
      ("total", Json.Int t.grand_total);
      ( "per_proc",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("proc", Json.Int p);
                   ("total", Json.Int (proc_total t ~proc:p));
                   ( "reasons",
                     Json.Obj
                       (List.map
                          (fun (r, c) -> (reason_name r, Json.Int c))
                          (per_proc t ~proc:p)) );
                 ])
             (procs t)) );
    ]
