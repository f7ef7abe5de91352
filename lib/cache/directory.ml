exception Protocol_error of string

type state = Uncached | Shared of int list | Exclusive of int

type dstate = D_uncached | D_shared | D_exclusive

(* The outstanding transaction, if any: a recall of [t_owner]'s exclusive
   copy for [t_requester], or invalidations with [t_remaining]
   acknowledgements still due. *)
type trans = No_trans | Recall_s | Recall_x | Wait_acks

type line = {
  mutable loc : Wo_core.Event.loc;
  mutable dstate : dstate;
  mutable owner : int;  (* D_exclusive *)
  mutable sharers : Bytes.t;  (* D_shared: one flag per cache node *)
  mutable nsharers : int;
  mutable value : Wo_core.Event.value;
  mutable trans : trans;
  mutable t_requester : int;
  mutable t_owner : int;
  mutable t_remaining : int;
  mutable trans_started : int;
  waiting : Msg.t Queue.t;
  mutable stale_recall_acks : int;
      (* RecallAcks to ignore because a concurrent write-back (PutX) already
         completed the recall transaction *)
}

type t = {
  engine : Wo_sim.Engine.t;
  fabric : Msg.t Wo_interconnect.Fabric.t;
  node : int;
  recalls : Wo_sim.Stats.counter;
  invalidations : Wo_sim.Stats.counter;
  mutable obs : Wo_obs.Recorder.t;
  process_cycles : int;
  initial : Wo_core.Event.loc -> Wo_core.Event.value;
  lines : line Line_table.t;
  mutable arrivals : Msg.t Wo_sim.Carriers.t;  (* handled after [process_cycles] *)
}

(* --- the sharer set ---------------------------------------------------------- *)

let is_sharer (l : line) n = n < Bytes.length l.sharers && Bytes.get l.sharers n <> '\000'

let add_sharer (l : line) n =
  if n >= Bytes.length l.sharers then begin
    let grown = Bytes.make (n + 1) '\000' in
    Bytes.blit l.sharers 0 grown 0 (Bytes.length l.sharers);
    l.sharers <- grown
  end;
  if Bytes.get l.sharers n = '\000' then begin
    Bytes.set l.sharers n '\001';
    l.nsharers <- l.nsharers + 1
  end

let clear_sharers (l : line) =
  if l.nsharers > 0 then begin
    for n = 0 to Bytes.length l.sharers - 1 do
      Bytes.unsafe_set l.sharers n '\000'
    done;
    l.nsharers <- 0
  end

let sharer_list (l : line) =
  let acc = ref [] in
  for n = Bytes.length l.sharers - 1 downto 0 do
    if Bytes.get l.sharers n <> '\000' then acc := n :: !acc
  done;
  !acc

let set_shared (l : line) = l.dstate <- D_shared

let set_exclusive (l : line) owner =
  clear_sharers l;
  l.dstate <- D_exclusive;
  l.owner <- owner

let set_uncached (l : line) =
  clear_sharers l;
  l.dstate <- D_uncached

let new_line t loc =
  {
    loc;
    dstate = D_uncached;
    owner = -1;
    sharers = Bytes.make t.node '\000';
    nsharers = 0;
    value = 0;
    trans = No_trans;
    t_requester = -1;
    t_owner = -1;
    t_remaining = 0;
    trans_started = 0;
    waiting = Queue.create ();
    stale_recall_acks = 0;
  }

(* Lines are created lazily, on a location's first message of the run,
   from the pool when it has a record. *)
let line t loc =
  let dummy = Line_table.dummy t.lines in
  let l = Line_table.find t.lines loc in
  if l != dummy then l
  else begin
    let parked = Line_table.reuse t.lines loc in
    let l =
      if parked != dummy then parked
      else
        let l = Line_table.take_pooled t.lines in
        if l == dummy then new_line t loc else l
    in
    l.loc <- loc;
    l.dstate <- D_uncached;
    clear_sharers l;
    l.value <- t.initial loc;
    l.trans <- No_trans;
    l.trans_started <- 0;
    Queue.clear l.waiting;
    l.stale_recall_acks <- 0;
    if parked == dummy then Line_table.add t.lines loc l;
    l
  end

(* --- transactions ------------------------------------------------------------ *)

let send t ~dst msg = t.fabric.Wo_interconnect.Fabric.send ~src:t.node ~dst msg

let protocol_error fmt = Format.kasprintf (fun s -> raise (Protocol_error s)) fmt

let open_trans t (l : line) trans ~requester ~owner ~remaining =
  l.trans <- trans;
  l.t_requester <- requester;
  l.t_owner <- owner;
  l.t_remaining <- remaining;
  if Wo_obs.Recorder.enabled t.obs then
    l.trans_started <- Wo_sim.Engine.now t.engine

let close_trans t (l : line) =
  (if Wo_obs.Recorder.enabled t.obs then
     let name =
       match l.trans with
       | No_trans -> None
       | Recall_s -> Some "recall.S"
       | Recall_x -> Some "recall.X"
       | Wait_acks -> Some "inv_acks"
     in
     match name with
     | None -> ()
     | Some name ->
       let now = Wo_sim.Engine.now t.engine in
       Wo_obs.Recorder.span t.obs ~cat:Wo_obs.Recorder.Dir ~track:l.loc ~name
         ~ts:l.trans_started ~dur:(now - l.trans_started));
  l.trans <- No_trans

(* Serve a request against a line with no outstanding transaction. *)
let rec serve t (l : line) msg =
  match msg with
  | Msg.GetS { loc; requester; sync } -> (
    match l.dstate with
    | D_uncached | D_shared ->
      set_shared l;
      add_sharer l requester;
      send t ~dst:requester
        (Msg.DataS { loc; value = l.value; bound_at = Wo_sim.Engine.now t.engine })
    | D_exclusive ->
      let owner = l.owner in
      open_trans t l Recall_s ~requester ~owner ~remaining:0;
      Wo_sim.Stats.bump t.recalls;
      send t ~dst:owner (Msg.Recall { loc; mode = Msg.For_share; sync; requester }))
  | Msg.GetX { loc; requester; sync } -> (
    match l.dstate with
    | D_uncached ->
      set_exclusive l requester;
      send t ~dst:requester (Msg.DataX { loc; value = l.value; acks_pending = 0 })
    | D_exclusive ->
      (* This also covers the rare owner == requester case, which arises
         when the owner evicted the line and re-requested it before its
         write-back reached us; the recall is answered from the evicting
         copy. *)
      let owner = l.owner in
      open_trans t l Recall_x ~requester ~owner ~remaining:0;
      Wo_sim.Stats.bump t.recalls;
      send t ~dst:owner (Msg.Recall { loc; mode = Msg.For_own; sync; requester })
    | D_shared ->
      let others = l.nsharers - if is_sharer l requester then 1 else 0 in
      if others = 0 then begin
        set_exclusive l requester;
        send t ~dst:requester (Msg.DataX { loc; value = l.value; acks_pending = 0 })
      end
      else begin
        (* Forward the line in parallel with the invalidations (5.2),
           sharers in ascending order. *)
        send t ~dst:requester
          (Msg.DataX { loc; value = l.value; acks_pending = others });
        for sharer = 0 to Bytes.length l.sharers - 1 do
          if sharer <> requester && Bytes.get l.sharers sharer <> '\000' then begin
            Wo_sim.Stats.bump t.invalidations;
            send t ~dst:sharer (Msg.Inv { loc })
          end
        done;
        set_exclusive l requester;
        open_trans t l Wait_acks ~requester ~owner:(-1) ~remaining:others
      end)
  | Msg.PutX { loc; value; from } ->
    (* Write-back with no transaction pending. *)
    if l.dstate = D_exclusive && l.owner = from then begin
      set_uncached l;
      l.value <- value
    end;
    (* otherwise a stale write-back; ownership already moved on *)
    send t ~dst:from (Msg.PutAck { loc })
  | Msg.DataS _ | Msg.DataX _ | Msg.Inv _ | Msg.InvAck _ | Msg.Recall _
  | Msg.RecallAck _ | Msg.WriteDone _ | Msg.PutAck _ ->
    protocol_error "directory received %a outside any transaction" Msg.pp msg

and complete_transaction t (l : line) =
  close_trans t l;
  (* Drain queued requests until one opens a new transaction (a request
     served from a Shared or Uncached line completes immediately and must
     not leave the rest of the queue stranded). *)
  let rec drain () =
    if l.trans = No_trans then
      match Queue.take_opt l.waiting with
      | None -> ()
      | Some msg ->
        dispatch t l msg;
        drain ()
  in
  drain ()

(* Complete a pending recall using the recalled value. *)
and finish_recall t (l : line) ~value =
  let requester = l.t_requester in
  match l.trans with
  | Recall_s ->
    l.value <- value;
    clear_sharers l;
    set_shared l;
    add_sharer l l.t_owner;
    add_sharer l requester;
    send t ~dst:requester
      (Msg.DataS { loc = l.loc; value; bound_at = Wo_sim.Engine.now t.engine });
    complete_transaction t l
  | Recall_x ->
    l.value <- value;
    set_exclusive l requester;
    send t ~dst:requester (Msg.DataX { loc = l.loc; value; acks_pending = 0 });
    complete_transaction t l
  | No_trans | Wait_acks ->
    protocol_error "finish_recall: no recall pending on line %d" l.loc

and dispatch t (l : line) msg =
  match msg with
  | Msg.GetS _ | Msg.GetX _ ->
    if l.trans <> No_trans then Queue.add msg l.waiting else serve t l msg
  | Msg.InvAck { loc = _; from = _ } ->
    if l.trans = Wait_acks then begin
      l.t_remaining <- l.t_remaining - 1;
      if l.t_remaining = 0 then begin
        send t ~dst:l.t_requester (Msg.WriteDone { loc = l.loc });
        complete_transaction t l
      end
    end
    else protocol_error "unexpected InvAck for line %d" l.loc
  | Msg.RecallAck { loc = _; value; from } ->
    if (l.trans = Recall_s || l.trans = Recall_x) && l.t_owner = from then
      finish_recall t l ~value
    else if l.stale_recall_acks > 0 then
      l.stale_recall_acks <- l.stale_recall_acks - 1
    else protocol_error "unexpected RecallAck for line %d" l.loc
  | Msg.PutX { loc = _; value; from } ->
    if (l.trans = Recall_s || l.trans = Recall_x) && l.t_owner = from then begin
      (* The owner's write-back crossed our recall: treat the write-back as
         the recall answer, and remember to drop the RecallAck the evicting
         cache will also send. *)
      l.stale_recall_acks <- l.stale_recall_acks + 1;
      send t ~dst:from (Msg.PutAck { loc = l.loc });
      finish_recall t l ~value
    end
    else serve t l msg
  | Msg.Recall _ | Msg.DataS _ | Msg.DataX _ | Msg.Inv _ | Msg.WriteDone _
  | Msg.PutAck _ ->
    protocol_error "directory cannot handle %a" Msg.pp msg

let handle t msg = Wo_sim.Carriers.schedule t.arrivals ~delay:t.process_cycles 0 msg

let create ~engine ~fabric ~node ?(stats = Wo_sim.Stats.create ())
    ?(obs = Wo_obs.Recorder.disabled) ?(process_cycles = 1) ~initial () =
  let dummy =
    {
      loc = min_int; dstate = D_uncached; owner = -1; sharers = Bytes.empty;
      nsharers = 0; value = 0; trans = No_trans; t_requester = -1;
      t_owner = -1; t_remaining = 0; trans_started = 0;
      waiting = Queue.create (); stale_recall_acks = 0;
    }
  in
  let t =
    {
      engine;
      fabric;
      node;
      recalls = Wo_sim.Stats.counter stats "dir.recalls";
      invalidations = Wo_sim.Stats.counter stats "dir.invalidations";
      obs;
      process_cycles = max 1 process_cycles;
      initial;
      lines = Line_table.create ~dummy ();
      arrivals = Wo_sim.Carriers.create engine (fun _ _ -> ());  (* below *)
    }
  in
  (* the line is looked up when the message is handled, not when it
     arrives: a first message creates its line at handling time *)
  t.arrivals <-
    Wo_sim.Carriers.create engine (fun _ msg -> dispatch t (line t (Msg.loc msg)) msg);
  fabric.Wo_interconnect.Fabric.connect ~node (fun msg -> handle t msg);
  t

(* Session support: forget every line and record into the session's
   current recorder.  Line records return to the table's pool and are
   revived with [t.initial], so a directory whose [initial] closure reads
   mutable state picks up the next program's initial values after a
   reset. *)
let reset t ~obs =
  t.obs <- obs;
  Line_table.reset t.lines;
  Wo_sim.Carriers.reset t.arrivals

let find t loc =
  let l = Line_table.find t.lines loc in
  if l == Line_table.dummy t.lines then None else Some l

let state_of t loc =
  match find t loc with
  | None -> Uncached
  | Some l -> (
    match l.dstate with
    | D_uncached -> Uncached
    | D_shared -> Shared (sharer_list l)
    | D_exclusive -> Exclusive l.owner)

let exclusive_owner t loc =
  let l = Line_table.find t.lines loc in
  if l != Line_table.dummy t.lines && l.dstate = D_exclusive then l.owner else -1

let memory_value t loc =
  let l = Line_table.find t.lines loc in
  if l == Line_table.dummy t.lines then t.initial loc else l.value

let busy t = Line_table.fold (fun l acc -> acc || l.trans <> No_trans) t.lines false

let busy_lines t =
  Line_table.fold
    (fun l acc -> if l.trans <> No_trans then l.loc :: acc else acc)
    t.lines []
  |> List.sort Int.compare

let debug_dump t =
  let b = Buffer.create 256 in
  Line_table.iter_hashtbl_order t.lines
    (fun _ -> true)
    (fun l ->
      Buffer.add_string b
        (Printf.sprintf "  dir loc=%d st=%s v=%d trans=%s queued=%d stale_racks=%d\n"
           l.loc
           (match l.dstate with
           | D_uncached -> "U"
           | D_shared ->
             "S{" ^ String.concat "," (List.map string_of_int (sharer_list l)) ^ "}"
           | D_exclusive -> Printf.sprintf "E(%d)" l.owner)
           l.value
           (match l.trans with
           | No_trans -> "-"
           | Recall_s | Recall_x ->
             Printf.sprintf "recall(%s req=%d own=%d)"
               (if l.trans = Recall_s then "S" else "X")
               l.t_requester l.t_owner
           | Wait_acks ->
             Printf.sprintf "acks(req=%d rem=%d)" l.t_requester l.t_remaining)
           (Queue.length l.waiting) l.stale_recall_acks));
  Buffer.contents b
