type amsg =
  | M_read of { loc : Wo_core.Event.loc; proc : int; tag : int }
  | M_write of {
      loc : Wo_core.Event.loc;
      value : Wo_core.Event.value;
      proc : int;
      tag : int;
    }
  | M_rmw of {
      loc : Wo_core.Event.loc;
      f : Wo_core.Event.rmw;
      proc : int;
      tag : int;
    }
  | M_read_reply of { tag : int; value : Wo_core.Event.value; applied_at : int }
  | M_write_ack of { tag : int; applied_at : int }
  | M_rmw_reply of { tag : int; old : Wo_core.Event.value; applied_at : int }

let amsg_kind = function
  | M_read _ -> 0
  | M_write _ -> 1
  | M_rmw _ -> 2
  | M_read_reply _ -> 3
  | M_write_ack _ -> 4
  | M_rmw_reply _ -> 5

let amsg_kind_names =
  [| "Read"; "Write"; "Rmw"; "ReadReply"; "WriteAck"; "RmwReply" |]

type t = {
  env : Driver.env;
  fabric : amsg Wo_interconnect.Fabric.t;
  modules : int;
  memory : (Wo_core.Event.loc, Wo_core.Event.value) Hashtbl.t;
  mutable next_tag : int;
  by_tag : (int, Memsys.op * (Memsys.op -> unit)) Hashtbl.t;
  awaiting : int array;  (* per processor: tags not yet answered *)
  quiet_waiters : (unit -> unit) list array;
}

let now t = Wo_sim.Engine.now t.env.Driver.engine

let mem_read t loc =
  match Hashtbl.find_opt t.memory loc with
  | Some v -> v
  | None -> Wo_prog.Program.initial_value t.env.Driver.program loc

let send t p loc msg =
  t.fabric.Wo_interconnect.Fabric.send ~src:p
    ~dst:(t.env.Driver.num_procs + (loc mod t.modules))
    msg

(* A module applies each operation atomically on arrival and replies
   with the application time. *)
let apply t node msg =
  let reply dst m = t.fabric.Wo_interconnect.Fabric.send ~src:node ~dst m in
  match msg with
  | M_read { loc; proc; tag } ->
    reply proc (M_read_reply { tag; value = mem_read t loc; applied_at = now t })
  | M_write { loc; value; proc; tag } ->
    Hashtbl.replace t.memory loc value;
    reply proc (M_write_ack { tag; applied_at = now t })
  | M_rmw { loc; f; proc; tag } ->
    let old = mem_read t loc in
    Hashtbl.replace t.memory loc (Wo_core.Event.apply_rmw f old);
    reply proc (M_rmw_reply { tag; old; applied_at = now t })
  | M_read_reply _ | M_write_ack _ | M_rmw_reply _ ->
    raise (Machine.Machine_error "memory module received a reply")

(* Replies dispatch through the tag table: fill the record, then run the
   continuation registered with the request. *)
let complete t tag ~rv ~applied_at =
  match Hashtbl.find_opt t.by_tag tag with
  | None -> raise (Machine.Machine_error "unknown reply tag")
  | Some ((r : Memsys.op), k) ->
    Hashtbl.remove t.by_tag tag;
    (match rv with
    | Some _ ->
      r.rv <- rv;
      r.committed <- applied_at
    | None -> if r.committed < 0 then r.committed <- applied_at);
    r.performed <- applied_at;
    t.awaiting.(r.oproc) <- t.awaiting.(r.oproc) - 1;
    k r

let receive t msg =
  match msg with
  | M_read_reply { tag; value; applied_at } ->
    complete t tag ~rv:(Some value) ~applied_at
  | M_rmw_reply { tag; old; applied_at } ->
    complete t tag ~rv:(Some old) ~applied_at
  | M_write_ack { tag; applied_at } -> complete t tag ~rv:None ~applied_at
  | M_read _ | M_write _ | M_rmw _ ->
    raise (Machine.Machine_error "processor received a request")

let create (env : Driver.env) fabric_kind ~modules =
  let fabric =
    Driver.fabric env ~kind:amsg_kind ~kind_names:amsg_kind_names fabric_kind
  in
  let num_procs = env.Driver.num_procs in
  let t =
    {
      env;
      fabric;
      modules;
      memory = Hashtbl.create 64;
      next_tag = 0;
      by_tag = Hashtbl.create 64;
      awaiting = Array.make num_procs 0;
      quiet_waiters = Array.make num_procs [];
    }
  in
  for m = 0 to modules - 1 do
    let node = num_procs + m in
    fabric.Wo_interconnect.Fabric.connect ~node (apply t node)
  done;
  for p = 0 to num_procs - 1 do
    fabric.Wo_interconnect.Fabric.connect ~node:p (receive t)
  done;
  (* Session reset: back to the just-built state.  Hashtbl.reset (not
     clear) restores initial capacity, so the tables regrow exactly as a
     fresh build's would. *)
  Driver.on_reset env (fun () ->
      Hashtbl.reset t.memory;
      t.next_tag <- 0;
      Hashtbl.reset t.by_tag;
      Array.fill t.awaiting 0 num_procs 0;
      Array.fill t.quiet_waiters 0 num_procs []);
  t

let is_sync (op : Proc_frontend.memory_op) =
  match op.Proc_frontend.kind with
  | Wo_core.Event.Sync_read | Wo_core.Event.Sync_write | Wo_core.Event.Sync_rmw ->
    true
  | Wo_core.Event.Data_read | Wo_core.Event.Data_write -> false

let expect t (r : Memsys.op) k =
  let tag = t.next_tag in
  t.next_tag <- tag + 1;
  Hashtbl.replace t.by_tag tag (r, k);
  t.awaiting.(r.oproc) <- t.awaiting.(r.oproc) + 1;
  tag

let post t p ~delay (e : Wo_cache.Write_buffer.entry) =
  Wo_sim.Engine.schedule t.env.Driver.engine ~delay (fun () ->
      send t p e.loc
        (M_write { loc = e.loc; value = e.value; proc = p; tag = e.tag }))

let write t p (r : Memsys.op) value k =
  let tag = expect t r k in
  send t p r.oloc (M_write { loc = r.oloc; value; proc = p; tag })

(* Resume the processor, storing the value the operation read. *)
let resume_read t p (op : Proc_frontend.memory_op) (r : Memsys.op) =
  let store =
    match (op.Proc_frontend.dest, r.rv) with
    | Some reg, Some v -> Some (reg, v)
    | _ -> None
  in
  Driver.resume t.env p ~store ~delay:1

(* The processor waits for the reply; the wait is charged from the send,
   so any wait before it (a drain, an ordering gate) is charged apart. *)
let read t p op (r : Memsys.op) =
  let t0 = now t in
  let reason =
    if is_sync op then Wo_obs.Stall.Sync_commit else Wo_obs.Stall.Read_miss
  in
  let tag =
    expect t r (fun r ->
        Driver.stall t.env ~proc:p reason (now t - t0);
        resume_read t p op r)
  in
  send t p r.oloc (M_read { loc = r.oloc; proc = p; tag })

let rmw t p op (r : Memsys.op) f =
  let t0 = now t in
  let reason =
    if is_sync op then Wo_obs.Stall.Sync_commit else Wo_obs.Stall.Rmw_wait
  in
  let tag =
    expect t r (fun r ->
        Driver.stall t.env ~proc:p reason (now t - t0);
        (match r.rv with
        | Some old -> r.wv <- Some (Wo_core.Event.apply_rmw f old)
        | None -> ());
        resume_read t p op r)
  in
  send t p r.oloc (M_rmw { loc = r.oloc; f; proc = p; tag })

let forward t p op (r : Memsys.op) v =
  r.rv <- Some v;
  r.committed <- now t;
  r.performed <- now t;
  resume_read t p op r

let awaiting t p = t.awaiting.(p)
let quiet t p = t.awaiting.(p) = 0

let on_quiet t p k =
  if quiet t p then k () else t.quiet_waiters.(p) <- k :: t.quiet_waiters.(p)

let wake_if_quiet t p =
  if quiet t p then begin
    let ws = t.quiet_waiters.(p) in
    t.quiet_waiters.(p) <- [];
    List.iter (fun k -> k ()) ws
  end

let fence t p =
  let t0 = now t in
  on_quiet t p (fun () ->
      Driver.stall t.env ~proc:p Wo_obs.Stall.Counter_drain (now t - t0);
      Driver.resume t.env p ~store:None ~delay:1)

let port t ~perform ~proc_status =
  let procs = Array.length t.awaiting in
  let debug_dump () =
    let b = Buffer.create 256 in
    for p = 0 to procs - 1 do
      Printf.bprintf b "P%d: %s quiet=%b\n" p (proc_status p) (quiet t p)
    done;
    Printf.bprintf b "unmatched reply tags: %d\n" (Hashtbl.length t.by_tag);
    Buffer.contents b
  in
  let check_drained () =
    for p = 0 to procs - 1 do
      if not (quiet t p) then
        raise
          (Machine.Machine_error
             (Printf.sprintf "%s: P%d has undrained writes" t.env.Driver.name p))
    done
  in
  {
    Memsys.perform;
    fence = fence t;
    final_value = mem_read t;
    proc_status;
    shared_status = (fun () -> "");
    debug_dump;
    check_drained;
  }
