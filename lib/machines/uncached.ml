type buffer_config = {
  depth : int;
  read_bypass : bool;
  forwarding : bool;
  drain_delay : int;
      (* cycles an entry rests in the buffer before going to memory; the
         window in which a bypassing read can overtake it *)
}

type config = {
  fabric : Memsys.fabric_kind;
  write_buffer : buffer_config option;
  wait_write_ack : bool;
  flush_buffer_on_sync : bool;
  modules : int;
  local_cost : int;
}

(* Per-location write sequencing: preserves intra-processor same-location
   ordering (condition 1 of 5.1) even with fire-and-forget writes -- at most
   one write per location is in flight, later ones queue, and reads of a
   location with outstanding writes forward the youngest value. *)
type loc_state = {
  mutable in_flight : bool;
  pending_sends : (unit -> unit) Queue.t;
  mutable last_value : Wo_core.Event.value;
  mutable loc_waiters : (unit -> unit) list;
}

type proc_ctx = {
  buffer : Wo_cache.Write_buffer.t option;
  loc_states : (Wo_core.Event.loc, loc_state) Hashtbl.t;
  mutable drain_active : bool;
}

(* The store path: an optional write buffer per processor in front of the
   flat memory ({!Flat_memory}), which owns the modules, the replies and
   the quiet condition (buffer empty, every acknowledgement in). *)
let build (config : config) (env : Driver.env) : Memsys.port =
  let mem = Flat_memory.create env config.fabric ~modules:config.modules in
  let engine = env.Driver.engine in
  let ctxs =
    Array.init env.Driver.num_procs (fun _ ->
        {
          buffer =
            Option.map
              (fun (b : buffer_config) -> Wo_cache.Write_buffer.create ~depth:b.depth)
              config.write_buffer;
          loc_states = Hashtbl.create 16;
          drain_active = false;
        })
  in
  Driver.on_reset env (fun () ->
      Array.iter
        (fun ctx ->
          (match ctx.buffer with
          | Some b -> Wo_cache.Write_buffer.clear b
          | None -> ());
          Hashtbl.reset ctx.loc_states;
          ctx.drain_active <- false)
        ctxs);
  let now () = Wo_sim.Engine.now engine in
  let stall p reason cycles = Driver.stall env ~proc:p reason cycles in
  (* Charge a wait that began at [t0], then go on. *)
  let waited p reason t0 k () =
    stall p reason (now () - t0);
    k ()
  in
  let loc_state ctx loc =
    match Hashtbl.find_opt ctx.loc_states loc with
    | Some ls -> ls
    | None ->
      let ls =
        {
          in_flight = false;
          pending_sends = Queue.create ();
          last_value = 0;
          loc_waiters = [];
        }
      in
      Hashtbl.replace ctx.loc_states loc ls;
      ls
  in
  let loc_busy ctx loc =
    let ls = loc_state ctx loc in
    ls.in_flight || not (Queue.is_empty ls.pending_sends)
  in
  let write_acked ctx loc =
    let ls = loc_state ctx loc in
    match Queue.take_opt ls.pending_sends with
    | Some next -> next () (* stays in flight *)
    | None ->
      ls.in_flight <- false;
      let ws = ls.loc_waiters in
      ls.loc_waiters <- [];
      List.iter (fun k -> k ()) ws
  in
  let sequence_write ctx loc send =
    let ls = loc_state ctx loc in
    if ls.in_flight then Queue.add send ls.pending_sends
    else begin
      ls.in_flight <- true;
      send ()
    end
  in
  let drain_delay =
    match config.write_buffer with Some bc -> max 0 bc.drain_delay | None -> 0
  in
  (* Drain the write buffer one entry at a time. *)
  let rec drain p ctx b =
    if not ctx.drain_active then
      match Wo_cache.Write_buffer.pop b with
      | None ->
        Wo_cache.Write_buffer.notify b;
        Flat_memory.wake_if_quiet mem p
      | Some entry ->
        ctx.drain_active <- true;
        let ls = loc_state ctx entry.Wo_cache.Write_buffer.loc in
        ls.in_flight <- true;
        ls.last_value <- entry.Wo_cache.Write_buffer.value;
        Flat_memory.post mem p ~delay:drain_delay entry
  and drained p ctx b (r : Memsys.op) =
    ctx.drain_active <- false;
    write_acked ctx r.Memsys.oloc;
    Wo_cache.Write_buffer.notify b;
    drain p ctx b
  in
  let perform p (op : Proc_frontend.memory_op) =
    let ctx = ctxs.(p) in
    let sync = Flat_memory.is_sync op in
    let issue_plain_write (r : Memsys.op) v ~wait =
      let ls = loc_state ctx r.Memsys.oloc in
      ls.last_value <- v;
      let send () =
        Flat_memory.write mem p r v (fun r ->
            write_acked ctx r.Memsys.oloc;
            Flat_memory.wake_if_quiet mem p;
            if wait then begin
              stall p Wo_obs.Stall.Write_ack (now () - r.Memsys.issued);
              Driver.resume env p ~store:None ~delay:1
            end)
      in
      sequence_write ctx r.Memsys.oloc send;
      if not wait then Driver.resume env p ~store:None ~delay:1
    in
    let go () =
      let r = Driver.new_op env ~proc:p op in
      match op.Proc_frontend.payload with
      | `Read -> (
        let read () = Flat_memory.read mem p op r in
        match (ctx.buffer, config.write_buffer) with
        | Some b, Some bc
          when bc.forwarding && Wo_cache.Write_buffer.has_loc b r.Memsys.oloc
          -> (
          (* Store-to-load forwarding: the youngest buffered write wins. *)
          match Wo_cache.Write_buffer.newest_for b r.Memsys.oloc with
          | Some entry ->
            Flat_memory.forward mem p op r entry.Wo_cache.Write_buffer.value
          | None -> assert false)
        | Some b, Some bc
          when (not bc.forwarding) && Wo_cache.Write_buffer.has_loc b r.Memsys.oloc
          ->
          (* No forwarding: wait until our write to this location has
             reached memory (dependency preservation). *)
          Flat_memory.on_quiet mem p
            (waited p Wo_obs.Stall.Buffer_drain (now ()) read)
        | Some b, Some bc
          when (not bc.read_bypass) && not (Wo_cache.Write_buffer.is_empty b)
          ->
          (* No bypass: the read waits for the buffer to drain. *)
          Wo_cache.Write_buffer.on_empty b
            (waited p Wo_obs.Stall.Buffer_drain (now ()) read)
        | _ ->
          if loc_busy ctx r.Memsys.oloc then
            (* A write of ours to this location is still on its way to
               memory: forward its value. *)
            Flat_memory.forward mem p op r (loc_state ctx r.Memsys.oloc).last_value
          else read ())
      | `Rmw f ->
        let rec gated () =
          let buffered =
            match ctx.buffer with
            | Some b -> Wo_cache.Write_buffer.has_loc b r.Memsys.oloc
            | None -> false
          in
          if buffered then
            Flat_memory.on_quiet mem p
              (waited p Wo_obs.Stall.Rmw_order (now ()) gated)
          else if loc_busy ctx r.Memsys.oloc then begin
            let ls = loc_state ctx r.Memsys.oloc in
            ls.loc_waiters <-
              waited p Wo_obs.Stall.Rmw_order (now ()) gated :: ls.loc_waiters
          end
          else Flat_memory.rmw mem p op r f
        in
        gated ()
      | `Write v -> (
        match ctx.buffer with
        | Some b when not (sync && config.flush_buffer_on_sync) ->
          (* Buffered write: commits on deposit (forwarding could
             dispatch its value); globally performed at the module. *)
          let tag = Flat_memory.expect mem r (drained p ctx b) in
          let entry = { Wo_cache.Write_buffer.loc = r.Memsys.oloc; value = v; tag } in
          let deposit () =
            r.Memsys.committed <- now ();
            Driver.resume env p ~store:None ~delay:1;
            drain p ctx b
          in
          if Wo_cache.Write_buffer.push b entry then deposit ()
          else
            Wo_cache.Write_buffer.on_not_full b
              (waited p Wo_obs.Stall.Buffer_full (now ()) (fun () ->
                   ignore (Wo_cache.Write_buffer.push b entry);
                   deposit ()))
        | _ ->
          issue_plain_write r v ~wait:(config.wait_write_ack || sync))
    in
    if sync && config.flush_buffer_on_sync then
      (* Fence semantics: drain the buffer and wait for every outstanding
         acknowledgement before synchronizing. *)
      Flat_memory.on_quiet mem p (waited p Wo_obs.Stall.Release_gate (now ()) go)
    else go ()
  in
  let proc_status p =
    let ctx = ctxs.(p) in
    let buf =
      match ctx.buffer with
      | None -> "-"
      | Some b ->
        Printf.sprintf "%d/%d" (Wo_cache.Write_buffer.size b)
          (Wo_cache.Write_buffer.depth b)
    in
    let inflight =
      Hashtbl.fold
        (fun loc ls acc ->
          if ls.in_flight || not (Queue.is_empty ls.pending_sends) then
            loc :: acc
          else acc)
        ctx.loc_states []
      |> List.sort compare |> List.map string_of_int |> String.concat ","
    in
    Printf.sprintf "awaiting=%d buf=%s inflight=%s"
      (Flat_memory.awaiting mem p) buf inflight
  in
  Flat_memory.port mem ~perform ~proc_status

let make ~name ~description ~sequentially_consistent ~weakly_ordered_drf0
    (config : config) : Machine.t =
  if config.modules <= 0 then invalid_arg "Uncached.make: modules must be positive";
  Driver.make ~name ~description ~sequentially_consistent ~weakly_ordered_drf0
    ~local_cost:config.local_cost ~build:(build config)
