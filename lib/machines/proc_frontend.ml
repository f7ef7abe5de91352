module Instr = Wo_prog.Instr
module P = Wo_prog.Prog_compile

type memory_op = {
  kind : Wo_core.Event.kind;
  loc : Wo_core.Event.loc;
  payload : [ `Read | `Write of Wo_core.Event.value | `Rmw of Wo_core.Event.rmw ];
  dest : Instr.reg option;
  seq : int;
}

type request = Access of memory_op | Fence

type status = Running | Blocked | Done

(* Compiled binding: one thread's view of a {!Wo_prog.Prog_compile}
   artifact.  [regs] on the owning [t] is the full flat register file so
   expression ids (which name flat registers) evaluate without
   translation; this thread only ever touches its own slice. *)
type compiled = {
  art : P.t;
  ccode : int array;  (* art.code.(proc) *)
  clen : int;
  stack : int array;  (* postfix scratch, length >= art.max_stack *)
  mutable pc : int;
}

type t = {
  engine : Wo_sim.Engine.t;
  proc : Wo_core.Event.proc;
  local_cost : int;
  perform : request -> unit;
  on_finish : unit -> unit;
  (* AST mode *)
  mutable code_full : Instr.t list;
  mutable code : Instr.t list;
  mutable all_regs : int array;  (* sorted source register ids *)
  (* Register file: AST mode = parallel to [all_regs]; compiled mode =
     flat file of length [art.nregs]. *)
  mutable regs : int array;
  mutable compiled : compiled option;
  mutable status : status;
  mutable seq : int;
  (* The [advance] thunk, built once per frontend: local ops schedule it
     on every step, and a fresh closure per event is the dominant
     allocation of the compiled hot loop. *)
  mutable advance_fn : unit -> unit;
  (* Remaining inline local steps before the compiled walker must yield
     a real engine event (see [advance_compiled_local]). *)
  mutable fuse_budget : int;
}

(* The compiled walker may execute this many consecutive local ops
   inline (via [Engine.try_step_inline]) before yielding one real event;
   the yield keeps [Engine.run]'s event-limit watchdog able to observe a
   purely-local runaway loop.  Results are identical at any value. *)
let fuse_budget_max = 256

(* Binary search over the sorted register-id array; -1 if absent. *)
let rec rfind (a : int array) r lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let v = Array.unsafe_get a mid in
    if v = r then mid else if v < r then rfind a r (mid + 1) hi else rfind a r lo mid

let lookup t r =
  let i = rfind t.all_regs r 0 (Array.length t.all_regs) in
  if i < 0 then 0 else Array.unsafe_get t.regs i

(* [Instr.regs] covers every register the code mentions, so stores always
   hit; a miss (impossible for code and ids from the same program) is a
   no-op, matching the old map's read-of-unwritten-register default. *)
let store_ast t r v =
  let i = rfind t.all_regs r 0 (Array.length t.all_regs) in
  if i >= 0 then Array.unsafe_set t.regs i v

let bind t ?compiled code =
  (match compiled with
  | Some (art : P.t) ->
    let ccode = art.P.code.(t.proc) in
    let need = art.P.nregs in
    let regs =
      if Array.length t.regs = need then t.regs else Array.make (max 1 need) 0
    in
    let stack =
      match t.compiled with
      | Some c when Array.length c.stack >= art.P.max_stack -> c.stack
      | _ -> Array.make (max 1 art.P.max_stack) 0
    in
    t.compiled <- Some { art; ccode; clen = Array.length ccode; stack; pc = 0 };
    t.regs <- regs;
    t.code_full <- [];
    t.code <- [];
    t.all_regs <- [||]
  | None ->
    let all = Array.of_list (Instr.regs code) in
    let regs =
      if t.compiled = None && Array.length t.regs = Array.length all then t.regs
      else Array.make (max 1 (Array.length all)) 0
    in
    t.compiled <- None;
    t.regs <- regs;
    t.code_full <- code;
    t.code <- code;
    t.all_regs <- all)

let reset t =
  t.status <- Blocked;
  t.seq <- 0;
  t.fuse_budget <- fuse_budget_max;
  for r = 0 to Array.length t.regs - 1 do
    Array.unsafe_set t.regs r 0
  done;
  match t.compiled with
  | Some c -> c.pc <- 0
  | None -> t.code <- t.code_full

let rebind t ?compiled code =
  bind t ?compiled code;
  reset t

let next_seq t =
  let s = t.seq in
  t.seq <- s + 1;
  s

let memory_op_of_instr t instr =
  let env r = lookup t r in
  match instr with
  | Instr.Read (r, loc) ->
    Some { kind = Wo_core.Event.Data_read; loc; payload = `Read; dest = Some r; seq = 0 }
  | Instr.Sync_read (r, loc) ->
    Some { kind = Wo_core.Event.Sync_read; loc; payload = `Read; dest = Some r; seq = 0 }
  | Instr.Write (loc, e) ->
    Some
      {
        kind = Wo_core.Event.Data_write;
        loc;
        payload = `Write (Instr.eval_expr env e);
        dest = None;
        seq = 0;
      }
  | Instr.Sync_write (loc, e) ->
    Some
      {
        kind = Wo_core.Event.Sync_write;
        loc;
        payload = `Write (Instr.eval_expr env e);
        dest = None;
        seq = 0;
      }
  | Instr.Test_and_set (r, loc) ->
    Some
      {
        kind = Wo_core.Event.Sync_rmw;
        loc;
        payload = `Rmw Wo_core.Event.Rmw_tas;
        dest = Some r;
        seq = 0;
      }
  | Instr.Fetch_and_add (r, loc, e) ->
    let addend = Instr.eval_expr env e in
    Some
      {
        kind = Wo_core.Event.Sync_rmw;
        loc;
        payload = `Rmw (Wo_core.Event.Rmw_faa addend);
        dest = Some r;
        seq = 0;
      }
  | Instr.Assign _ | Instr.If _ | Instr.While _ | Instr.Nop | Instr.Fence ->
    None

(* Issue-time markers on the processor's track (spans covering each
   operation's lifetime are emitted machine-side, where completion times
   are known). *)
let note_issue t what =
  let obs = Wo_obs.Recorder.active () in
  if Wo_obs.Recorder.enabled obs then
    Wo_obs.Recorder.instant obs ~cat:Wo_obs.Recorder.Proc ~track:t.proc
      ~name:what ~ts:(Wo_sim.Engine.now t.engine)

(* --- compiled-mode expression evaluation ----------------------------------- *)

(* [sp] rides as a parameter of a zero-free-variable loop, not a [ref]:
   the classic compiler boxes refs (and heap-allocates closures for
   local recursive functions that capture), and one box per evaluated
   expression is measurable on compute-heavy programs. *)
let rec postfix_step stack pool regs off len i sp =
  if i = len then Array.unsafe_get stack 0
  else begin
    let base = off + (2 * i) in
    let tag = Array.unsafe_get pool base in
    if tag = P.p_const then begin
      Array.unsafe_set stack sp (Array.unsafe_get pool (base + 1));
      postfix_step stack pool regs off len (i + 1) (sp + 1)
    end
    else if tag = P.p_reg then begin
      Array.unsafe_set stack sp
        (Array.unsafe_get regs (Array.unsafe_get pool (base + 1)));
      postfix_step stack pool regs off len (i + 1) (sp + 1)
    end
    else begin
      let b = Array.unsafe_get stack (sp - 1) in
      let a = Array.unsafe_get stack (sp - 2) in
      let v =
        if tag = P.p_add then a + b
        else if tag = P.p_sub then a - b
        else if tag = P.p_mul then a * b
        else if tag = P.p_eq then if a = b then 1 else 0
        else if tag = P.p_ne then if a <> b then 1 else 0
        else if tag = P.p_lt then if a < b then 1 else 0
        else if a <= b then 1
        else 0
      in
      Array.unsafe_set stack (sp - 2) v;
      postfix_step stack pool regs off len (i + 1) (sp - 1)
    end
  end

let eval_postfix (c : compiled) (regs : int array) e =
  let art = c.art in
  postfix_step c.stack art.P.epool regs art.P.e_arg.(e) art.P.e_len.(e) 0 0

let ceval (c : compiled) (regs : int array) e =
  let art = c.art in
  let k = Array.unsafe_get art.P.e_kind e in
  if k = P.e_const then Array.unsafe_get art.P.e_arg e
  else if k = P.e_reg then Array.unsafe_get regs (Array.unsafe_get art.P.e_arg e)
  else eval_postfix c regs e

(* Unconditional jumps are resolved for free at the start of an advance,
   mirroring the AST walker where the join after an [If] and the back
   edge of a [While] cost nothing.  Chains are acyclic: back edges always
   target a [jif]. *)
let rec resolve_jmp_in (ccode : int array) clen pc =
  if pc < clen && Array.unsafe_get ccode pc = P.o_jmp then
    resolve_jmp_in ccode clen (Array.unsafe_get ccode (pc + 1))
  else pc

let resolve_jmp (c : compiled) pc = resolve_jmp_in c.ccode c.clen pc

let rec advance t =
  match t.compiled with
  | Some c -> cadvance t c
  | None -> ast_advance t

(* One instruction per engine event, exactly like the AST walker: local
   ops re-schedule at [local_cost]; memory ops and fences block
   synchronously inside the event. *)
and cadvance t c =
  let pc = resolve_jmp c c.pc in
  c.pc <- pc;
  if pc >= c.clen then begin
    if t.status <> Done then begin
      t.status <- Done;
      note_issue t "finish";
      t.on_finish ()
    end
  end
  else begin
    let code = c.ccode in
    let op = Array.unsafe_get code pc in
    if op <= P.o_faa then begin
      let a = code.(pc + 1) and b = code.(pc + 2) in
      let kind, loc, payload, dest =
        if op = P.o_read then
          (Wo_core.Event.Data_read, c.art.P.locs.(b), `Read, Some a)
        else if op = P.o_write then
          (Wo_core.Event.Data_write, c.art.P.locs.(a), `Write (ceval c t.regs b), None)
        else if op = P.o_sync_read then
          (Wo_core.Event.Sync_read, c.art.P.locs.(b), `Read, Some a)
        else if op = P.o_sync_write then
          ( Wo_core.Event.Sync_write,
            c.art.P.locs.(a),
            `Write (ceval c t.regs b),
            None )
        else if op = P.o_tas then
          (Wo_core.Event.Sync_rmw, c.art.P.locs.(b), `Rmw Wo_core.Event.Rmw_tas, Some a)
        else
          ( Wo_core.Event.Sync_rmw,
            c.art.P.locs.(b),
            `Rmw (Wo_core.Event.Rmw_faa (ceval c t.regs code.(pc + 3))),
            Some a )
      in
      c.pc <- pc + P.op_stride;
      t.status <- Blocked;
      (if Wo_obs.Recorder.enabled (Wo_obs.Recorder.active ()) then
         note_issue t
           (Format.asprintf "issue.%a.%a" Wo_core.Event.pp_kind kind
              Wo_core.Event.pp_loc loc));
      t.perform (Access { kind; loc; payload; dest; seq = next_seq t })
    end
    else if op = P.o_fence then begin
      c.pc <- pc + P.op_stride;
      t.status <- Blocked;
      note_issue t "issue.fence";
      t.perform Fence
    end
    else begin
      (if op = P.o_assign then begin
         t.regs.(code.(pc + 1)) <- ceval c t.regs code.(pc + 2);
         c.pc <- pc + P.op_stride
       end
       else if op = P.o_jif then
         c.pc <-
           (if ceval c t.regs code.(pc + 1) <> 0 then pc + P.op_stride
            else code.(pc + 2))
       else (* o_nop *) c.pc <- pc + P.op_stride);
      advance_compiled_local t
    end
  end

(* Local-op continuation of the compiled walker.  A local op's next step
   is a self-reschedule at [local_cost]; when the engine certifies that
   nothing else is due first, the step runs inline — int-decoded stepping
   without a heap round-trip per instruction — with results bit-identical
   to the evented path (see [Engine.try_step_inline]).  The AST walker
   keeps the one-event-per-instruction discipline verbatim: it is the
   oracle the compiled engine is checked against, so it stays on the
   pre-compilation execution path.  Tail calls throughout: a fused run of
   local ops consumes no stack. *)
and advance_compiled_local t =
  if
    t.fuse_budget > 0
    && Wo_sim.Engine.try_step_inline t.engine ~delay:t.local_cost
  then begin
    t.fuse_budget <- t.fuse_budget - 1;
    advance t
  end
  else begin
    t.fuse_budget <- fuse_budget_max;
    schedule_advance t ~delay:t.local_cost
  end

and ast_advance t =
  match t.code with
  | [] ->
    if t.status <> Done then begin
      t.status <- Done;
      note_issue t "finish";
      t.on_finish ()
    end
  | instr :: rest -> (
    match memory_op_of_instr t instr with
    | Some op ->
      t.code <- rest;
      t.status <- Blocked;
      (if Wo_obs.Recorder.enabled (Wo_obs.Recorder.active ()) then
         note_issue t
           (Format.asprintf "issue.%a.%a" Wo_core.Event.pp_kind op.kind
              Wo_core.Event.pp_loc op.loc));
      t.perform (Access { op with seq = next_seq t })
    | None -> (
      match instr with
      | Instr.Fence ->
        t.code <- rest;
        t.status <- Blocked;
        note_issue t "issue.fence";
        t.perform Fence
      | _ ->
        let env r = lookup t r in
        (match instr with
        | Instr.Assign (r, e) ->
          store_ast t r (Instr.eval_expr env e);
          t.code <- rest
        | Instr.Nop -> t.code <- rest
        | Instr.If (c, a, b) ->
          t.code <- (if Instr.eval_cond env c then a else b) @ rest
        | Instr.While (c, body) ->
          if Instr.eval_cond env c then t.code <- body @ (instr :: rest)
          else t.code <- rest
        | Instr.Read _ | Instr.Write _ | Instr.Sync_read _
        | Instr.Sync_write _ | Instr.Test_and_set _ | Instr.Fetch_and_add _
        | Instr.Fence ->
          assert false);
        schedule_advance t ~delay:t.local_cost))

and schedule_advance t ~delay =
  t.status <- Running;
  Wo_sim.Engine.schedule t.engine ~delay t.advance_fn

let create ~engine ~proc ~code ?(local_cost = 1) ?compiled ~perform ~on_finish () =
  let t =
    {
      engine;
      proc;
      local_cost = max 1 local_cost;
      perform;
      on_finish;
      code_full = [];
      code = [];
      all_regs = [||];
      regs = [||];
      compiled = None;
      status = Blocked;
      seq = 0;
      advance_fn = ignore;
      fuse_budget = fuse_budget_max;
    }
  in
  t.advance_fn <- (fun () -> advance t);
  bind t ?compiled code;
  t

let start t = schedule_advance t ~delay:0

let resume t ~store ~delay =
  if t.status <> Blocked then
    invalid_arg "Proc_frontend.resume: processor is not blocked";
  (match store with
  | Some (r, v) -> (
    match t.compiled with
    | Some _ -> t.regs.(r) <- v  (* dest carries a flat register index *)
    | None -> store_ast t r v)
  | None -> ());
  schedule_advance t ~delay

let finished t = t.status = Done
let blocked t = t.status = Blocked
let proc t = t.proc

let registers t =
  match t.compiled with
  | Some c ->
    let ids = c.art.P.reg_ids.(t.proc) in
    let base = c.art.P.reg_base.(t.proc) in
    List.init (Array.length ids) (fun i -> (ids.(i), t.regs.(base + i)))
  | None ->
    List.init (Array.length t.all_regs) (fun i -> (t.all_regs.(i), t.regs.(i)))

let current_position t =
  match t.compiled with
  | Some c ->
    if c.pc >= c.clen then
      if t.status = Done then "finished" else "at end, blocked"
    else
      Printf.sprintf "blocked at pc %d/%d (opcode %d, seq %d)" c.pc c.clen
        c.ccode.(c.pc) t.seq
  | None -> (
    match t.code with
    | [] -> if t.status = Done then "finished" else "at end, blocked"
    | instr :: _ ->
      Format.asprintf "blocked before %a (seq %d)" Instr.pp instr t.seq)
