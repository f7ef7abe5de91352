(* The model-aware reference enumerator.

   For a loop-free program and a hardware ordering model
   ({!Wo_core.Sync_model.hardware}) this enumerates every outcome the
   model allows, by exhaustive interleaving of an abstract operational
   machine: per-processor store buffers are explicit state, and draining
   one buffered write to memory is a scheduling step like any other.
   The simulated machines ({!Wo_machines.Ordering}) implement the same
   models with real timing; their reachable outcomes are a subset of
   what this enumerator produces, which is exactly the compliance
   contract `wo difftest` checks for racy programs.

   The abstract machine:
   - a data write deposits into the processor's buffer (when the model
     buffers at all); a drain step applies the oldest eligible entry to
     memory — the FIFO head under TSO, the oldest entry of any one
     location when W->W is relaxed (PSO/RA);
   - a data read returns the youngest of the processor's own pending
     writes to the location (store-to-load forwarding) or, failing
     that, current memory — overtaking pending writes to other
     locations (W->R);
   - synchronization requires an empty buffer (drain-then-issue) and
     acts directly on memory; under [Acquire_no_drain] (RA) read-only
     synchronization skips the drain requirement, like a data read;
   - local computation runs eagerly: it commutes with every other
     processor's steps, so executing it immediately prunes the
     interleaving tree without losing outcomes.

   Two searches implement this machine.  [reference_search] is the
   original list walk over Instr.t code tails, assoc-list registers and
   memory, and a polymorphic Hashtbl of whole states; it is kept as the
   identity oracle and answers programs Prog_compile rejects.
   [compiled_search] runs the same machine over the Prog_compile arrays with
   packed keys and one further reduction (eager buffered writes, argued
   at [settle] below). *)

module SM = Wo_core.Sync_model

exception Too_many_states of int

(* Sorted-assoc updates keep states structurally canonical, so the
   visited table can use polymorphic equality. *)
let rec assoc_set k v = function
  | [] -> [ (k, v) ]
  | (k', _) :: rest when k' = k -> (k, v) :: rest
  | (k', v') :: rest when k' > k -> (k, v) :: (k', v') :: rest
  | kv :: rest -> kv :: assoc_set k v rest

type pstate = {
  code : Instr.t list;
  regs : (Instr.reg * Wo_core.Event.value) list; (* sorted *)
  buf : (Wo_core.Event.loc * Wo_core.Event.value) list; (* oldest first *)
}

type state = {
  procs : pstate list;
  mem : (Wo_core.Event.loc * Wo_core.Event.value) list; (* sorted *)
}

let reg_value ps r = try List.assoc r ps.regs with Not_found -> 0
let eval ps e = Instr.eval_expr (reg_value ps) e
let cond ps c = Instr.eval_cond (reg_value ps) c

let mem_value program mem loc =
  try List.assoc loc mem with Not_found -> Program.initial_value program loc

(* The youngest pending write to [loc], if any. *)
let forwarded ps loc =
  List.fold_left
    (fun acc (l, v) -> if l = loc then Some v else acc)
    None ps.buf

(* Run a processor's local prefix (assignments, control flow, Nop) to
   the next memory operation.  Terminates on loop-free programs. *)
let rec settle_local ps =
  match ps.code with
  | Instr.Assign (r, e) :: rest ->
    settle_local { ps with code = rest; regs = assoc_set r (eval ps e) ps.regs }
  | Instr.Nop :: rest -> settle_local { ps with code = rest }
  | Instr.If (c, a, b) :: rest ->
    settle_local { ps with code = (if cond ps c then a else b) @ rest }
  | Instr.While (c, body) :: rest ->
    if cond ps c then settle_local { ps with code = body @ (ps.code : Instr.t list) }
    else settle_local { ps with code = rest }
  | _ -> ps

(* Entries eligible to drain next: position of the FIFO head, or of the
   oldest entry per location when W->W is relaxed. *)
let drainable hw ps =
  match ps.buf with
  | [] -> []
  | (l0, _) :: _ when not (SM.relaxes hw SM.W_to_w) -> [ (0, l0) ]
  | buf ->
    let seen = ref [] in
    List.filteri
      (fun _ (l, _) ->
        if List.mem l !seen then false
        else begin
          seen := l :: !seen;
          true
        end)
      buf
    |> fun firsts ->
    List.map
      (fun (l, _) ->
        let rec pos i = function
          | (l', _) :: _ when l' = l -> i
          | _ :: rest -> pos (i + 1) rest
          | [] -> assert false
        in
        (pos 0 buf, l))
      firsts

let remove_nth n l = List.filteri (fun i _ -> i <> n) l

let default_max_states = 2_000_000

let require_loop_free program =
  if Program.has_loops program then
    invalid_arg "Relaxed.outcomes: program has loops"

let reference_search ~max_states (hw : SM.hardware) (program : Program.t) =
  let buffers = hw.SM.relaxations <> [] in
  let thread_regs =
    Array.map (fun code -> Instr.regs code) program.Program.threads
  in
  let observable p r =
    match program.Program.observable with
    | None -> true
    | Some l -> List.mem (p, r) l
  in
  let initial =
    {
      procs =
        Array.to_list
          (Array.map
             (fun code -> settle_local { code; regs = []; buf = [] })
             program.Program.threads);
      mem = [];
    }
  in
  let visited : (state, unit) Hashtbl.t = Hashtbl.create 4096 in
  let results : (Outcome.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let set_proc st p ps =
    { st with procs = List.mapi (fun i q -> if i = p then ps else q) st.procs }
  in
  let finalize st =
    let registers =
      List.concat
        (List.mapi
           (fun p ps ->
             List.filter_map
               (fun r ->
                 if observable p r then Some (p, r, reg_value ps r) else None)
               thread_regs.(p))
           st.procs)
    in
    let memory =
      List.map (fun loc -> (loc, mem_value program st.mem loc)) (Program.locs program)
    in
    let o = Outcome.make ~registers ~memory in
    if not (Hashtbl.mem results o) then Hashtbl.replace results o ()
  in
  let rec explore st =
    if Hashtbl.mem visited st then ()
    else begin
      Hashtbl.replace visited st ();
      if Hashtbl.length visited > max_states then
        raise (Too_many_states max_states);
      let stepped = ref false in
      List.iteri
        (fun p ps ->
          (* drain one eligible buffered write *)
          List.iter
            (fun (n, loc) ->
              stepped := true;
              let v = snd (List.nth ps.buf n) in
              explore
                (set_proc
                   { st with mem = assoc_set loc v st.mem }
                   p
                   { ps with buf = remove_nth n ps.buf }))
            (drainable hw ps);
          (* execute the next memory operation *)
          match ps.code with
          | [] -> ()
          | instr :: rest ->
            let continue ?(mem = st.mem) ps' =
              stepped := true;
              explore (set_proc { st with mem } p (settle_local ps'))
            in
            let read_value loc =
              match (hw.SM.forwarding, forwarded ps loc) with
              | true, Some v -> v
              | _ -> mem_value program st.mem loc
            in
            let quiet = ps.buf = [] in
            (match instr with
            | Instr.Read (r, loc) ->
              if hw.SM.forwarding || forwarded ps loc = None then
                continue
                  { ps with code = rest; regs = assoc_set r (read_value loc) ps.regs }
            | Instr.Write (loc, e) ->
              let v = eval ps e in
              if buffers then
                continue { ps with code = rest; buf = ps.buf @ [ (loc, v) ] }
              else continue ~mem:(assoc_set loc v st.mem) { ps with code = rest }
            | Instr.Sync_read (r, loc) ->
              if quiet || SM.relaxes hw SM.Acquire_no_drain then
                continue
                  { ps with code = rest; regs = assoc_set r (read_value loc) ps.regs }
            | Instr.Sync_write (loc, e) ->
              if quiet then
                continue
                  ~mem:(assoc_set loc (eval ps e) st.mem)
                  { ps with code = rest }
            | Instr.Test_and_set (r, loc) ->
              if quiet then
                let old = mem_value program st.mem loc in
                continue
                  ~mem:(assoc_set loc 1 st.mem)
                  { ps with code = rest; regs = assoc_set r old ps.regs }
            | Instr.Fetch_and_add (r, loc, e) ->
              if quiet then
                let old = mem_value program st.mem loc in
                continue
                  ~mem:(assoc_set loc (old + eval ps e) st.mem)
                  { ps with code = rest; regs = assoc_set r old ps.regs }
            | Instr.Fence -> if quiet then continue { ps with code = rest }
            | Instr.Assign _ | Instr.Nop | Instr.If _ | Instr.While _ ->
              (* settle_local leaves only memory operations at the head *)
              assert false))
        st.procs;
      if not !stepped then begin
        assert (List.for_all (fun ps -> ps.code = [] && ps.buf = []) st.procs);
        finalize st
      end
    end
  in
  explore initial;
  ( Hashtbl.fold (fun o () acc -> o :: acc) results []
    |> List.sort Outcome.compare,
    Hashtbl.length visited )

(* --- the compiled search ---------------------------------------------------- *)

module P = Prog_compile

let stride = P.op_stride

(* A configuration of the abstract machine over dense indices.  [bufs.(p)]
   holds processor [p]'s pending writes as flat (location index, value)
   pairs, oldest first.  Arrays are shared between states and copied on
   write, so a step copies only what it changes. *)
type cstate = {
  pcs : int array;
  regs : int array;
  mem : int array;
  bufs : int array array;
}

let with_elt a i v =
  let a = Array.copy a in
  a.(i) <- v;
  a

(* The youngest pending entry for location [li], as a pair index, or -1. *)
let youngest buf li =
  let rec go i = if i < 0 || buf.(2 * i) = li then i else go (i - 1) in
  go ((Array.length buf / 2) - 1)

(* Is pair [i] the oldest pending entry for its location? *)
let oldest_of_loc buf i =
  let li = buf.(2 * i) in
  let rec go j = j >= i || (buf.(2 * j) <> li && go (j + 1)) in
  go 0

let remove_pair buf i =
  let n = Array.length buf in
  Array.init (n - 2) (fun k -> if k < 2 * i then buf.(k) else buf.(k + 2))

(* Run processor [p]'s local ops from [pc]: assignments, jumps, Nops and,
   when the model buffers, data writes.  Stops at the first read,
   synchronization op or fence (a fence needs an empty buffer), or at the
   end of the code.

   Eager buffered writes.  When the model buffers, a data write only
   appends to its own processor's buffer.  It commutes with every step of
   every other processor: those touch memory and their own buffers, never
   this one.  It commutes with its own processor's drains: a drain takes
   the head, or the oldest entry of some location, and the append goes at
   the tail.  And nothing disables it.  So {write} is a persistent set,
   and in this acyclic state space a search that expands only a
   persistent set where one exists still reaches every terminal state
   (Godefroid's deadlock preservation), hence every outcome; executing
   the write here is exactly that expansion.  Reads are not folded, not
   even forwarded ones: after the processor's own drain and another
   processor's drain to the same location, the read returns the other
   processor's value, and reading early would lose that outcome.  Under
   sc_hw ([buffers] false) a write goes straight to memory, conflicts
   with other processors' accesses, and stays a scheduling step. *)
let settle cp ~buffers p pc regs buf =
  let code = cp.P.code.(p) in
  let len = Array.length code in
  let regs = ref regs and owned = ref false and buf = ref buf in
  let rec go pc =
    if pc >= len then pc
    else
      let o = code.(pc) in
      if o = P.o_assign then begin
        let v = Cinterp.eval cp !regs code.(pc + 2) in
        if not !owned then begin
          regs := Array.copy !regs;
          owned := true
        end;
        !regs.(code.(pc + 1)) <- v;
        go (pc + stride)
      end
      else if o = P.o_jmp then go code.(pc + 1)
      else if o = P.o_jif then
        go
          (if Cinterp.eval cp !regs code.(pc + 1) <> 0 then pc + stride
           else code.(pc + 2))
      else if o = P.o_nop then go (pc + stride)
      else if o = P.o_write && buffers then begin
        let v = Cinterp.eval cp !regs code.(pc + 2) in
        buf := Array.append !buf [| code.(pc + 1); v |];
        go (pc + stride)
      end
      else pc
  in
  let pc = go pc in
  (pc, !regs, !buf)

module Keys = Hashtbl.Make (String)

let compiled_search ~max_states (hw : SM.hardware) cp =
  let buffers = hw.SM.relaxations <> [] in
  let per_loc = SM.relaxes hw SM.W_to_w in
  let acquire_no_drain = SM.relaxes hw SM.Acquire_no_drain in
  let nprocs = cp.P.nprocs in
  (* A buffer holds at most one pair per write op, and an op spans
     [stride] >= 2 ints, so the code length bounds each buffer's ints. *)
  let scratch =
    Bytes.create
      (10
      * (2 * nprocs + cp.P.nregs + Array.length cp.P.locs
        + Array.fold_left (fun n c -> n + Array.length c) 0 cp.P.code))
  in
  (* Fixed field counts (nprocs pcs, nregs registers, nlocs cells, then
     each buffer behind its length), so the packing is injective. *)
  let key st =
    let pos = Cinterp.put_varints scratch 0 st.pcs in
    let pos = Cinterp.put_varints scratch pos st.regs in
    let pos = Cinterp.put_varints scratch pos st.mem in
    let pos = ref pos in
    Array.iter
      (fun buf ->
        pos := Cinterp.put_varint scratch !pos (Array.length buf);
        pos := Cinterp.put_varints scratch !pos buf)
      st.bufs;
    Bytes.sub_string scratch 0 !pos
  in
  let visited = Keys.create 4096 in
  let results = Keys.create 64 in
  let finalize st =
    let obs = Array.map (fun (_, _, flat) -> st.regs.(flat)) cp.P.obs_regs in
    let pos = Cinterp.put_varints scratch 0 obs in
    let pos = Cinterp.put_varints scratch pos st.mem in
    let k = Bytes.sub_string scratch 0 pos in
    if not (Keys.mem results k) then
      Keys.replace results k (Cinterp.outcome_of cp ~regs:st.regs ~mem:st.mem)
  in
  let rec explore st =
    let k = key st in
    if not (Keys.mem visited k) then begin
      Keys.replace visited k ();
      if Keys.length visited > max_states then
        raise (Too_many_states max_states);
      let stepped = ref false in
      for p = 0 to nprocs - 1 do
        let buf = st.bufs.(p) in
        let pending = Array.length buf / 2 in
        (* drain one eligible buffered write *)
        for i = 0 to if per_loc then pending - 1 else min pending 1 - 1 do
          if oldest_of_loc buf i then begin
            stepped := true;
            explore
              {
                st with
                mem = with_elt st.mem buf.(2 * i) buf.((2 * i) + 1);
                bufs = with_elt st.bufs p (remove_pair buf i);
              }
          end
        done;
        (* execute the next memory operation *)
        let code = cp.P.code.(p) in
        let pc = st.pcs.(p) in
        if pc < Array.length code then begin
          let continue ?(mem = st.mem) regs =
            stepped := true;
            let pc', regs, buf' =
              settle cp ~buffers p (pc + stride) regs buf
            in
            explore
              {
                pcs = with_elt st.pcs p pc';
                regs;
                mem;
                bufs =
                  (if buf' == buf then st.bufs else with_elt st.bufs p buf');
              }
          in
          let read_value li =
            let i = if hw.SM.forwarding then youngest buf li else -1 in
            if i >= 0 then buf.((2 * i) + 1) else st.mem.(li)
          in
          let quiet = pending = 0 in
          let o = code.(pc) and a = code.(pc + 1) and b = code.(pc + 2) in
          let eval e = Cinterp.eval cp st.regs e in
          if o = P.o_read then begin
            if hw.SM.forwarding || youngest buf b < 0 then
              continue (with_elt st.regs a (read_value b))
          end
          else if o = P.o_write then
            (* only under sc_hw: [settle] folds buffered writes *)
            continue ~mem:(with_elt st.mem a (eval b)) st.regs
          else if o = P.o_sync_read then begin
            if quiet || acquire_no_drain then
              continue (with_elt st.regs a (read_value b))
          end
          else if quiet then begin
            if o = P.o_sync_write then
              continue ~mem:(with_elt st.mem a (eval b)) st.regs
            else if o = P.o_tas then
              continue ~mem:(with_elt st.mem b 1) (with_elt st.regs a st.mem.(b))
            else if o = P.o_faa then
              let old = st.mem.(b) in
              continue
                ~mem:(with_elt st.mem b (old + eval code.(pc + 3)))
                (with_elt st.regs a old)
            else (* o_fence *) continue st.regs
          end
        end
      done;
      if not !stepped then begin
        assert (
          Array.for_all (fun b -> b = [||]) st.bufs
          && Array.for_all2 (fun pc c -> pc >= Array.length c) st.pcs cp.P.code);
        finalize st
      end
    end
  in
  let initial =
    let regs = ref (Array.make cp.P.nregs 0) in
    let bufs = Array.make nprocs [||] in
    let pcs =
      Array.init nprocs (fun p ->
          let pc, regs', buf = settle cp ~buffers p 0 !regs [||] in
          regs := regs';
          bufs.(p) <- buf;
          pc)
    in
    { pcs; regs = !regs; mem = Array.copy cp.P.init_mem; bufs }
  in
  explore initial;
  ( Keys.fold (fun _ o acc -> o :: acc) results [] |> List.sort Outcome.compare,
    Keys.length visited )

let outcomes_with_states ?(max_states = default_max_states) ?(reference = false)
    hw program =
  require_loop_free program;
  match if reference then None else Prog_compile.compile program with
  | Some cp -> compiled_search ~max_states hw cp
  | None -> reference_search ~max_states hw program

let outcomes ?max_states hw program =
  fst (outcomes_with_states ?max_states hw program)

let reference_outcomes ?max_states hw program =
  fst (outcomes_with_states ?max_states ~reference:true hw program)
