(* Counters the traced run keeps beside its spans, and the machine wrapper
   that feeds them.

   [Machine.t.run], [Machine.t.new_session] and [Machine.session.session_run]
   are closure fields, so a machine can be observed from outside the
   program: the wrapper times every run as a span of the machine's
   backend, nested under whatever cell span is open, and tallies host
   bytes allocated, simulated cycles and attributed stall cycles. *)

module M = Wo_machines.Machine
module Spec = Wo_machines.Spec

type backend = {
  mutable runs : int;
  mutable alloc : float;  (** host bytes allocated by runs *)
  mutable cycles : int;  (** simulated cycles *)
  mutable stalls : int;  (** attributed stall cycles, summed over processors *)
}

type t = {
  spans : Spans.t;
  coherent : backend;
  uncached : backend;
  ordering : backend;
  mutable synth_cases : int;
  mutable enum_sets : int;
  mutable enum_states : int;
  mutable relaxed_sets : int;
  mutable relaxed_over_bound : int;
  mutable lemma1_traces : int;
  mutable store_records : int;
  mutable finds : int;
  mutable hits : int;
  mutable adds : int;
  mutable syncs : int;
  mutable iterations : int;
}

let backend () = { runs = 0; alloc = 0.; cycles = 0; stalls = 0 }

let create () =
  {
    spans = Spans.create ();
    coherent = backend ();
    uncached = backend ();
    ordering = backend ();
    synth_cases = 0;
    enum_sets = 0;
    enum_states = 0;
    relaxed_sets = 0;
    relaxed_over_bound = 0;
    lemma1_traces = 0;
    store_records = 0;
    finds = 0;
    hits = 0;
    adds = 0;
    syncs = 0;
    iterations = 0;
  }

let layer_of_spec (s : Spec.t) =
  match (s.Spec.model, s.Spec.memory) with
  | Spec.Model_sc, Spec.Cached _ -> Spans.Coherent
  | Spec.Model_sc, Spec.Uncached _ -> Spans.Uncached
  | Spec.Model_sc, Spec.Ideal ->
    invalid_arg "Probe: no workload runs the ideal machine"
  | (Spec.Model_tso _ | Spec.Model_pso _ | Spec.Model_ra _), _ -> Spans.Ordering

let backend_of t = function
  | Spans.Coherent -> t.coherent
  | Spans.Uncached -> t.uncached
  | _ -> t.ordering

(* Bytes [Gc.allocated_bytes] itself adds between two back-to-back reads,
   subtracted from every per-run delta. *)
let read_cost =
  lazy
    (let a = Gc.allocated_bytes () in
     let b = Gc.allocated_bytes () in
     b -. a)

let timed_run t layer (b : backend) run =
  let cost = Lazy.force read_cost in
  fun ~seed ?compiled program ->
    let a0 = Gc.allocated_bytes () in
    let i = Spans.enter t.spans layer in
    let r = run ~seed ?compiled program in
    Spans.leave t.spans i;
    let a1 = Gc.allocated_bytes () in
    b.runs <- b.runs + 1;
    b.alloc <- b.alloc +. (a1 -. a0 -. cost);
    b.cycles <- b.cycles + r.M.cycles;
    b.stalls <- b.stalls + M.total_stalls r;
    r

(* The spec's machine, every run of which is a span of its backend.
   Session construction (memory system, fabric, frontends) is spanned
   too: it is machine-layer work that a session amortizes. *)
let wrap t (spec : Spec.t) (m : M.t) : M.t =
  let layer = layer_of_spec spec in
  let b = backend_of t layer in
  let fresh = timed_run t layer b (fun ~seed ?compiled:_ p -> m.M.run ~seed p) in
  {
    m with
    M.run = (fun ~seed p -> fresh ~seed p);
    new_session =
      (fun engine ->
        let s = Spans.span t.spans layer (fun () -> m.M.new_session engine) in
        { s with M.session_run = timed_run t layer b s.M.session_run });
  }

let build t spec =
  wrap t spec (Spans.span t.spans Spans.Plan (fun () -> Spec.build spec))
