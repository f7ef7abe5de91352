let run ~seed program =
  let state = Wo_prog.Interp.run_random ~seed program in
  let exn = Wo_prog.Interp.execution state in
  let trace = Wo_sim.Trace.create () in
  List.iteri
    (fun i ev ->
      Wo_sim.Trace.add trace
        { Wo_sim.Trace.event = ev; issued = i; committed = i; performed = i })
    (Wo_core.Execution.events exn);
  let n = Wo_prog.Program.num_procs program in
  Machine.make_result
    ~outcome:(Wo_prog.Interp.outcome state)
    ~trace
    ~cycles:(Wo_sim.Trace.size trace)
    ~proc_finish:(Array.make n (Wo_sim.Trace.size trace))
    ~stalls:(Wo_obs.Stall.create ())
    ~taps:(Wo_obs.Tap.create ())
    ()

let run ~seed program =
  Machine.note_run ();
  run ~seed program

(* The interpreter holds no reusable machinery, so an ideal session is
   just the fresh run — it still answers the session interface so every
   machine can be batch-driven uniformly. *)
let new_session engine =
  let first = ref true in
  {
    Machine.session_machine = "ideal";
    session_engine = engine;
    session_run =
      (fun ~seed ?compiled:_ program ->
        if !first then first := false else Machine.note_session_reuse ();
        run ~seed program);
    (* the interpreter's scheduler draws from the seed on every step *)
    session_seed_free = (fun () -> false);
  }

let machine =
  {
    Machine.name = "ideal";
    description =
      "The idealized architecture of Section 4: all memory accesses execute \
       atomically and in program order, under a seeded random scheduler.";
    sequentially_consistent = true;
    weakly_ordered_drf0 = true;
    run;
    new_session;
  }
