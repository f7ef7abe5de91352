(* Experiment E18 — the consistency-model zoo.

   PR 10 lifts the sync-policy knob into a model layer: machine specs
   carry an ordering model (sc / tso / pso / ra) and the relaxed models
   build on the shared Ordering backend — per-processor or per-location
   store channels behind the same Memsys port every other machine uses.
   This experiment characterises the zoo and asserts its claims:

   - compliance: the differential harness (Difftest) finds zero
     violations — DRF0 programs appear SC on every model (Definition 2
     / Lemma 1), and racy programs never leave their model's own
     axiomatic outcome set (Wo_prog.Relaxed);
   - separation: the models are operationally distinct — each relaxed
     machine exhibits at least one outcome outside the SC set on some
     racy litmus test (TSO on store-buffering shapes, PSO on write-write
     reordering, RA on acquire-past-pending-release), deterministically
     at the pinned seeds;
   - cost: per-model simulation throughput (runs/sec, simulated
     cycles/sec) and the stall-reason breakdown, next to the wo-new
     SC baseline on the same uncached memory;
   - reference sets: the compiled model-set search
     (Wo_prog.Relaxed.outcomes) against the reference walk
     (Relaxed.reference_outcomes) over the harness's racy loop-free
     cases x tso/pso/ra — equal sets, both times, both state counts.

   Results go to stdout and BENCH_models.json; CI gates the compliance,
   separation and reference-set identity flags at quick bounds too (all
   are deterministic), while throughput numbers and the reference-set
   speedup are informational. *)

module M = Wo_machines.Machine
module P = Wo_machines.Presets
module L = Wo_litmus.Litmus
module D = Wo_campaign.Difftest
module Stall = Wo_obs.Stall
module J = Wo_obs.Json

let now () = Unix.gettimeofday ()

(* --- throughput and stall breakdown per model ------------------------------- *)

type row = {
  r_machine : string;
  r_model : string;
  r_runs : int;
  r_seconds : float;
  runs_per_sec : float;
  cycles_per_sec : float;  (** simulated cycles per wall second *)
  avg_cycles : float;
  stall_reasons : (string * int) list;  (** aggregate cycles by reason *)
  stall_total : int;
}

let stall_breakdown (acc : Stall.t) =
  List.fold_left
    (fun by p ->
      List.fold_left
        (fun by (reason, cycles) ->
          let name = Stall.reason_name reason in
          let prev = try List.assoc name by with Not_found -> 0 in
          (name, prev + cycles) :: List.remove_assoc name by)
        by
        (Stall.per_proc acc ~proc:p))
    []
    (Stall.procs acc)
  |> List.sort compare

let measure ~runs ~model (machine : M.t) suite =
  let session = M.new_session machine M.Compiled in
  let cycles = ref 0 in
  let stalls = ref (Stall.create ()) in
  let total = ref 0 in
  let t0 = now () in
  List.iter
    (fun (t : L.t) ->
      for seed = 1 to runs do
        let r = M.session_run session ~seed t.L.program in
        cycles := !cycles + r.M.cycles;
        stalls := Stall.merge !stalls r.M.stalls;
        incr total
      done)
    suite;
  let seconds = now () -. t0 in
  let per f = if seconds <= 0.0 then 0.0 else f /. seconds in
  {
    r_machine = machine.M.name;
    r_model = model;
    r_runs = !total;
    r_seconds = seconds;
    runs_per_sec = per (float_of_int !total);
    cycles_per_sec = per (float_of_int !cycles);
    avg_cycles = float_of_int !cycles /. float_of_int (max 1 !total);
    stall_reasons = stall_breakdown !stalls;
    stall_total = Stall.total !stalls;
  }

(* --- the model reference sets: compiled search vs the reference walk -------- *)

type ref_row = {
  sets : int;
  identity : bool;  (** every compiled set equals the reference set *)
  reference_s : float;  (** best of [reps] passes *)
  compiled_s : float;
  reference_states : int;
  compiled_states : int;
}

let reference_sets ~reps (cases : D.case list) =
  let programs =
    List.filter_map
      (fun (c : D.case) ->
        if c.D.racy && not c.D.loops then Some c.D.program else None)
      cases
  in
  let models = Wo_core.Sync_model.[ tso_hw; pso_hw; ra_hw ] in
  let pass reference =
    let t0 = now () in
    let results =
      List.concat_map
        (fun hw ->
          List.map
            (fun p -> Wo_prog.Relaxed.outcomes_with_states ~reference hw p)
            programs)
        models
    in
    (now () -. t0, results)
  in
  let timed reference =
    let t, results = pass reference in
    let best = ref t in
    for _ = 2 to reps do
      best := Float.min !best (fst (pass reference))
    done;
    (!best, results)
  in
  let reference_s, refs = timed true in
  let compiled_s, comps = timed false in
  let states rs = List.fold_left (fun n (_, k) -> n + k) 0 rs in
  {
    sets = List.length refs;
    identity =
      List.for_all2
        (fun (a, _) (b, _) ->
          List.length a = List.length b
          && List.for_all2 (fun x y -> Wo_prog.Outcome.compare x y = 0) a b)
        refs comps;
    reference_s;
    compiled_s;
    reference_states = states refs;
    compiled_states = states comps;
  }

(* --- the experiment --------------------------------------------------------- *)

let run () =
  Wo_report.Table.heading
    "E18 / consistency-model zoo — compliance, separation, cost";
  let runs = Exp_common.scaled 300 30 in
  let suite = [ L.figure1; L.message_passing_sync; L.dekker_sync ] in
  let grid =
    [
      (P.wo_new, "sc");
      (P.tso_wb, "tso");
      (P.pso_wb, "pso");
      (P.ra_window, "ra");
    ]
  in
  let rows = List.map (fun (m, model) -> measure ~runs ~model m suite) grid in
  Wo_report.Table.subheading
    (Printf.sprintf "throughput over %d litmus tests x %d seeds (compiled sessions)"
       (List.length suite) runs);
  print_newline ();
  Wo_report.Table.print
    ~align:Wo_report.Table.[ L; L; R; R; R; R; R ]
    ~headers:
      [ "machine"; "model"; "runs"; "runs/s"; "Mcyc/s"; "cyc/run"; "stall cyc" ]
    (List.map
       (fun r ->
         [
           r.r_machine;
           r.r_model;
           string_of_int r.r_runs;
           Printf.sprintf "%.0f" r.runs_per_sec;
           Printf.sprintf "%.2f" (r.cycles_per_sec /. 1e6);
           Printf.sprintf "%.0f" r.avg_cycles;
           string_of_int r.stall_total;
         ])
       rows);
  print_newline ();
  Wo_report.Table.subheading "stall breakdown (cycles by reason)";
  print_newline ();
  List.iter
    (fun r ->
      Printf.printf "  %-10s %s\n" r.r_machine
        (String.concat ", "
           (List.map
              (fun (name, c) -> Printf.sprintf "%s %d" name c)
              r.stall_reasons)))
    rows;
  print_newline ();
  (* Differential compliance + the separator matrix.  The harness is
     fully seeded, so both verdicts are deterministic and gated even at
     quick bounds; quick mode only drops the synthesized cases. *)
  let cases =
    if Exp_common.quick then Some (List.map D.case_of_litmus L.all) else None
  in
  let s = D.run ?cases ~runs:40 ~base_seed:1 ~witnesses:false () in
  let matrix = D.matrix s in
  let checks = List.length s.D.reports in
  let compliant = s.D.violating = [] in
  let machine_names = List.map (fun (sp : Wo_machines.Spec.t) -> sp.name) P.model_specs in
  let separated name =
    List.exists
      (fun (_, cols) ->
        match List.assoc_opt name cols with Some n -> n > 0 | None -> false)
      matrix
  in
  let separators = List.map (fun n -> (n, separated n)) machine_names in
  let separators_met = List.for_all snd separators in
  Printf.printf
    "difftest: %d cases x %d machines, %d checks, %d violating — %s\n"
    s.D.cases s.D.machines checks
    (List.length s.D.violating)
    (if compliant then "compliant" else "NON-COMPLIANT");
  Printf.printf "separator matrix (runs outside the SC set, of 40):\n";
  List.iter
    (fun (case, cols) ->
      Printf.printf "  %-24s %s\n" case
        (String.concat "  "
           (List.map (fun (m, n) -> Printf.sprintf "%s=%d" m n) cols)))
    matrix;
  Printf.printf "every relaxed machine separated from SC: %s\n\n"
    (Exp_common.yes_no separators_met);
  (* The axiomatic sets behind the model-set checks, both searches. *)
  let rr =
    reference_sets ~reps:(Exp_common.scaled 5 1)
      (match cases with Some cs -> cs | None -> D.default_cases ())
  in
  let speedup = rr.reference_s /. Float.max rr.compiled_s 1e-9 in
  Printf.printf
    "reference sets (%d: racy cases x tso/pso/ra): compiled = reference: %s\n\
    \  reference walk %.3fs, %d states; compiled search %.3fs, %d states \
     (%.1fx)\n\n"
    rr.sets (Exp_common.yes_no rr.identity) rr.reference_s rr.reference_states
    rr.compiled_s rr.compiled_states speedup;
  let row_json r =
    J.Obj
      [
        ("machine", J.String r.r_machine);
        ("model", J.String r.r_model);
        ("runs", J.Int r.r_runs);
        ("seconds", J.Float r.r_seconds);
        ("runs_per_sec", J.Float r.runs_per_sec);
        ("cycles_per_sec", J.Float r.cycles_per_sec);
        ("avg_cycles", J.Float r.avg_cycles);
        ( "stalls",
          J.Obj (List.map (fun (n, c) -> (n, J.Int c)) r.stall_reasons) );
        ("stall_total", J.Int r.stall_total);
      ]
  in
  let matrix_json =
    J.List
      (List.map
         (fun (case, cols) ->
           J.Obj
             [
               ("case", J.String case);
               ( "beyond_sc",
                 J.Obj (List.map (fun (m, n) -> (m, J.Int n)) cols) );
             ])
         matrix)
  in
  Exp_common.write_metrics ~experiment:"e18" ~path:"BENCH_models.json"
    [
      ("quick", J.Bool Exp_common.quick);
      ("models", J.List (List.map row_json rows));
      ( "difftest",
        J.Obj
          [
            ("cases", J.Int s.D.cases);
            ("machines", J.Int s.D.machines);
            ("checks", J.Int checks);
            ("violating", J.Int (List.length s.D.violating));
          ] );
      ("compliant", J.Bool compliant);
      ("matrix", matrix_json);
      ( "separators",
        J.Obj (List.map (fun (n, b) -> (n, J.Bool b)) separators) );
      ("separators_met", J.Bool separators_met);
      ("relaxed_identity", J.Bool rr.identity);
      ( "relaxed_sets",
        J.Obj
          [
            ("sets", J.Int rr.sets);
            ("reference_s", J.Float rr.reference_s);
            ("compiled_s", J.Float rr.compiled_s);
            ("reference_states", J.Int rr.reference_states);
            ("compiled_states", J.Int rr.compiled_states);
            ("speedup", J.Float speedup);
          ] );
    ];
  print_endline
    "Expected: zero compliance violations (DRF0 programs appear SC on\n\
     every model, racy ones stay inside their model's axiomatic set)\n\
     and a fully separated matrix — each relaxed machine shows at least\n\
     one beyond-SC outcome some SC machine never produces.  Relaxed\n\
     models trade stall cycles for buffer occupancy: the TSO/PSO rows\n\
     should show fewer write-path stalls than the SC baseline.  The\n\
     compiled model-set search must return every reference set exactly\n\
     (relaxed_identity) while visiting fewer states than the reference\n\
     walk, because buffered writes run eagerly."
