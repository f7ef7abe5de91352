(* Experiment E14 — the compiled hot path.

   PR 6 compiles programs once to flat int-coded ops (Prog_compile),
   executes them with an int-array interpreter (Cinterp), keys the
   visited table on packed varint encodings instead of Marshal, and
   moves the table itself off-heap (fingerprint slots in a Bigarray,
   keys in a bump-allocated Bytes arena).  This experiment asserts, in
   order of importance:

   - identity: the compiled stateful enumerator's outcome sets, DRF0
     verdicts and racy reports are bit-identical to the tree oracles'
     ([outcomes ~strategy:Naive], [check_drf0]), at one and several
     domains, with and without symmetry;
   - throughput: states/sec on the E12 convergent family at full bounds
     (informational), with every run's result equal to the family's
     closed form;
   - capacity: a single-domain search sustains >=10^7 distinct visited
     states, with the OCaml heap staying within 2x the key arena's own
     footprint (the table's point: state storage invisible to the GC).

   Results go to stdout and BENCH_compiled.json; CI gates on the
   identity flags in quick mode and additionally on the capacity
   targets at full bounds. *)

module I = Wo_prog.Instr
module P = Wo_prog.Program
module En = Wo_prog.Enumerate
module C = Wo_prog.Cinterp
module PC = Wo_prog.Prog_compile
module V = Wo_prog.Visited
module L = Wo_litmus.Litmus
module J = Wo_obs.Json

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* The E12 families (same shapes, larger members).  Convergent: every
   processor writes the same value sequence to one location, so the DAG
   collapses the multinomial tree to the product of progress counters —
   the family where dedup, and hence key+table cost, dominates. *)
let convergent ~procs ~ops =
  P.make
    ~name:(Printf.sprintf "convergent-%dx%d" procs ops)
    (List.init procs (fun _ -> List.init ops (fun _ -> I.Write (0, I.Const 1))))

let mirrored_sync ~procs ~ops =
  P.make
    ~name:(Printf.sprintf "mirrored-sync-%dx%d" procs ops)
    (List.init procs (fun _ ->
         List.init ops (fun _ -> I.Sync_write (0, I.Const 1))))

let outcome_sets_equal a b =
  List.length a = List.length b
  && List.for_all2 (fun x y -> Wo_prog.Outcome.equal x y) a b

let reports_agree a b =
  match (a, b) with
  | Ok (), Ok () -> true
  | Error ra, Error rb ->
    ra.Wo_core.Drf0.races = rb.Wo_core.Drf0.races
    && Wo_core.Execution.events ra.Wo_core.Drf0.execution
       = Wo_core.Execution.events rb.Wo_core.Drf0.execution
  | _ -> false

(* --- identity: compiled engine vs the tree oracles --------------------------- *)

type identity_row = {
  id_program : string;
  id_compilable : bool;
  outcomes_equal : bool;
  verdict_equal : bool;
  report_equal : bool;  (** compiled racy report = tree report, all domain counts *)
}

let identity_check domains_list program =
  let tree_outs = En.outcomes ~strategy:En.Naive program in
  let tree_verdict = En.check_drf0 program in
  let per_domain =
    List.map
      (fun domains ->
        let outs, _ = En.outcomes_stateful ~domains program in
        let verdict, _ = En.check_drf0_stateful ~domains program in
        let verdict_nosym, _ =
          En.check_drf0_stateful ~symmetry:false ~domains program
        in
        ( outcome_sets_equal tree_outs outs,
          (verdict = Ok ()) = (tree_verdict = Ok ())
          && (verdict_nosym = Ok ()) = (tree_verdict = Ok ()),
          reports_agree tree_verdict verdict
          && reports_agree tree_verdict verdict_nosym ))
      domains_list
  in
  {
    id_program = program.P.name;
    id_compilable = PC.compilable program;
    outcomes_equal = List.for_all (fun (o, _, _) -> o) per_domain;
    verdict_equal = List.for_all (fun (_, v, _) -> v) per_domain;
    report_equal = List.for_all (fun (_, _, r) -> r) per_domain;
  }

(* --- throughput: compiled states/sec ----------------------------------------- *)

(* Informational only: a tree node and a DAG state are different units
   of work, so no ratio against the tree oracle is taken.  The members
   are far beyond tree enumeration, so each run is checked against its
   family's closed form instead. *)
type throughput_row = {
  th_program : string;
  th_max_events : int;
  th_states : int;
  th_seconds : float;
  th_sps : float;
  th_identical : bool;  (** result equals the family's closed form *)
}

let sps states seconds =
  if seconds <= 0.0 then 0.0 else float_of_int states /. seconds

let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)

(* Outcome collection over a convergent member, one domain so the rate
   measures the engine, not the scheduler.  Every access writes the same
   location, so sleep sets never prune and the DAG is exactly the
   (ops+1)^procs progress-counter grid, all converging on one outcome. *)
let measure_outcome_throughput ~procs ~ops ~max_events =
  let program = convergent ~procs ~ops in
  let (outs, stats), seconds =
    time (fun () -> En.outcomes_stateful ~domains:1 ~max_events program)
  in
  {
    th_program = program.P.name;
    th_max_events = max_events;
    th_states = stats.En.sf_states;
    th_seconds = seconds;
    th_sps = sps stats.En.sf_states seconds;
    th_identical =
      List.length outs = 1 && stats.En.sf_distinct = pow (ops + 1) procs;
  }

(* DRF0 quantification over a mirrored-sync member: race-free by
   construction (every access is a synchronization write). *)
let measure_drf0_throughput ~procs ~ops ~max_events =
  let program = mirrored_sync ~procs ~ops in
  let (r, stats), seconds =
    time (fun () -> En.check_drf0_stateful ~domains:1 ~max_events program)
  in
  {
    th_program = program.P.name;
    th_max_events = max_events;
    th_states = stats.En.sf_states;
    th_seconds = seconds;
    th_sps = sps stats.En.sf_states seconds;
    th_identical = r = Ok ();
  }

(* --- capacity: 10^7 states off-heap ----------------------------------------- *)

(* A single-domain DAG walk over the public Cinterp + Visited API, so
   the table is still reachable when the heap is measured (inside the
   enumerator the table dies with the call).  Convergent programs have
   no silent steps and fully dependent accesses, so plain child
   generation visits exactly the distinct-pc-vector states. *)
type capacity_row = {
  cap_program : string;
  cap_distinct : int;
  cap_seconds : float;
  cap_arena_bytes : int;
  cap_live_bytes : int;  (** live OCaml heap after the walk, table alive *)
  cap_heap_over_arena : float;
}

let measure_capacity program =
  let cp =
    match PC.compile program with
    | Some cp -> cp
    | None -> failwith "capacity program must be compilable"
  in
  let tbl = V.create () in
  let states = ref 0 in
  let t0 = now () in
  let rec go st =
    match V.try_claim tbl (C.exact_key st) 0 with
    | `Skip -> ()
    | `Explore _ ->
      incr states;
      List.iter (fun p -> go (fst (C.step st p))) (C.runnable st)
  in
  go (C.init cp);
  let cap_seconds = now () -. t0 in
  Gc.full_major ();
  let live_words = (Gc.stat ()).Gc.live_words in
  let arena = V.arena_bytes tbl in
  {
    cap_program = program.P.name;
    cap_distinct = V.size tbl;
    cap_seconds;
    cap_arena_bytes = arena;
    cap_live_bytes = live_words * (Sys.word_size / 8);
    cap_heap_over_arena =
      (if arena = 0 then 0.0
       else float_of_int (live_words * (Sys.word_size / 8)) /. float_of_int arena);
  }

(* --- observability ---------------------------------------------------------- *)

(* One compiled run under a live recorder: the new counters
   (compiled.states_per_sec, visited.arena_bytes, the visited.probe_len
   histogram) land in the trace next to the PR-4 Enum counters. *)
let obs_counters program =
  let recorder = Wo_obs.Recorder.create () in
  ignore
    (Wo_obs.Recorder.with_sink recorder (fun () ->
         En.check_drf0_stateful ~domains:1 program));
  List.filter_map
    (function
      | Wo_obs.Recorder.Counter { name; value; track; _ }
        when String.length name >= 8
             && (String.sub name 0 8 = "compiled"
                || String.sub name 0 7 = "visited") ->
        Some
          (J.Obj
             [
               ("name", J.String name);
               ("track", J.Int track);
               ("value", J.Int value);
             ])
      | _ -> None)
    (Wo_obs.Recorder.events recorder)

(* --- the experiment --------------------------------------------------------- *)

let run () =
  Wo_report.Table.heading
    "E14 / compiled hot path — int-coded programs, packed keys, off-heap table";
  let domains = max 2 (min 4 (Domain.recommended_domain_count ())) in
  let identity_domains = [ 1; domains ] in
  let identity_programs =
    [
      L.figure1.L.program;
      L.message_passing.L.program;
      L.dekker_sync.L.program;
      L.atomicity.L.program;
      L.coherence.L.program;
      L.two_plus_two_w.L.program;
      convergent ~procs:2 ~ops:4;
      mirrored_sync ~procs:3 ~ops:2;
    ]
  in
  let identity_rows =
    List.map (identity_check identity_domains) identity_programs
  in
  Wo_report.Table.subheading
    "identity: compiled engine vs. the tree oracles (outcomes, verdicts, reports)";
  print_newline ();
  Wo_report.Table.print
    ~align:Wo_report.Table.[ L; L; L; L; L ]
    ~headers:[ "program"; "compilable"; "outcomes"; "verdict"; "report" ]
    (List.map
       (fun r ->
         [
           r.id_program;
           Exp_common.yes_no r.id_compilable;
           Exp_common.yes_no r.outcomes_equal;
           Exp_common.yes_no r.verdict_equal;
           Exp_common.yes_no r.report_equal;
         ])
       identity_rows);
  let all_identity =
    List.for_all
      (fun r ->
        r.id_compilable && r.outcomes_equal && r.verdict_equal
        && r.report_equal)
      identity_rows
  in
  Printf.printf "\nall identity flags: %b\n\n" all_identity;
  (* Throughput: the long, narrow 2x200 member is where the packed key
     pays most (its size is a handful of varints whatever the remaining
     program length); the wider members show the rate as branching
     grows. *)
  let outcome_members =
    if Exp_common.quick then [ (2, 8, 16) ]
    else [ (2, 200, 2 * 200); (3, 40, 3 * 40); (4, 16, 4 * 16) ]
  in
  let drf0_members =
    if Exp_common.quick then [ (3, 2, 64) ] else [ (3, 4, 64) ]
  in
  let throughput_rows =
    List.map
      (fun (procs, ops, max_events) ->
        measure_outcome_throughput ~procs ~ops ~max_events)
      outcome_members
    @ List.map
        (fun (procs, ops, max_events) ->
          measure_drf0_throughput ~procs ~ops ~max_events)
        drf0_members
  in
  Wo_report.Table.subheading "throughput: compiled states/sec (informational)";
  print_newline ();
  Wo_report.Table.print
    ~align:Wo_report.Table.[ L; R; R; R; L ]
    ~headers:[ "program"; "states"; "seconds"; "states/s"; "closed form" ]
    (List.map
       (fun r ->
         [
           r.th_program;
           string_of_int r.th_states;
           Printf.sprintf "%.3f" r.th_seconds;
           Printf.sprintf "%.0f" r.th_sps;
           Exp_common.yes_no r.th_identical;
         ])
       throughput_rows);
  let all_throughput_identical =
    List.for_all (fun r -> r.th_identical) throughput_rows
  in
  Printf.printf "\nall throughput runs match their closed form: %b\n\n"
    all_throughput_identical;
  (* Capacity: >=10^7 distinct states in one table, heap within 2x the
     arena.  57^4 = 10,556,001 distinct pc vectors. *)
  let cap_program =
    if Exp_common.quick then convergent ~procs:3 ~ops:20
    else convergent ~procs:4 ~ops:56
  in
  let cap = measure_capacity cap_program in
  let capacity_target = if Exp_common.quick then 9_000 else 10_000_000 in
  let capacity_met = cap.cap_distinct >= capacity_target in
  let heap_within_2x = cap.cap_heap_over_arena <= 2.0 in
  Printf.printf
    "capacity: %s — %d distinct states in %.1fs; arena %.1f MiB, live OCaml \
     heap %.1f MiB (%.2fx arena, target <=2x)\n\n"
    cap.cap_program cap.cap_distinct cap.cap_seconds
    (float_of_int cap.cap_arena_bytes /. 1048576.0)
    (float_of_int cap.cap_live_bytes /. 1048576.0)
    cap.cap_heap_over_arena;
  let counters = obs_counters (mirrored_sync ~procs:3 ~ops:2) in
  Printf.printf "compiled-path wo_obs counters emitted by one run: %d\n\n"
    (List.length counters);
  let identity_json r =
    J.Obj
      [
        ("program", J.String r.id_program);
        ("compilable", J.Bool r.id_compilable);
        ("outcomes_equal", J.Bool r.outcomes_equal);
        ("verdict_equal", J.Bool r.verdict_equal);
        ("report_equal", J.Bool r.report_equal);
      ]
  in
  let throughput_json r =
    J.Obj
      [
        ("program", J.String r.th_program);
        ("max_events", J.Int r.th_max_events);
        ("compiled_states", J.Int r.th_states);
        ("compiled_seconds", J.Float r.th_seconds);
        ("compiled_states_per_sec", J.Float r.th_sps);
        ("identical", J.Bool r.th_identical);
      ]
  in
  Exp_common.write_metrics ~experiment:"e14" ~path:"BENCH_compiled.json"
    [
      ("quick", J.Bool Exp_common.quick);
      ("domains", J.Int domains);
      ("identity", J.List (List.map identity_json identity_rows));
      ("all_identity", J.Bool all_identity);
      ("throughput", J.List (List.map throughput_json throughput_rows));
      ("all_throughput_identical", J.Bool all_throughput_identical);
      ( "capacity",
        J.Obj
          [
            ("program", J.String cap.cap_program);
            ("distinct_states", J.Int cap.cap_distinct);
            ("seconds", J.Float cap.cap_seconds);
            ("arena_bytes", J.Int cap.cap_arena_bytes);
            ("live_heap_bytes", J.Int cap.cap_live_bytes);
            ("heap_over_arena", J.Float cap.cap_heap_over_arena);
            ("capacity_target_met", J.Bool capacity_met);
            ("heap_within_2x", J.Bool heap_within_2x);
          ] );
      ("obs_counters", J.List counters);
    ];
  print_endline
    "Expected: identity flags all true (the compiled engine is an\n\
     optimization, not a semantics change); every throughput run matches\n\
     its family's closed form; >=10^7 distinct states held off-heap with\n\
     the OCaml heap within 2x the key arena."
