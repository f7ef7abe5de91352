(* The judging benchmark.

     wobench --workload W --seed N --seconds S --trace 0|1

   Workloads: campaign-cold, campaign-resume, difftest-zoo (see
   BENCHMARK.json and perfbench/LAYERS.md).  The seed drives both case
   synthesis and the simulation seed batch.  Set-up is repeated and
   timed (see [setup_min_reps]); then whole workload passes repeat until [S]
   seconds are used.  Every pass is checked, and must reproduce the
   verdicts of the first pass (the resume passes: of the cold pass that
   settled their store).  With --trace 0 the last stdout line carries the end-to-end
   metrics; with --trace 1 half the time runs untraced and half traced,
   and it carries the per-layer metrics, with the spans of the last traced
   pass written to .perfbench-out/ in the wo-metrics envelope.  Exit 1
   when any check fails; 2 on bad arguments. *)

module W = Workloads

(* Set-up repeats at least [setup_min_reps] times and for at least
   [setup_min_s] seconds, so that a set-up of a few milliseconds still
   reports the median of many. *)
let setup_min_reps = 3
let setup_min_s = 1.0
let out_dir = ".perfbench-out"

(* --- statistics ---------------------------------------------------------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank percentile; 0 on an empty sample. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let s = sorted a in
    s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median a =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let s = sorted a in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b

let seconds_since t0 = float_of_int (Spans.now_ns () - t0) *. 1e-9

let timed f =
  let t0 = Spans.now_ns () in
  let v = f () in
  (seconds_since t0, v)

(* --- files --------------------------------------------------------------- *)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let remove_file path = if Sys.file_exists path then Sys.remove path

(* --- workloads ----------------------------------------------------------- *)

(* One workload: [setup] prepares the state the measured passes start
   from, and returns the pass they must reproduce when it ran one (else
   the first measured pass is the reference); [pass] and [traced] each
   run one timed pass (untimed preparation and read-back excluded) and
   return its wall time; [check] lists what a pass got wrong against the
   reference. *)
type workload = {
  setup : unit -> W.pass option;
  pass : unit -> float * W.pass;
  traced : Probe.t -> float * W.pass;
  check : W.pass -> W.pass -> string list;
}

let expect cond msg = if cond then [] else [ msg ]

let same_output ~(reference : W.pass) (p : W.pass) =
  expect (W.digest p = W.digest reference) "verdict digest differs from the reference pass"
  @ expect (p.W.text = reference.W.text) "report text differs from the reference pass"
  @ expect (p.W.cells = reference.W.cells) "cell count differs from the reference pass"

let campaign_workload ~resume ~seed ~store_path =
  let keys = ref [||] in
  let untraced () =
    let wall, (r, text) = timed (fun () -> W.campaign ~seed ~store_path) in
    (wall, W.campaign_pass r ~verdicts:(W.stored_verdicts ~store_path !keys) ~text)
  in
  let fresh () = if not resume then remove_file store_path in
  {
    (* Set-up derives every cell's store key, to read verdicts back; for
       the resume passes it also settles the store they replay, whose cold
       pass is their reference. *)
    setup =
      (fun () ->
        keys := W.campaign_keys ~seed;
        if resume then begin
          remove_file store_path;
          Some (snd (untraced ()))
        end
        else None);
    pass =
      (fun () ->
        fresh ();
        untraced ());
    traced =
      (fun probe ->
        fresh ();
        timed (fun () ->
            Spans.span probe.Probe.spans Spans.Iteration (fun () ->
                W.traced_campaign probe ~seed ~store_path)));
    check =
      (fun reference p ->
        same_output ~reference p
        @ expect (p.W.violations = 0) "campaign reported findings"
        @ expect (p.W.failed = 0) "cells ended without a verdict"
        @ expect (p.W.executed + p.W.hits = p.W.cells) "cells neither settled nor replayed"
        @
        if resume then
          expect (p.W.executed = 0) "resume executed cells"
          @ expect (p.W.hits = p.W.cells) "resume missed settled cells"
        else expect (p.W.executed = reference.W.executed) "cold pass settled a different cell count");
  }

let difftest_workload ~seed =
  let cases = ref [] in
  {
    setup =
      (fun () ->
        cases := W.difftest_cases ~seed;
        None);
    pass =
      (fun () ->
        let wall, s = timed (fun () -> W.difftest ~seed !cases) in
        (wall, W.difftest_pass s));
    traced =
      (fun probe ->
        timed (fun () ->
            Spans.span probe.Probe.spans Spans.Iteration (fun () ->
                W.traced_difftest probe ~seed !cases)));
    check =
      (fun reference p ->
        same_output ~reference p
        @ expect (p.W.violations = 0) "difftest reported violations");
  }

(* --- output -------------------------------------------------------------- *)

let json_number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "0"

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value)
          unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)

let backends =
  [ ("coherent", Spans.Coherent); ("uncached", Spans.Uncached);
    ("ordering", Spans.Ordering) ]

(* [traced_wall] is the traced passes' wall time as timed around each pass,
   independently of the spans. *)
let layer_metrics (p : Probe.t) ~untraced_cps ~traced_cps ~traced_wall ~mismatches =
  let s = Spans.summarize p.Probe.spans in
  let n = float_of_int (max 1 p.Probe.iterations) in
  let self l = s.Spans.self_s.(Spans.index l) in
  let per_pass x = x /. n in
  let count x = float_of_int x /. n in
  let machine (b, layer) =
    let st = Probe.backend_of p layer in
    let runs = float_of_int st.Probe.runs and cycles = float_of_int st.Probe.cycles in
    let key k = Printf.sprintf "machine.%s.%s" b k in
    [
      (key "runs", runs /. n, "count");
      (key "s", per_pass (self layer), "s");
      (key "us_per_run", ratio (self layer *. 1e6) runs, "us");
      (key "alloc_bytes_per_run", ratio st.Probe.alloc runs, "B");
      (key "sim_cycles_per_run", ratio cycles runs, "cycles");
      (key "host_ns_per_sim_cycle", ratio (self layer *. 1e9) cycles, "ns/cycle");
      (key "stall_cycles_per_run", ratio (float_of_int st.Probe.stalls) runs, "cycles");
    ]
  in
  let finds = Spans.durations_us p.Probe.spans Spans.Store_find in
  let cells = Spans.durations_us p.Probe.spans Spans.Cell in
  let unattributed =
    Array.fold_left
      (fun acc l -> if Spans.structural l then acc +. self l else acc)
      0. Spans.all
  in
  let attributed =
    Array.fold_left
      (fun acc l -> if Spans.structural l then acc else acc +. self l)
      0. Spans.all
  in
  (* Self times telescope to the root spans' durations only when every
     span nests in its parent; the roots must in turn cover the timed
     wall, less at most a millisecond per pass of clock reads. *)
  let reconciled =
    s.Spans.nesting_errors = 0
    && Float.abs (attributed +. unattributed -. traced_wall) <= 1e-3 *. n
  in
  ( reconciled,
    List.concat_map machine backends
    @ [
        ("enumerate.sets", count p.Probe.enum_sets, "count");
        ("enumerate.s", per_pass (self Spans.Enumerate), "s");
        ("enumerate.states", count p.Probe.enum_states, "count");
        ( "enumerate.states_per_s",
          ratio (float_of_int p.Probe.enum_states) (self Spans.Enumerate),
          "1/s" );
        ("relaxed.sets", count p.Probe.relaxed_sets, "count");
        ("relaxed.s", per_pass (self Spans.Relaxed), "s");
        ("relaxed.over_bound", count p.Probe.relaxed_over_bound, "count");
        ("runner.self_s", per_pass (self Spans.Runner), "s");
        ("lemma1.traces", count p.Probe.lemma1_traces, "count");
        ("store.open_s", per_pass (self Spans.Store_open), "s");
        ("store.records", count p.Probe.store_records, "count");
        ("store.finds", count p.Probe.finds, "count");
        ( "store.hit_frac",
          ratio (float_of_int p.Probe.hits) (float_of_int p.Probe.finds),
          "frac" );
        ("store.find_us.p50", percentile finds 0.50, "us");
        ("store.find_us.p99", percentile finds 0.99, "us");
        ("store.adds", count p.Probe.adds, "count");
        ("store.add_s", per_pass (self Spans.Store_add), "s");
        ("store.syncs", count p.Probe.syncs, "count");
        ("store.sync_s", per_pass (self Spans.Store_sync), "s");
        ("plan.s", per_pass (self Spans.Plan), "s");
        ("verdict.replay_s", per_pass (self Spans.Replay), "s");
        ("synth.cases", count p.Probe.synth_cases, "count");
        ("synth.s", per_pass (self Spans.Synth), "s");
        ("cell.us.p50", percentile cells 0.50, "us");
        ("cell.us.p99", percentile cells 0.99, "us");
        ("trace.unattributed_s", per_pass unattributed, "s");
        ("trace.overhead_frac", 1. -. ratio traced_cps untraced_cps, "frac");
        ("trace.verdict_mismatches", float_of_int mismatches, "count");
      ] )

let write_trace ~workload ~seed (p : Probe.t) metrics =
  let module J = Wo_obs.Json in
  let path =
    Filename.concat out_dir (Printf.sprintf "%s-seed%d.trace.json" workload seed)
  in
  let doc =
    Wo_obs.Metrics.make ~experiment:"perfbench"
      [
        ("workload", J.String workload);
        ("seed", J.Int seed);
        ("traced_passes", J.Int p.Probe.iterations);
        ( "layers",
          J.Obj (List.map (fun (name, v, _) -> (name, J.Float v)) metrics) );
        ( "span_columns",
          J.List (List.map (fun c -> J.String c) [ "name"; "start_ns"; "end_ns"; "parent" ]) );
        ("spans", Spans.last_tree_json p.Probe.spans);
      ]
  in
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  path

(* --- driver -------------------------------------------------------------- *)

(* Call [f] until [budget] seconds have passed and at least [min_calls]
   calls were made.  With [collect], every call starts from a collected
   heap, as a fresh process would, so none pays for the garbage of the one
   before. *)
let repeat ?(min_calls = 1) ~collect ~budget f =
  let t0 = Spans.now_ns () in
  let rec go n acc =
    if collect then Gc.full_major ();
    let acc = f () :: acc in
    if n + 1 >= min_calls && seconds_since t0 >= budget then List.rev acc
    else go (n + 1) acc
  in
  go 0 []

let main ~workload ~seed ~seconds ~trace =
  let tmp = Filename.concat out_dir (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  let store_path = Filename.concat tmp "campaign.store" in
  let w =
    match workload with
    | "campaign-cold" -> campaign_workload ~resume:false ~seed ~store_path
    | "campaign-resume" -> campaign_workload ~resume:true ~seed ~store_path
    | "difftest-zoo" -> difftest_workload ~seed
    | other ->
      prerr_endline ("wobench: unknown workload " ^ other);
      exit 2
  in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Sys.mkdir tmp 0o755;
  Fun.protect ~finally:(fun () -> remove_tree tmp) @@ fun () ->
  let problems = ref [] in
  let note where msgs =
    List.iter (fun m -> problems := Printf.sprintf "%s: %s" where m :: !problems) msgs
  in
  (* The first pass to finish, in set-up or measured, is the reference
     every later one must reproduce. *)
  let reference = ref None in
  let reference_for (p : W.pass) =
    match !reference with
    | Some r -> r
    | None ->
      Printf.printf "%d cells per pass\nidentity: verdict_digest %s\n"
        p.W.cells (W.digest p);
      reference := Some p;
      p
  in
  (* No forced collection between set-ups: hundreds of [Gc.full_major]
     calls on a small heap leave the runtime's major-GC pacing so far behind
     that the next pass peaks at several times the heap the CLI uses. *)
  let setups =
    repeat ~min_calls:setup_min_reps ~collect:false ~budget:setup_min_s (fun () ->
        timed w.setup)
  in
  List.iteri
    (fun i (_, p) ->
      Option.iter
        (fun (p : W.pass) ->
          note (Printf.sprintf "set-up %d" i)
            (same_output ~reference:(reference_for p) p
            @ expect (p.W.violations = 0) "set-up reported broken contracts"))
        p)
    setups;
  let setup_times = Array.of_list (List.map fst setups) in
  Printf.printf "%s seed %d: %d set-up(s), median %.4f s\n%!" workload seed
    (Array.length setup_times) (median setup_times);
  let attempted = ref 0 and failed = ref 0 and mismatches = ref 0 in
  let traced_wall = ref 0. in
  (* Each pass is checked as soon as it ends and only its cell rate kept,
     so no pass's output outlives it. *)
  let passes_of label budget run =
    let count = ref 0 in
    let cps =
      Array.of_list
      @@ repeat ~collect:true ~budget (fun () ->
             let t, (p : W.pass) = run () in
             let reference = reference_for p in
             note (Printf.sprintf "%s pass %d" label !count) (w.check reference p);
             incr count;
             attempted := !attempted + p.W.cells;
             failed := !failed + p.W.failed;
             if label = "traced" then begin
               traced_wall := !traced_wall +. t;
               let b = reference.W.verdicts in
               mismatches :=
                 !mismatches + abs (Array.length p.W.verdicts - Array.length b);
               Array.iteri
                 (fun i v ->
                   if i < Array.length b && v <> b.(i) then incr mismatches)
                 p.W.verdicts
             end;
             float_of_int p.W.cells /. t)
    in
    Printf.printf "%s: %d pass(es), cells/s %s\n%!" label (Array.length cps)
      (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.1f") cps)));
    median cps
  in
  let budget = float_of_int seconds in
  let metrics =
    if trace = 0 then begin
      let cps = passes_of "untraced" budget w.pass in
      let top = (Gc.quick_stat ()).Gc.top_heap_words in
      [
        ("cells_per_s", cps, "1/s");
        ("setup_s", median setup_times, "s");
        ("peak_heap_mb", float_of_int (top * (Sys.word_size / 8)) /. 1e6, "MB");
        ( "verdict_frac",
          ratio (float_of_int (!attempted - !failed)) (float_of_int !attempted),
          "frac" );
      ]
    end
    else begin
      let untraced_cps = passes_of "untraced" (budget /. 2.) w.pass in
      let probe = Probe.create () in
      let traced_cps =
        passes_of "traced" (budget /. 2.) (fun () ->
            probe.Probe.iterations <- probe.Probe.iterations + 1;
            w.traced probe)
      in
      let mismatches = !mismatches in
      let reconciled, metrics =
        layer_metrics probe ~untraced_cps ~traced_cps ~traced_wall:!traced_wall
          ~mismatches
      in
      if not reconciled then
        note "trace" [ "layer self times do not reconcile with wall time" ];
      if mismatches > 0 then note "trace" [ "traced verdicts differ from untraced" ];
      let cycles =
        List.fold_left
          (fun n (_, l) -> n + (Probe.backend_of probe l).Probe.cycles)
          0 backends
      in
      Printf.printf "identity: sim_cycles_per_pass %d\n"
        (cycles / max 1 probe.Probe.iterations);
      Printf.printf "trace: wrote %s\n" (write_trace ~workload ~seed probe metrics);
      metrics
    end
  in
  let problems = List.rev !problems in
  List.iter (fun m -> Printf.printf "CHECK FAILED %s\n" m) problems;
  print_endline
    (result_line ~correct:(problems = []) ~attempted:!attempted ~failed:!failed
       metrics);
  problems = []

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let usage = "wobench --workload W [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W campaign-cold | campaign-resume | difftest-zoo");
      ("--seed", Arg.Set_int seed, "N synthesis and simulation seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S measured seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !workload = "" || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  if not (main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace)
  then exit 1
