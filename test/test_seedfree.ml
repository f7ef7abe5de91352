(* Seed-free runs (DESIGN.md: seed independence).  A machine session
   reports whether its last run drew a random value; when it did not,
   the run is the run at every seed, and [Runner.run] settles the rest
   of its seed batch from that one result.  These tests check the claim
   against fresh runs at the other seeds, the shortcut against a loop
   that simulates every seed, and the cases that must never take it. *)

module M = Wo_machines.Machine
module L = Wo_litmus.Litmus
module P = Wo_machines.Presets
module R = Wo_litmus.Runner

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fingerprint (r : M.result) =
  Digest.to_hex (Digest.string (Marshal.to_string r [ Marshal.Closures ]))

let presets = P.all @ P.models

let seeds = [ 1; 2; 3; 4 ]

(* 1. Every preset x the litmus corpus x seeds 1-4: a seed-free session
   result Marshal-equals a fresh run at each other seed. *)
let test_seed_free_is_every_seed () =
  let seed_free_runs = ref 0 in
  List.iter
    (fun (machine : M.t) ->
      let session = M.new_session machine M.Compiled in
      List.iter
        (fun (t : L.t) ->
          List.iter
            (fun seed ->
              let got =
                fingerprint (M.session_run session ~seed t.L.program)
              in
              if session.M.session_seed_free () then begin
                incr seed_free_runs;
                List.iter
                  (fun other ->
                    if
                      other <> seed
                      && fingerprint (M.run machine ~seed:other t.L.program)
                         <> got
                    then
                      Alcotest.failf
                        "%s / %s: seed-free at seed %d but seed %d differs"
                        machine.M.name t.L.name seed other)
                  seeds
              end)
            seeds)
        L.all)
    presets;
  check "some preset runs seed-free" true (!seed_free_runs > 0)

(* 2. The same identity over random programs, random seeds. *)
let prop_random_programs =
  QCheck.Test.make ~name:"seed-free run = fresh run at other seeds"
    ~count:20 QCheck.small_int (fun n ->
      let seed = n + 1 in
      let programs =
        [
          Wo_litmus.Random_prog.racy ~seed ~procs:3 ~ops_per_proc:4 ~locs:3 ();
          Wo_litmus.Random_prog.lock_disciplined ~seed ~procs:2
            ~sections_per_proc:2 ~locks:2 ~shared_locs:2 ();
        ]
      in
      List.for_all
        (fun (machine : M.t) ->
          let session = M.new_session machine M.Compiled in
          List.for_all
            (fun program ->
              let got = fingerprint (M.session_run session ~seed program) in
              (not (session.M.session_seed_free ()))
              || List.for_all
                   (fun other ->
                     fingerprint (M.run machine ~seed:other program) = got)
                   [ seed + 1; seed + 17 ])
            programs)
        presets)

(* The reference the shortcut must reproduce: every seed simulated, the
   report fields computed from scratch. *)
type reference = {
  histogram : (Wo_prog.Outcome.t * int) list;
  violations : (Wo_prog.Outcome.t * int) list;
  lemma1_failures : int;
  interesting_counts : (string * int) list;
  total_cycles : int;
  sc_coverage : int;
}

let every_seed_report machine (t : L.t) ~runs ~sc =
  let session = M.new_session machine M.Compiled in
  let results =
    List.init runs (fun i -> M.session_run session ~seed:(i + 1) t.L.program)
  in
  let observed = List.map (fun (r : M.result) -> r.M.outcome) results in
  let histogram =
    let rec group acc = function
      | [] -> List.rev acc
      | o :: rest -> (
        match acc with
        | (o', n) :: acc' when Wo_prog.Outcome.equal o o' ->
          group ((o', n + 1) :: acc') rest
        | _ -> group ((o, 1) :: acc) rest)
    in
    group [] (List.sort Wo_prog.Outcome.compare observed)
    |> List.stable_sort (fun (_, a) (_, b) -> compare b a)
  in
  let in_sc o = List.exists (Wo_prog.Outcome.equal o) sc in
  {
    histogram;
    violations =
      (if t.L.loops then []
       else List.filter (fun (o, _) -> not (in_sc o)) histogram);
    lemma1_failures =
      List.length
        (List.filter
           (fun r ->
             Result.is_error
               (M.check_lemma1
                  ~init:(Wo_prog.Program.initial_value t.L.program)
                  r))
           results);
    interesting_counts =
      List.map
        (fun (name, pred) -> (name, List.length (List.filter pred observed)))
        t.L.interesting;
    total_cycles =
      List.fold_left (fun acc (r : M.result) -> acc + r.M.cycles) 0 results;
    sc_coverage =
      List.length
        (List.filter
           (fun o ->
             List.exists (fun (h, _) -> Wo_prog.Outcome.equal o h) histogram)
           sc);
  }

let of_report (r : R.report) =
  {
    histogram = r.R.histogram;
    violations = r.R.violations;
    lemma1_failures = r.R.lemma1_failures;
    interesting_counts = r.R.interesting_counts;
    total_cycles = r.R.total_cycles;
    sc_coverage = r.R.sc_coverage;
  }

(* 3. [Runner.run] equals the every-seed loop in every report field, on
   every preset and every litmus test — seed-free or not.  Lemma 1 is
   checked on racy tests too, so seed-free runs that fail it are
   covered. *)
let test_report_equals_every_seed () =
  let runs = 6 in
  let reused0 = M.seed_runs_reused () in
  List.iter
    (fun (t : L.t) ->
      let sc =
        if t.L.loops then [] else Wo_prog.Enumerate.outcomes t.L.program
      in
      List.iter
        (fun (machine : M.t) ->
          let got =
            match
              R.run ~runs ~check_lemma1:true ~sc_outcomes:sc machine t
            with
            | r -> Ok (of_report r)
            | exception M.Machine_error msg -> Error msg
          in
          let want =
            match every_seed_report machine t ~runs ~sc with
            | r -> Ok r
            | exception M.Machine_error msg -> Error msg
          in
          if got <> want then
            Alcotest.failf "%s / %s: report differs from the every-seed loop"
              machine.M.name t.L.name)
        presets)
    L.all;
  check "the shortcut engaged" true (M.seed_runs_reused () > reused0)

let bus_cache () = Option.get (P.find "bus-cache")

(* 4. A bus machine settles a batch with one simulation, and counts the
   rest as reused; a recorder forces every seed to run and sees the
   same events a per-seed loop records. *)
let test_bus_batch_runs_once () =
  let machine = bus_cache () and t = L.message_passing_sync in
  let runs0 = M.runs () and reused0 = M.seed_runs_reused () in
  let quiet = R.run ~runs:10 machine t in
  check_int "one machine run" 1 (M.runs () - runs0);
  check_int "nine seeds reused" 9 (M.seed_runs_reused () - reused0);
  let recorded f =
    let recorder = Wo_obs.Recorder.create () in
    let v = Wo_obs.Recorder.with_sink recorder f in
    (v, Wo_obs.Recorder.events recorder)
  in
  let runs1 = M.runs () and reused1 = M.seed_runs_reused () in
  let loud, events = recorded (fun () -> R.run ~runs:10 machine t) in
  check_int "recorder on: every seed runs" 10 (M.runs () - runs1);
  check_int "recorder on: nothing reused" 0 (M.seed_runs_reused () - reused1);
  check "recorder on: same report" true (of_report loud = of_report quiet);
  let (), want =
    recorded (fun () ->
        let session = M.new_session machine M.Compiled in
        for seed = 1 to 10 do
          ignore (M.session_run session ~seed t.L.program)
        done)
  in
  check "recorder on: events of every seed" true (events = want)

(* 5. What must never read as seed-free: a jittered network's run, the
   ideal machine's randomly scheduled run, a session that has not run,
   and a run that raised. *)
let test_not_seed_free () =
  let rp3 = Option.get (P.find "net-nocache-rp3") in
  let s = M.new_session rp3 M.Compiled in
  check "no run yet" false (s.M.session_seed_free ());
  ignore (M.session_run s ~seed:1 L.message_passing_sync.L.program);
  check "net-nocache-rp3 draws jitter" false (s.M.session_seed_free ());
  let ideal = M.new_session P.ideal M.Compiled in
  List.iter
    (fun (t : L.t) ->
      ignore (M.session_run ideal ~seed:1 t.L.program);
      check ("ideal never seed-free: " ^ t.L.name) false
        (ideal.M.session_seed_free ()))
    L.all;
  (* A coarse-counter deadlock on a bus: every seed raises, and the
     raising run must not keep the flag the seed-free run before it
     set. *)
  let program =
    Wo_litmus.Random_prog.lock_disciplined ~seed:21 ~procs:3
      ~sections_per_proc:4 ~locks:3 ~shared_locs:3 ()
  in
  let machine =
    Wo_machines.Coherent.make ~name:"seedfree-coarse" ~description:""
      ~sequentially_consistent:false ~weakly_ordered_drf0:true
      {
        P.wo_new_config with
        Wo_machines.Coherent.fabric =
          Wo_machines.Coherent.Bus { transfer_cycles = 6 };
        cache =
          {
            P.wo_new_config.Wo_machines.Coherent.cache with
            Wo_cache.Cache_ctrl.coarse_counter = true;
          };
      }
  in
  let s = M.new_session machine M.Compiled in
  ignore (M.session_run s ~seed:1 L.figure1.L.program);
  check "a bus run is seed-free" true (s.M.session_seed_free ());
  match M.session_run s ~seed:1 program with
  | _ -> Alcotest.fail "the coarse-counter program did not deadlock"
  | exception M.Machine_error _ ->
    check "a raising run is not seed-free" false (s.M.session_seed_free ())

let tests =
  [
    Alcotest.test_case "seed-free result = fresh run at every seed" `Quick
      test_seed_free_is_every_seed;
    QCheck_alcotest.to_alcotest prop_random_programs;
    Alcotest.test_case "Runner report = every-seed loop (all presets)" `Quick
      test_report_equals_every_seed;
    Alcotest.test_case "bus batch runs once; recorder runs every seed" `Quick
      test_bus_batch_runs_once;
    Alcotest.test_case "jitter, ideal and raising runs are not seed-free"
      `Quick test_not_seed_free;
  ]
