(* The consistency-model layer (see DESIGN.md): the Ordering backends
   behind the model field, the model-aware reference enumerator, and
   the differential compliance harness.

   The separator tests pin the zoo's observable behaviour at fixed
   seeds: each relaxed machine must show its model's signature
   relaxation on a racy litmus test and must NOT show the relaxations
   its model forbids — TSO reorders reads past pending writes but keeps
   write order; PSO also reorders writes; only RA lets an acquire read
   overtake a pending release.  All three must still appear SC on DRF0
   programs (Definition 2). *)

module M = Wo_machines.Machine
module P = Wo_machines.Presets
module S = Wo_machines.Spec
module SM = Wo_core.Sync_model
module L = Wo_litmus.Litmus
module R = Wo_litmus.Runner
module D = Wo_campaign.Difftest
module E = Wo_prog.Enumerate
module Rx = Wo_prog.Relaxed
module O = Wo_prog.Outcome

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run machine test = R.run ~runs:40 ~base_seed:1 machine test

let interesting (r : R.report) name =
  match List.assoc_opt name r.R.interesting_counts with
  | Some n -> n
  | None -> 0

(* --- separators: each model shows its relaxation and only its own ----------- *)

let test_tso_separator () =
  let r = run P.tso_wb L.figure1 in
  check "tso reorders reads past pending writes (figure1 both-killed)" true
    (interesting r "both-killed" > 0);
  let r = run P.tso_wb L.message_passing in
  check_int "tso keeps write order (no flag-without-data)" 0
    (interesting r "flag-without-data");
  let r = run P.tso_wb L.sb_acquire in
  check_int "tso drains on a synchronization read" 0
    (interesting r "both-killed")

let test_pso_separator () =
  let r = run P.pso_wb L.message_passing in
  check "pso reorders writes to different locations (flag-without-data)" true
    (interesting r "flag-without-data" > 0);
  let r = run P.pso_wb L.sb_acquire in
  check_int "pso drains on a synchronization read" 0
    (interesting r "both-killed")

let test_ra_separator () =
  let r = run P.ra_window L.sb_acquire in
  check "only ra lets an acquire overtake a pending release" true
    (interesting r "both-killed" > 0);
  let r = run P.tso_wb L.sb_acquire in
  check_int "tso forbids it" 0 (interesting r "both-killed");
  let r = run P.pso_wb L.sb_acquire in
  check_int "pso forbids it" 0 (interesting r "both-killed")

(* --- weak ordering: every model appears SC to DRF0 programs ----------------- *)

let test_models_appear_sc_on_drf0 () =
  List.iter
    (fun machine ->
      List.iter
        (fun (t : L.t) ->
          if t.L.drf0 then begin
            let r = run machine t in
            check
              (Printf.sprintf "%s appears SC on %s" machine.M.name t.L.name)
              true (R.appears_sc r);
            check_int
              (Printf.sprintf "%s: no Lemma-1 failures on %s" machine.M.name
                 t.L.name)
              0 r.R.lemma1_failures
          end)
        L.all)
    P.models

(* --- the reference enumerator ------------------------------------------------ *)

let loop_free = [ L.figure1; L.message_passing; L.sb_acquire; L.two_plus_two_w ]

let test_relaxed_sc_matches_enumerate () =
  List.iter
    (fun (t : L.t) ->
      let sc = E.outcomes t.L.program in
      let rx = Rx.outcomes SM.sc_hw t.L.program in
      check
        (Printf.sprintf "Relaxed(sc_hw) = Enumerate on %s" t.L.name)
        true
        (List.length sc = List.length rx
        && List.for_all2 (fun a b -> O.compare a b = 0) sc rx))
    loop_free

let subset a b =
  List.for_all (fun o -> List.exists (fun o' -> O.compare o o' = 0) b) a

let test_relaxed_monotonic () =
  (* each weaker model's allowed set contains the stronger ones' *)
  List.iter
    (fun (t : L.t) ->
      let sets =
        List.map
          (fun hw -> (hw.SM.hname, Rx.outcomes hw t.L.program))
          [ SM.sc_hw; SM.tso_hw; SM.pso_hw; SM.ra_hw ]
      in
      let rec chain = function
        | (na, a) :: ((nb, b) :: _ as rest) ->
          check
            (Printf.sprintf "%s: %s allows everything %s does" t.L.name nb na)
            true (subset a b);
          chain rest
        | _ -> ()
      in
      chain sets)
    loop_free

(* --- compiled search = reference walk --------------------------------------- *)

let hw_models = [ SM.sc_hw; SM.tso_hw; SM.pso_hw; SM.ra_hw ]

let same_outcomes a b =
  List.length a = List.length b && List.for_all2 (fun x y -> O.compare x y = 0) a b

let check_identity name program =
  List.iter
    (fun hw ->
      check
        (Printf.sprintf "%s under %s: compiled = reference" name hw.SM.hname)
        true
        (same_outcomes
           (Rx.outcomes hw program)
           (Rx.reference_outcomes hw program)))
    hw_models

let test_relaxed_identity_litmus () =
  List.iter
    (fun (t : L.t) -> if not t.L.loops then check_identity t.L.name t.L.program)
    L.all

let test_relaxed_identity_synth () =
  let corpus = Wo_campaign.Campaign.catalogue_corpus () in
  List.iter
    (fun family ->
      match Wo_synth.Synth.batch ~corpus ~family ~base_seed:1 ~count:24 () with
      | Error e -> Alcotest.failf "%s: %s" family e
      | Ok cases ->
        List.iter
          (fun (c : Wo_synth.Synth.case) ->
            let p = c.Wo_synth.Synth.program in
            if not (Wo_prog.Program.has_loops p) then
              check_identity c.Wo_synth.Synth.name p)
          cases)
    [ "cycle-racy"; "cycle-mixed"; "mutate" ]

let prop_relaxed_identity_random =
  QCheck.Test.make
    ~name:"Relaxed: compiled outcomes equal the reference walk on random racy \
           programs (sc, tso, pso, ra)"
    ~count:60 QCheck.small_int (fun pseed ->
      let program =
        (* alternate two wide threads and three narrow ones *)
        Wo_litmus.Random_prog.racy ~seed:pseed ~procs:(2 + (pseed mod 2))
          ~ops_per_proc:(4 - (2 * (pseed mod 2))) ~locs:2 ()
      in
      Wo_prog.Program.has_loops program
      || List.for_all
           (fun hw ->
             same_outcomes
               (Rx.outcomes hw program)
               (Rx.reference_outcomes hw program))
           hw_models)

(* Beyond Prog_compile's op-count bound: answered by the reference walk. *)
let long_racy () =
  let module I = Wo_prog.Instr in
  let long_thread =
    List.init 2049 (fun _ -> I.Nop) @ [ I.Write (0, I.Const 1) ]
  in
  Wo_prog.Program.make
    [ long_thread @ [ I.Read (0, 1) ]; [ I.Write (1, I.Const 1); I.Read (1, 0) ] ]

let test_relaxed_fallback () =
  let p = long_racy () in
  check "program is beyond compiler bounds" false
    (Wo_prog.Prog_compile.compilable p);
  check_identity "uncompilable racy program" p

let test_relaxed_bound () =
  List.iter
    (fun (name, p) ->
      List.iter
        (fun hw ->
          check
            (Printf.sprintf "%s under %s: max_states 1 raises" name hw.SM.hname)
            true
            (match Rx.outcomes ~max_states:1 hw p with
            | _ -> false
            | exception Rx.Too_many_states 1 -> true))
        hw_models)
    [ ("figure1 (compiled)", L.figure1.L.program); ("fallback", long_racy ()) ]

(* --- the identity gate: the model layer does not perturb SC builds ---------- *)

let fingerprint (r : M.result) =
  Digest.string (Marshal.to_string r [ Marshal.Closures ])

let test_sc_presets_identical_through_model_layer () =
  (* every preset spec, rebuilt through its JSON form (which now always
     carries the model field), produces Marshal-identical results *)
  List.iter
    (fun (spec : S.t) ->
      let direct = S.build spec in
      let rebuilt =
        match S.of_string (S.to_string spec) with
        | Ok s -> S.build s
        | Error e -> Alcotest.failf "%s: re-parse failed: %s" spec.S.name e
      in
      List.iter
        (fun (t : L.t) ->
          for seed = 1 to 3 do
            check
              (Printf.sprintf "%s/%s/seed %d identical" spec.S.name t.L.name
                 seed)
              true
              (fingerprint (M.run direct ~seed t.L.program)
              = fingerprint (M.run rebuilt ~seed t.L.program))
          done)
        [ L.figure1; L.dekker_sync ])
    (P.specs @ P.model_specs)

(* --- the differential harness ------------------------------------------------ *)

let test_difftest_compliant () =
  let cases = List.map D.case_of_litmus L.all in
  let s = D.run ~cases ~runs:20 ~base_seed:1 ~witnesses:false () in
  check_int "no violating (case, machine) pairs" 0 (List.length s.D.violating);
  check_int "three machines" 3 s.D.machines;
  (* and the separator matrix is not trivially empty *)
  let matrix = D.matrix s in
  check "some racy case separates some machine" true
    (List.exists (fun (_, cols) -> List.exists (fun (_, n) -> n > 0) cols) matrix)

let test_difftest_over_bound () =
  (* a bound too small for any reference set downgrades every racy
     loop-free check to report, and the summary counts each one *)
  let cases =
    match Wo_synth.Synth.batch ~family:"cycle-racy" ~base_seed:1 ~count:2 () with
    | Ok cs -> List.map D.case_of_synth cs
    | Error e -> Alcotest.fail e
  in
  let s = D.run ~cases ~runs:4 ~base_seed:1 ~max_states:20 ~witnesses:false () in
  let downgraded =
    List.length
      (List.filter
         (fun r ->
           r.D.rcheck = D.Report_only && r.D.rcase.D.racy
           && not r.D.rcase.D.loops)
         s.D.reports)
  in
  check "some check went over the bound" true (D.over_bound s > 0);
  check_int "over_bound counts the downgraded reports" downgraded (D.over_bound s)

let test_default_cases_every_family () =
  (* every family synthesizes, including the corpus-fed ones *)
  let litmus = List.length L.all in
  List.iter
    (fun family ->
      check_int
        (Printf.sprintf "%s: litmus corpus plus two synthesized cases" family)
        (litmus + 2)
        (List.length (D.default_cases ~family ~count:2 ())))
    Wo_synth.Synth.families

let tests =
  [
    Alcotest.test_case "tso separator" `Quick test_tso_separator;
    Alcotest.test_case "pso separator" `Quick test_pso_separator;
    Alcotest.test_case "ra separator" `Quick test_ra_separator;
    Alcotest.test_case "models appear SC on DRF0 litmus tests" `Slow
      test_models_appear_sc_on_drf0;
    Alcotest.test_case "Relaxed under sc_hw equals Enumerate" `Quick
      test_relaxed_sc_matches_enumerate;
    Alcotest.test_case "model outcome sets are monotone" `Quick
      test_relaxed_monotonic;
    Alcotest.test_case "Relaxed compiled = reference on litmus" `Quick
      test_relaxed_identity_litmus;
    Alcotest.test_case "Relaxed compiled = reference on synthesized cases" `Quick
      test_relaxed_identity_synth;
    QCheck_alcotest.to_alcotest prop_relaxed_identity_random;
    Alcotest.test_case "Relaxed uncompilable programs fall back" `Quick
      test_relaxed_fallback;
    Alcotest.test_case "Relaxed max_states bounds both paths" `Quick
      test_relaxed_bound;
    Alcotest.test_case "SC presets identical through the model layer" `Slow
      test_sc_presets_identical_through_model_layer;
    Alcotest.test_case "difftest finds no violations on the corpus" `Slow
      test_difftest_compliant;
    Alcotest.test_case "difftest counts over-bound model checks" `Quick
      test_difftest_over_bound;
    Alcotest.test_case "difftest default cases for every family" `Quick
      test_default_cases_every_family;
  ]
