(* The three judged workloads, each in two forms: the untraced form calls
   the program's front door ([Campaign.run], [Difftest.run]) exactly as the
   CLI does; the traced form replays the same steps through the same
   public building blocks with a span around each layer call and the
   machines wrapped by {!Probe}.  Both forms must produce byte-identical
   verdicts — the traced run counts any difference. *)

module C = Wo_campaign.Campaign
module D = Wo_campaign.Difftest
module Store = Wo_campaign.Store
module Synth = Wo_synth.Synth
module Spec = Wo_machines.Spec
module M = Wo_machines.Machine
module L = Wo_litmus.Litmus
module R = Wo_litmus.Runner
module Sweep = Wo_workload.Sweep
module Outcome = Wo_prog.Outcome
module J = Wo_obs.Json

(* --- sizes --------------------------------------------------------------- *)

let campaign_families = [ "cycle-drf0"; "cycle-racy"; "cycle-mixed"; "mutate" ]
let campaign_count = 200 (* cases per family *)
let campaign_runs = 10
let campaign_shard = 256
let difftest_family = "cycle-racy"
let difftest_count = 600
let difftest_runs = 40
let max_states = 2_000_000

(* The 12-point [wo campaign --grid] expansion of [wo-new]: three fabrics
   x four synchronization policies. *)
let campaign_specs =
  Spec.grid
    ~fabrics:
      [
        Wo_machines.Memsys.Bus { transfer_cycles = 2 };
        Wo_machines.Memsys.Net { base = 2; jitter = 6 };
        Wo_machines.Memsys.Net_fixed { latency = 4 };
      ]
    ~syncs:
      [ Spec.Sync_none; Spec.Sync_fence; Spec.Sync_reserve_bit;
        Spec.Sync_drf1_two_level ]
    Wo_machines.Presets.wo_new_spec

let difftest_specs =
  List.map
    (fun name -> Option.get (Wo_machines.Presets.spec_of name))
    [ "tso-wb"; "pso-wb"; "ra-window"; "net-nocache-rp3" ]

let campaign_config ~seed ~store_path =
  {
    C.runs = campaign_runs;
    base_seed = seed;
    domains = Some 1;
    shard = campaign_shard;
    max_shards = None;
    store_path;
    auto_compact = None;
  }

(* --- what one pass produced ---------------------------------------------- *)

type pass = {
  cells : int;  (** cells judged: settled or replayed, or (case, machine) checks *)
  failed : int;  (** cells that ended without a verdict *)
  verdicts : string array;  (** every cell's verdict bytes, in plan order *)
  text : string;  (** findings report, or the difftest separator matrix *)
  executed : int;  (** campaign cells simulated (not replayed) by the pass *)
  hits : int;  (** campaign cells the store already settled *)
  violations : int;  (** broken contracts: findings, or violating checks *)
}

let digest p =
  let b = Buffer.create (64 * Array.length p.verdicts) in
  Array.iter
    (fun v ->
      Buffer.add_string b v;
      Buffer.add_char b '\n')
    p.verdicts;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- synthesis ----------------------------------------------------------- *)

let batch ?probe ~family ~seed ~count () =
  let go () =
    match
      Synth.batch ~corpus:(C.catalogue_corpus ()) ~family ~base_seed:seed
        ~count ()
    with
    | Ok cases -> cases
    | Error e -> failwith e
  in
  match probe with
  | None -> go ()
  | Some (p : Probe.t) ->
    let cases = Spans.span p.spans Spans.Synth go in
    p.synth_cases <- p.synth_cases + List.length cases;
    cases

let campaign_cases ?probe ~seed () =
  List.concat_map
    (fun family -> batch ?probe ~family ~seed ~count:campaign_count ())
    campaign_families

(* [Difftest.default_cases] passes no corpus, so it cannot synthesize the
   corpus-fed families; the benchmark builds its own list. *)
let difftest_cases ~seed =
  List.map D.case_of_litmus L.all
  @ List.map D.case_of_synth
      (batch ~family:difftest_family ~seed ~count:difftest_count ())

(* --- campaigns ----------------------------------------------------------- *)

let verdict_failed s =
  match C.verdict_of_string s with Ok v -> v.C.v_error <> None | Error _ -> true

(* The store keys of every cell, in plan order. *)
let campaign_keys ~seed =
  let config = campaign_config ~seed ~store_path:"" in
  let plan =
    C.plan config ~specs:campaign_specs ~cases:(campaign_cases ~seed ())
  in
  Array.init (C.plan_cells plan) (C.cell_store_key plan)

(* Every cell's stored verdict, read back through a read-only snapshot. *)
let stored_verdicts ~store_path keys =
  let snap = Store.Snapshot.load store_path in
  Fun.protect ~finally:(fun () -> Store.Snapshot.close snap) @@ fun () ->
  Array.map
    (fun key ->
      Option.value ~default:"<missing>" (Store.Snapshot.find snap ~key))
    keys

let campaign_pass (r : C.result) ~verdicts ~text =
  {
    cells = r.C.r_total;
    failed =
      Array.fold_left
        (fun n v -> if verdict_failed v then n + 1 else n)
        0 verdicts;
    verdicts;
    text;
    executed = r.C.r_executed;
    hits = r.C.r_cache_hits;
    violations = List.length r.C.r_findings;
  }

(* The untraced campaign, as [wo campaign --grid -j 1] runs it: synthesize,
   settle or replay every cell, render the findings report.  Reading the
   verdicts back from the store is left to the caller's untimed check. *)
let campaign ~seed ~store_path =
  let cases = campaign_cases ~seed () in
  let r = C.run (campaign_config ~seed ~store_path) ~specs:campaign_specs ~cases in
  (r, C.findings_report r)

type cell = {
  case : Synth.case;
  test : L.t;
  key : string;
  spec : Spec.t;
  machine : M.t;
  pkey : Sweep.program_key;
  art : Wo_prog.Prog_compile.t option;
}

(* [Campaign.run] step by step: plan, open the store, then per shard look
   every cell up, enumerate the SC sets the fresh ones need, evaluate them
   spec-major, append and sync; finally replay every verdict into the
   findings.  Same calls, same order, same bytes. *)
let traced_campaign (p : Probe.t) ~seed ~store_path =
  let sp = p.spans in
  let config = campaign_config ~seed ~store_path in
  let cases = campaign_cases ~probe:p ~seed () in
  let cells =
    Spans.span sp Spans.Plan (fun () ->
        let built =
          List.map
            (fun spec ->
              ( spec,
                Probe.wrap p spec (Spec.build spec),
                J.to_string (Spec.to_json spec) ))
            campaign_specs
        in
        Array.of_list
          (List.concat_map
             (fun (c : Synth.case) ->
               let test = C.litmus_of_case c in
               let pkey, art = Sweep.program_key_art c.Synth.program in
               List.map
                 (fun (spec, machine, spec_json) ->
                   {
                     case = c;
                     test;
                     key =
                       C.cell_key ~program_payload:pkey.Sweep.pk_payload
                         ~spec_json ~runs:config.C.runs
                         ~base_seed:config.C.base_seed;
                     spec;
                     machine;
                     pkey;
                     art;
                   })
                 built)
             cases))
  in
  let total = Array.length cells in
  let settled = Array.make total "<missing>" in
  let memo : (Digest.t, (Sweep.program_key * Outcome.t list) list) Hashtbl.t =
    Hashtbl.create 256
  in
  let sc_find key =
    Option.bind (Hashtbl.find_opt memo key.Sweep.pk_digest) (Sweep.find_keyed key)
  in
  let executed = ref 0 and hits = ref 0 and shards = ref 0 and sc_sets = ref 0 in
  let store = Spans.span sp Spans.Store_open (fun () -> Store.openf store_path) in
  let shard_size = config.C.shard in
  for s = 0 to ((total + shard_size - 1) / shard_size) - 1 do
    Spans.span sp Spans.Shard @@ fun () ->
    let lo = s * shard_size and hi = min total ((s + 1) * shard_size) in
    let fresh =
      List.filter
        (fun idx ->
          let wrapper = Spans.enter sp Spans.Cell in
          let found =
            Spans.span sp Spans.Store_find (fun () ->
                Store.find store ~key:cells.(idx).key)
          in
          Spans.leave sp wrapper;
          p.finds <- p.finds + 1;
          match found with
          | Some v ->
            p.hits <- p.hits + 1;
            incr hits;
            settled.(idx) <- v;
            false
          | None ->
            Spans.unwrap sp wrapper;
            true)
        (List.init (hi - lo) (fun k -> lo + k))
    in
    let missing =
      List.fold_left
        (fun acc idx ->
          let c = cells.(idx) in
          if c.test.L.loops || sc_find c.pkey <> None
             || Sweep.find_keyed c.pkey acc <> None
          then acc
          else (c.pkey, c.test.L.program) :: acc)
        [] fresh
      |> List.rev
    in
    List.iter
      (fun (key, program) ->
        let outs, stats =
          Spans.span sp Spans.Enumerate (fun () ->
              Wo_prog.Enumerate.outcomes_stateful ~domains:1 program)
        in
        incr sc_sets;
        p.enum_sets <- p.enum_sets + 1;
        p.enum_states <- p.enum_states + stats.Wo_prog.Enumerate.sf_states;
        let prev =
          Option.value ~default:[] (Hashtbl.find_opt memo key.Sweep.pk_digest)
        in
        Hashtbl.replace memo key.Sweep.pk_digest (prev @ [ (key, outs) ]))
      missing;
    let grouped =
      List.stable_sort
        (fun a b ->
          String.compare cells.(a).machine.M.name cells.(b).machine.M.name)
        fresh
    in
    let by_idx = Hashtbl.create 64 in
    List.iter
      (fun idx ->
        let c = cells.(idx) in
        let sc_outcomes = if c.test.L.loops then None else sc_find c.pkey in
        let v =
          Spans.span sp Spans.Cell (fun () ->
              Spans.span sp Spans.Runner (fun () ->
                  C.verdict_to_string
                    (C.evaluate ~engine:M.Compiled ?compiled:c.art
                       ~runs:config.C.runs ~base_seed:config.C.base_seed
                       ~sc_outcomes c.machine c.test)))
        in
        if c.test.L.drf0 then p.lemma1_traces <- p.lemma1_traces + config.C.runs;
        Hashtbl.replace by_idx idx v)
      grouped;
    List.iter
      (fun idx ->
        let v = Hashtbl.find by_idx idx in
        Spans.span sp Spans.Store_add (fun () ->
            Store.add store ~key:cells.(idx).key ~value:v);
        p.adds <- p.adds + 1;
        settled.(idx) <- v)
      fresh;
    Spans.span sp Spans.Store_sync (fun () -> Store.sync store);
    p.syncs <- p.syncs + 1;
    executed := !executed + List.length fresh;
    incr shards
  done;
  let records = Store.length store in
  Store.close store;
  p.store_records <- p.store_records + records;
  let findings =
    Spans.span sp Spans.Replay (fun () ->
        let acc = ref [] in
        Array.iteri
          (fun idx s ->
            match C.verdict_of_string s with
            | Ok v when not v.C.v_ok ->
              let c = cells.(idx) in
              acc :=
                {
                  C.f_case = c.case.Synth.name;
                  f_family = c.case.Synth.family;
                  f_class = Synth.classification_name c.case.Synth.classification;
                  f_machine = c.spec.Spec.name;
                  f_verdict = v;
                }
                :: !acc
            | _ -> ())
          settled;
        List.sort
          (fun a b ->
            match compare a.C.f_case b.C.f_case with
            | 0 -> compare a.C.f_machine b.C.f_machine
            | c -> c)
          !acc)
  in
  let result =
    {
      C.r_total = total;
      r_executed = !executed;
      r_cache_hits = !hits;
      r_shards = !shards;
      r_stopped_early = false;
      r_sc_sets = !sc_sets;
      r_findings = findings;
      r_store_records = records;
      r_compacted = None;
    }
  in
  Spans.span sp Spans.Report (fun () ->
      campaign_pass result ~verdicts:settled ~text:(C.findings_report result))

(* --- difftest ------------------------------------------------------------ *)

let report_string r = J.to_string (D.report_to_json r)

let matrix_text s =
  String.concat "\n"
    (List.map
       (fun (case, row) ->
         case ^ ":"
         ^ String.concat ""
             (List.map (fun (m, n) -> Printf.sprintf " %s=%d" m n) row))
       (D.matrix s))

(* A racy loop-free case is judged against its model's set; when that set
   is over the state bound the check is downgraded to report-only, which
   is a cell without a verdict. *)
let downgraded (r : D.report) =
  r.D.rcase.D.racy && (not r.D.rcase.D.drf0) && (not r.D.rcase.D.loops)
  && r.D.rcheck = D.Report_only

let difftest_pass (s : D.summary) =
  {
    cells = List.length s.D.reports;
    failed = List.length (List.filter downgraded s.D.reports);
    verdicts = Array.of_list (List.map report_string s.D.reports);
    text = matrix_text s;
    executed = List.length s.D.reports;
    hits = 0;
    violations = List.length s.D.violating;
  }

(* The untraced difftest: the litmus corpus plus a corpus-fed cycle-racy
   batch, checked on the four specs. *)
let difftest ~seed cases =
  D.run ~specs:difftest_specs ~runs:difftest_runs ~base_seed:seed ~max_states
    ~engine:M.Compiled ~cases ()

let in_set set o = List.exists (fun a -> Outcome.compare a o = 0) set

let memo tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = f () in
    Hashtbl.replace tbl key v;
    v

(* [Difftest.run] step by step over wrapped machines. *)
let traced_difftest (p : Probe.t) ~seed cases =
  let sp = p.spans in
  let runs = difftest_runs and base_seed = seed in
  let sc_sets = Hashtbl.create 32 and model_sets = Hashtbl.create 32 in
  let reports =
    List.concat_map
      (fun (spec : Spec.t) ->
        let machine = Probe.build p spec in
        let session = M.new_session machine M.Compiled in
        let hw = Spec.model_hardware spec.Spec.model in
        List.map
          (fun (c : D.case) ->
            Spans.span sp Spans.Cell @@ fun () ->
            let sc_set =
              if c.D.loops then []
              else
                memo sc_sets c.D.cname (fun () ->
                    Spans.span sp Spans.Enumerate (fun () ->
                        let outs, stats =
                          Wo_prog.Enumerate.outcomes_with_stats c.D.program
                        in
                        if stats.Wo_prog.Enumerate.truncated then
                          failwith (c.D.cname ^ ": SC enumeration truncated");
                        p.enum_sets <- p.enum_sets + 1;
                        p.enum_states <-
                          p.enum_states + stats.Wo_prog.Enumerate.states;
                        outs))
            in
            let check =
              if c.D.drf0 then if c.D.loops then D.Lemma1_only else D.Against_sc
              else if c.D.racy && not c.D.loops then D.Against_model
              else D.Report_only
            in
            let test =
              {
                L.name = c.D.cname;
                description = "";
                program = c.D.program;
                drf0 = c.D.drf0;
                loops = c.D.loops;
                interesting = [];
              }
            in
            let rep =
              Spans.span sp Spans.Runner (fun () ->
                  R.run ~runs ~base_seed ~check_lemma1:c.D.drf0
                    ~sc_outcomes:sc_set ~session machine test)
            in
            if c.D.drf0 then p.lemma1_traces <- p.lemma1_traces + runs;
            let beyond_sc =
              List.fold_left (fun n (_, k) -> n + k) 0 rep.R.violations
            in
            let check, allowed_set =
              match check with
              | D.Against_model -> (
                match
                  memo model_sets
                    (c.D.cname, hw.Wo_core.Sync_model.hname)
                    (fun () ->
                      Spans.span sp Spans.Relaxed (fun () ->
                          p.relaxed_sets <- p.relaxed_sets + 1;
                          match
                            Wo_prog.Relaxed.outcomes ~max_states hw c.D.program
                          with
                          | set -> Some set
                          | exception Wo_prog.Relaxed.Too_many_states _ ->
                            p.relaxed_over_bound <- p.relaxed_over_bound + 1;
                            None))
                with
                | Some set -> (D.Against_model, Some set)
                | None -> (D.Report_only, None))
              | D.Against_sc -> (D.Against_sc, Some sc_set)
              | (D.Lemma1_only | D.Report_only) as k -> (k, None)
            in
            let violations =
              Spans.span sp Spans.Runner (fun () ->
                  match (check, allowed_set) with
                  | (D.Against_sc | D.Against_model), Some set ->
                    List.filter (fun (o, _) -> not (in_set set o)) rep.R.histogram
                  | _ -> [])
            in
            let witness =
              match violations with
              | (bad, _) :: _ ->
                let rec search seed =
                  if seed >= base_seed + runs then None
                  else
                    let r = M.session_run session ~seed c.D.program in
                    if Outcome.compare r.M.outcome bad = 0 then
                      Some
                        {
                          D.wseed = seed;
                          woutcome = bad;
                          wtrace = Format.asprintf "%a" Wo_sim.Trace.pp r.M.trace;
                        }
                    else search (seed + 1)
                in
                search base_seed
              | [] -> None
            in
            {
              D.rcase = c;
              rmachine = spec.Spec.name;
              rmodel = Spec.model_to_string spec.Spec.model;
              rruns = runs;
              rcheck = check;
              allowed =
                (match allowed_set with Some s -> List.length s | None -> 0);
              distinct = List.length rep.R.histogram;
              beyond_sc;
              violations;
              lemma1_failures = rep.R.lemma1_failures;
              witness;
            })
          cases)
      difftest_specs
  in
  Spans.span sp Spans.Report (fun () ->
      difftest_pass
        {
          D.reports;
          cases = List.length cases;
          machines = List.length difftest_specs;
          violating = List.filter (fun r -> not (D.compliant r)) reports;
        })
