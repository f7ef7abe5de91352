(* Experiment E15 — the synthesis + campaign engine.

   PR 7 adds structured litmus synthesis (critical cycles, snippet
   mutation) and a resumable campaign engine whose verdicts persist in
   an append-only store.  This experiment measures the three claims the
   subsystem makes:

   - generation throughput: synthesized cases/sec, end to end (cycle
     construction + mutation + classification + canonical encoding);
   - resume economics: warm-cache (everything settled in the store)
     campaign wall-clock vs cold-cache, target >= 10x on full bounds —
     the point of persisting verdicts at all;
   - store lookup latency: a histogram over per-key find times on a
     store the size the campaign just built;
   - seed reuse: machine runs actually simulated per settled cell, below
     the batch size when seed-free runs (bus and fixed-latency fabrics)
     settle the rest of their batch.

   Results go to stdout and BENCH_campaign.json; CI gates on the
   speedup target at full bounds only (quick bounds shrink the campaign
   below where the cold run costs anything). *)

module C = Wo_campaign.Campaign
module M = Wo_machines.Machine
module Store = Wo_campaign.Store
module S = Wo_synth.Synth
module L = Wo_litmus.Litmus
module J = Wo_obs.Json
open Exp_common

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let corpus =
  List.filter_map
    (fun (t : L.t) ->
      if t.L.loops then None
      else
        Some
          {
            S.base_name = t.L.name;
            S.base_program = t.L.program;
            S.base_drf0 = t.L.drf0;
          })
    L.all

let families = [ "cycle-drf0"; "cycle-racy"; "cycle-mixed"; "mutate" ]

let synthesize ~per_family =
  List.concat_map
    (fun family ->
      match S.batch ~corpus ~family ~base_seed:1 ~count:per_family () with
      | Ok cs -> cs
      | Error e -> failwith e)
    families

(* The 12-machine grid the campaign CLI sweeps: three fabrics x four
   sync-enforcement policies over the wo-new base. *)
let grid_specs ~quick =
  let base =
    match Wo_machines.Presets.spec_of "wo-new" with
    | Some s -> s
    | None -> failwith "wo-new preset missing"
  in
  let specs =
    Wo_machines.Spec.grid
      ~fabrics:
        [
          Wo_machines.Memsys.Bus { transfer_cycles = 2 };
          Wo_machines.Memsys.Net { base = 2; jitter = 6 };
          Wo_machines.Memsys.Net_fixed { latency = 4 };
        ]
      ~syncs:
        [
          Wo_machines.Spec.Sync_none;
          Wo_machines.Spec.Sync_fence;
          Wo_machines.Spec.Sync_reserve_bit;
          Wo_machines.Spec.Sync_drf1_two_level;
        ]
      base
  in
  if quick then [ List.hd specs; List.nth specs 6 ] else specs

let temp_store () =
  let path = Filename.temp_file "wo-e15" ".store" in
  Sys.remove path;
  path

let run () =
  Printf.printf "\n== E15: synthesis + campaign engine ==\n%!";
  let per_family = scaled 1000 25 in
  (* --- generation throughput ---------------------------------------------- *)
  let cases, gen_secs = time (fun () -> synthesize ~per_family) in
  (* include canonical encoding: that is what the store keys cost *)
  let _keys, key_secs =
    time (fun () ->
        List.map
          (fun (c : S.case) -> Wo_workload.Sweep.program_key c.S.program)
          cases)
  in
  let n_cases = List.length cases in
  let gen_per_sec = float_of_int n_cases /. (gen_secs +. key_secs) in
  Printf.printf
    "synthesis: %d cases in %.3fs (+%.3fs canonical encoding) = %.0f \
     cases/sec\n%!"
    n_cases gen_secs key_secs gen_per_sec;
  (* --- cold vs warm campaign ---------------------------------------------- *)
  let specs = grid_specs ~quick in
  let store_path = temp_store () in
  let config =
    { (C.default_config ~store_path) with C.runs = scaled 10 4; shard = 256 }
  in
  let runs0 = M.runs ()
  and reused0 = M.seed_runs_reused ()
  and rebuilds0 = M.session_rebuilds () in
  let cold, cold_secs = time (fun () -> C.run config ~specs ~cases) in
  (* Machine runs actually simulated per settled cell: below [runs]
     whenever seed-free runs settle the rest of their batch. *)
  let cold_machine_runs = M.runs () - runs0
  and cold_reused = M.seed_runs_reused () - reused0
  and cold_rebuilds = M.session_rebuilds () - rebuilds0 in
  let runs_per_cell =
    float_of_int cold_machine_runs /. float_of_int (max 1 cold.C.r_executed)
  in
  let warm, warm_secs = time (fun () -> C.run config ~specs ~cases) in
  let speedup = cold_secs /. Float.max warm_secs 1e-9 in
  Printf.printf
    "campaign: %d cells x %d runs on %d machines\n\
    \  cold: %.3fs (%d executed, %d SC sets)\n\
    \  warm: %.3fs (%d cache hits, %d executed)\n\
    \  resume speedup: %.1fx %s\n%!"
    cold.C.r_total config.C.runs (List.length specs) cold_secs
    cold.C.r_executed cold.C.r_sc_sets warm_secs warm.C.r_cache_hits
    warm.C.r_executed speedup
    (if speedup >= 10.0 then "(>= 10x target met)" else "(target 10x)");
  Printf.printf
    "  cold machine runs: %d (%.2f per settled cell of %d seeds; %d seeds \
     settled by a seed-free run, %d session rebuilds)\n%!"
    cold_machine_runs runs_per_cell config.C.runs cold_reused cold_rebuilds;
  let replay_ok =
    warm.C.r_executed = 0 && warm.C.r_cache_hits = warm.C.r_total
    && String.equal (C.findings_report cold) (C.findings_report warm)
  in
  (* --- store lookup latency histogram -------------------------------------- *)
  let store = Store.openf store_path in
  let keys = ref [] in
  Store.iter store (fun ~key ~value:_ -> keys := key :: !keys);
  let keys = Array.of_list !keys in
  let sample = min (Array.length keys) (scaled 400 50) in
  let reps = 200 in
  let lat_ns =
    Array.init sample (fun i ->
        let key = keys.(i * Array.length keys / sample) in
        let t0 = now () in
        for _ = 1 to reps do
          ignore (Store.find store ~key)
        done;
        (now () -. t0) *. 1e9 /. float_of_int reps)
  in
  Store.close store;
  Array.sort compare lat_ns;
  let pct p =
    lat_ns.(min (sample - 1) (int_of_float (float_of_int sample *. p)))
  in
  let buckets = [ 250.; 500.; 1_000.; 2_000.; 5_000.; 10_000.; 50_000. ] in
  let histogram =
    let counts = Array.make (List.length buckets + 1) 0 in
    Array.iter
      (fun ns ->
        let rec slot i = function
          | [] -> i
          | b :: rest -> if ns < b then i else slot (i + 1) rest
        in
        let i = slot 0 buckets in
        counts.(i) <- counts.(i) + 1)
      lat_ns;
    counts
  in
  Printf.printf
    "store: %d records; lookup p50 %.0fns, p90 %.0fns, p99 %.0fns\n%!"
    (Array.length keys) (pct 0.50) (pct 0.90) (pct 0.99);
  let bucket_labels =
    List.mapi
      (fun i b ->
        let lo = if i = 0 then 0. else List.nth buckets (i - 1) in
        Printf.sprintf "%.0f-%.0fns" lo b)
      buckets
    @ [ Printf.sprintf ">=%.0fns" (List.nth buckets (List.length buckets - 1)) ]
  in
  List.iteri
    (fun i label ->
      if histogram.(i) > 0 then
        Printf.printf "  %-14s %d\n" label histogram.(i))
    bucket_labels;
  (* --- metrics -------------------------------------------------------------- *)
  write_metrics ~experiment:"e15-campaign" ~path:"BENCH_campaign.json"
    [
      ("quick", J.Bool quick);
      ("cases", J.Int n_cases);
      ("gen_per_sec", J.Float gen_per_sec);
      ("cells", J.Int cold.C.r_total);
      ("machines", J.Int (List.length specs));
      ("cold_wall_s", J.Float cold_secs);
      ("warm_wall_s", J.Float warm_secs);
      ("warm_speedup", J.Float speedup);
      ("warm_speedup_target_met", J.Bool (speedup >= 10.0));
      ("warm_replay_identical", J.Bool replay_ok);
      ("cold_executed", J.Int cold.C.r_executed);
      ("runs", J.Int config.C.runs);
      ("cold_machine_runs", J.Int cold_machine_runs);
      ("machine_runs_per_cell", J.Float runs_per_cell);
      ("seed_runs_reused", J.Int cold_reused);
      ("session_rebuilds", J.Int cold_rebuilds);
      ("warm_executed", J.Int warm.C.r_executed);
      ("warm_cache_hits", J.Int warm.C.r_cache_hits);
      ("findings", J.Int (List.length cold.C.r_findings));
      ( "lookup_ns",
        J.Obj
          [
            ("p50", J.Float (pct 0.50));
            ("p90", J.Float (pct 0.90));
            ("p99", J.Float (pct 0.99));
            ("max", J.Float lat_ns.(sample - 1));
          ] );
      ( "lookup_histogram",
        J.Obj
          (List.mapi
             (fun i label -> (label, J.Int histogram.(i)))
             bucket_labels) );
    ];
  Sys.remove store_path
