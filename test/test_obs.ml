(* The observability subsystem: JSON printer/parser roundtrips, recorder
   semantics, stall accounting, the metrics envelope, and — the part the
   rest of the suite can't cover — parse-back validation of the Perfetto
   traces the machines actually emit, plus the Figure-3 claim stated in
   stall-attribution terms. *)

module J = Wo_obs.Json
module Rec = Wo_obs.Recorder
module Stall = Wo_obs.Stall
module M = Wo_machines.Machine
module P = Wo_machines.Presets
module L = Wo_litmus.Litmus

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- Json ------------------------------------------------------------------- *)

let sample_json =
  J.Obj
    [
      ("null", J.Null);
      ("flags", J.List [ J.Bool true; J.Bool false ]);
      ("n", J.Int (-42));
      ("big", J.Int max_int);
      ("s", J.String "quote \" backslash \\ newline \n tab \t unicode \x01");
      ("empty_list", J.List []);
      ("empty_obj", J.Obj []);
      ("nested", J.Obj [ ("xs", J.List [ J.Obj [ ("k", J.Int 1) ] ]) ]);
    ]

let test_json_roundtrip () =
  List.iter
    (fun pretty ->
      match J.of_string (J.to_string ~pretty sample_json) with
      | Ok parsed ->
        check (Printf.sprintf "roundtrip pretty:%b" pretty) true
          (parsed = sample_json)
      | Error e -> Alcotest.fail ("parse failed: " ^ e))
    [ false; true ]

let test_json_floats () =
  (match J.of_string (J.to_string (J.Float 1.5)) with
  | Ok (J.Float f) -> check "float value survives" true (f = 1.5)
  | _ -> Alcotest.fail "float did not roundtrip");
  (* JSON has no NaN/inf: they serialize as null and must stay parseable *)
  match J.of_string (J.to_string (J.List [ J.Float nan; J.Float infinity ])) with
  | Ok (J.List [ J.Null; J.Null ]) -> ()
  | _ -> Alcotest.fail "non-finite floats must serialize as null"

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match J.of_string s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ]

let test_json_accessors () =
  check "member" true (J.member "n" sample_json = Some (J.Int (-42)));
  check "member missing" true (J.member "nope" sample_json = None);
  check "to_int accepts integral float" true
    (J.to_int_opt (J.Float 3.0) = Some 3);
  check "to_float accepts int" true (J.to_float_opt (J.Int 3) = Some 3.0)

(* --- Recorder --------------------------------------------------------------- *)

let test_recorder_disabled_is_noop () =
  let before = Rec.length Rec.disabled in
  Rec.span Rec.disabled ~cat:Rec.Proc ~track:0 ~name:"x" ~ts:0 ~dur:1;
  Rec.instant Rec.disabled ~cat:Rec.Net ~track:0 ~name:"y" ~ts:0;
  Rec.counter Rec.disabled ~cat:Rec.Enum ~track:0 ~name:"z" ~ts:0 ~value:1;
  check_int "disabled records nothing" before (Rec.length Rec.disabled);
  check "disabled reports disabled" false (Rec.enabled Rec.disabled)

let test_recorder_chunk_overflow () =
  let r = Rec.create () in
  let n = (2 * Rec.chunk_size) + 17 in
  for i = 0 to n - 1 do
    Rec.instant r ~cat:Rec.Proc ~track:(i mod 4) ~name:"tick" ~ts:i
  done;
  check_int "all events kept across chunks" n (Rec.length r);
  let events = Rec.events r in
  check_int "events lists every event" n (List.length events);
  (* emission order is preserved across chunk boundaries *)
  List.iteri
    (fun i ev ->
      match ev with
      | Rec.Instant { ts; _ } ->
        if ts <> i then Alcotest.fail "event order broken"
      | _ -> Alcotest.fail "wrong event kind")
    events;
  Rec.clear r;
  check_int "clear empties" 0 (Rec.length r)

let test_ambient_sink () =
  let r = Rec.create () in
  check "default ambient sink is disabled" false (Rec.enabled (Rec.active ()));
  Rec.with_sink r (fun () ->
      check "ambient sink installed" true (Rec.active () == r));
  check "ambient sink restored" false (Rec.enabled (Rec.active ()));
  (* exception-safe restore *)
  (try Rec.with_sink r (fun () -> failwith "boom") with Failure _ -> ());
  check "restored after raise" false (Rec.enabled (Rec.active ()))

(* --- Hist / Tap ------------------------------------------------------------- *)

let test_hist () =
  let h = Wo_obs.Hist.create () in
  List.iter (Wo_obs.Hist.add h) [ 1; 1; 2; 100; 0 ];
  check_int "count" 5 (Wo_obs.Hist.count h);
  check_int "sum" 104 (Wo_obs.Hist.sum h);
  check_int "max" 100 (Wo_obs.Hist.max_value h);
  let h2 = Wo_obs.Hist.create () in
  Wo_obs.Hist.add h2 7;
  let m = Wo_obs.Hist.merge h h2 in
  check_int "merge count" 6 (Wo_obs.Hist.count m);
  check_int "merge sum" 111 (Wo_obs.Hist.sum m)

let test_tap () =
  let t = Wo_obs.Tap.create () in
  Wo_obs.Tap.record t ~name:"GetS" ~latency:3;
  Wo_obs.Tap.record t ~name:"GetS" ~latency:5;
  Wo_obs.Tap.record t ~name:"Inv" ~latency:1;
  check_int "total" 3 (Wo_obs.Tap.total t);
  check "stats keys" true
    (List.map fst (Wo_obs.Tap.to_stats t) = [ "msg.GetS"; "msg.Inv" ]);
  let t2 = Wo_obs.Tap.create () in
  Wo_obs.Tap.record t2 ~name:"Inv" ~latency:2;
  check_int "merge total" 4 (Wo_obs.Tap.total (Wo_obs.Tap.merge t t2));
  (* kinds resolve once and record by index; registering shows nothing *)
  let k = Wo_obs.Tap.kind t "Recall" in
  check_int "kind is stable" k (Wo_obs.Tap.kind t "Recall");
  check "registered kind absent" true
    (List.map fst (Wo_obs.Tap.to_stats t) = [ "msg.GetS"; "msg.Inv" ]);
  Wo_obs.Tap.record_kind t k ~latency:300;
  check "recorded kind present" true
    (Wo_obs.Tap.to_stats t
    = [ ("msg.GetS", 2); ("msg.Inv", 1); ("msg.Recall", 1) ]);
  (* cleared in place, then reused: the snapshot equals a fresh tap's *)
  Wo_obs.Tap.clear t;
  check_int "cleared" 0 (Wo_obs.Tap.total t);
  Wo_obs.Tap.record t ~name:"Inv" ~latency:2;
  check "reused snapshot = fresh snapshot" true
    (Marshal.to_string (Wo_obs.Tap.copy t) []
    = Marshal.to_string (Wo_obs.Tap.copy t2) [])

(* The pre-compaction histogram: all 64 buckets, bit length by
   recursion. *)
let ref_bucket v =
  let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
  min 63 (bits 0 (max 0 v))

let ref_hist vs =
  let counts = Array.make 64 0 in
  List.iter (fun v -> counts.(ref_bucket v) <- counts.(ref_bucket v) + 1) vs;
  let buckets =
    List.filter_map
      (fun i ->
        if counts.(i) = 0 then None
        else
          let lo, hi = if i = 0 then (0, 0) else (1 lsl (i - 1), (1 lsl i) - 1) in
          Some (lo, hi, counts.(i)))
      (List.init 64 Fun.id)
  in
  let n = List.length vs in
  let sum = List.fold_left (fun a v -> a + max 0 v) 0 vs in
  let json =
    J.Obj
      [
        ("count", J.Int n);
        ("sum", J.Int sum);
        ("mean", J.Float (if n = 0 then 0.0 else float_of_int sum /. float_of_int n));
        ("max", J.Int (List.fold_left max 0 vs));
        ( "buckets",
          J.List
            (List.map
               (fun (lo, hi, c) ->
                 J.Obj [ ("lo", J.Int lo); ("hi", J.Int hi); ("n", J.Int c) ])
               buckets) );
      ]
  in
  (buckets, json)

let hist_of vs =
  let h = Wo_obs.Hist.create () in
  List.iter (Wo_obs.Hist.add h) vs;
  h

let hist_values =
  let open QCheck.Gen in
  let pow2 = map (fun k -> 1 lsl k) (int_range 0 61) in
  list_size (int_range 0 12)
    (oneof
       [
         return 0;
         int_range (-300) (-1);
         int_range 0 600;
         map2 (fun p d -> p + d) pow2 (int_range (-1) 1);
         int_range 256 max_int;
       ])

let prop_hist_matches_reference =
  QCheck.Test.make ~name:"compact Hist = 64-bucket reference" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair (list int) (list int))
       (QCheck.Gen.pair hist_values hist_values))
    (fun (a, b) ->
      let module H = Wo_obs.Hist in
      let same h vs =
        let buckets, json = ref_hist vs in
        H.buckets h = buckets && H.to_json h = json
      in
      let reused =
        let h = hist_of a in
        H.clear h;
        List.iter (H.add h) b;
        h
      in
      List.for_all (fun v -> H.bucket_of v = ref_bucket v) (a @ b)
      && same (hist_of a) a
      && same (H.merge (hist_of a) (hist_of b)) (a @ b)
      && same (H.copy (hist_of a)) a
      && same reused b
      && Marshal.to_string (H.copy reused) []
         = Marshal.to_string (H.copy (hist_of b)) [])

(* --- Pinned observable record ------------------------------------------------ *)

(* The legacy stats view, the stall accounts and the message taps,
   rendered together for (figure1, dekker-sync) x four machines x seeds
   1-2.  The digest was taken from the string-keyed bookkeeping this
   representation replaced; any drift in a counter, a stall account or a
   histogram bucket changes it. *)
let pinned_record_digest = "4e849d18defb632dc5cf38fe97a77059"

let render_observable (r : M.result) =
  let b = Buffer.create 256 in
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s=%d\n" k v))
    (M.stats r);
  Buffer.add_string b (J.to_string (Stall.to_json r.M.stalls));
  Buffer.add_char b '\n';
  Buffer.add_string b (J.to_string (Wo_obs.Tap.to_json r.M.taps));
  Buffer.add_char b '\n';
  Buffer.contents b

let test_observable_record_pinned () =
  let machines = [ P.wo_new; P.sc_dir; P.tso_wb; P.net_nocache_rp3 ] in
  let sessions = List.map (fun m -> M.new_session m M.Compiled) machines in
  let fresh = Buffer.create 4096 and reused = Buffer.create 4096 in
  List.iter
    (fun (t : L.t) ->
      List.iter2
        (fun m s ->
          for seed = 1 to 2 do
            Buffer.add_string fresh (render_observable (M.run m ~seed t.L.program));
            Buffer.add_string reused
              (render_observable (M.session_run s ~seed t.L.program))
          done)
        machines sessions)
    [ L.figure1; L.dekker_sync ];
  let digest b = Digest.to_hex (Digest.string (Buffer.contents b)) in
  check_string "fresh runs" pinned_record_digest (digest fresh);
  check_string "session runs" pinned_record_digest (digest reused)

(* --- Stall ------------------------------------------------------------------ *)

let test_stall_accounts () =
  let s = Stall.create () in
  Stall.add s ~proc:0 Stall.Release_gate 10;
  Stall.add s ~proc:0 Stall.Release_gate 5;
  Stall.add s ~proc:2 Stall.Reserve_wait 7;
  Stall.add s ~proc:1 Stall.Read_miss 0 (* ignored *);
  Stall.add s ~proc:1 Stall.Read_miss (-3) (* ignored *);
  check_int "accumulates" 15 (Stall.get s ~proc:0 Stall.Release_gate);
  check_int "total" 22 (Stall.total s);
  check "non-positive ignored" true (Stall.procs s = [ 0; 2 ]);
  check "legacy keys" true
    (List.mem ("P0.stall.release_gate", 15) (Stall.to_stats s));
  check "legacy total" true (List.mem ("stall.total", 22) (Stall.to_stats s))

let test_stall_reason_names_roundtrip () =
  List.iter
    (fun reason ->
      match Stall.reason_of_name (Stall.reason_name reason) with
      | Some r -> check (Stall.reason_name reason) true (r = reason)
      | None -> Alcotest.fail ("no roundtrip for " ^ Stall.reason_name reason))
    Stall.all_reasons;
  check "unknown name" true (Stall.reason_of_name "gate" = None)

(* --- Metrics envelope ------------------------------------------------------- *)

let test_metrics_envelope () =
  let doc = Wo_obs.Metrics.make ~experiment:"test" [ ("x", J.Int 1) ] in
  check "validates" true (Wo_obs.Metrics.validate doc = Ok ());
  check "experiment tag" true (Wo_obs.Metrics.experiment doc = Some "test");
  check "schema version present" true
    (J.member "schema_version" doc = Some (J.Int Wo_obs.Metrics.schema_version));
  check "rejects wrong schema" true
    (Wo_obs.Metrics.validate (J.Obj [ ("schema", J.String "other") ]) <> Ok ());
  check "payload collision rejected" true
    (try
       ignore (Wo_obs.Metrics.make ~experiment:"t" [ ("schema", J.Null) ]);
       false
     with Invalid_argument _ -> true)

(* --- Perfetto export of a real machine run ---------------------------------- *)

let record_run machine ~seed program =
  let r = Rec.create () in
  let result = Rec.with_sink r (fun () -> M.run machine ~seed program) in
  (r, result)

let test_perfetto_parse_back () =
  let recorder, _ =
    record_run P.wo_new ~seed:7 (L.figure3_scenario ()).L.program
  in
  check "run recorded events" true (Rec.length recorder > 0);
  match J.of_string (Wo_obs.Export.perfetto_string recorder) with
  | Error e -> Alcotest.fail ("perfetto output is not valid JSON: " ^ e)
  | Ok doc ->
    let events =
      match J.member "traceEvents" doc with
      | Some l -> Option.get (J.to_list_opt l)
      | None -> Alcotest.fail "no traceEvents array"
    in
    check "metadata + events present" true
      (List.length events > Rec.length recorder);
    List.iter
      (fun ev ->
        let field name = J.member name ev in
        let ph =
          match Option.bind (field "ph") J.to_string_opt with
          | Some ph -> ph
          | None -> Alcotest.fail "event without ph"
        in
        check "known phase" true (List.mem ph [ "X"; "i"; "C"; "M" ]);
        check "has pid" true (Option.bind (field "pid") J.to_int_opt <> None);
        check "has name" true
          (Option.bind (field "name") J.to_string_opt <> None);
        if ph = "X" then
          match Option.bind (field "dur") J.to_int_opt with
          | Some dur -> check "span durations non-negative" true (dur >= 0)
          | None -> Alcotest.fail "span without dur"
        else ();
        if ph <> "M" then
          check "has ts" true (Option.bind (field "ts") J.to_int_opt <> None))
      events

let test_trace_deterministic () =
  let program = (L.figure3_scenario ()).L.program in
  let a, _ = record_run P.wo_new ~seed:11 program in
  let b, _ = record_run P.wo_new ~seed:11 program in
  check_string "same seed, byte-identical exported trace"
    (Wo_obs.Export.perfetto_string a)
    (Wo_obs.Export.perfetto_string b);
  let c, _ = record_run P.wo_new ~seed:12 program in
  check "different seed, different trace" true
    (Wo_obs.Export.perfetto_string a <> Wo_obs.Export.perfetto_string c)

(* Sessions outlive recorder scopes: every component — the directory and
   cache controllers included — must record into the recorder ambient
   when a run starts, not the one ambient when the session was built. *)
let events_by_category r =
  List.fold_left
    (fun (proc, cache, dir) -> function
      | Rec.Span { cat; _ } | Rec.Instant { cat; _ } | Rec.Counter { cat; _ }
        -> (
        match cat with
        | Rec.Proc -> (proc + 1, cache, dir)
        | Rec.Cache -> (proc, cache + 1, dir)
        | Rec.Dir -> (proc, cache, dir + 1)
        | Rec.Net | Rec.Enum | Rec.Camp -> (proc, cache, dir)))
    (0, 0, 0) (Rec.events r)

let test_session_follows_ambient_recorder () =
  let program = L.figure1.L.program in
  let fresh, _ = record_run P.wo_new ~seed:1 program in
  let want = events_by_category fresh in
  let pp (p, c, d) = Printf.sprintf "proc=%d cache=%d dir=%d" p c d in
  check "fresh run records cache and directory events" true
    (let _, c, d = want in
     c > 0 && d > 0);
  (* built outside any scope, then run inside one *)
  let outside = M.new_session P.wo_new M.Compiled in
  ignore (M.session_run outside ~seed:1 program);
  let r = Rec.create () in
  Rec.with_sink r (fun () -> ignore (M.session_run outside ~seed:1 program));
  check_string "outside-built session records like a fresh run" (pp want)
    (pp (events_by_category r));
  (* built inside a scope, then run after it ended *)
  let dead = Rec.create () in
  let inside =
    Rec.with_sink dead (fun () ->
        let s = M.new_session P.wo_new M.Compiled in
        ignore (M.session_run s ~seed:1 program);
        s)
  in
  check_string "inside-built session records like a fresh run" (pp want)
    (pp (events_by_category dead));
  let n = Rec.length dead in
  ignore (M.session_run inside ~seed:1 program);
  check_int "no event reaches the ended scope's recorder" n (Rec.length dead)

(* --- The Figure-3 claim, in stall-attribution terms ------------------------- *)

let test_figure3_attribution () =
  let program = (L.figure3_scenario ()).L.program in
  let old_gate = ref 0 and new_gate = ref 0 and new_commit = ref 0 in
  for seed = 1 to 10 do
    let old_r = M.run P.wo_old ~seed program in
    let new_r = M.run P.wo_new ~seed program in
    old_gate := !old_gate + M.stall old_r ~proc:0 "release_gate";
    new_gate := !new_gate + M.stall new_r ~proc:0 "release_gate";
    new_commit := !new_commit + M.stall new_r ~proc:0 "sync_commit"
  done;
  check "Definition-1 hardware gates P0's release" true (!old_gate > 0);
  check_int "the Section-5.3 machine never release-gates P0" 0 !new_gate;
  check "wo-new still waits for the Unset to commit" true (!new_commit > 0)

(* --- Accounting invariant over random DRF0 programs ------------------------- *)

(* The uncached and relaxed-model presets, where every stall span is
   charged once: no processor stalls longer than it runs.  The coherent
   presets still charge overlapping spans (a sync_commit wait inside a
   reserve wait), so they are left out of that bound. *)
let flat_presets =
  [ P.sc_bus_nocache; P.bus_nocache_wb; P.net_nocache_weak; P.net_nocache_rp3;
    P.rp3_fence; P.tso_wb; P.pso_wb; P.ra_window ]

let stalls_within_run (m : M.t) (r : M.result) =
  (not (List.memq m flat_presets))
  || List.for_all
       (fun proc -> M.proc_stalls r ~proc <= r.M.proc_finish.(proc))
       (Stall.procs r.M.stalls)

(* A write still in flight when a test-and-set of the same location
   issues: the wait for it is charged as rmw_order, and the RMW's own
   round trip from its send, not again from its issue. *)
let test_rmw_after_write_charged_once () =
  let module I = Wo_prog.Instr in
  let program =
    Wo_prog.Program.make ~name:"write-then-tas"
      [ [ I.Write (0, I.Const 1); I.Test_and_set (1, 0) ] ]
  in
  let r = M.run P.net_nocache_weak ~seed:1 program in
  let rmw_order = M.stall r ~proc:0 "rmw_order"
  and commit = M.stall r ~proc:0 "sync_commit" in
  check "the RMW waits for the write" true (rmw_order > 0);
  check "and then for its own reply" true (commit > 0);
  check_int "the two spans add up to one stall"
    (M.proc_stalls r ~proc:0) (rmw_order + commit);
  check
    (Printf.sprintf "P0 stalls %d cycles in a %d-cycle run"
       (M.proc_stalls r ~proc:0) r.M.proc_finish.(0))
    true
    (M.proc_stalls r ~proc:0 <= r.M.proc_finish.(0))

let prop_stall_accounting_consistent =
  QCheck.Test.make
    ~name:"total stalls = per-proc sums = per-reason sums (all machines)"
    ~count:8 QCheck.small_int (fun seed ->
      let program =
        Wo_litmus.Random_prog.lock_disciplined ~seed:(seed + 1) ()
      in
      List.for_all
        (fun (m : M.t) ->
          let r = M.run m ~seed:(seed + 1) program in
          let s = r.M.stalls in
          let by_proc =
            List.fold_left
              (fun acc proc -> acc + Stall.proc_total s ~proc)
              0 (Stall.procs s)
          in
          let by_reason =
            List.fold_left
              (fun acc proc ->
                List.fold_left
                  (fun acc (_, cycles) -> acc + cycles)
                  acc
                  (Stall.per_proc s ~proc))
              0 (Stall.procs s)
          in
          M.total_stalls r = Stall.total s
          && Stall.total s = by_proc
          && by_proc = by_reason
          && List.for_all
               (fun proc -> M.proc_stalls r ~proc = Stall.proc_total s ~proc)
               (Stall.procs s)
          && stalls_within_run m r)
        P.all)

let tests =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json floats" `Quick test_json_floats;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "disabled recorder is a no-op" `Quick
      test_recorder_disabled_is_noop;
    Alcotest.test_case "recorder chunk overflow" `Quick
      test_recorder_chunk_overflow;
    Alcotest.test_case "ambient sink" `Quick test_ambient_sink;
    Alcotest.test_case "histogram" `Quick test_hist;
    Alcotest.test_case "message taps" `Quick test_tap;
    QCheck_alcotest.to_alcotest prop_hist_matches_reference;
    Alcotest.test_case "observable record pinned" `Quick
      test_observable_record_pinned;
    Alcotest.test_case "stall accounts" `Quick test_stall_accounts;
    Alcotest.test_case "stall reason names" `Quick
      test_stall_reason_names_roundtrip;
    Alcotest.test_case "metrics envelope" `Quick test_metrics_envelope;
    Alcotest.test_case "perfetto parse-back" `Quick test_perfetto_parse_back;
    Alcotest.test_case "trace determinism" `Quick test_trace_deterministic;
    Alcotest.test_case "sessions follow the ambient recorder" `Quick
      test_session_follows_ambient_recorder;
    Alcotest.test_case "figure-3 stall attribution" `Quick
      test_figure3_attribution;
    QCheck_alcotest.to_alcotest prop_stall_accounting_consistent;
    Alcotest.test_case "uncached RMW after a write is charged once" `Quick
      test_rmw_after_write_charged_once;
  ]
