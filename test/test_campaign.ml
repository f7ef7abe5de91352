(* The campaign engine: store crash-recovery (qcheck over truncation
   points), verdict round-trips, resume-equals-uninterrupted reports,
   and the serve layer's pure request handler. *)

module C = Wo_campaign.Campaign
module Store = Wo_campaign.Store
module Serve = Wo_campaign.Serve
module J = Wo_obs.Json
module S = Wo_synth.Synth

let check = Alcotest.(check bool)

let temp_store () =
  let path = Filename.temp_file "wo-campaign-test" ".store" in
  Sys.remove path;
  (* Store.openf creates it *)
  path

let with_store path f =
  let s = Store.openf path in
  Fun.protect ~finally:(fun () -> Store.close s) (fun () -> f s)

(* --- the store --------------------------------------------------------------- *)

let test_store_basic () =
  let path = temp_store () in
  with_store path (fun s ->
      check "fresh store empty" true (Store.length s = 0);
      Store.add s ~key:"k1" ~value:"v1";
      Store.add s ~key:"k2" ~value:"";
      Store.add s ~key:"\x00bin\xffkey" ~value:String.(make 1000 '\x07');
      check "find k1" true (Store.find s ~key:"k1" = Some "v1");
      check "find empty value" true (Store.find s ~key:"k2" = Some "");
      check "find binary" true
        (Store.find s ~key:"\x00bin\xffkey" = Some (String.make 1000 '\x07'));
      check "mem missing" false (Store.mem s ~key:"k3"));
  with_store path (fun s ->
      check "reopen keeps records" true (Store.length s = 3);
      check "reopen clean tail" true (Store.tail_dropped s = 0);
      check "reopen find" true (Store.find s ~key:"k1" = Some "v1"));
  Sys.remove path

(* Crash simulation: build a log of [n] records, truncate the file at an
   arbitrary byte offset past the header, and reopen.  Every record
   wholly before the cut must be recovered; the torn tail must be
   dropped; and the store must accept appends afterwards. *)
let prop_truncation_recovery =
  QCheck.Test.make
    ~name:"store recovers every complete record after arbitrary truncation"
    ~count:60
    QCheck.(pair (int_range 1 20) (int_range 0 2000))
    (fun (n, cut_rand) ->
      let path = temp_store () in
      let kv i = (Printf.sprintf "key-%d-%s" i (String.make (i mod 7) 'x'),
                  Printf.sprintf "value-%d-%s" i (String.make (i * 13 mod 50) 'y'))
      in
      with_store path (fun s ->
          for i = 1 to n do
            let k, v = kv i in
            Store.add s ~key:k ~value:v
          done);
      let size = (Unix.stat path).Unix.st_size in
      (* cut somewhere in [8, size] — never into the magic *)
      let cut = 8 + (cut_rand mod (size - 8 + 1)) in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      Unix.ftruncate fd cut;
      Unix.close fd;
      let ok =
        with_store path (fun s ->
            (* every record the cut preserved must be intact *)
            let recovered = Store.length s in
            let all_good = ref true in
            for i = 1 to recovered do
              let k, v = kv i in
              if Store.find s ~key:k <> Some v then all_good := false
            done;
            (* records past the recovered prefix must be absent *)
            for i = recovered + 1 to n do
              let k, _ = kv i in
              if Store.mem s ~key:k then all_good := false
            done;
            (* and the store must still be appendable *)
            Store.add s ~key:"post-crash" ~value:"fine";
            !all_good && Store.find s ~key:"post-crash" = Some "fine")
      in
      let ok2 =
        with_store path (fun s -> Store.find s ~key:"post-crash" = Some "fine")
      in
      Sys.remove path;
      ok && ok2)

let test_store_rejects_foreign () =
  let path = Filename.temp_file "wo-campaign-test" ".store" in
  let oc = open_out path in
  output_string oc "NOTALOG!extra";
  close_out oc;
  (match Store.openf path with
  | exception Failure _ -> ()
  | s ->
    Store.close s;
    Alcotest.fail "foreign magic accepted");
  Sys.remove path

(* [wo store stats] only looks: a bit flipped inside a record early in
   a 100-record store leaves the file byte-for-byte as it was, and the
   bytes it cannot read are reported rather than truncated away. *)
let test_store_stats_never_writes () =
  let path = temp_store () in
  with_store path (fun s ->
      for i = 1 to 100 do
        Store.add s ~key:(Printf.sprintf "key-%03d" i)
          ~value:(String.make 200 (Char.chr (65 + (i mod 26))))
      done);
  let read_all () = In_channel.with_open_bin path In_channel.input_all in
  let before = read_all () in
  let at = String.length before / 10 in
  let flipped = Bytes.of_string before in
  Bytes.set flipped at (Char.chr (Char.code before.[at] lxor 0x10));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc flipped);
  let out = Filename.temp_file "wo-store-stats" ".txt" in
  let code =
    Sys.command
      (Printf.sprintf "../bin/wo.exe store stats %s > %s"
         (Filename.quote path) (Filename.quote out))
  in
  let report = In_channel.with_open_bin out In_channel.input_all in
  Alcotest.(check int) "stats exits 0" 0 code;
  check "file bytes unchanged" true (read_all () = Bytes.to_string flipped);
  let mentions sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length report && (String.sub report i n = sub || at (i + 1))
    in
    at 0
  in
  check "unreadable bytes reported" true (mentions "unreadable, left in place");
  Sys.remove out;
  Sys.remove path

(* [wo campaign] on a store with a bit flipped at 10% of its length: the
   bytes opening the store drops are named in a warning on stderr (the
   cells they held are settled again). *)
let test_campaign_warns_dropped_bytes () =
  let path = temp_store () in
  let err = Filename.temp_file "wo-campaign-err" ".txt" in
  let campaign () =
    Sys.command
      (Printf.sprintf "../bin/wo.exe campaign -c 6 -m wo-new --store %s > %s 2> %s"
         (Filename.quote path) Filename.null (Filename.quote err))
  in
  let stderr () = In_channel.with_open_bin err In_channel.input_all in
  Alcotest.(check int) "cold campaign exits 0" 0 (campaign ());
  Alcotest.(check string) "no warning on a clean store" "" (stderr ());
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  let at = String.length bytes / 10 in
  let flipped = Bytes.of_string bytes in
  Bytes.set flipped at (Char.chr (Char.code bytes.[at] lxor 0x10));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc flipped);
  let copy = temp_store () in
  Out_channel.with_open_bin copy (fun oc -> Out_channel.output_bytes oc flipped);
  let dropped = with_store copy Store.tail_dropped in
  check "the flip drops bytes" true (dropped > 0);
  Alcotest.(check int) "resumed campaign exits 0" 0 (campaign ());
  let warning = stderr () in
  let mentions sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length warning
      && (String.sub warning i n = sub || at (i + 1))
    in
    at 0
  in
  check
    (Printf.sprintf "warning names %d dropped bytes: %S" dropped warning)
    true
    (mentions (Printf.sprintf " %d unreadable byte(s) dropped" dropped));
  List.iter Sys.remove [ path; copy; err ]

(* --- verdicts ---------------------------------------------------------------- *)

let test_verdict_roundtrip () =
  let vs =
    [
      {
        C.v_ok = true; v_expected_sc = true; v_appears_sc = true;
        v_violations = []; v_lemma1 = 0; v_error = None; v_witness = None;
      };
      {
        C.v_ok = false; v_expected_sc = true; v_appears_sc = false;
        v_violations = [ "P0:r0=1 /\\ [x]=2"; "P1:r0=0" ]; v_lemma1 = 3;
        v_error = Some "deadlock: no runnable processor";
        v_witness = Some "seed 4, outcome ...\n  t=0 P0 issues W(x)";
      };
    ]
  in
  List.iter
    (fun v ->
      match C.verdict_of_string (C.verdict_to_string v) with
      | Ok v' -> check "verdict round-trips" true (v = v')
      | Error e -> Alcotest.failf "verdict parse: %s" e)
    vs

(* --- campaigns: resume and determinism --------------------------------------- *)

let specs =
  [
    Option.get (Wo_machines.Presets.spec_of "sc-dir");
    Option.get (Wo_machines.Presets.spec_of "wo-new");
  ]

let cases () =
  match S.batch ~family:"cycle-mixed" ~base_seed:1 ~count:6 () with
  | Ok cs -> cs
  | Error e -> Alcotest.failf "batch: %s" e

let config path =
  { (C.default_config ~store_path:path) with C.runs = 4; shard = 3 }

let test_campaign_resume_identical () =
  let cases = cases () in
  (* uninterrupted reference *)
  let ref_path = temp_store () in
  let r_ref = C.run (config ref_path) ~specs ~cases in
  check "reference settles all" true
    (r_ref.C.r_executed > 0 && not r_ref.C.r_stopped_early);
  (* interrupted: two shards, then stop; then resume *)
  let path = temp_store () in
  let partial =
    C.run { (config path) with C.max_shards = Some 2 } ~specs ~cases
  in
  check "partial stopped early" true partial.C.r_stopped_early;
  check "partial settled two shards" true (partial.C.r_executed <= 6);
  let resumed = C.run (config path) ~specs ~cases in
  check "resume re-settles nothing already settled" true
    (resumed.C.r_cache_hits = partial.C.r_executed);
  check "resume finishes the campaign" true
    (resumed.C.r_executed + resumed.C.r_cache_hits = resumed.C.r_total);
  Alcotest.(check string)
    "resumed report byte-identical to uninterrupted"
    (C.findings_report r_ref) (C.findings_report resumed);
  (* a third run replays everything from the store *)
  let warm = C.run (config path) ~specs ~cases in
  check "warm run executes nothing" true (warm.C.r_executed = 0);
  check "warm run all cache hits" true (warm.C.r_cache_hits = warm.C.r_total);
  Sys.remove ref_path;
  Sys.remove path

let test_campaign_counters () =
  let rec_ = Wo_obs.Recorder.create () in
  let path = temp_store () in
  let result =
    Wo_obs.Recorder.with_sink rec_ (fun () ->
        C.run (config path) ~specs ~cases:(cases ()))
  in
  let find name =
    List.find_map
      (function
        | Wo_obs.Recorder.Counter
            { name = n; cat = Wo_obs.Recorder.Camp; value; _ }
          when String.equal n name ->
          Some value
        | _ -> None)
      (Wo_obs.Recorder.events rec_)
  in
  check "campaign.settled counter" true
    (find "campaign.settled" = Some result.C.r_executed);
  check "campaign.cache_hits counter" true
    (find "campaign.cache_hits" = Some result.C.r_cache_hits);
  Sys.remove path

(* --- the serve layer (pure handler, no sockets) ------------------------------ *)

let spec_json =
  J.Obj
    [
      ("name", J.String "serve-test");
      ("memory", J.Obj [ ("kind", J.String "cached") ]);
      ("sync", J.String "reserve-bit");
    ]

let req fields = J.Obj fields

let get_bool name j = Option.bind (J.member name j) J.to_bool_opt
let get_int name j = Option.bind (J.member name j) J.to_int_opt

let test_serve_handle () =
  let path = temp_store () in
  let t = Serve.create ~store_path:path in
  Fun.protect ~finally:(fun () -> Serve.close t) @@ fun () ->
  (* ping *)
  let resp, ctl = Serve.handle t (req [ ("op", J.String "ping") ]) in
  check "ping ok" true (get_bool "ok" resp = Some true && ctl = `Continue);
  (* list *)
  let resp, _ = Serve.handle t (req [ ("op", J.String "list") ]) in
  check "list has families" true
    (match Option.bind (J.member "families" resp) J.to_list_opt with
    | Some fs -> List.length fs = List.length S.families
    | None -> false);
  (* synth *)
  let resp, _ =
    Serve.handle t
      (req
         [
           ("op", J.String "synth"); ("family", J.String "cycle-drf0");
           ("seed", J.Int 2);
         ])
  in
  check "synth ok" true (get_bool "ok" resp = Some true);
  (* check: first cold, then a cache hit against the same store *)
  let creq =
    req
      [
        ("op", J.String "check"); ("family", J.String "cycle-drf0");
        ("seed", J.Int 2); ("runs", J.Int 3); ("spec", spec_json);
      ]
  in
  let resp, _ = Serve.handle t creq in
  check "check cold" true
    (get_bool "ok" resp = Some true && get_bool "cache_hit" resp = Some false);
  let resp, _ = Serve.handle t creq in
  check "check warm" true (get_bool "cache_hit" resp = Some true);
  (* sweep over 4 seeds: seed 2 is already settled *)
  let resp, _ =
    Serve.handle t
      (req
         [
           ("op", J.String "sweep"); ("family", J.String "cycle-drf0");
           ("seed", J.Int 1); ("count", J.Int 4); ("runs", J.Int 3);
           ("spec", spec_json);
         ])
  in
  check "sweep reuses the settled cell" true
    (get_int "cells" resp = Some 4 && get_int "cache_hits" resp = Some 1);
  (* errors keep the connection open *)
  let resp, ctl = Serve.handle t (req [ ("op", J.String "nope") ]) in
  check "unknown op" true (get_bool "ok" resp = Some false && ctl = `Continue);
  let resp, ctl = Serve.handle t (req [ ("x", J.Int 1) ]) in
  check "missing op" true (get_bool "ok" resp = Some false && ctl = `Continue);
  let line, ctl = Serve.handle_line t "{not json" in
  check "parse error answered" true
    (ctl = `Continue && String.length line > 0 &&
     (match J.of_string line with
     | Ok j -> get_bool "ok" j = Some false
     | Error _ -> false));
  (* stats and shutdown *)
  let resp, _ = Serve.handle t (req [ ("op", J.String "stats") ]) in
  check "stats counts requests" true
    (match get_int "requests" resp with Some n -> n >= 8 | None -> false);
  let _, ctl = Serve.handle t (req [ ("op", J.String "shutdown") ]) in
  check "shutdown stops" true (ctl = `Stop);
  Sys.remove path

let test_serve_check_matches_campaign_key () =
  (* A serve check and a campaign run with the same parameters must
     settle the same store cell: run a campaign, then ask the server —
     every answer must be a cache hit. *)
  let path = temp_store () in
  let cases = cases () in
  let specs = [ Option.get (Wo_machines.Presets.spec_of "wo-new") ] in
  let cfg = { (C.default_config ~store_path:path) with C.runs = 3 } in
  let r = C.run cfg ~specs ~cases in
  check "campaign settled" true (r.C.r_executed > 0);
  let t = Serve.create ~store_path:path in
  Fun.protect ~finally:(fun () -> Serve.close t) @@ fun () ->
  let spec_json = Wo_machines.Spec.to_json (List.hd specs) in
  List.iter
    (fun (c : S.case) ->
      let resp, _ =
        Serve.handle t
          (req
             [
               ("op", J.String "check");
               ("family", J.String c.S.family);
               ("seed", J.Int c.S.seed);
               ("runs", J.Int 3);
               ("spec", spec_json);
             ])
      in
      check
        (Printf.sprintf "serve replays campaign cell %s" c.S.name)
        true
        (get_bool "cache_hit" resp = Some true))
    cases;
  Sys.remove path

let tests =
  [
    Alcotest.test_case "store: add, find, reopen" `Quick test_store_basic;
    QCheck_alcotest.to_alcotest prop_truncation_recovery;
    Alcotest.test_case "store: foreign magic rejected" `Quick
      test_store_rejects_foreign;
    Alcotest.test_case "store stats never writes a corrupt store" `Quick
      test_store_stats_never_writes;
    Alcotest.test_case "campaign warns of dropped store bytes" `Quick
      test_campaign_warns_dropped_bytes;
    Alcotest.test_case "verdict JSON round-trips" `Quick test_verdict_roundtrip;
    Alcotest.test_case
      "interrupted+resumed campaign = uninterrupted (byte-identical report)"
      `Quick test_campaign_resume_identical;
    Alcotest.test_case "campaign emits observability counters" `Quick
      test_campaign_counters;
    Alcotest.test_case "serve: protocol round-trip on the pure handler" `Quick
      test_serve_handle;
    Alcotest.test_case "serve check replays campaign-settled cells" `Quick
      test_serve_check_matches_campaign_key;
  ]
