(* Integration tests for the coherence substrate: directory + cache
   controllers on a network, driven directly (no processors). *)

module Engine = Wo_sim.Engine
module Rng = Wo_sim.Rng
module L = Wo_interconnect.Latency
module F = Wo_interconnect.Fabric
module Cache = Wo_cache.Cache_ctrl
module Dir = Wo_cache.Directory
module WB = Wo_cache.Write_buffer

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Submit an access and capture its results. *)
type probe = {
  mutable committed_at : int;
  mutable value : int option;
  mutable gp_at : int;
}

(* Every access gets a fresh token: the index of its probe. *)
type rig = {
  engine : Engine.t;
  mutable caches : Cache.t array;
  dir : Dir.t;
  mutable probes : probe array;
  mutable next_token : int;
}

let make_rig ?(num = 3) ?(config = Cache.default_config) ?(jitter = 0)
    ?(initial = fun _ -> 0) ?(seed = 1) () =
  let engine = Engine.create () in
  let rng = Rng.make seed in
  let latency =
    if jitter = 0 then L.fixed 3 else L.jittered rng ~base:1 ~jitter
  in
  let net = Wo_interconnect.Network.create ~engine ~latency () in
  let fabric = F.of_network net in
  let dir = Dir.create ~engine ~fabric ~node:num ~initial () in
  let rig = { engine; caches = [||]; dir; probes = [||]; next_token = 0 } in
  let on_commit token ~at v =
    let p = rig.probes.(token) in
    p.committed_at <- at;
    p.value <- v
  and on_gp token = rig.probes.(token).gp_at <- Engine.now engine in
  rig.caches <-
    Array.init num (fun node ->
        Cache.create ~engine ~fabric ~node ~dir_node:num ~on_commit ~on_gp
          config);
  rig

let submit rig ~cache loc kind =
  let p = { committed_at = -1; value = None; gp_at = -1 } in
  let token = rig.next_token in
  rig.next_token <- token + 1;
  rig.probes <- Array.append rig.probes [| p |];
  Cache.access rig.caches.(cache) loc kind token;
  p

let run rig = ignore (Engine.run rig.engine)

let test_read_miss_returns_initial () =
  let rig = make_rig ~initial:(fun l -> l * 10) () in
  let p = submit rig ~cache:0 7 `Data_read in
  run rig;
  check_int "initial value" 70 (Option.get p.value);
  check "committed" true (p.committed_at >= 0);
  check "globally performed" true (p.gp_at >= p.committed_at - 10);
  check "line now shared" true (Cache.line_state rig.caches.(0) 7 = `Shared)

let test_write_then_read_local () =
  let rig = make_rig () in
  let _w = submit rig ~cache:0 0 (`Data_write 42) in
  run rig;
  let r = submit rig ~cache:0 0 `Data_read in
  run rig;
  check_int "reads own write" 42 (Option.get r.value);
  check "exclusive" true (Cache.line_state rig.caches.(0) 0 = `Exclusive)

let test_cross_cache_visibility () =
  let rig = make_rig () in
  let _ = submit rig ~cache:0 0 (`Data_write 9) in
  run rig;
  let r = submit rig ~cache:1 0 `Data_read in
  run rig;
  check_int "other cache sees the write" 9 (Option.get r.value);
  check "writer downgraded to shared" true
    (Cache.line_state rig.caches.(0) 0 = `Shared);
  (match Dir.state_of rig.dir 0 with
  | Dir.Shared sharers -> Alcotest.(check (list int)) "sharers" [ 0; 1 ] sharers
  | _ -> Alcotest.fail "expected shared")

let test_invalidation_on_upgrade () =
  let rig = make_rig () in
  let _ = submit rig ~cache:0 0 `Data_read in
  let _ = submit rig ~cache:1 0 `Data_read in
  run rig;
  (* both shared; cache 2 writes *)
  let w = submit rig ~cache:2 0 (`Data_write 5) in
  run rig;
  check "sharers invalidated" true
    (Cache.line_state rig.caches.(0) 0 = `Invalid
    && Cache.line_state rig.caches.(1) 0 = `Invalid);
  check "write performed after acks" true (w.gp_at >= w.committed_at);
  let r = submit rig ~cache:0 0 `Data_read in
  run rig;
  check_int "readers see new value" 5 (Option.get r.value)

let test_write_to_shared_defers_gp () =
  let rig = make_rig () in
  let _ = submit rig ~cache:1 0 `Data_read in
  run rig;
  let w = submit rig ~cache:0 0 (`Data_write 3) in
  (* run only until the data arrives: commit strictly before gp because an
     invalidation acknowledgement round-trip is pending *)
  run rig;
  check "commit before gp" true (w.committed_at < w.gp_at)

let test_write_uncached_gp_immediate () =
  let rig = make_rig () in
  let w = submit rig ~cache:0 0 (`Data_write 3) in
  run rig;
  check "no sharers: gp at commit" true (w.gp_at <= w.committed_at + 1)

let test_rmw_atomic_across_caches () =
  let rig = make_rig () in
  let a = submit rig ~cache:0 0 (`Sync_rmw (Wo_core.Event.Rmw_faa 1)) in
  let b = submit rig ~cache:1 0 (`Sync_rmw (Wo_core.Event.Rmw_faa 1)) in
  run rig;
  let reads = List.sort compare [ Option.get a.value; Option.get b.value ] in
  Alcotest.(check (list int)) "each sees the other's increment or none"
    [ 0; 1 ] reads;
  let r = submit rig ~cache:2 0 `Data_read in
  run rig;
  check_int "final count" 2 (Option.get r.value)

let test_reserve_set_and_released () =
  let config = { Cache.default_config with reserve_enabled = true } in
  let rig = make_rig ~config () in
  (* give cache 1 a shared copy of the data so cache 0's write has a slow
     (ack-requiring) global perform *)
  let _ = submit rig ~cache:1 0 `Data_read in
  run rig;
  (* cache 0: data write (acks pending) then a sync commit *)
  let _w = submit rig ~cache:0 0 (`Data_write 1) in
  let _s = submit rig ~cache:0 6 (`Sync_write 1) in
  (* drive manually: after full drain everything is performed, so the
     reserve must be released again *)
  run rig;
  check "reserve released after drain" true
    (Cache.reserved_locs rig.caches.(0) = []);
  check_int "nothing outstanding" 0 (Cache.outstanding rig.caches.(0))

(* The condition-5 scenario: P1 shares x; P0 writes x (its invalidations
   make the global perform slow) and immediately synchronizes on s; a
   third party then requests s.  With a synchronization request, the
   reserve bit must stall it past the write's global perform; with a data
   request it must not.  Both rigs are deterministic (fixed latency), so
   the commit times compare directly. *)
let reserve_probe requester_kind =
  let config = { Cache.default_config with reserve_enabled = true } in
  let rig = make_rig ~config () in
  let _warm = submit rig ~cache:1 0 `Data_read in
  run rig;
  let w = submit rig ~cache:0 0 (`Data_write 1) in
  let _s0 = submit rig ~cache:0 6 (`Sync_write 1) in
  let probe = submit rig ~cache:2 6 requester_kind in
  run rig;
  (probe, w)

let test_sync_recall_stalls_on_reserved_line () =
  let probe, w = reserve_probe (`Sync_rmw (Wo_core.Event.Rmw_fn (fun v -> v))) in
  check "remote sync commits only after the write performed globally" true
    (probe.committed_at >= w.gp_at)

let test_data_recall_not_stalled_by_reserve () =
  let data_probe, w = reserve_probe `Data_read in
  let sync_probe, _ = reserve_probe (`Sync_rmw (Wo_core.Event.Rmw_fn (fun v -> v))) in
  check "data read completed" true (data_probe.value <> None);
  check "data request served before the write performed globally" true
    (data_probe.committed_at < w.gp_at);
  check "and strictly earlier than the synchronization request" true
    (data_probe.committed_at < sync_probe.committed_at)

let test_sync_read_shared_config () =
  let config = { Cache.default_config with sync_read_shared = true } in
  let rig = make_rig ~config () in
  let p = submit rig ~cache:0 6 `Sync_read in
  run rig;
  check "drf1 sync read takes a shared copy" true
    (Cache.line_state rig.caches.(0) 6 = `Shared);
  check_int "value" 0 (Option.get p.value);
  let rig2 = make_rig () in
  let _ = submit rig2 ~cache:0 6 `Sync_read in
  run rig2;
  check "default sync read takes exclusive" true
    (Cache.line_state rig2.caches.(0) 6 = `Exclusive)

let test_eviction_writes_back () =
  let config = { Cache.default_config with capacity = Some 2 } in
  let rig = make_rig ~config () in
  let _ = submit rig ~cache:0 0 (`Data_write 10) in
  let _ = submit rig ~cache:0 1 (`Data_write 11) in
  run rig;
  (* third line forces an eviction *)
  let _ = submit rig ~cache:0 2 (`Data_write 12) in
  run rig;
  check "capacity respected" true (Cache.resident_lines rig.caches.(0) <= 2);
  (* the evicted value is recoverable from the directory *)
  let reads =
    List.map
      (fun loc ->
        let r = submit rig ~cache:1 loc `Data_read in
        run rig;
        Option.get r.value)
      [ 0; 1; 2 ]
  in
  Alcotest.(check (list int)) "all values survive eviction" [ 10; 11; 12 ] reads

let test_eviction_of_shared_is_silent () =
  let config = { Cache.default_config with capacity = Some 1 } in
  let rig = make_rig ~config () in
  let _ = submit rig ~cache:0 0 `Data_read in
  run rig;
  let r = submit rig ~cache:0 1 `Data_read in
  run rig;
  check_int "new line readable" 0 (Option.get r.value);
  check "old line gone" true (Cache.line_state rig.caches.(0) 0 = `Invalid)

let test_directory_queue_drains () =
  (* Regression for the queue-stranding bug: a recall transaction with two
     queued GetS requests must serve both when it completes. *)
  let rig = make_rig ~num:4 () in
  let _ = submit rig ~cache:0 0 (`Data_write 8) in
  run rig;
  let r1 = submit rig ~cache:1 0 `Data_read in
  let r2 = submit rig ~cache:2 0 `Data_read in
  let r3 = submit rig ~cache:3 0 `Data_read in
  run rig;
  Alcotest.(check (list (option int)))
    "all queued readers served"
    [ Some 8; Some 8; Some 8 ]
    [ r1.value; r2.value; r3.value ]

let test_stress_random_ops_stay_coherent () =
  (* Random traffic from three caches with an unordered, jittery network;
     afterwards the directory and caches must agree and nothing may be
     stuck. *)
  for seed = 1 to 15 do
    let rig = make_rig ~jitter:15 ~seed () in
    let rng = Rng.make (seed * 77) in
    for _ = 1 to 40 do
      let cache = Rng.int rng 3 and loc = Rng.int rng 3 in
      let kind =
        match Rng.int rng 4 with
        | 0 -> `Data_read
        | 1 -> `Data_write (Rng.int rng 100)
        | 2 -> `Sync_write (Rng.int rng 100)
        | _ -> `Sync_rmw (Wo_core.Event.Rmw_faa 1)
      in
      ignore (submit rig ~cache loc kind)
    done;
    run rig;
    Array.iteri
      (fun i c ->
        check
          (Printf.sprintf "seed %d cache %d drained" seed i)
          true
          (Cache.pending_accesses c = 0 && Cache.outstanding c = 0))
      rig.caches;
    check (Printf.sprintf "seed %d directory idle" seed) true
      (Dir.busy_lines rig.dir = []);
    (* single-writer invariant at quiescence: if the directory says a line
       is exclusive, exactly that cache holds it non-invalid *)
    List.iter
      (fun loc ->
        match Dir.state_of rig.dir loc with
        | Dir.Exclusive owner ->
          Array.iteri
            (fun i c ->
              if i <> owner then
                check "non-owners hold nothing" true
                  (Cache.line_state c loc = `Invalid))
            rig.caches
        | Dir.Shared sharers ->
          (* every non-sharer holds nothing *)
          Array.iteri
            (fun i c ->
              if not (List.mem i sharers) then
                check "non-sharers hold nothing" true
                  (Cache.line_state c loc = `Invalid)
              else
                check "sharer agrees with memory" true
                  (Cache.value_of c loc = Some (Dir.memory_value rig.dir loc)))
            rig.caches
        | Dir.Uncached -> ())
      [ 0; 1; 2 ]
  done

(* --- write buffer ------------------------------------------------------------ *)

let test_write_buffer_fifo () =
  let b = WB.create ~depth:2 in
  check "push" true (WB.push b { WB.loc = 0; value = 1; tag = 0 });
  check "push" true (WB.push b { WB.loc = 1; value = 2; tag = 1 });
  check "full" false (WB.push b { WB.loc = 2; value = 3; tag = 2 });
  check_int "size" 2 (WB.size b);
  check_int "fifo pop" 0 (Option.get (WB.pop b)).WB.tag;
  check_int "then next" 1 (Option.get (WB.pop b)).WB.tag;
  check "empty" true (WB.is_empty b)

let test_write_buffer_forwarding_source () =
  let b = WB.create ~depth:4 in
  ignore (WB.push b { WB.loc = 0; value = 1; tag = 0 });
  ignore (WB.push b { WB.loc = 0; value = 2; tag = 1 });
  check_int "newest wins" 2 (Option.get (WB.newest_for b 0)).WB.value;
  check "has_loc" true (WB.has_loc b 0);
  check "not other locs" false (WB.has_loc b 1)

let test_write_buffer_waiters () =
  let b = WB.create ~depth:1 in
  ignore (WB.push b { WB.loc = 0; value = 1; tag = 0 });
  let emptied = ref false and slot = ref false in
  WB.on_empty b (fun () -> emptied := true);
  WB.on_not_full b (fun () -> slot := true);
  check "not yet" false (!emptied || !slot);
  ignore (WB.pop b);
  WB.notify b;
  check "both fired" true (!emptied && !slot);
  (* immediate fire when already satisfied *)
  let now = ref false in
  WB.on_empty b (fun () -> now := true);
  check "fires immediately when empty" true !now

(* --- line table and serial set: contracts against Hashtbl references ------ *)

module LT = Wo_cache.Line_table

type lt_op = Insert of int | Remove of int | Reset

type cell = { mutable key : int }

let lt_op_gen =
  QCheck.Gen.(
    let key =
      frequency
        [
          (12, int_range 0 400);
          (1, int_range (-40) (-1));
          (1, map (fun k -> (k lsl 20) + 3) (int_range 0 50));
        ]
    in
    frequency
      [
        (240, map (fun k -> Insert k) key);
        (80, map (fun k -> Remove k) key);
        (1, pure Reset);
      ])

let print_lt_op = function
  | Insert k -> Printf.sprintf "+%d" k
  | Remove k -> Printf.sprintf "-%d" k
  | Reset -> "reset"

(* Driven like the protocol drives it — replace-of-absent, remove,
   reset — the table iterates exactly as [Hashtbl.create 64] does, agrees
   on membership and size, never hands out a record retired in the same
   run, and filters without disturbing the order. *)
let line_table_agrees ops =
  let dummy = { key = min_int } in
  let t = LT.create ~dummy () and h = Hashtbl.create 64 in
  let retired = ref [] in
  let hashtbl_keys keep =
    let acc = ref [] in
    Hashtbl.iter (fun k _ -> if keep k then acc := k :: !acc) h;
    List.rev !acc
  in
  let table_keys keep =
    let acc = ref [] in
    LT.iter_hashtbl_order t (fun c -> keep c.key) (fun c -> acc := c.key :: !acc);
    List.rev !acc
  in
  let agree () =
    let even k = k land 1 = 0 in
    table_keys (fun _ -> true) = hashtbl_keys (fun _ -> true)
    && table_keys even = hashtbl_keys even
    && LT.length t = Hashtbl.length h
    && Hashtbl.fold (fun k c ok -> ok && LT.find t k == c) h true
  in
  let ops = Array.of_list ops in
  let n = Array.length ops in
  let ok = ref true in
  Array.iteri
    (fun i op ->
      (match op with
      | Insert k ->
        if not (Hashtbl.mem h k) then begin
          let parked = LT.reuse t k in
          let c =
            if parked != dummy then begin
              if parked.key <> k then failwith "parked record of another location";
              parked
            end
            else begin
              let c = LT.take_pooled t in
              let c =
                if c == dummy then { key = k }
                else begin
                  c.key <- k;
                  c
                end
              in
              LT.add t k c;
              c
            end
          in
          if List.memq c !retired then failwith "retired record reused";
          Hashtbl.replace h k c
        end
      | Remove k ->
        (match Hashtbl.find_opt h k with
        | Some c -> retired := c :: !retired
        | None -> ());
        LT.remove t k;
        Hashtbl.remove h k
      | Reset ->
        LT.reset t;
        Hashtbl.reset h;
        retired := []);
      (* compare every few steps, and always before a reset and at the end *)
      let due = i mod 4 = 0 || i = n - 1 || (i + 1 < n && ops.(i + 1) = Reset) in
      if !ok && due then ok := agree ())
    ops;
  !ok

let prop_line_table_matches_hashtbl =
  QCheck.Test.make ~name:"Line_table iterates like Hashtbl.create 64" ~count:60
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map print_lt_op ops))
       QCheck.Gen.(list_size (int_range 0 900) lt_op_gen))
    line_table_agrees

(* Past 128 and 256 resident lines (two emulated bucket doublings), then
   partly drained, reset, and refilled from the pool. *)
let test_line_table_many_lines () =
  let fill lo hi = List.init (hi - lo) (fun i -> Insert (lo + i)) in
  let ops =
    fill 0 300
    @ List.init 100 (fun i -> Remove (3 * i))
    @ fill 1000 1040 @ [ Reset ] @ fill 50 200
    @ List.init 30 (fun i -> Remove (50 + (5 * i)))
    @ fill 50 120
  in
  check "agrees with Hashtbl" true (line_table_agrees ops)

(* The serial set's count, membership and minimum equal a Hashtbl
   reference over random submit / complete / reset orders. *)
let prop_serials_match_hashtbl =
  QCheck.Test.make ~name:"Serials = Hashtbl reference" ~count:300
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 300) (pair (int_range 0 9) (int_range 0 1000))))
    (fun ops ->
      let module S = Wo_cache.Serials in
      let s = S.create () and h = Hashtbl.create 16 in
      let next = ref 0 in
      List.for_all
        (fun (what, pick) ->
          (if what = 0 then begin
             S.reset s;
             Hashtbl.reset h;
             next := 0
           end
           else if what <= 5 || Hashtbl.length h = 0 then begin
             let serial = S.issue s in
             if serial <> !next then failwith "serials not dense";
             Hashtbl.replace h serial ();
             incr next
           end
           else begin
             let live = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) h []) in
             let victim = List.nth live (pick mod List.length live) in
             S.complete s victim;
             Hashtbl.remove h victim
           end);
          S.count s = Hashtbl.length h
          && S.min_outstanding s = Hashtbl.fold (fun k () m -> min k m) h max_int
          && List.for_all
               (fun k -> S.mem s k = Hashtbl.mem h k)
               (List.init (!next + 3) (fun k -> k - 1)))
        ops)

let tests =
  [
    Alcotest.test_case "read miss returns initial" `Quick
      test_read_miss_returns_initial;
    Alcotest.test_case "write then read locally" `Quick test_write_then_read_local;
    Alcotest.test_case "cross-cache visibility" `Quick test_cross_cache_visibility;
    Alcotest.test_case "invalidation on upgrade" `Quick
      test_invalidation_on_upgrade;
    Alcotest.test_case "shared write defers gp" `Quick
      test_write_to_shared_defers_gp;
    Alcotest.test_case "uncached write gp immediate" `Quick
      test_write_uncached_gp_immediate;
    Alcotest.test_case "rmw atomicity" `Quick test_rmw_atomic_across_caches;
    Alcotest.test_case "reserve set and released" `Quick
      test_reserve_set_and_released;
    Alcotest.test_case "sync recall stalls on reserve" `Quick
      test_sync_recall_stalls_on_reserved_line;
    Alcotest.test_case "data recall not stalled" `Quick
      test_data_recall_not_stalled_by_reserve;
    Alcotest.test_case "drf1 sync reads" `Quick test_sync_read_shared_config;
    Alcotest.test_case "eviction writes back" `Quick test_eviction_writes_back;
    Alcotest.test_case "shared eviction silent" `Quick
      test_eviction_of_shared_is_silent;
    Alcotest.test_case "directory queue drains" `Quick test_directory_queue_drains;
    Alcotest.test_case "random-traffic coherence" `Slow
      test_stress_random_ops_stay_coherent;
    Alcotest.test_case "write buffer FIFO" `Quick test_write_buffer_fifo;
    Alcotest.test_case "write buffer forwarding" `Quick
      test_write_buffer_forwarding_source;
    Alcotest.test_case "write buffer waiters" `Quick test_write_buffer_waiters;
    QCheck_alcotest.to_alcotest prop_line_table_matches_hashtbl;
    Alcotest.test_case "line table past 256 lines" `Quick test_line_table_many_lines;
    QCheck_alcotest.to_alcotest prop_serials_match_hashtbl;
  ]
