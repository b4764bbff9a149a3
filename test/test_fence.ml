(* The global-fence baselines: one case list run under both triggers
   (DThreads: sync ops end a phase; CoreDet: sync ops or an expired
   instruction quantum), plus the cases specific to each trigger. *)

module Engine = Rfdet_sim.Engine
module Api = Rfdet_sim.Api
module Layout = Rfdet_mem.Layout
module Fence = Rfdet_baselines.Fence_runtime
module Rfdet = Rfdet_core.Rfdet_runtime
module Options = Rfdet_core.Options
module Profile = Rfdet_sim.Profile
module Sink = Rfdet_obs.Sink
module Report = Rfdet_obs.Report

let base = Layout.globals_base

let run_with ?config make main = Engine.run ?config make ~main

let with_seed seed = { Engine.default_config with seed; jitter_mean = 10. }

(* --- fence behaviour shared by both triggers -------------------------- *)

let test_lock_counter make () =
  let r =
    run_with make (fun () ->
        let m = Api.mutex_create () in
        let body () =
          for _ = 1 to 20 do
            Api.with_lock m (fun () -> Api.store base (Api.load base + 1))
          done
        in
        let c1 = Api.spawn body and c2 = Api.spawn body in
        Api.join c1;
        Api.join c2;
        Api.output_int (Api.load base))
  in
  Alcotest.(check bool) "counter" true (r.Engine.outputs = [ (0, 40L) ])

let test_join_commits make () =
  let r =
    run_with make (fun () ->
        let c = Api.spawn (fun () -> Api.store base 77) in
        Api.join c;
        Api.output_int (Api.load base))
  in
  Alcotest.(check bool) "child commit visible after join" true
    (List.mem (0, 77L) r.Engine.outputs)

(* Two racy programs: unsynchronized mixing with a final locked stir,
   and pure unsynchronized mixing. *)
let racy_stir () =
  let body k () =
    for i = 1 to 200 do
      let slot = base + (8 * ((i * (k + 2)) mod 6)) in
      Api.store slot ((Api.load slot * 7) + i);
      Api.tick 9
    done
  in
  let m = Api.mutex_create () in
  let stir k () =
    body k ();
    Api.with_lock m (fun () -> Api.store (base + 64) (Api.load (base + 64) + k))
  in
  let ts = List.init 3 (fun k -> Api.spawn (stir k)) in
  List.iter Api.join ts;
  let s = ref 0 in
  for i = 0 to 8 do
    s := (!s * 31) lxor Api.load (base + (8 * i))
  done;
  Api.output_int !s

let racy_mix () =
  let body k () =
    for i = 1 to 300 do
      let slot = base + (8 * ((i * (k + 2)) mod 5)) in
      Api.store slot ((Api.load slot * 5) + i);
      Api.tick 17
    done
  in
  let ts = List.init 3 (fun k -> Api.spawn (body k)) in
  List.iter Api.join ts;
  let s = ref 0 in
  for i = 0 to 4 do
    s := (!s * 131) lxor Api.load (base + (8 * i))
  done;
  Api.output_int !s

let test_deterministic_across_seeds make () =
  List.iter
    (fun program ->
      let sig_of seed =
        Engine.output_signature (run_with ~config:(with_seed seed) make program)
      in
      let s1 = sig_of 1L in
      List.iter
        (fun s -> Alcotest.(check string) "deterministic" s1 (sig_of s))
        [ 2L; 3L; 4L; 5L ])
    [ racy_stir; racy_mix ]

let test_race_free_agrees_with_rfdet make () =
  let program () =
    let m = Api.mutex_create () in
    let body k () =
      for i = 1 to 25 do
        Api.with_lock m (fun () -> Api.store base (Api.load base + (i * k)))
      done
    in
    let ts = List.init 3 (fun k -> Api.spawn (body (k + 1))) in
    List.iter Api.join ts;
    Api.output_int (Api.load base)
  in
  let d = (run_with make program).Engine.outputs in
  let r =
    (Engine.run (Rfdet.make ~opts:Options.default) ~main:program).Engine.outputs
  in
  Alcotest.(check bool) "same race-free result" true (d = r)

let test_cond_wait_signal make () =
  let r =
    run_with make (fun () ->
        let m = Api.mutex_create () in
        let c = Api.cond_create () in
        let consumer =
          Api.spawn (fun () ->
              Api.lock m;
              while Api.load base = 0 do
                Api.cond_wait c m
              done;
              Api.output_int (Api.load base);
              Api.unlock m)
        in
        Api.tick 20_000;
        Api.lock m;
        Api.store base 5;
        Api.cond_signal c;
        Api.unlock m;
        Api.join consumer)
  in
  Alcotest.(check bool) "consumer saw flag" true
    (List.mem (1, 5L) r.Engine.outputs)

let test_barrier make () =
  let r =
    run_with make (fun () ->
        let b = Api.barrier_create 2 in
        let c =
          Api.spawn (fun () ->
              Api.store base 3;
              Api.barrier_wait b;
              Api.output_int (Api.load (base + 8)))
        in
        Api.store (base + 8) 4;
        Api.barrier_wait b;
        Api.output_int (Api.load base);
        Api.join c)
  in
  Alcotest.(check bool) "both sides see commits" true
    (List.mem (0, 3L) r.Engine.outputs && List.mem (1, 4L) r.Engine.outputs)

let test_commit_order_by_tid make () =
  (* Two threads racily write the same word, then both pass a fence (a
     barrier).  The last committer in token order (the larger tid) wins
     deterministically. *)
  let r =
    run_with make (fun () ->
        let b = Api.barrier_create 2 in
        let c1 =
          Api.spawn (fun () ->
              Api.store base 111;
              Api.barrier_wait b;
              Api.output_int (Api.load base))
        in
        Api.tick 1000;
        let c2 =
          Api.spawn (fun () ->
              Api.store base 222;
              Api.barrier_wait b;
              Api.output_int (Api.load base))
        in
        Api.join c1;
        Api.join c2)
  in
  List.iter
    (fun (tid, v) ->
      if tid = 1 || tid = 2 then
        Alcotest.(check int64) "larger tid commits last" 222L v)
    r.Engine.outputs

let test_diff_work_reported make () =
  (* Commits are diffed page by page; both triggers must account that
     work in the profile and in the trace's diff share. *)
  let obs = Sink.create () in
  let r =
    run_with ~config:{ Engine.default_config with obs } make (fun () ->
        let c = Api.spawn (fun () -> Api.store base 5) in
        Api.store (base + 8) 6;
        Api.join c;
        Api.output_int (Api.load base + Api.load (base + 8)))
  in
  Alcotest.(check bool) "child store committed" true
    (r.Engine.outputs = [ (0, 11L) ]);
  Alcotest.(check bool) "diff bytes scanned" true
    (r.Engine.profile.Profile.diff_bytes_scanned > 0);
  let total =
    List.fold_left (fun acc (_, c) -> acc + c) 0 r.Engine.thread_clocks
  in
  let b = Report.breakdown ~total (Sink.events obs) in
  Alcotest.(check bool) "nonzero diff share" true (b.Report.diff > 0)

let shared make =
  [
    ("lock counter", test_lock_counter make);
    ("join commits", test_join_commits make);
    ("deterministic across seeds", test_deterministic_across_seeds make);
    ("race-free agrees with rfdet", test_race_free_agrees_with_rfdet make);
    ("cond wait/signal", test_cond_wait_signal make);
    ("barrier", test_barrier make);
    ("commit order by tid", test_commit_order_by_tid make);
    ("diff work reported", test_diff_work_reported make);
  ]

(* --- sync-only trigger (DThreads) ------------------------------------- *)

let test_isolation_between_fences () =
  (* Writes are invisible to other threads until both sides pass a
     fence; with no synchronization at all the value stays hidden. *)
  let r =
    run_with Fence.dthreads (fun () ->
        let c = Api.spawn (fun () -> Api.store base 9) in
        Api.tick 50_000;
        Api.output_int (Api.load base);
        Api.join c)
  in
  Alcotest.(check bool) "isolated until fence" true
    (List.mem (0, 0L) r.Engine.outputs)

let test_fence_imbalance () =
  (* The paper's T2 problem: two threads contend on a lock while a third
     computes without synchronizing.  Under DThreads the lock users stall
     at the fence until the compute thread arrives; under RFDet they
     proceed.  The compute thread's work (300k cycles) must show up in
     the lock users' completion time under DThreads only. *)
  let program () =
    let m = Api.mutex_create () in
    let compute = Api.spawn (fun () -> Api.tick 300_000) in
    let locker () =
      for _ = 1 to 5 do
        Api.with_lock m (fun () -> Api.store base (Api.load base + 1))
      done;
      (* Post-lock work: under DThreads it cannot start until the
         compute thread reaches a fence (its exit, 300k cycles in), so
         it lands after ~700k; under RFDet it overlaps the compute
         thread and finishes around 400k. *)
      Api.tick 400_000
    in
    let l1 = Api.spawn locker and l2 = Api.spawn locker in
    Api.join l1;
    Api.join l2;
    Api.join compute;
    Api.output_int (Api.load base)
  in
  let d = run_with Fence.dthreads program in
  let r = Engine.run (Rfdet.make ~opts:Options.default) ~main:program in
  Alcotest.(check bool) "same result" true (d.Engine.outputs = r.Engine.outputs);
  Alcotest.(check bool) "dthreads stalls at global fences" true
    (d.Engine.sim_time > r.Engine.sim_time + 200_000);
  Alcotest.(check bool) "fence count > 0" true
    (d.Engine.profile.Profile.barrier_stalls > 0)

(* --- quantum trigger (CoreDet) ---------------------------------------- *)

let test_quantum_preempts_compute () =
  (* A pure-compute thread must be stopped at quantum boundaries: the
     number of global barriers grows with its work / quantum. *)
  let work = 200_000 in
  let r =
    run_with (Fence.coredet ~quantum:10_000) (fun () ->
        let c =
          Api.spawn (fun () ->
              for _ = 1 to 20 do
                Api.tick (work / 20)
              done)
        in
        let l =
          Api.spawn (fun () ->
              let m = Api.mutex_create () in
              Api.with_lock m (fun () -> Api.store base 1))
        in
        Api.join c;
        Api.join l)
  in
  Alcotest.(check bool) "many quantum barriers" true
    (r.Engine.profile.Profile.barrier_stalls > 10)

let test_isolation_within_quantum () =
  (* within a quantum, stores are buffered: invisible to other threads *)
  let r =
    run_with (Fence.coredet ~quantum:1_000_000) (fun () ->
        let c = Api.spawn (fun () -> Api.store base 9) in
        Api.tick 50_000;
        Api.output_int (Api.load base);
        Api.join c)
  in
  Alcotest.(check bool) "buffered store invisible" true
    (List.mem (0, 0L) r.Engine.outputs)

let test_commit_at_quantum_boundary () =
  (* after both threads cross a quantum barrier, buffered stores are
     visible (strong determinism with quanta, unlike DThreads which
     would wait for a sync op) *)
  let r =
    run_with (Fence.coredet ~quantum:5_000) (fun () ->
        let c =
          Api.spawn (fun () ->
              Api.store base 7;
              Api.tick 20_000)
        in
        (* cross several quantum barriers worth of compute *)
        Api.tick 20_000;
        Api.output_int (Api.load base);
        Api.join c)
  in
  Alcotest.(check bool) "store visible after quantum commits" true
    (List.mem (0, 7L) r.Engine.outputs)

let suite name cases =
  (name, List.map (fun (n, f) -> Alcotest.test_case n `Quick f) cases)

let suites =
  [
    suite "dthreads"
      (shared Fence.dthreads
      @ [
          ("isolation between fences", test_isolation_between_fences);
          ("fence imbalance vs rfdet", test_fence_imbalance);
        ]);
    suite "coredet"
      (shared (Fence.coredet ~quantum:10_000)
      @ [
          ("quantum preempts compute", test_quantum_preempts_compute);
          ("isolation within quantum", test_isolation_within_quantum);
          ("commit at quantum boundary", test_commit_at_quantum_boundary);
        ]);
  ]
