module Engine = Rfdet_sim.Engine
module Api = Rfdet_sim.Api
module Layout = Rfdet_mem.Layout
module Kendo_rt = Rfdet_baselines.Kendo_runtime
module Arbiter = Rfdet_kendo.Arbiter

let run ?config main = Engine.run ?config Kendo_rt.make ~main

let with_seed seed jitter =
  { Engine.default_config with seed; jitter_mean = jitter }

let test_lock_counter () =
  let r =
    run (fun () ->
        let addr = Layout.globals_base in
        let m = Api.mutex_create () in
        let body () =
          for _ = 1 to 25 do
            Api.with_lock m (fun () -> Api.store addr (Api.load addr + 1))
          done
        in
        let c1 = Api.spawn body and c2 = Api.spawn body in
        Api.join c1;
        Api.join c2;
        Api.output_int (Api.load addr))
  in
  Alcotest.(check bool) "counter correct" true (r.Engine.outputs = [ (0, 50L) ])

let test_deterministic_across_seeds () =
  (* Race-free program whose *order-sensitive* result is observed: each
     thread appends its tid to a shared log under a lock.  Kendo must
     produce the same log for every scheduler seed. *)
  let program () =
    let log_len = Layout.globals_base in
    let log = Layout.globals_base + 8 in
    let m = Api.mutex_create () in
    let body k () =
      for _ = 1 to 10 do
        Api.tick (50 * k);
        Api.with_lock m (fun () ->
            let n = Api.load log_len in
            Api.store (log + (8 * n)) (Api.self ());
            Api.store log_len (n + 1))
      done
    in
    let c1 = Api.spawn (body 1) and c2 = Api.spawn (body 3) in
    let c3 = Api.spawn (body 7) in
    Api.join c1;
    Api.join c2;
    Api.join c3;
    let n = Api.load log_len in
    for i = 0 to n - 1 do
      Api.output_int (Api.load (log + (8 * i)))
    done
  in
  let sig_of seed = Engine.output_signature (run ~config:(with_seed seed 10.) program) in
  let s1 = sig_of 1L in
  for i = 2 to 8 do
    Alcotest.(check string) "same log across seeds" s1 (sig_of (Int64.of_int i))
  done

let test_grant_order_by_icount () =
  (* Two threads request the same lock; the one with fewer executed
     instructions wins regardless of simulated-time arrival. *)
  let r =
    run (fun () ->
        let addr = Layout.globals_base in
        let m = Api.mutex_create () in
        let slow =
          Api.spawn (fun () ->
              Api.tick 10_000;
              (* high icount *)
              Api.with_lock m (fun () -> Api.store addr (Api.load addr + 1));
              Api.output_int 100)
        in
        let fast =
          Api.spawn (fun () ->
              Api.tick 10;
              (* low icount: must acquire first *)
              Api.with_lock m (fun () ->
                  Api.output_int (Api.load addr);
                  Api.store addr (Api.load addr + 1)))
        in
        Api.join slow;
        Api.join fast)
  in
  (* fast (tid 2) observed addr before slow's increment -> saw 0 *)
  Alcotest.(check bool) "low-icount thread acquired first" true
    (List.mem (2, 0L) r.Engine.outputs)

let test_cond_deterministic_wakeup () =
  (* Three waiters, one broadcast: wakeup order (hence the order of log
     appends) must be identical across seeds. *)
  let program () =
    let flag = Layout.globals_base in
    let log_len = Layout.globals_base + 8 in
    let log = Layout.globals_base + 16 in
    let m = Api.mutex_create () in
    let c = Api.cond_create () in
    let waiter k () =
      Api.tick (13 * k);
      Api.lock m;
      while Api.load flag = 0 do
        Api.cond_wait c m
      done;
      let n = Api.load log_len in
      Api.store (log + (8 * n)) (Api.self ());
      Api.store log_len (n + 1);
      Api.unlock m
    in
    let ws = List.map (fun k -> Api.spawn (waiter k)) [ 1; 2; 3 ] in
    Api.tick 5_000;
    Api.lock m;
    Api.store flag 1;
    Api.cond_broadcast c;
    Api.unlock m;
    List.iter Api.join ws;
    let n = Api.load log_len in
    for i = 0 to n - 1 do
      Api.output_int (Api.load (log + (8 * i)))
    done
  in
  let sig_of seed =
    Engine.output_signature (run ~config:(with_seed seed 12.) program)
  in
  let s1 = sig_of 100L in
  for i = 101 to 105 do
    Alcotest.(check string) "same wakeup order" s1 (sig_of (Int64.of_int i))
  done

let test_barrier_releases_all () =
  let r =
    run (fun () ->
        let b = Api.barrier_create 2 in
        let c =
          Api.spawn (fun () ->
              Api.barrier_wait b;
              Api.output_int 7)
        in
        Api.tick 1_000;
        Api.barrier_wait b;
        Api.output_int 9;
        Api.join c)
  in
  Alcotest.(check int) "both passed" 2 (List.length r.Engine.outputs)

let test_spawn_inherits_icount () =
  (* A child created late must not stall other threads' Kendo turns: its
     icount is seeded from the parent's, so it is already "past" earlier
     synchronization stamps. *)
  let r =
    run (fun () ->
        let m = Api.mutex_create () in
        Api.tick 50_000;
        let child =
          Api.spawn (fun () -> Api.with_lock m (fun () -> Api.output_int 1))
        in
        Api.with_lock m (fun () -> Api.output_int 2);
        Api.join child)
  in
  Alcotest.(check int) "completed" 2 (List.length r.Engine.outputs)

let test_arbiter_unit () =
  (* Drive the arbiter directly through a minimal engine run. *)
  let result =
    Engine.run
      (fun engine ->
        let arb = Arbiter.create engine in
        Arbiter.thread_started arb ~tid:0;
        let granted = ref [] in
        {
          Engine.policy_name = "arbiter-test";
          handle =
            (fun ~tid op ->
              match op with
              | Rfdet_sim.Op.Lock _ ->
                Arbiter.request arb ~tid ~grant:(fun ~now ->
                    granted := (tid, now) :: !granted;
                    Arbiter.set_active arb ~tid;
                    Engine.wake engine ~tid ~value:0 ~not_before:now);
                Engine.Block
              | Rfdet_sim.Op.Output _ | _ -> Engine.Done 0)
          ;
          on_engine_op = (fun ~tid:_ _ outcome -> outcome);
          on_thread_exit = (fun ~tid -> Arbiter.thread_finished arb ~tid);
          on_thread_crash = Engine.escalate_crash;
          on_step = (fun () -> Arbiter.poll arb);
          on_finish = (fun () -> ());
        })
      ~main:(fun () ->
        Api.lock (Api.Handle.mutex_of_int 1);
        Api.lock (Api.Handle.mutex_of_int 1))
  in
  Alcotest.(check int) "ran to completion" 1 result.Engine.threads

(* Drives an arbiter by hand inside the policy factory, where engine
   threads 0 .. [threads - 1] exist and no operation has run yet; the
   threads then finish under a policy that does nothing. *)
let with_arbiter ~threads scenario =
  let (_ : Engine.result) =
    Engine.run
      (fun engine ->
        for _ = 1 to threads - 1 do
          ignore (Engine.register_thread engine ~body:ignore ~start_at:0)
        done;
        let arb = Arbiter.create engine in
        for tid = 0 to threads - 1 do
          Arbiter.thread_started arb ~tid
        done;
        scenario engine arb;
        {
          Engine.policy_name = "arbiter-scenario";
          handle = (fun ~tid:_ _ -> Engine.Done 0);
          on_engine_op = (fun ~tid:_ _ outcome -> outcome);
          on_thread_exit = (fun ~tid:_ -> ());
          on_thread_crash = Engine.escalate_crash;
          on_step = ignore;
          on_finish = ignore;
        })
      ~main:ignore
  in
  ()

(* Thread 0 sits at icount 100 and blocks thread 1's request at 200;
   [leave] takes thread 0 out of the active set without advancing it.
   The poll right after must grant: the cached blocker is stale. *)
let blocker_leaves leave () =
  with_arbiter ~threads:3 (fun engine arb ->
      Engine.seed_icount engine 0 100;
      Engine.seed_icount engine 1 200;
      Engine.seed_icount engine 2 500;
      let granted = ref 0 in
      Arbiter.request arb ~tid:1 ~grant:(fun ~now:_ -> incr granted);
      Arbiter.poll arb;
      Arbiter.poll arb;
      Alcotest.(check int) "blocked while thread 0 is behind" 0 !granted;
      leave arb ~tid:0;
      Arbiter.poll arb;
      Alcotest.(check int) "granted on the next poll" 1 !granted;
      Alcotest.(check int) "nothing pending" 0 (Arbiter.pending_count arb))

let test_tie_request_first () =
  with_arbiter ~threads:3 (fun engine arb ->
      Engine.seed_icount engine 0 100;
      Engine.seed_icount engine 1 200;
      Engine.seed_icount engine 2 500;
      let order = ref [] in
      Arbiter.add_timer arb ~tid:1 ~deadline:200 ~fire:(fun ~now:_ ->
          order := "timer" :: !order);
      Arbiter.request arb ~tid:1 ~grant:(fun ~now:_ ->
          order := "request" :: !order);
      Arbiter.poll arb;
      Alcotest.(check (list string)) "both wait for thread 0" [] !order;
      Engine.seed_icount engine 0 300;
      Arbiter.poll arb;
      Alcotest.(check (list string))
        "equal stamps: the request goes first" [ "request"; "timer" ]
        (List.rev !order))

let test_thread0_blocks_child () =
  with_arbiter ~threads:1 (fun engine arb ->
      let child = Engine.register_thread engine ~body:ignore ~start_at:0 in
      Arbiter.thread_started arb ~tid:child;
      Engine.seed_icount engine 0 10;
      Engine.seed_icount engine child 50;
      let granted = ref 0 in
      Arbiter.request arb ~tid:child ~grant:(fun ~now:_ -> incr granted);
      Arbiter.poll arb;
      Arbiter.poll arb;
      Alcotest.(check int) "thread 0 behind: blocked" 0 !granted;
      Engine.seed_icount engine 0 50;
      Arbiter.poll arb;
      Alcotest.(check int) "thread 0 at (50, 0) < (50, 1): blocked" 0 !granted;
      Engine.seed_icount engine 0 51;
      Arbiter.poll arb;
      Alcotest.(check int) "thread 0 past the stamp: granted" 1 !granted)

(* [reservation_rank] against a brute-force count over random threads,
   each an (icount, files a request) pair. *)
let prop_reservation_rank =
  QCheck2.Test.make ~name:"kendo: reservation_rank is a brute-force count"
    ~count:200
    QCheck2.Gen.(list_size (int_range 1 8) (pair (int_bound 20) bool))
    (fun threads ->
      let threads = Array.of_list threads in
      let n = Array.length threads in
      let ok = ref true in
      with_arbiter ~threads:n (fun engine arb ->
          Array.iteri
            (fun tid (c, req) ->
              Engine.seed_icount engine tid c;
              if req then Arbiter.request arb ~tid ~grant:(fun ~now:_ -> ()))
            threads;
          Array.iteri
            (fun tid (c, req) ->
              let brute = ref 0 in
              if req then
                Array.iteri
                  (fun tid' (c', req') ->
                    if req' && Arbiter.compare_stamp (c', tid') (c, tid) < 0
                    then incr brute)
                  threads;
              if Arbiter.reservation_rank arb ~tid <> !brute then ok := false)
            threads);
      !ok)

let test_idle_poll_does_not_allocate () =
  with_arbiter ~threads:4 (fun _ arb ->
      let n = 10_000 in
      let before = Gc.minor_words () in
      for _ = 1 to n do
        Arbiter.poll arb
      done;
      let w = (Gc.minor_words () -. before) /. float_of_int n in
      if w >= 1.0 then
        Alcotest.failf "%.2f minor words per poll with nothing filed" w)

let suites =
  [
    ( "kendo",
      [
        Alcotest.test_case "lock counter" `Quick test_lock_counter;
        Alcotest.test_case "deterministic across seeds" `Quick
          test_deterministic_across_seeds;
        Alcotest.test_case "grant order by icount" `Quick
          test_grant_order_by_icount;
        Alcotest.test_case "cond deterministic wakeup" `Quick
          test_cond_deterministic_wakeup;
        Alcotest.test_case "barrier releases all" `Quick
          test_barrier_releases_all;
        Alcotest.test_case "spawn inherits icount" `Quick
          test_spawn_inherits_icount;
        Alcotest.test_case "arbiter unit" `Quick test_arbiter_unit;
        Alcotest.test_case "arbiter: blocker goes inactive" `Quick
          (blocker_leaves Arbiter.set_inactive);
        Alcotest.test_case "arbiter: blocker finishes" `Quick
          (blocker_leaves Arbiter.thread_finished);
        Alcotest.test_case "arbiter: request before timer on a tie" `Quick
          test_tie_request_first;
        Alcotest.test_case "arbiter: thread 0 blocks a child" `Quick
          test_thread0_blocks_child;
        QCheck_alcotest.to_alcotest prop_reservation_rank;
        Alcotest.test_case "arbiter: idle poll allocates nothing" `Quick
          test_idle_poll_does_not_allocate;
      ] );
  ]
