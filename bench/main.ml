(* Regenerates every table and figure of the paper's evaluation
   (Section 5) plus the ablations indexed in DESIGN.md, then runs
   Bechamel microbenchmarks of the runtime's core primitives.

   Usage: dune exec bench/main.exe [-- --full | -- --json]
   --full runs the racey determinism experiment 1000 times per
   configuration, as in the paper (default: 50).
   --json skips the paper tables and runs only the host-performance
   benchmark set, writing BENCH_CORE.json (same as `rfdet bench
   --json`). *)

module Experiments = Rfdet_harness.Experiments
module Runner = Rfdet_harness.Runner
module Registry = Rfdet_workloads.Registry

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Printf.printf "[%s took %.1fs]\n" name (Unix.gettimeofday () -. t0);
  r

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the core primitives                     *)
(* ------------------------------------------------------------------ *)

let microbenches () =
  let open Bechamel in
  let open Toolkit in
  let vclock_join =
    Test.make ~name:"vclock join (64 components)"
      (Staged.stage
         (let a = Rfdet_util.Vclock.create 64 in
          let b = Rfdet_util.Vclock.create 64 in
          for i = 0 to 63 do
            Rfdet_util.Vclock.set b i (i * 7)
          done;
          fun () -> Rfdet_util.Vclock.join a b))
  in
  let vclock_compare =
    Test.make ~name:"vclock compare_partial"
      (Staged.stage
         (let a = Rfdet_util.Vclock.of_list (List.init 64 (fun i -> i)) in
          let b = Rfdet_util.Vclock.of_list (List.init 64 (fun i -> 64 - i)) in
          fun () -> ignore (Rfdet_util.Vclock.compare_partial a b)))
  in
  (* The Figure-5 filter kernels, on clocks ordered component-wise so
     the early exit never fires and every component is compared. *)
  let ordered_pair () =
    ( Rfdet_util.Vclock.of_list (List.init 64 (fun i -> i)),
      Rfdet_util.Vclock.of_list (List.init 64 (fun i -> i + 1)) )
  in
  let vclock_lt =
    Test.make ~name:"vclock lt (64 components)"
      (Staged.stage
         (let a, b = ordered_pair () in
          fun () -> ignore (Rfdet_util.Vclock.lt a b)))
  in
  let vclock_leq =
    Test.make ~name:"vclock leq (64 components)"
      (Staged.stage
         (let a, b = ordered_pair () in
          fun () -> ignore (Rfdet_util.Vclock.leq a b)))
  in
  (* The word-level diff against its byte-at-a-time oracle, in both the
     sparse (typical slice) and dense (barrier merge) regimes. *)
  let dirty_1pct () =
    let snapshot = Bytes.make Rfdet_mem.Page.size 'a' in
    let current = Bytes.copy snapshot in
    for i = 0 to 40 do
      Bytes.set current (i * 97) 'b'
    done;
    (snapshot, current)
  in
  let dirty_50pct () =
    let snapshot = Bytes.make Rfdet_mem.Page.size 'a' in
    let current = Bytes.copy snapshot in
    let i = ref 0 in
    while !i < Rfdet_mem.Page.size do
      Bytes.fill current !i 64 'b';
      i := !i + 128
    done;
    (snapshot, current)
  in
  let page_diff =
    Test.make ~name:"page diff (4 KiB, 1% dirty)"
      (Staged.stage
         (let snapshot, current = dirty_1pct () in
          fun () ->
            ignore
              (Rfdet_mem.Diff.diff_page ~page_id:0 ~snapshot ~current)))
  in
  let page_diff_bytewise =
    Test.make ~name:"page diff bytewise (4 KiB, 1% dirty)"
      (Staged.stage
         (let snapshot, current = dirty_1pct () in
          fun () ->
            ignore
              (Rfdet_mem.Diff.diff_page_bytewise ~page_id:0 ~snapshot ~current)))
  in
  let page_diff_50 =
    Test.make ~name:"page diff (4 KiB, 50% dirty)"
      (Staged.stage
         (let snapshot, current = dirty_50pct () in
          fun () ->
            ignore
              (Rfdet_mem.Diff.diff_page ~page_id:0 ~snapshot ~current)))
  in
  let page_diff_bytewise_50 =
    Test.make ~name:"page diff bytewise (4 KiB, 50% dirty)"
      (Staged.stage
         (let snapshot, current = dirty_50pct () in
          fun () ->
            ignore
              (Rfdet_mem.Diff.diff_page_bytewise ~page_id:0 ~snapshot ~current)))
  in
  let diff_apply =
    Test.make ~name:"diff apply (41 runs)"
      (Staged.stage
         (let snapshot = Bytes.make Rfdet_mem.Page.size 'a' in
          let current = Bytes.copy snapshot in
          for i = 0 to 40 do
            Bytes.set current (i * 97) 'b'
          done;
          let d = Rfdet_mem.Diff.diff_page ~page_id:0 ~snapshot ~current in
          let space = Rfdet_mem.Space.create () in
          fun () -> Rfdet_mem.Diff.apply space d))
  in
  (* The retired per-byte application loop, kept as the baseline the
     blit-based [Diff.apply] is judged against. *)
  let apply_per_byte space (d : Rfdet_mem.Diff.t) =
    List.iter
      (fun (r : Rfdet_mem.Diff.run) ->
        String.iteri
          (fun i c ->
            Rfdet_mem.Space.store_byte space (r.addr + i) (Char.code c))
          r.data)
      d
  in
  let diff_apply_per_byte =
    Test.make ~name:"diff apply per-byte (41 runs, 41 B)"
      (Staged.stage
         (let snapshot, current = dirty_1pct () in
          let d = Rfdet_mem.Diff.diff_page ~page_id:0 ~snapshot ~current in
          let space = Rfdet_mem.Space.create () in
          fun () -> apply_per_byte space d))
  in
  let diff_apply_bulk_large =
    Test.make ~name:"diff apply bulk (32 runs, 2 KiB)"
      (Staged.stage
         (let snapshot, current = dirty_50pct () in
          let d = Rfdet_mem.Diff.diff_page ~page_id:0 ~snapshot ~current in
          let space = Rfdet_mem.Space.create () in
          fun () -> Rfdet_mem.Diff.apply space d))
  in
  let diff_apply_per_byte_large =
    Test.make ~name:"diff apply per-byte (32 runs, 2 KiB)"
      (Staged.stage
         (let snapshot, current = dirty_50pct () in
          let d = Rfdet_mem.Diff.diff_page ~page_id:0 ~snapshot ~current in
          let space = Rfdet_mem.Space.create () in
          fun () -> apply_per_byte space d))
  in
  let allocator =
    Test.make ~name:"malloc+free (64 B)"
      (Staged.stage
         (let a = Rfdet_mem.Allocator.create () in
          fun () ->
            let p = Rfdet_mem.Allocator.malloc a 64 in
            Rfdet_mem.Allocator.free a p))
  in
  let engine_roundtrip =
    Test.make ~name:"full racey run under rfdet-ci (48k ops)"
      (Staged.stage (fun () ->
           ignore (Runner.run Runner.rfdet_ci (Registry.find "racey"))))
  in
  let tests =
    [
      vclock_join;
      vclock_compare;
      vclock_lt;
      vclock_leq;
      page_diff;
      page_diff_bytewise;
      page_diff_50;
      page_diff_bytewise_50;
      diff_apply;
      diff_apply_per_byte;
      diff_apply_bulk_large;
      diff_apply_per_byte_large;
      allocator;
    ]
  in
  let benchmark test =
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None ()
    in
    Benchmark.all cfg Instance.[ monotonic_clock ] test
  in
  let analyze raw =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false
         ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  section "Microbenchmarks (Bechamel; host nanoseconds per call)";
  List.iter
    (fun test ->
      let results = analyze (benchmark (Test.make_grouped ~name:"g" [ test ])) in
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-40s %10.1f ns/run\n" name est
          | Some _ | None -> Printf.printf "%-40s (no estimate)\n" name)
        results)
    tests;
  (* the heavyweight one, measured directly *)
  let t0 = Unix.gettimeofday () in
  let iters = 3 in
  for _ = 1 to iters do
    ignore (Runner.run Runner.rfdet_ci (Registry.find "racey"))
  done;
  Printf.printf "%-40s %10.1f ms/run\n"
    (match engine_roundtrip with _ -> "full racey run under rfdet-ci")
    ((Unix.gettimeofday () -. t0) *. 1000. /. float_of_int iters)

(* ------------------------------------------------------------------ *)

let () =
  (* --json: run only the host-perf benchmark set and write
     BENCH_CORE.json (same output as `rfdet bench --json`). *)
  if Array.exists (( = ) "--json") Sys.argv then begin
    let b = Rfdet_harness.Bench_core.run () in
    print_string (Rfdet_harness.Bench_core.render b);
    Rfdet_harness.Bench_core.write_json ~path:"BENCH_CORE.json" b;
    print_endline "\nWrote BENCH_CORE.json";
    exit 0
  end;
  let full = Array.exists (( = ) "--full") Sys.argv in
  let racey_runs = if full then 1000 else 50 in

  section "RFDet reproduction bench — all tables & figures (PPoPP'14)";
  Printf.printf
    "Times are simulated cycles from the deterministic machine model;\n\
     shapes (who wins, by what factor) are the reproduction target.\n";

  section
    (Printf.sprintf "E1 / Section 5.1 — racey determinism (%d runs/config%s)"
       racey_runs
       (if full then "" else "; pass --full for the paper's 1000"));
  let e1 =
    timed "E1" (fun () ->
        Experiments.racey_determinism ~runs_per_config:racey_runs ())
  in
  print_string (Experiments.render_e1 e1);

  section "E2 / Figure 7 — normalized execution time, 4 threads";
  let f7 = timed "Figure 7" (fun () -> Experiments.figure7 ()) in
  print_string (Experiments.render_figure7 f7);
  print_newline ();
  print_string (Experiments.chart_figure7 f7);
  let d, ci, pf = Experiments.figure7_summary f7 in
  Printf.printf
    "\nPaper: RFDet-ci ~1.35x, RFDet-pf ~1.73x, DThreads ~2.5x (worst 10x).\n\
     Here:  RFDet-ci %.2fx, RFDet-pf %.2fx, DThreads %.2fx.\n\
     RFDet-ci speedup over DThreads: %.2fx (paper: ~2x).\n"
    ci pf d (d /. ci);

  section "E3 / Table 1 — profiling data, 4 threads";
  let t1 = timed "Table 1" (fun () -> Experiments.table1 ()) in
  print_string (Experiments.render_table1 t1);

  section "E4 / Figure 8 — scalability (2/4/8 threads)";
  let f8 = timed "Figure 8" (fun () -> Experiments.figure8 ()) in
  print_string (Experiments.render_figure8 f8);

  section "E5 / Figure 9 — prelock & lazy-writes optimizations (SPLASH-2)";
  let f9 = timed "Figure 9" (fun () -> Experiments.figure9 ()) in
  print_string (Experiments.render_figure9 f9);

  section "E6 / ablation — global barriers vs DLRC (Figure 1 scenario)";
  let e6 = timed "E6" (fun () -> Experiments.ablation_barriers ()) in
  print_string (Experiments.render_e6 e6);

  section "E7 / ablation — GC count vs metadata capacity (Section 5.4)";
  let e7 = timed "E7" (fun () -> Experiments.ablation_gc ()) in
  print_string (Experiments.render_e7 e7);

  section "E8 / ablation — cost-model sensitivity";
  let e8 = timed "E8" (fun () -> Experiments.ablation_sensitivity ()) in
  print_string (Experiments.render_e8 e8);

  microbenches ();

  print_newline ()
