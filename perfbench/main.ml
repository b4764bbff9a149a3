(* Command line of the host-time benchmark; see README.md.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   With --trace 0 it prints the end-to-end metrics, with --trace 1 the
   per-layer ones; the last line of standard output is one JSON object. *)

open Perfbench

let process_start_ns = now_ns ()

let setups = 9

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let ratio a b = if b = 0. then 0. else a /. b

let med f rounds = median (List.map f rounds)

(* Set up [setups] times and keep the last state; a set-up builds the
   jobs and computes their expected signatures.  Each set-up's time is
   scaled by the yardstick timed right after it, and the first is timed
   from process start.  There is no separate warm-up pass: the first
   measured pass is the cold one, and [pass_ns] keeps only the fastest
   passes.  Failures of every set-up count. *)
let set_up workload ~seed =
  ignore (Lazy.force yardstick);
  let times = ref [] and earlier = ref [] in
  let rec go i =
    let t0 = if i = 0 then process_start_ns else now_ns () in
    let st = prepare workload ~seed in
    let dt = now_ns () - t0 in
    times := at_reference_speed dt ~yard_ns:(yardstick_ns ()) *. 1e-9 :: !times;
    if i + 1 < setups then (
      earlier := st :: !earlier;
      go (i + 1))
    else st
  in
  let st = go 0 in
  List.iter
    (fun (e : state) ->
      st.attempted <- st.attempted + e.attempted;
      st.failed <- st.failed + e.failed;
      st.errors <- st.errors @ e.errors)
    !earlier;
  (st, median !times)

(* Run rounds (at least one) until [seconds] have passed. *)
let measure ~seconds f =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let rec go acc =
    let acc = f () :: acc in
    if now_ns () < deadline then go acc else List.rev acc
  in
  go []

let end_to_end st ~setup_s ~seconds =
  let rounds = measure ~seconds (fun () -> round st) in
  let top_heap_words = (Gc.quick_stat ()).top_heap_words in
  let pass = pass_ns rounds in
  let ops = float_of_int (List.hd rounds).ops in
  Printf.printf "unscaled: %.0f ops/s, yardstick %.3f ms (reference %.3f ms)\n"
    (ops /. seconds_of_ns pass.raw_ns)
    (float_of_int pass.yard_p10_ns *. 1e-6)
    (float_of_int yardstick_ref_ns *. 1e-6);
  [
    m "ops_per_s" "1/s" (ops /. (pass.scaled_ns *. 1e-9));
    m "alloc_words_per_op" "words"
      (med (fun r -> r.words /. float_of_int r.ops) rounds);
    m "peak_heap_mb" "MB"
      (float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1048576.);
    m "setup_s" "s" setup_s;
    m "sim_cycles" "cycles" (med (fun r -> float_of_int r.cycles) rounds);
    m "ok_frac" "fraction"
      (1. -. ratio (float_of_int st.failed) (float_of_int st.attempted));
  ]

let per_layer st ~seed ~seconds =
  let triples =
    measure ~seconds (fun () ->
        let plain = round st in
        let traced = round ~mode:Traced st in
        let sink = round ~mode:Sink_on st in
        (plain, traced, sink))
  in
  let plain = List.map (fun (p, _, _) -> p) triples in
  let traced = List.map (fun (_, t, _) -> t) triples in
  let sink = List.map (fun (_, _, s) -> s) triples in
  (* Every layer figure comes from one traced round, the fastest, so the
     layers and the engine's self time sum to [trace.wall_s] exactly;
     the overheads compare the fastest round of each kind. *)
  let fastest rounds =
    List.fold_left (fun b r -> if r.wall_ns < b.wall_ns then r else b)
      (List.hd rounds) rounds
  in
  let t = fastest traced and p = fastest plain and s = fastest sink in
  let tr = Option.get t.tracer in
  let secs (l : layer) = seconds_of_ns l.ns in
  let calls (l : layer) = float_of_int l.calls in
  let words (l : layer) = float_of_int l.words in
  let count name = float_of_int (counter t name) in
  let wall r = seconds_of_ns r.wall_ns in
  let k = mem_kernels ~seed in
  let pass = pass_ns plain in
  [
    m "host.unscaled_ops_per_s" "1/s"
      (float_of_int p.ops /. seconds_of_ns pass.raw_ns);
    m "host.yardstick_ms" "ms" (float_of_int pass.yard_p10_ns *. 1e-6);
    m "trace.wall_s" "s" (wall t);
    m "sim.self_s" "s" (seconds_of_ns (self_ns t tr));
    m "sim.self_words" "words" (float_of_int (self_words t tr));
    m "sim.ops" "count" (float_of_int t.ops);
    m "policy.mem_s" "s" (secs tr.mem);
    m "policy.mem_calls" "count" (calls tr.mem);
    m "policy.mem_words" "words" (words tr.mem);
    m "policy.acquire_s" "s" (secs tr.acquire);
    m "policy.acquire_calls" "count" (calls tr.acquire);
    m "policy.release_s" "s" (secs tr.release);
    m "policy.release_calls" "count" (calls tr.release);
    m "policy.step_s" "s" (secs tr.step);
    m "policy.step_words" "words" (words tr.step);
    m "policy.exit_s" "s" (secs tr.exit);
    m "policy.engine_op_s" "s" (secs tr.engine_op);
    m "policy.other_s" "s" (secs tr.other);
  ]
  @ List.map
      (fun (rt, _) ->
        m
          (Printf.sprintf "rt.%s.s" rt)
          "s"
          (seconds_of_ns
             (Option.value ~default:0 (List.assoc_opt rt t.per_runtime_ns))))
      Runner.named_runtimes
  @ [
      m "core.slices" "count" (count "slices_created");
      m "core.propagated" "count" (count "slices_propagated");
      m "core.propagated_bytes" "B" (count "bytes_propagated");
      m "core.diff_scanned_bytes" "B" (count "diff_bytes_scanned");
      m "core.snapshots" "count" (count "snapshots");
      m "core.gc" "count" (count "gc_runs");
      m "core.diff_yield" "fraction"
        (ratio (count "bytes_propagated") (count "diff_bytes_scanned"));
      m "kendo.waits" "count" (count "kendo_waits");
      m "kendo.waits_per_sync" "fraction"
        (ratio (count "kendo_waits")
           (float_of_int t.sync_ops));
      m "mem.faults" "count" (count "page_faults");
      m "mem.mprotect" "count" (count "mprotect_calls");
      m "mem.stores_w_copy" "count" (count "stores_with_copy");
      m "mem.diff_page_ns" "ns" k.diff_page_ns;
      m "mem.apply_ns" "ns" k.apply_ns;
      m "mem.snapshot_ns" "ns" k.snapshot_ns;
      m "obs.sink_on_s" "s" (wall s);
      m "obs.events" "count" (float_of_int s.events);
      m "obs.overhead_frac" "fraction" (ratio (wall s) (wall p) -. 1.);
      m "gc.minor_collections" "count"
        (med (fun r -> float_of_int r.minor_gcs) plain);
      m "gc.major_collections" "count"
        (med (fun r -> float_of_int r.major_gcs) plain);
      m "gc.promoted_words" "words" (med (fun r -> r.promoted_words) plain);
      m "trace.overhead_frac" "fraction" (ratio (wall t) (wall p) -. 1.);
    ]

(* A rate over no successful job is not a number; a failed run still
   prints a valid JSON line. *)
let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result st metrics =
  List.iter
    (fun x -> Printf.printf "%-26s %24s %s\n" x.name (json_number x.value) x.unit_)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (json_number x.value) x.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (st.failed = 0) st.attempted st.failed body

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.
  and trace = ref 0 and nproc = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME dlrc-locks | compute-scan | runtime-matrix");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--nproc", Arg.Set_string nproc, "N the host's usable CPU count, recorded with the result");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let workload =
    match find_workload !workload with
    | Some w -> w
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2);
  let seed = Int64.of_int !seed in
  Printf.printf
    "host: nproc=%s recommended_domain_count=%d ocaml=%s profile=%s word_size=%d\n"
    !nproc
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Build_info.profile Sys.word_size;
  Printf.printf "workload: %s seed=%Ld seconds=%g trace=%d jobs=%d\n%!"
    workload.name seed !seconds !trace (Array.length (jobs_of workload));
  let st, setup_s = set_up workload ~seed in
  let metrics =
    if !trace = 0 then end_to_end st ~setup_s ~seconds:!seconds
    else per_layer st ~seed ~seconds:!seconds
  in
  let errors = List.rev st.errors in
  List.iteri
    (fun i e -> if i < 20 then prerr_endline ("perfbench: FAILED " ^ e))
    errors;
  if List.length errors > 20 then
    Printf.eprintf "perfbench: ... and %d more failures\n" (List.length errors - 20);
  print_result st metrics;
  exit (if st.failed = 0 then 0 else 1)
