(* Every figure the benchmark calls exact must repeat bit for bit across
   passes of one process, and the outputs must check on the default
   input seed and on a second one. *)

open Perfbench

let failures = ref 0

let expect what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let same what a b =
  let w = Printf.sprintf "%s: %s repeats" in
  expect (w what "sim_cycles") (a.cycles = b.cycles);
  expect (w what "sim.ops") (a.ops = b.ops);
  expect (w what "sync ops") (a.sync_ops = b.sync_ops);
  (* the counters behind core.*, kendo.* and mem.* *)
  expect (w what "profile counters")
    (exact_fields a.counters = exact_fields b.counters)

let check_workload w =
  let name = w.name in
  let st = prepare w ~seed:42L in
  ignore (round st);
  let a = round st in
  let b = round st in
  same name a b;
  expect (name ^ ": alloc_words_per_op repeats")
    (a.words /. float_of_int a.ops = b.words /. float_of_int b.ops);
  (* tracing and an enabled sink observe the run without changing it *)
  let t = round ~mode:Traced st in
  same (name ^ " traced") a t;
  same (name ^ " sink on") a (round ~mode:Sink_on st);
  let tr = Option.get t.tracer in
  expect (name ^ ": engine self time is non-negative") (self_ns t tr >= 0);
  expect (name ^ ": engine self words are non-negative") (self_words t tr >= 0);
  expect (name ^ ": every handled op is traced")
    (tr.mem.calls + tr.acquire.calls + tr.release.calls + tr.other.calls > 0);
  let st7 = prepare w ~seed:7L in
  ignore (round st7);
  List.iter
    (fun (s : state) ->
      List.iter (fun e -> Printf.printf "  %s\n" e) (List.rev s.errors);
      expect
        (Printf.sprintf "%s seed %Ld: every output checks" name s.seed)
        (s.failed = 0))
    [ st; st7 ];
  Printf.printf "%s: %d jobs, %d ops, %d cycles\n%!" name
    (Array.length st.jobs) a.ops a.cycles

let () =
  List.iter check_workload workloads;
  if !failures > 0 then exit 1
