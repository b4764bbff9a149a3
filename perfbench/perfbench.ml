(* Host-time benchmark of the simulator: fixed sets of (program, runtime)
   simulations, run from one process on one domain.  Every layer is
   measured from outside: the benchmark calls [Engine.run] itself and, in
   a traced round, wraps each [Engine.policy] callback of
   [Runner.make_policy] with a monotonic timer, a call counter and a
   minor-heap allocation delta.  No library code is changed. *)

module Engine = Rfdet_sim.Engine
module Op = Rfdet_sim.Op
module Profile = Rfdet_sim.Profile
module Runner = Rfdet_harness.Runner
module Workload = Rfdet_workloads.Workload
module Registry = Rfdet_workloads.Registry
module Sink = Rfdet_obs.Sink
module Space = Rfdet_mem.Space
module Diff = Rfdet_mem.Diff
module Page = Rfdet_mem.Page
module Det_rng = Rfdet_util.Det_rng

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_of_ns ns = float_of_int ns *. 1e-9

(* Total words allocated so far: minor-heap words plus words allocated
   directly in the major heap (page images are too large for the minor
   heap), minus promotions, which [minor] already counted. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* The [q]-quantile of [xs] by nearest rank (lower). *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> invalid_arg "quantile: no samples"
  | s -> List.nth s (int_of_float (q *. float_of_int (List.length s - 1)))

(* {1 Host-speed yardstick}

   On a shared host, other tenants contend for the caches and the memory
   system, and that changes a simulation's speed by a third or more from
   one minute to the next.  A fixed kernel of random reads, outside the
   OCaml heap and independent of every library in this repository, slows
   down with it.  The benchmark times it after every job and reports
   host times scaled to it. *)

let yardstick =
  let ints n = Bigarray.Array1.init Bigarray.int Bigarray.c_layout n Fun.id in
  lazy (ints (1 lsl 23), ints (1 lsl 20), ints (1 lsl 17))

let lcg j = (j * 1103515245) + 12345

(* [n] random reads of [a]; [chased_reads] makes each index depend on
   the value read before, so no two reads overlap. *)
let random_reads a n =
  let mask = Bigarray.Array1.dim a - 1 in
  let j = ref 0 and acc = ref 0 in
  for _ = 1 to n do
    j := lcg !j land mask;
    acc := !acc + Bigarray.Array1.unsafe_get a !j
  done;
  Sys.opaque_identity !acc

let chased_reads a n =
  let mask = Bigarray.Array1.dim a - 1 in
  let j = ref 1 in
  for _ = 1 to n do
    j := lcg (Bigarray.Array1.unsafe_get a !j) land mask
  done;
  Sys.opaque_identity !j

(* Nanoseconds for 400k random reads over 8 MiB plus 400k dependent
   reads over 1 MiB, right after 200k random reads over 64 MiB have
   pushed both out of the caches. *)
let yardstick_ns () =
  let evict, wide, narrow = Lazy.force yardstick in
  ignore (random_reads evict 200_000);
  let t0 = now_ns () in
  ignore (random_reads wide 400_000);
  ignore (chased_reads narrow 400_000);
  now_ns () - t0

(* The yardstick's fastest-decile time on the host this benchmark was
   built on (2-vCPU shared VM, Intel Xeon); reported times are scaled to
   it. *)
let yardstick_ref_ns = 18_400_000

(* [ns] of host time measured while the yardstick took [yard_ns]. *)
let at_reference_speed ns ~yard_ns =
  float_of_int ns *. float_of_int yardstick_ref_ns /. float_of_int yard_ns

let median xs =
  match List.sort compare xs with
  | [] -> invalid_arg "median: no samples"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* {1 Workloads} *)

type workload = {
  name : string;
  programs : string list;
  runtimes : string list;
}

let workloads =
  [
    (* lock-dense race-free programs under RFDet: slice close, diff,
       propagation, Kendo turns and lib/mem dominate *)
    {
      name = "dlrc-locks";
      programs = [ "water-ns"; "water-sp" ];
      runtimes = [ "rfdet-ci"; "rfdet-pf" ];
    };
    (* under 0.1% sync ops: engine dispatch and the load/store monitor
       path dominate, propagation is bypassed *)
    {
      name = "compute-scan";
      programs = [ "wordcount"; "string_match"; "matrix_multiply" ];
      runtimes = [ "rfdet-ci" ];
    };
    (* barriers, condvars, queues, rwlocks, deques and spans under all
       seven runtimes: every sync primitive and baseline *)
    {
      name = "runtime-matrix";
      programs = [ "fft"; "prodcons"; "dedup"; "kvserver-rw" ];
      runtimes = List.map fst Runner.named_runtimes;
    };
  ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

(* The runtime whose outputs every other runtime must reproduce: plain
   shared memory with no diffs, snapshots or propagation. *)
let reference_runtime = "pthreads"

(* Signatures recorded per (input seed, program) under the reference
   runtime.  The programs are race-free, so every runtime must match
   them.  For any other seed the reference runtime's signature, computed
   at set-up, is the expectation. *)
let recorded_signatures =
  [
    (42L, "water-ns", "cfa44bec921a8c86a23d52fc89c8a6d0");
    (42L, "water-sp", "8dc11cc63cff6749ee1cdae46ebbc534");
    (42L, "wordcount", "d8c2288bfb401fdd814334531e625547");
    (42L, "string_match", "4790889858986e1c14477c65b3cb7855");
    (42L, "matrix_multiply", "b64a8702474f6c94dc517f8ed6a86481");
    (42L, "fft", "a3c41f6d0ab9d8d21479ef501e0d586a");
    (42L, "prodcons", "bbec123a175e91d5228d8b6974996057");
    (42L, "dedup", "3e7328e68ed9927d86a4dcb63c79bbbb");
    (42L, "kvserver-rw", "289463b3913d3ddfa45b8fa2d396fae6");
    (7L, "water-ns", "46edf1e99ecf9c09f089a882739b430e");
    (7L, "water-sp", "479d573d492813a79f1f875911477861");
    (7L, "wordcount", "08b379bf415e00ba137baf65cf563f39");
    (7L, "string_match", "f29906ed2a54f92ac137d9249a4ca1e5");
    (7L, "matrix_multiply", "a2d7766217e9d854929f2be90a792bc0");
    (7L, "fft", "31056a1a914968914f384eed622ef2b9");
    (7L, "prodcons", "bbec123a175e91d5228d8b6974996057");
    (7L, "dedup", "b2f9547c13a4bb9b00c146e8d5d72a29");
    (7L, "kvserver-rw", "16066f28a8b2c5ad9a4ee20d54896359");
  ]

let recorded_signature ~seed program =
  List.find_map
    (fun (s, p, sg) -> if s = seed && p = program then Some sg else None)
    recorded_signatures

(* {1 Outside-in tracing of the policy callbacks} *)

type layer = { mutable ns : int; mutable calls : int; mutable words : int }

let new_layer () = { ns = 0; calls = 0; words = 0 }

type tracer = {
  mem : layer;  (** [handle] on Load/Store/Atomic *)
  acquire : layer;  (** [handle] on acquire-side sync ops *)
  release : layer;  (** [handle] on release-side sync ops *)
  other : layer;
      (** [handle] on handle creation, [on_thread_crash], [on_finish] and
          policy construction *)
  step : layer;  (** [on_step] *)
  engine_op : layer;  (** [on_engine_op] *)
  exit : layer;  (** [on_thread_exit] *)
  mutable inside : bool;
  mutable t0 : int;
  mutable w0 : int;
}

let new_tracer () =
  {
    mem = new_layer ();
    acquire = new_layer ();
    release = new_layer ();
    other = new_layer ();
    step = new_layer ();
    engine_op = new_layer ();
    exit = new_layer ();
    inside = false;
    t0 = 0;
    w0 = 0;
  }

let tracer_layers tr =
  [ tr.mem; tr.acquire; tr.release; tr.other; tr.step; tr.engine_op; tr.exit ]

(* Layer times are summed and subtracted from the round's wall time to
   get the engine's self time; that is exact only if no wrapped callback
   runs inside another, so nesting is an error. *)
let enter tr =
  if tr.inside then failwith "perfbench: nested policy callback";
  tr.inside <- true;
  tr.w0 <- int_of_float (Gc.minor_words ());
  tr.t0 <- now_ns ()

let leave tr l =
  let t1 = now_ns () in
  let w1 = int_of_float (Gc.minor_words ()) in
  l.ns <- l.ns + (t1 - tr.t0);
  l.calls <- l.calls + 1;
  l.words <- l.words + (w1 - tr.w0);
  tr.inside <- false

(* Barrier and condvar waits both release and acquire; they count as
   acquire-side because that is where they block. *)
let classify tr (op : Op.t) =
  match op with
  | Load _ | Store _ | Atomic _ -> tr.mem
  | Lock _ | Trylock _ | Lock_timed _ | Cond_wait _ | Barrier_wait _ | Join _
  | Rdlock _ | Wrlock _ | Sem_acquire _ | Deque_pop _ | Deque_steal _ ->
    tr.acquire
  | Unlock _ | Cond_signal _ | Cond_broadcast _ | Spawn _ | Rwunlock _
  | Sem_post _ | Deque_push _ | Mutex_heal _ ->
    tr.release
  | _ -> tr.other

let timed tr l f x =
  enter tr;
  match f x with
  | v ->
    leave tr l;
    v
  | exception e ->
    leave tr l;
    raise e

let wrap tr (p : Engine.policy) : Engine.policy =
  {
    p with
    (* written out, not through [timed], so the hot callbacks allocate
       no closure per call *)
    handle =
      (fun ~tid op ->
        let l = classify tr op in
        enter tr;
        match p.handle ~tid op with
        | o ->
          leave tr l;
          o
        | exception e ->
          leave tr l;
          raise e);
    on_engine_op =
      (fun ~tid op o ->
        enter tr;
        match p.on_engine_op ~tid op o with
        | o ->
          leave tr tr.engine_op;
          o
        | exception e ->
          leave tr tr.engine_op;
          raise e);
    on_thread_exit = (fun ~tid -> timed tr tr.exit (fun () -> p.on_thread_exit ~tid) ());
    on_thread_crash = (fun ~tid e -> timed tr tr.other (p.on_thread_crash ~tid) e);
    on_step = (fun () -> timed tr tr.step p.on_step ());
    on_finish = (fun () -> timed tr tr.other p.on_finish ());
  }

(* {1 Jobs and rounds} *)

type job = {
  program : Workload.t;
  rt_name : string;
  runtime : Runner.runtime;
}

(* The [Profile] counters a run must repeat exactly: all but the one an
   enabled sink may move, its ring's drop count. *)
let exact_fields fields = List.filter (fun (n, _) -> n <> "trace_dropped") fields

(* What one job must repeat exactly in every round. *)
type exact = { sim_time : int; ops : int; counters : int array }

type state = {
  workload : workload;
  seed : int64;
  jobs : job array;
  mutable expected : (string * string) list;  (** program -> signature *)
  seen : exact option array;  (** per job, its first observation *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** newest first *)
}

type mode = Plain | Traced | Sink_on

type round = {
  wall_ns : int;
  job_ns : int array;  (** wall time of each job, in [state.jobs] order *)
  yard_ns : int array;  (** the yardstick, timed after each job *)
  ops : int;
  words : float;  (** total words allocated, all jobs *)
  minor_words : int;  (** of which minor-heap words, as the tracer counts *)
  sync_ops : int;  (** [Profile.sync_ops], summed *)
  cycles : int;  (** sum of simulated makespans *)
  counters : (string * int) list;  (** [Profile.fields], summed *)
  per_runtime_ns : (string * int) list;
  tracer : tracer option;  (** [Traced] rounds only *)
  events : int;  (** sink events emitted, [Sink_on] rounds only *)
  minor_gcs : int;
  major_gcs : int;
  promoted_words : float;
}

let runtime_of name =
  match Runner.runtime_of_name name with
  | Some r -> r
  | None -> invalid_arg ("perfbench: unknown runtime " ^ name)

let config ~seed = { Workload.threads = 4; scale = 1.0; input_seed = seed }

(* One simulation.  The plain path is exactly what [Runner.run] does for
   a fault-free run; the traced path wraps the same policy. *)
let simulate ?tracer ?(obs = Sink.null) ~seed program runtime =
  let maker =
    match tracer with
    | None -> Runner.make_policy runtime
    | Some tr ->
      fun engine ->
        wrap tr (timed tr tr.other (Runner.make_policy runtime) engine)
  in
  Engine.run
    ~config:{ Engine.default_config with obs }
    maker
    ~main:(program.Workload.main (config ~seed))

let fail st msg =
  st.failed <- st.failed + 1;
  st.errors <- msg :: st.errors

let jobs_of workload =
  List.concat_map
    (fun p ->
      let program = Registry.find p in
      List.map
        (fun rt_name -> { program; rt_name; runtime = runtime_of rt_name })
        workload.runtimes)
    workload.programs
  |> Array.of_list

(* Compute each program's expected signature under the reference
   runtime, and check it against the recorded one where a seed has it. *)
let prepare workload ~seed =
  let programs = List.map Registry.find workload.programs in
  let jobs = jobs_of workload in
  let st =
    {
      workload;
      seed;
      jobs;
      expected = [];
      seen = Array.make (Array.length jobs) None;
      attempted = 0;
      failed = 0;
      errors = [];
    }
  in
  let expected =
    List.map
      (fun (p : Workload.t) ->
        let r = simulate ~seed p (runtime_of reference_runtime) in
        let sg = Engine.output_signature r in
        st.attempted <- st.attempted + 1;
        (match recorded_signature ~seed p.name with
        | Some want when want <> sg ->
          fail st
            (Printf.sprintf "%s/%s seed %Ld: signature %s, recorded %s" p.name
               reference_runtime seed sg want)
        | _ -> ());
        (p.name, sg))
      programs
  in
  st.expected <- expected;
  st

let check st i job (r : Engine.result) =
  let what = Printf.sprintf "%s/%s" job.program.Workload.name job.rt_name in
  let sg = Engine.output_signature r in
  let want = List.assoc job.program.Workload.name st.expected in
  if sg <> want then
    fail st (Printf.sprintf "%s: signature %s, expected %s" what sg want)
  else begin
    let e =
      {
        sim_time = r.sim_time;
        ops = r.ops;
        counters =
          Array.of_list (List.map snd (exact_fields (Profile.fields r.profile)));
      }
    in
    match st.seen.(i) with
    | None -> st.seen.(i) <- Some e
    | Some first when first <> e ->
      fail st (Printf.sprintf "%s: cycles, ops or profile changed between rounds" what)
    | Some _ -> ()
  end

let add_counters acc fields =
  match acc with
  | [] -> fields
  | _ -> List.map2 (fun (n, a) (_, b) -> (n, a + b)) acc fields

(* Run every job once.  Wall time and allocation cover only the
   [Engine.run] calls, never the checks. *)
let round ?(mode = Plain) st =
  let tracer = if mode = Traced then Some (new_tracer ()) else None in
  let wall = ref 0 and ops = ref 0 and words = ref 0. and cycles = ref 0 in
  let minor = ref 0 and sync_ops = ref 0 in
  let counters = ref [] and events = ref 0 in
  let per_rt = Hashtbl.create 8 in
  let job_ns = Array.make (Array.length st.jobs) 0 in
  let yard_ns = Array.make (Array.length st.jobs) 0 in
  (* Start every round from a collected heap, so no round pays for the
     garbage or the retained trace of the one before. *)
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  Array.iteri
    (fun i job ->
      let obs = if mode = Sink_on then Sink.create ~capacity:65536 () else Sink.null in
      st.attempted <- st.attempted + 1;
      let w0 = allocated_words () in
      let m0 = int_of_float (Gc.minor_words ()) in
      let t0 = now_ns () in
      match simulate ?tracer ~obs ~seed:st.seed job.program job.runtime with
      | r ->
        let dt = now_ns () - t0 in
        minor := !minor + (int_of_float (Gc.minor_words ()) - m0);
        words := !words +. (allocated_words () -. w0);
        sync_ops := !sync_ops + Profile.sync_ops r.profile;
        wall := !wall + dt;
        job_ns.(i) <- dt;
        ops := !ops + r.ops;
        cycles := !cycles + r.sim_time;
        counters := add_counters !counters (Profile.fields r.profile);
        events := !events + Sink.total obs;
        Hashtbl.replace per_rt job.rt_name
          (dt + Option.value ~default:0 (Hashtbl.find_opt per_rt job.rt_name));
        check st i job r;
        yard_ns.(i) <- yardstick_ns ()
      | exception e ->
        Option.iter (fun tr -> tr.inside <- false) tracer;
        fail st
          (Printf.sprintf "%s/%s: %s" job.program.Workload.name job.rt_name
             (Printexc.to_string e)))
    st.jobs;
  let g1 = Gc.quick_stat () in
  {
    wall_ns = !wall;
    job_ns;
    yard_ns;
    ops = !ops;
    words = !words;
    minor_words = !minor;
    sync_ops = !sync_ops;
    cycles = !cycles;
    counters = !counters;
    per_runtime_ns =
      List.map
        (fun n -> (n, Option.value ~default:0 (Hashtbl.find_opt per_rt n)))
        st.workload.runtimes;
    tracer;
    events = !events;
    minor_gcs = g1.minor_collections - g0.minor_collections;
    major_gcs = g1.major_collections - g0.major_collections;
    promoted_words = g1.promoted_words -. g0.promoted_words;
  }

let counter r name = List.assoc name r.counters

(* Host time of one pass over the jobs at the yardstick's reference
   speed.  Interference only ever slows work down, so each job
   contributes its fastest-decile time over [rounds], and the sum is
   scaled by the yardstick's fastest decile over the same rounds: the
   fast moments of both are the ones where the memory system was least
   contended. *)
type pass = { scaled_ns : float; raw_ns : int; yard_p10_ns : int }

let pass_ns rounds =
  match rounds with
  | [] -> invalid_arg "pass_ns: no rounds"
  | r :: _ ->
    let p10 f = quantile 0.1 (List.map f rounds) in
    let raw = ref 0 and yard = ref [] in
    Array.iteri
      (fun i _ ->
        raw := !raw + p10 (fun r -> r.job_ns.(i));
        yard := List.map (fun r -> r.yard_ns.(i)) rounds @ !yard)
      r.job_ns;
    let yard_p10 = quantile 0.1 !yard in
    {
      scaled_ns = at_reference_speed !raw ~yard_ns:yard_p10;
      raw_ns = !raw;
      yard_p10_ns = yard_p10;
    }

(* Engine time and minor-heap allocation outside every policy callback:
   the round's totals minus every layer's, so the layers and the engine
   sum to the traced wall time by construction. *)
let self_ns r tr =
  r.wall_ns - List.fold_left (fun a (l : layer) -> a + l.ns) 0 (tracer_layers tr)

let self_words r tr =
  r.minor_words - List.fold_left (fun a (l : layer) -> a + l.words) 0 (tracer_layers tr)

(* {1 lib/mem kernels, timed directly} *)

(* Median ns per call of [f] over 15 batches of [n] calls. *)
let time_kernel ~n f =
  median
    (List.init 15 (fun _ ->
         let t0 = now_ns () in
         for _ = 1 to n do
           f ()
         done;
         float_of_int (now_ns () - t0) /. float_of_int n))

(* A page of random bytes and a copy with about 1% of its bytes changed,
   the sparse-write shape of a lock-protected update. *)
let kernel_pages ~seed =
  let rng = Det_rng.create seed in
  let snapshot = Bytes.init Page.size (fun _ -> Char.chr (Det_rng.int rng 256)) in
  let current = Bytes.copy snapshot in
  for _ = 1 to Page.size / 100 do
    let i = Det_rng.int rng Page.size in
    Bytes.set current i (Char.chr ((Char.code (Bytes.get current i) + 1) land 255))
  done;
  (snapshot, current)

type kernels = { diff_page_ns : float; apply_ns : float; snapshot_ns : float }

let mem_kernels ~seed =
  let snapshot, current = kernel_pages ~seed in
  let page_id = 3 in
  let mods = Diff.diff_page ~page_id ~snapshot ~current in
  let space = Space.create () in
  Space.blit_string space ~addr:(Page.base_of_id page_id) (Bytes.to_string snapshot);
  let buf = Bytes.create Page.size in
  let diff_page_ns =
    time_kernel ~n:2000 (fun () ->
        ignore (Sys.opaque_identity (Diff.diff_page ~page_id ~snapshot ~current)))
  in
  let apply_ns = time_kernel ~n:2000 (fun () -> Diff.apply space mods) in
  let snapshot_ns =
    time_kernel ~n:20000 (fun () -> Space.snapshot_page_into space page_id buf)
  in
  if Space.read_string space ~addr:(Page.base_of_id page_id) ~len:Page.size
     <> Bytes.to_string current
  then failwith "perfbench: Diff.apply did not reproduce the modified page";
  { diff_page_ns; apply_ns; snapshot_ns }
