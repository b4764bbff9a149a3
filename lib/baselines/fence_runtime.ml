module Engine = Rfdet_sim.Engine
module Cost = Rfdet_sim.Cost
module Op = Rfdet_sim.Op
module Space = Rfdet_mem.Space
module Layout = Rfdet_mem.Layout
module Page = Rfdet_mem.Page
module Diff = Rfdet_mem.Diff
module Sink = Rfdet_obs.Sink
module Trace = Rfdet_obs.Trace

(* What ends a thread's parallel phase: its next synchronization
   operation (DThreads), or that or an expired instruction quantum
   (CoreDet). *)
type trigger = Sync_only | Quantum of int

(* The model facts on which the two baselines differ besides the
   trigger.  DThreads runs threads as processes: the first write to a
   page in a phase takes an mprotect fault to twin it, committed pages
   are remapped into every peer, and the footprint counts each private
   page copy and each stack's mapped pages.  CoreDet buffers stores
   instead. *)
type model = {
  name : string;
  processes : bool;
  remap_per_peer : int;  (* commit cycles per peer space *)
}

(* What a thread carries to the fence: the synchronization operation it
   stopped at, its exit, or (quantum trigger) the result of the
   operation that exhausted its budget, delivered when it resumes. *)
type pending = Sync of Op.t | Exit | Quantum_end of int

type tstate = {
  tid : int;
  space : Space.t;  (* private view of the shared region *)
  stack : Space.t;
  snapshots : (int, bytes) Hashtbl.t;  (* dirty-page twins, this phase *)
  mutable touch_order : int list;  (* reversed *)
  mutable quantum_end : int;  (* icount bound for the current round *)
  mutable live : bool;
}

type t = {
  engine : Engine.t;
  model : model;
  trigger : trigger;
  states : (int, tstate) Hashtbl.t;
  sync : Fifo_sync.t;
  excluded : int list ref;  (* blocked on a primitive, out of the fence *)
  mutable arrived : (int * pending) list;  (* reversed arrival order *)
  mutable commits : (int * Diff.t) list;  (* diffs committed at arrival *)
  mutable live_count : int;
      (* dirty-page tracking is off while single-threaded: children
         inherit memory through fork, so there is nothing to commit
         until a second thread exists *)
}

let state states tid =
  match Hashtbl.find_opt states tid with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "fence: unknown tid %d" tid)

let refill t st =
  match t.trigger with
  | Sync_only -> ()
  | Quantum q -> st.quantum_end <- Engine.icount t.engine st.tid + q

let add_thread t ~tid ~space =
  let st =
    {
      tid;
      space;
      stack = Space.create ();
      snapshots = Hashtbl.create 16;
      touch_order = [];
      quantum_end = 0;
      live = true;
    }
  in
  refill t st;
  Hashtbl.replace t.states tid st

(* --- dirty-page tracking -------------------------------------------- *)

(* First touch of a page in a phase snapshots it for the phase's diff;
   returns the cycles charged to the store. *)
let track_store t st addr ~len =
  let c = Engine.cost t.engine in
  let p = Engine.profile t.engine in
  let cycles = ref 0 in
  let copied = ref false in
  if t.live_count > 1 then
    for page = Page.id_of_addr addr to Page.id_of_addr (addr + len - 1) do
      if not (Hashtbl.mem st.snapshots page) then begin
        Hashtbl.replace st.snapshots page (Space.snapshot_page st.space page);
        st.touch_order <- page :: st.touch_order;
        if t.model.processes then begin
          p.page_faults <- p.page_faults + 1;
          cycles := !cycles + c.Cost.page_fault
        end;
        p.snapshots <- p.snapshots + 1;
        copied := true;
        cycles := !cycles + Cost.snapshot_cost c ~bytes:Page.size
      end
    done;
  if !copied then p.stores_with_copy <- p.stores_with_copy + 1;
  !cycles

(* Compute this phase's diffs for a thread (its commit payload). *)
let collect_diffs t st =
  let c = Engine.cost t.engine in
  let p = Engine.profile t.engine in
  let o = Engine.obs t.engine in
  let cycles = ref 0 in
  let pages = List.rev st.touch_order in
  let mods =
    List.concat_map
      (fun page ->
        let snapshot = Hashtbl.find st.snapshots page in
        let current = Space.page_bytes st.space page in
        let diff_cycles = Cost.diff_cost c ~bytes:Page.size in
        cycles := !cycles + diff_cycles;
        p.diff_bytes_scanned <- p.diff_bytes_scanned + Page.size;
        let d = Diff.diff_page ~page_id:page ~snapshot ~current in
        if Sink.enabled o then
          Sink.emit o ~tid:st.tid
            ~time:(Engine.clock t.engine st.tid)
            (Trace.Diff
               {
                 page;
                 bytes = Diff.byte_count d;
                 runs = List.length d;
                 cycles = diff_cycles;
               });
        d)
      pages
  in
  Hashtbl.reset st.snapshots;
  st.touch_order <- [];
  (mods, !cycles)

(* Per-page byte totals of a commit payload, page id ascending. *)
let pages_of_mods mods =
  let by_page = Hashtbl.create 8 in
  List.iter
    (fun (r : Diff.run) ->
      let page = Page.id_of_addr r.addr in
      let existing = Option.value (Hashtbl.find_opt by_page page) ~default:0 in
      Hashtbl.replace by_page page (existing + String.length r.data))
    mods;
  Hashtbl.fold (fun p b acc -> (p, b) :: acc) by_page [] |> List.sort compare

(* --- serial phase ---------------------------------------------------- *)

(* Commit [tid]'s diffs into every other live space at [clock]; returns
   the commit's cycles. *)
let commit t ~tid ~clock mods =
  let c = Engine.cost t.engine in
  let p = Engine.profile t.engine in
  let o = Engine.obs t.engine in
  (* The diff is patched into the shared store once; peers pick the
     committed pages up by remapping.  (Functionally we apply to each
     private space — the simulated machine has no shared mapping — but
     the committed bytes are charged once.) *)
  let bytes = Diff.byte_count mods in
  let peers = ref 0 in
  Hashtbl.iter
    (fun tid' (st' : tstate) ->
      if tid' <> tid && st'.live then begin
        Diff.apply st'.space mods;
        incr peers
      end)
    t.states;
  p.bytes_propagated <- p.bytes_propagated + bytes;
  (* committing is a streaming patch of whole twin pages — cheaper per
     byte than RFDet's scattered byte-run application *)
  let cycles =
    (bytes * max 1 (c.Cost.apply_byte / 4)) + (!peers * t.model.remap_per_peer)
  in
  if Sink.enabled o then begin
    let pages = pages_of_mods mods in
    List.iter
      (fun (page, b) ->
        Sink.emit o ~tid ~time:clock (Trace.Prop_page { page; bytes = b }))
      pages;
    Sink.emit o ~tid ~time:clock
      (Trace.Propagate
         { slice = -1; src = tid; pages = List.length pages; bytes; cycles })
  end;
  cycles

(* Execute one thread's pending action in its token slot; [at] is the
   simulated time at the slot's end. *)
let perform_pending t ~tid ~at = function
  | Exit ->
    (* already finalized by the engine; only the fence's view changes *)
    (state t.states tid).live <- false;
    t.live_count <- t.live_count - 1;
    Fifo_sync.exited t.sync ~tid ~now:at
  | Quantum_end v -> Engine.wake t.engine ~tid ~value:v ~not_before:at
  | Sync (Op.Atomic { addr; rmw }) ->
    (* read the committed value from this thread's (post-commit) view,
       write the result through to every live space: atomics are global
       immediately, like a one-word commit *)
    let current = Space.load_int (state t.states tid).space addr in
    let prev, next = Op.apply_rmw rmw ~current in
    Hashtbl.iter
      (fun _ (st' : tstate) ->
        if st'.live then Space.store_int st'.space addr next)
      t.states;
    Engine.wake t.engine ~tid ~value:prev ~not_before:at
  | Sync (Op.Spawn body) ->
    let child = Engine.register_thread t.engine ~body ~start_at:at in
    add_thread t ~tid:child ~space:(Space.fork (state t.states tid).space);
    t.live_count <- t.live_count + 1;
    Engine.wake t.engine ~tid ~value:child ~not_before:at
  | Sync op -> (
    match Fifo_sync.perform t.sync ~tid ~now:at op with
    | Done v -> Engine.wake t.engine ~tid ~value:v ~not_before:at
    | Block -> t.excluded := tid :: !(t.excluded))

(* Run the serial phase: token in ascending tid order; each slot commits
   the thread's diffs into every other live space and performs its
   pending action. *)
let run_serial t =
  let c = Engine.cost t.engine in
  let p = Engine.profile t.engine in
  let o = Engine.obs t.engine in
  p.barrier_stalls <- p.barrier_stalls + 1;
  let fence_time =
    List.fold_left
      (fun acc (tid, _) -> max acc (Engine.clock t.engine tid))
      0 t.arrived
  in
  let order = List.sort compare (List.rev t.arrived) in
  let commits = t.commits in
  t.arrived <- [];
  t.commits <- [];
  let clock = ref (fence_time + c.Cost.barrier_overhead) in
  (* Every arrival stalls at the global fence from its own clock until
     the serial phase opens — the cost RFDet's barrier-free design
     removes, made visible in the trace. *)
  if Sink.enabled o then
    List.iter
      (fun (tid, _) ->
        let arrived_at = Engine.clock t.engine tid in
        Sink.emit o ~tid ~time:arrived_at
          (Trace.Barrier_stall
             { barrier = -1; cycles = max 0 (!clock - arrived_at) }))
      order;
  List.iter
    (fun (tid, pending) ->
      clock := !clock + c.Cost.commit_token;
      (match List.assoc_opt tid commits with
      | None | Some [] -> ()
      | Some mods -> clock := !clock + commit t ~tid ~clock:!clock mods);
      (* the next parallel phase starts a fresh quantum *)
      refill t (state t.states tid);
      perform_pending t ~tid ~at:!clock pending)
    order

(* A fence fires when every thread in the population — live and not
   blocked on a primitive — has arrived. *)
let maybe_fence t =
  let pop =
    Hashtbl.fold
      (fun tid st acc ->
        if st.live && not (List.mem tid !(t.excluded)) then tid :: acc else acc)
      t.states []
    |> List.sort compare
  in
  let arr = List.sort compare (List.map fst t.arrived) in
  if pop <> [] && pop = arr then run_serial t

(* A thread reaches the fence: compute its commit payload now. *)
let arrive t ~tid pending =
  let mods, cycles = collect_diffs t (state t.states tid) in
  Engine.advance t.engine tid (cycles + (Engine.cost t.engine).Cost.sync_op);
  t.arrived <- (tid, pending) :: t.arrived;
  t.commits <- (tid, mods) :: t.commits

(* Quantum trigger: stop the thread at the fence once its instruction
   budget for the round is gone. *)
let preempt t st (outcome : Engine.outcome) : Engine.outcome =
  match t.trigger, outcome with
  | Sync_only, _ | _, Block -> outcome
  | Quantum _, Done v ->
    if st.live && Engine.icount t.engine st.tid >= st.quantum_end then begin
      arrive t ~tid:st.tid (Quantum_end v);
      Block
    end
    else outcome

let handle t ~tid (op : Op.t) : Engine.outcome =
  let c = Engine.cost t.engine in
  let st = state t.states tid in
  match op with
  | Op.Load { addr; width } ->
    let space = if Layout.is_stack addr then st.stack else st.space in
    Engine.advance t.engine tid c.Cost.load;
    let v =
      match width with
      | Op.W8 -> Space.load_byte space addr
      | Op.W64 -> Space.load_int space addr
    in
    preempt t st (Done v)
  | Op.Store { addr; value; width } ->
    let space, extra =
      if Layout.is_stack addr then (st.stack, 0)
      else
        (st.space,
         track_store t st addr ~len:(match width with Op.W8 -> 1 | Op.W64 -> 8))
    in
    Engine.advance t.engine tid (c.Cost.store + extra);
    (match width with
    | Op.W8 -> Space.store_byte space addr value
    | Op.W64 -> Space.store_int space addr value);
    preempt t st (Done 0)
  (* creating a handle or validating a heal touches no other thread *)
  | Op.Mutex_create | Op.Cond_create | Op.Barrier_create _ | Op.Rwlock_create
  | Op.Sem_create _ | Op.Deque_create | Op.Mutex_heal _ ->
    Fifo_sync.perform t.sync ~tid ~now:(Engine.clock t.engine tid) op
  | _ ->
    arrive t ~tid (Sync op);
    Block

let on_finish t () =
  let p = Engine.profile t.engine in
  let pages = Hashtbl.create 256 in
  let dirty_copies = ref 0 in
  let stacks = ref 0 in
  Hashtbl.iter
    (fun _ (st : tstate) ->
      dirty_copies := !dirty_copies + Space.owned_pages st.space;
      stacks := !stacks + 8192 + (Space.mapped_pages st.stack * Page.size);
      Space.iter_pages st.space ~f:(fun id ->
          if Layout.is_shared (Page.base_of_id id) then
            Hashtbl.replace pages id ()))
    t.states;
  p.shared_bytes <- Hashtbl.length pages * Page.size;
  if t.model.processes then begin
    p.private_copy_bytes <- !dirty_copies * Page.size;
    p.stack_bytes <- !stacks
  end
  else p.stack_bytes <- Engine.thread_count t.engine * 8192;
  p.metadata_peak_bytes <- 0

let make model trigger engine : Engine.policy =
  let states = Hashtbl.create 16 in
  let excluded = ref [] in
  (* [finished] reads the runtime's own exit flag, not
     [Engine.is_finished]: the engine finishes a thread before its exit
     slot commits, and a joiner must not resume before those diffs. *)
  let sync =
    Fifo_sync.create ~name:model.name
      ~wake:(fun w ~at ->
        excluded := List.filter (fun x -> x <> w) !excluded;
        Engine.wake engine ~tid:w ~value:0 ~not_before:at)
      ~finished:(fun tid -> not (state states tid).live)
  in
  let t =
    {
      engine;
      model;
      trigger;
      states;
      sync;
      excluded;
      arrived = [];
      commits = [];
      live_count = 1;
    }
  in
  add_thread t ~tid:0 ~space:(Space.create ());
  {
    Engine.policy_name = model.name;
    handle = (fun ~tid op -> handle t ~tid op);
    on_engine_op =
      (match trigger with
      | Sync_only -> fun ~tid:_ _ outcome -> outcome
      | Quantum _ -> (
        fun ~tid op outcome ->
          match op with
          | Op.Tick _ | Op.Malloc _ | Op.Free _ | Op.Output _ ->
            preempt t (state t.states tid) outcome
          | _ -> outcome));
    on_thread_exit = (fun ~tid -> arrive t ~tid Exit);
    (* The fence needs every live thread to arrive and has no per-thread
       recovery path: a crashed party would stall every survivor at the
       next fence, so a crash aborts the run (as Thread_failure). *)
    on_thread_crash = Engine.escalate_crash;
    on_step = (fun () -> maybe_fence t);
    on_finish = (fun () -> on_finish t ());
  }

let dthreads =
  make { name = "dthreads"; processes = true; remap_per_peer = 80 } Sync_only

let quantum = 50_000

let coredet ?(quantum = quantum) engine =
  make
    { name = "coredet"; processes = false; remap_per_peer = 0 }
    (Quantum quantum) engine
