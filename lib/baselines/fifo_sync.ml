module Engine = Rfdet_sim.Engine
module Op = Rfdet_sim.Op

type mutex_state = { mutable owner : int option; queue : int Queue.t }

type cond_state = { cond_waiters : (int * int) Queue.t }

type barrier_state = { parties : int; mutable arrived : int list }

type rw_state = {
  mutable rw_writer : int option;
  mutable rw_readers : int list;
  rw_queue : (int * [ `Rd | `Wr ]) Queue.t;  (* FIFO arrival order *)
}

type sem_state = { mutable sem_permits : int; sem_queue : int Queue.t }

type deque_state = {
  dq_owner : int;
  mutable dq_items : (int * int) list;  (* (value, push seq), oldest first *)
}

type t = {
  name : string;
  wake : int -> at:int -> unit;
  finished : int -> bool;
  mutexes : (int, mutex_state) Hashtbl.t;
  conds : (int, cond_state) Hashtbl.t;
  barriers : (int, barrier_state) Hashtbl.t;
  rwlocks : (int, rw_state) Hashtbl.t;
  sems : (int, sem_state) Hashtbl.t;
  deques : (int, deque_state) Hashtbl.t;
  joiners : (int, int list) Hashtbl.t;
  mutable next_handle : int;
  mutable push_seq : int;  (* global push order, for oldest-first steals *)
}

let create ~name ~wake ~finished =
  {
    name;
    wake;
    finished;
    mutexes = Hashtbl.create 16;
    conds = Hashtbl.create 16;
    barriers = Hashtbl.create 4;
    rwlocks = Hashtbl.create 8;
    sems = Hashtbl.create 8;
    deques = Hashtbl.create 8;
    joiners = Hashtbl.create 8;
    next_handle = 1;
    push_seq = 0;
  }

let fail t fmt = Printf.ksprintf (fun s -> invalid_arg (t.name ^ ": " ^ s)) fmt

let find t tbl kind h =
  try Hashtbl.find tbl h with Not_found -> fail t "unknown %s %d" kind h

let fresh_handle t tbl st =
  let h = t.next_handle in
  t.next_handle <- h + 1;
  Hashtbl.replace tbl h st;
  Engine.Done h

let grant_mutex t (st : mutex_state) ~tid ~now =
  assert (st.owner = None);
  st.owner <- Some tid;
  t.wake tid ~at:now

(* Release [mutex] held by [tid] and grant it to the queue head; false
   if [tid] does not hold it. *)
let release_mutex t ~tid ~mutex ~now =
  let st = find t t.mutexes "mutex" mutex in
  match st.owner with
  | Some owner when owner = tid ->
    st.owner <- None;
    (match Queue.take_opt st.queue with
    | Some w -> grant_mutex t st ~tid:w ~now
    | None -> ());
    true
  | Some _ | None -> false

(* A signalled waiter takes the mutex back if it is free, else queues
   behind the current holder. *)
let requeue t (w, mutex) ~now =
  let st = find t t.mutexes "mutex" mutex in
  match st.owner with
  | None -> grant_mutex t st ~tid:w ~now
  | Some _ -> Queue.add w st.queue

(* Admit the FIFO queue head after a full release: a writer alone, or
   the consecutive run of readers at the head as a group. *)
let admit_rw t (st : rw_state) ~now =
  if st.rw_writer = None && st.rw_readers = [] then
    match Queue.peek_opt st.rw_queue with
    | None -> ()
    | Some (w, `Wr) ->
      ignore (Queue.pop st.rw_queue);
      st.rw_writer <- Some w;
      t.wake w ~at:now
    | Some (_, `Rd) ->
      let rec run () =
        match Queue.peek_opt st.rw_queue with
        | Some (r, `Rd) ->
          ignore (Queue.pop st.rw_queue);
          st.rw_readers <- r :: st.rw_readers;
          t.wake r ~at:now;
          run ()
        | _ -> ()
      in
      run ()

let lock t ~tid m : Engine.outcome =
  let st = find t t.mutexes "mutex" m in
  match st.owner with
  | None ->
    st.owner <- Some tid;
    Done 0
  | Some _ ->
    Queue.add tid st.queue;
    Block

let perform t ~tid ~now (op : Op.t) : Engine.outcome =
  match op with
  | Op.Mutex_create ->
    fresh_handle t t.mutexes { owner = None; queue = Queue.create () }
  | Op.Cond_create -> fresh_handle t t.conds { cond_waiters = Queue.create () }
  | Op.Barrier_create parties ->
    fresh_handle t t.barriers { parties; arrived = [] }
  | Op.Rwlock_create ->
    fresh_handle t t.rwlocks
      { rw_writer = None; rw_readers = []; rw_queue = Queue.create () }
  | Op.Sem_create permits ->
    if permits < 0 then fail t "negative initial permits";
    fresh_handle t t.sems { sem_permits = permits; sem_queue = Queue.create () }
  | Op.Deque_create -> fresh_handle t t.deques { dq_owner = tid; dq_items = [] }
  | Op.Lock m -> lock t ~tid m
  (* No deterministic time base to expire against: a timed lock is an
     infinite-timeout lock, the conservative pthread_mutex_timedlock
     behavior under a patient deadline. *)
  | Op.Lock_timed { mutex; timeout = _ } -> lock t ~tid mutex
  | Op.Trylock m ->
    let st = find t t.mutexes "mutex" m in
    (match st.owner with
    | None ->
      st.owner <- Some tid;
      Done 0
    | Some _ -> Done 2 (* busy; these mutexes are never poisoned *))
  | Op.Mutex_heal m ->
    (* Heal dispatches on the handle kind (handles are unique across
       object kinds); nothing is ever poisoned without containment, so
       this only validates the handle/holder. *)
    (match Hashtbl.find_opt t.mutexes m with
    | Some { owner = Some owner; _ } when owner = tid -> ()
    | Some _ -> fail t "heal of unheld mutex %d" m
    | None ->
      if
        not
          (Hashtbl.mem t.rwlocks m || Hashtbl.mem t.sems m
          || Hashtbl.mem t.deques m)
      then fail t "heal of unknown handle %d" m);
    Done 0
  | Op.Unlock m ->
    if not (release_mutex t ~tid ~mutex:m ~now) then
      fail t "unlock of unheld mutex %d" m;
    Done 0
  | Op.Cond_wait { cond; mutex } ->
    if not (release_mutex t ~tid ~mutex ~now) then
      fail t "cond_wait without holding the mutex";
    Queue.add (tid, mutex) (find t t.conds "cond" cond).cond_waiters;
    Block
  | Op.Cond_signal c ->
    (match Queue.take_opt (find t t.conds "cond" c).cond_waiters with
    | Some waiter -> requeue t waiter ~now
    | None -> ());
    Done 0
  | Op.Cond_broadcast c ->
    let waiters = (find t t.conds "cond" c).cond_waiters in
    while not (Queue.is_empty waiters) do
      requeue t (Queue.pop waiters) ~now
    done;
    Done 0
  | Op.Barrier_wait b ->
    let st = find t t.barriers "barrier" b in
    st.arrived <- tid :: st.arrived;
    if List.length st.arrived < st.parties then Block
    else begin
      List.iter (fun w -> if w <> tid then t.wake w ~at:now) st.arrived;
      st.arrived <- [];
      Done 0
    end
  | Op.Join target ->
    if t.finished target then Done 0
    else begin
      let existing =
        Option.value (Hashtbl.find_opt t.joiners target) ~default:[]
      in
      Hashtbl.replace t.joiners target (existing @ [ tid ]);
      Block
    end
  | Op.Rdlock rw ->
    let st = find t t.rwlocks "rwlock" rw in
    if st.rw_writer = None && Queue.is_empty st.rw_queue then begin
      st.rw_readers <- tid :: st.rw_readers;
      Done 0
    end
    else begin
      Queue.add (tid, `Rd) st.rw_queue;
      Block
    end
  | Op.Wrlock rw ->
    let st = find t t.rwlocks "rwlock" rw in
    if st.rw_writer = None && st.rw_readers = [] && Queue.is_empty st.rw_queue
    then begin
      st.rw_writer <- Some tid;
      Done 0
    end
    else begin
      Queue.add (tid, `Wr) st.rw_queue;
      Block
    end
  | Op.Rwunlock rw ->
    let st = find t t.rwlocks "rwlock" rw in
    if st.rw_writer = Some tid then st.rw_writer <- None
    else if List.mem tid st.rw_readers then
      st.rw_readers <- List.filter (fun r -> r <> tid) st.rw_readers
    else fail t "rwunlock of unheld %d" rw;
    admit_rw t st ~now;
    Done 0
  | Op.Sem_acquire s ->
    let st = find t t.sems "semaphore" s in
    if st.sem_permits > 0 then begin
      st.sem_permits <- st.sem_permits - 1;
      Done 0
    end
    else begin
      Queue.add tid st.sem_queue;
      Block
    end
  | Op.Sem_post s ->
    let st = find t t.sems "semaphore" s in
    (match Queue.take_opt st.sem_queue with
    | Some w -> t.wake w ~at:now
    | None -> st.sem_permits <- st.sem_permits + 1);
    Done 0
  | Op.Deque_push { deque; value } ->
    let st = find t t.deques "deque" deque in
    if st.dq_owner <> tid then fail t "push into deque %d by non-owner" deque;
    let seq = t.push_seq in
    t.push_seq <- seq + 1;
    st.dq_items <- st.dq_items @ [ (value, seq) ];
    Done 0
  | Op.Deque_pop dq ->
    let st = find t t.deques "deque" dq in
    if st.dq_owner <> tid then fail t "pop from deque %d by non-owner" dq;
    (match List.rev st.dq_items with
    | [] -> Done (-1)
    | (v, _) :: rest ->
      st.dq_items <- List.rev rest;
      Done v)
  | Op.Deque_steal own ->
    (* Steal the globally oldest item (lowest push sequence number),
       excluding the thief's own deque. *)
    let victim =
      Hashtbl.fold
        (fun h st best ->
          if h = own then best
          else
            match st.dq_items, best with
            | [], _ -> best
            | (_, seq) :: _, Some (_, best_seq) when best_seq <= seq -> best
            | (_, seq) :: _, _ -> Some (st, seq))
        t.deques None
    in
    (match victim with
    | None -> Done (-1)
    | Some (st, _) ->
      (match st.dq_items with
      | (v, _) :: rest ->
        st.dq_items <- rest;
        Done v
      | [] -> assert false))
  | Op.Load _ | Op.Store _ | Op.Atomic _ | Op.Spawn _ | Op.Tick _
  | Op.Output _ | Op.Self | Op.Yield | Op.Checkpoint _ | Op.Server_mark _
  | Op.Span _ | Op.Malloc _ | Op.Free _ ->
    fail t "%s is not a synchronization primitive" (Op.name op)

let exited t ~tid ~now =
  match Hashtbl.find_opt t.joiners tid with
  | None -> ()
  | Some waiting ->
    Hashtbl.remove t.joiners tid;
    List.iter (fun w -> t.wake w ~at:now) waiting
