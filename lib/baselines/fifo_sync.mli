(** The FIFO synchronization-primitive state machines shared by the
    baseline runtimes ([Pthreads_runtime] and the fence runtime behind
    DThreads and CoreDet): the handle table, mutexes, condition
    variables, barriers, reader-writer locks, semaphores, work-stealing
    deques and the joiners table, with their grant rules.

    Waiters are served in arrival order: a released mutex goes to its
    queue head; a signalled condvar waiter takes its mutex back if free,
    else queues behind the holder; an rwlock admits a writer alone or
    the run of readers at its queue head; a semaphore post hands its
    permit to the oldest waiter; a steal takes the globally oldest push.
    Nothing is ever poisoned, so a timed lock waits forever and a heal
    only validates its handle.

    The caller supplies time and the two hooks: [perform] returns [Block]
    when the calling thread must wait, and a later grant resumes it
    through [wake]. *)

type t

val create :
  name:string -> wake:(int -> at:int -> unit) -> finished:(int -> bool) -> t
(** [wake w ~at] resumes the blocked waiter [w] with result 0, no
    earlier than simulated time [at]; [finished tid] tells [Join]
    whether [tid] has exited.  [name] prefixes error messages. *)

val perform :
  t -> tid:int -> now:int -> Rfdet_sim.Op.t -> Rfdet_sim.Engine.outcome
(** Execute one primitive operation (a create, lock, cond, barrier,
    join, rwlock, semaphore or deque op) for [tid] at time [now]:
    [Done v] when it completes at once, [Block] when [tid] was queued.
    Grants to other threads go through [wake ~at:now].  Raises
    [Invalid_argument] on misuse (unlock of an unheld mutex, unknown
    handle, ...) and on operations that are not primitives. *)

val exited : t -> tid:int -> now:int -> unit
(** [tid] has exited: wake its joiners at [now], in join order. *)
