(** The global-fence strong-DMT baselines the paper compares against:
    DThreads (Liu, Curtsinger, Berger — SOSP 2011) and CoreDet (Bergan
    et al., ASPLOS 2010).  Both are one mechanism (Section 2 of the
    RFDet paper) and differ only in what ends a parallel phase.

    Threads run isolated (a private view of the shared region, dirty
    pages twinned on first write) until they reach the fence; when every
    live thread not blocked on a primitive has arrived, a *serial phase*
    passes a token in thread-id order: each thread commits its page
    diffs to every other thread (last committer wins, byte granularity)
    and performs its pending synchronization operation, using the FIFO
    primitives of [Fifo_sync].

    The overheads the RFDet paper attributes to this design emerge
    naturally:
    - {b fence imbalance}: a thread that does not synchronize holds every
      other thread at the fence until it arrives (or exits);
    - {b serialized commits}: all threads pay for the token round even
      when they have nothing to communicate. *)

val dthreads : Rfdet_sim.Engine.t -> Rfdet_sim.Engine.policy
(** DThreads: a phase ends at the thread's next synchronization
    operation.  Threads are processes: mprotect page faults twin a page
    on first write, and a commit remaps the pages into every peer. *)

val coredet : ?quantum:int -> Rfdet_sim.Engine.t -> Rfdet_sim.Engine.policy
(** CoreDet: a phase also ends when the thread has executed [quantum]
    instruction-count units (default 50k, CoreDet's ballpark) — so even
    a thread that never synchronizes is stopped at every quantum
    boundary, the "unnecessary serialization" the paper's Section 3.1
    argues DLRC eliminates (the E6 ablation).  Stores go to a store
    buffer, without page faults. *)
