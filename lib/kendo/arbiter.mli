(** Kendo deterministic-turn arbitration (Olszewski et al., ASPLOS'09;
    paper Section 4.1).

    Every synchronization operation must take a *turn* before its
    semantics execute.  A thread requesting a turn is stamped with its
    deterministic logical time — the pair (instruction count at the
    request, thread id) — and the arbiter grants turns in strictly
    increasing stamp order.  A request is granted once every *other
    active* thread is logically past it, i.e. has a larger stamp;
    threads that are blocked (waiting on a lock queue, a condition
    variable, a barrier, or a join) or finished are not consulted,
    mirroring Kendo's treatment of inactive threads.

    Because stamps derive only from instruction counts — never from
    simulated wall-clock — the grant *sequence* is identical across
    scheduler seeds; only grant *times* vary.  This is the root of the
    whole system's determinism (paper Section 3.2). *)

type t

(** [compare_stamp a b] is the deterministic turn order on
    (instruction count, tid) stamps: lexicographic, and equal to
    [Stdlib.compare] on such pairs, but compared at [int]. *)
val compare_stamp : int * int -> int * int -> int

val create : Rfdet_sim.Engine.t -> t

(** [thread_started t ~tid] registers a thread as active.  Thread 0 must
    be registered before any request. *)
val thread_started : t -> tid:int -> unit

(** [thread_finished t ~tid] removes a thread permanently. *)
val thread_finished : t -> tid:int -> unit

(** [set_inactive t ~tid] excludes a thread from grant checks while it
    waits on a synchronization object (it cannot issue requests). *)
val set_inactive : t -> tid:int -> unit

(** [set_active t ~tid] re-includes a woken thread. *)
val set_active : t -> tid:int -> unit

(** [is_active t ~tid] — true when the thread is in the active set. *)
val is_active : t -> tid:int -> bool

(** [request t ~tid ~grant] files a turn request stamped with the
    thread's current instruction count.  [grant ~now] runs exactly once,
    when the turn is granted, with the simulated time of the grant; it
    must arrange for the thread to eventually be woken (directly or by
    queueing it on a synchronization object).  The requesting thread must
    be active and have no outstanding request. *)
val request : t -> tid:int -> grant:(now:int -> unit) -> unit

(** [reservation_rank t ~tid] — for the prelock optimization: when the
    thread has a pending request, the number of pending requests with
    smaller stamps (its position in the deterministic reservation
    order). *)
val reservation_rank : t -> tid:int -> int

(** [add_timer t ~tid ~deadline ~fire] files a deterministic timeout for
    a waiting thread: [fire ~now] runs once [deadline] (an absolute
    instruction count, stamped (deadline, tid)) becomes grantable under
    the same rule as turn requests, merged into the same min-stamp
    order.  At most one timer per tid; refiling replaces.  Backs
    [Op.Lock_timed]. *)
val add_timer : t -> tid:int -> deadline:int -> fire:(now:int -> unit) -> unit

(** [cancel_timer t ~tid] — discard the timer (the wait completed
    first).  No-op when absent. *)
val cancel_timer : t -> tid:int -> unit

(** [poll t] grants every currently grantable request and fires every
    due timer, in global stamp order.  Call after every engine step.

    Cost: with no request and no timer filed, [poll] is O(1) and
    allocates nothing.  When the minimal stamp was found blocked by some
    active thread and no state or timer has changed since, the only cost
    is one [Engine.icount] lookup of that thread.  Otherwise it scans
    the tid-indexed tables, allocating nothing itself beyond the
    [Engine] lookups of active threads and whatever the grant and fire
    callbacks do. *)
val poll : t -> unit

(** [pending_count t] — outstanding requests (diagnostics); O(1). *)
val pending_count : t -> int
