module Engine = Rfdet_sim.Engine

(* Kendo's turn order on (icount, tid) stamps: lexicographic, compared
   at [int] so no generic comparison runs on the grant path. *)
let compare_stamp ((c1, t1) : int * int) ((c2, t2) : int * int) =
  if c1 <> c2 then Int.compare c1 c2 else Int.compare t1 t2

type state = Absent | Active | Inactive | Pending

(* A deadline filed alongside the turn requests: fires (at most once)
   when its stamp (deadline, tid) becomes grantable, i.e. when every
   other active thread is deterministically past the deadline
   instruction count.  Backs [lock_timed]: the expiry point depends only
   on instruction counts, so whether the lock or the timeout wins is
   jitter-independent. *)
type timer = { deadline : int; fire : now:int -> unit }

let no_grant ~now:_ = ()

(* Engine tids are dense from 0, so every table is an array indexed by
   tid and [hi] bounds every scan.  A pending request of [tid] is stamped
   (req_icount.(tid), tid), so filing one allocates nothing here.

   [version] is bumped by every change to a state or a timer.  When the
   minimal stamp (blocked_c, blocked_tid) was last found not grantable
   because active thread [blocker] had not passed it, [blocked_version]
   records the version of that verdict.  While the version is unchanged,
   the pending and timer sets (hence the minimal stamp) and the active
   set are unchanged too, so re-reading [blocker]'s icount is enough to
   know the verdict still holds; no monotonicity of icounts is
   assumed. *)
type t = {
  engine : Engine.t;
  mutable states : state array;
  mutable req_icount : int array;  (* icount at request *)
  mutable req_asked : int array;  (* simulated clock when filed, for stats *)
  mutable req_grant : (now:int -> unit) array;
  mutable timers : timer option array;  (* at most one per waiting tid *)
  mutable hi : int;  (* 1 + the largest tid ever stored *)
  mutable n_pending : int;
  mutable n_timers : int;
  mutable version : int;
  mutable blocker : int;  (* -1 when no verdict is cached *)
  mutable blocked_version : int;
  mutable blocked_c : int;
  mutable blocked_tid : int;
}

let create engine =
  let n = 16 in
  {
    engine;
    states = Array.make n Absent;
    req_icount = Array.make n 0;
    req_asked = Array.make n 0;
    req_grant = Array.make n no_grant;
    timers = Array.make n None;
    hi = 0;
    n_pending = 0;
    n_timers = 0;
    version = 0;
    blocker = -1;
    blocked_version = 0;
    blocked_c = 0;
    blocked_tid = 0;
  }

let grow a n fill =
  let a' = Array.make n fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let reserve t tid =
  if tid >= Array.length t.states then begin
    let n = max (2 * Array.length t.states) (tid + 1) in
    t.states <- grow t.states n Absent;
    t.req_icount <- grow t.req_icount n 0;
    t.req_asked <- grow t.req_asked n 0;
    t.req_grant <- grow t.req_grant n no_grant;
    t.timers <- grow t.timers n None
  end;
  if tid >= t.hi then t.hi <- tid + 1

let state t tid = if tid < t.hi then t.states.(tid) else Absent

let set_state t tid st =
  reserve t tid;
  (match t.states.(tid) with
  | Pending ->
    t.n_pending <- t.n_pending - 1;
    t.req_grant.(tid) <- no_grant
  | Absent | Active | Inactive -> ());
  (match st with
  | Pending -> t.n_pending <- t.n_pending + 1
  | Absent | Active | Inactive -> ());
  t.states.(tid) <- st;
  t.version <- t.version + 1

let set_timer t tid tm =
  reserve t tid;
  (match t.timers.(tid) with
  | Some _ -> t.n_timers <- t.n_timers - 1
  | None -> ());
  (match tm with Some _ -> t.n_timers <- t.n_timers + 1 | None -> ());
  t.timers.(tid) <- tm;
  t.version <- t.version + 1

let thread_started t ~tid = set_state t tid Active

let thread_finished t ~tid =
  set_state t tid Absent;
  set_timer t tid None

let add_timer t ~tid ~deadline ~fire = set_timer t tid (Some { deadline; fire })

let cancel_timer t ~tid = set_timer t tid None

let set_inactive t ~tid = set_state t tid Inactive

let set_active t ~tid = set_state t tid Active

let is_active t ~tid =
  match state t tid with
  | Active -> true
  | Absent | Inactive | Pending -> false

let request t ~tid ~grant =
  (match state t tid with
  | Active -> ()
  | Pending -> invalid_arg "Arbiter.request: already pending"
  | Absent | Inactive -> invalid_arg "Arbiter.request: thread not active");
  let icount = Engine.icount t.engine tid in
  let asked_at = Engine.clock t.engine tid in
  set_state t tid Pending;
  t.req_icount.(tid) <- icount;
  t.req_asked.(tid) <- asked_at;
  t.req_grant.(tid) <- grant

let reservation_rank t ~tid =
  match state t tid with
  | Pending ->
    let c = t.req_icount.(tid) in
    let rank = ref 0 in
    for tid' = 0 to t.hi - 1 do
      match t.states.(tid') with
      | Pending ->
        let c' = t.req_icount.(tid') in
        if c' < c || (c' = c && tid' < tid) then incr rank
      | Absent | Active | Inactive -> ()
    done;
    !rank
  | Absent | Active | Inactive -> 0

(* The first other active thread not yet logically past (c, ctid), or
   -1 when there is none and the stamp is grantable.  Other pending
   requests necessarily have larger stamps (only the minimum is tested),
   and inactive/finished threads are ignored exactly as Kendo ignores
   blocked threads. *)
let blocker_of t ctid c =
  let found = ref (-1) and tid' = ref 0 in
  while !found < 0 && !tid' < t.hi do
    let i = !tid' in
    (match t.states.(i) with
    | Active when i <> ctid ->
      let c' = Engine.icount t.engine i in
      if c' < c || (c' = c && i <= ctid) then found := i
    | Active | Absent | Inactive | Pending -> ());
    tid' := i + 1
  done;
  !found

(* The turn became available when the last other active thread's
   instruction count passed the stamp.  Instruction counts advance
   in proportion to app cycles, so the crossing moment can be
   interpolated from (clock, icount) instead of being quantized to
   whole-operation completions — without this, one coarse Tick in a
   peer thread would inflate every waiter's grant time. *)
let crossing_time t tid c ~floor =
  let acc = ref floor in
  for tid' = 0 to t.hi - 1 do
    match t.states.(tid') with
    | Active when tid' <> tid ->
      let crossed =
        Engine.clock t.engine tid' - max 0 (Engine.icount t.engine tid' - c)
      in
      if crossed > !acc then acc := crossed
    | Active | Absent | Inactive | Pending -> ()
  done;
  !acc

(* The cached verdict still holds: nothing was filed, granted or
   re-activated since, and the blocker has still not passed the stamp. *)
let still_blocked t =
  t.blocker >= 0
  && t.blocked_version = t.version
  &&
  let c' = Engine.icount t.engine t.blocker in
  c' < t.blocked_c || (c' = t.blocked_c && t.blocker <= t.blocked_tid)

let grant_request t tid =
  let c = t.req_icount.(tid)
  and asked_at = t.req_asked.(tid)
  and grant = t.req_grant.(tid) in
  set_state t tid Active;
  let mine = Engine.clock t.engine tid in
  let now = crossing_time t tid c ~floor:mine in
  if now > asked_at then begin
    let prof = Engine.profile t.engine in
    prof.kendo_waits <- prof.kendo_waits + 1;
    let obs = Engine.obs t.engine in
    if Rfdet_obs.Sink.enabled obs then
      Rfdet_obs.Sink.emit obs ~tid ~time:asked_at
        (Rfdet_obs.Trace.Kendo_wait { cycles = now - asked_at })
  end;
  grant ~now

let fire_timer t tid tm =
  set_timer t tid None;
  let now =
    crossing_time t tid tm.deadline ~floor:(Engine.clock t.engine tid)
  in
  tm.fire ~now

(* Requests and timers share one deterministic grant order: the globally
   minimal stamp goes first (a request before a timer with an equal
   stamp), so a timeout cannot leapfrog a turn that deterministically
   precedes it (or vice versa).  The scans keep only ints and build no
   option, tuple or variant; a poll with nothing filed returns before
   any of them. *)
let rec poll t =
  if (t.n_pending > 0 || t.n_timers > 0) && not (still_blocked t) then begin
    let rtid = ref (-1) and rc = ref max_int in
    for tid = 0 to t.hi - 1 do
      match t.states.(tid) with
      | Pending when !rtid < 0 || t.req_icount.(tid) < !rc ->
        rtid := tid;
        rc := t.req_icount.(tid)
      | Pending | Absent | Active | Inactive -> ()
    done;
    let ttid = ref (-1) and tc = ref max_int in
    for tid = 0 to t.hi - 1 do
      match t.timers.(tid) with
      | Some tm when !ttid < 0 || tm.deadline < !tc ->
        ttid := tid;
        tc := tm.deadline
      | Some _ | None -> ()
    done;
    let req_first =
      !rtid >= 0
      && (!ttid < 0 || !rc < !tc || (!rc = !tc && !rtid <= !ttid))
    in
    let tid = if req_first then !rtid else !ttid in
    let c = if req_first then !rc else !tc in
    let b = blocker_of t tid c in
    if b >= 0 then begin
      t.blocker <- b;
      t.blocked_version <- t.version;
      t.blocked_c <- c;
      t.blocked_tid <- tid
    end
    else begin
      (if req_first then grant_request t tid
       else
         match t.timers.(tid) with
         | Some tm -> fire_timer t tid tm
         | None -> assert false);
      poll t
    end
  end

let pending_count t = t.n_pending
