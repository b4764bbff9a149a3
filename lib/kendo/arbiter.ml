module Engine = Rfdet_sim.Engine

(* Kendo's turn order on (icount, tid) stamps: lexicographic, compared
   at [int] so no generic comparison runs on the grant path. *)
let compare_stamp ((c1, t1) : int * int) ((c2, t2) : int * int) =
  if c1 <> c2 then Int.compare c1 c2 else Int.compare t1 t2

type pending_req = {
  stamp : int * int;  (* (icount at request, tid) *)
  asked_at : int;  (* simulated clock when filed, for stats *)
  grant : now:int -> unit;
}

type state = Active | Inactive | Pending of pending_req

(* A deadline filed alongside the turn requests: fires (at most once)
   when its stamp becomes grantable, i.e. when every other active thread
   is deterministically past the deadline instruction count.  Backs
   [lock_timed]: the expiry point depends only on instruction counts, so
   whether the lock or the timeout wins is jitter-independent. *)
type timer = {
  tm_stamp : int * int;  (* (deadline icount, tid) *)
  tm_fire : now:int -> unit;
}

type t = {
  engine : Engine.t;
  states : (int, state) Hashtbl.t;
  timers : (int, timer) Hashtbl.t;  (* at most one per waiting tid *)
}

let create engine =
  { engine; states = Hashtbl.create 16; timers = Hashtbl.create 4 }

let thread_started t ~tid = Hashtbl.replace t.states tid Active

let thread_finished t ~tid =
  Hashtbl.remove t.states tid;
  Hashtbl.remove t.timers tid

let add_timer t ~tid ~deadline ~fire =
  Hashtbl.replace t.timers tid { tm_stamp = (deadline, tid); tm_fire = fire }

let cancel_timer t ~tid = Hashtbl.remove t.timers tid

let set_inactive t ~tid = Hashtbl.replace t.states tid Inactive

let set_active t ~tid = Hashtbl.replace t.states tid Active

let is_active t ~tid =
  match Hashtbl.find_opt t.states tid with
  | Some Active -> true
  | Some (Inactive | Pending _) | None -> false

let request t ~tid ~grant =
  (match Hashtbl.find_opt t.states tid with
  | Some Active -> ()
  | Some (Pending _) -> invalid_arg "Arbiter.request: already pending"
  | Some Inactive | None -> invalid_arg "Arbiter.request: thread not active");
  let stamp = (Engine.icount t.engine tid, tid) in
  let asked_at = Engine.clock t.engine tid in
  Hashtbl.replace t.states tid (Pending { stamp; asked_at; grant })

let reservation_rank t ~tid =
  match Hashtbl.find_opt t.states tid with
  | Some (Pending { stamp; _ }) ->
    Hashtbl.fold
      (fun tid' st acc ->
        match st with
        | Pending { stamp = stamp'; _ }
          when tid' <> tid && compare_stamp stamp' stamp < 0 ->
          acc + 1
        | Pending _ | Active | Inactive -> acc)
      t.states 0
  | Some (Active | Inactive) | None -> 0

(* The minimal pending request, if any. *)
let min_pending t =
  Hashtbl.fold
    (fun tid st acc ->
      match st, acc with
      | Pending p, None -> Some (tid, p)
      | Pending p, Some (_, best) when compare_stamp p.stamp best.stamp < 0 ->
        Some (tid, p)
      | _ -> acc)
    t.states None

(* A request is grantable when every *other active* thread is logically
   past its stamp.  Other pending requests necessarily have larger stamps
   (we only test the minimum), and inactive/finished threads are ignored
   exactly as Kendo ignores blocked threads. *)
let grantable t tid ((c, ctid) : int * int) =
  let ok = ref true in
  Hashtbl.iter
    (fun tid' st ->
      if !ok && tid' <> tid then
        match st with
        | Active ->
          (* (icount', tid') <= (c, ctid), without building the pair *)
          let c' = Engine.icount t.engine tid' in
          if c' < c || (c' = c && tid' <= ctid) then ok := false
        | Inactive | Pending _ -> ())
    t.states;
  !ok

(* The turn became available when the last other active thread's
   instruction count passed the stamp.  Instruction counts advance
   in proportion to app cycles, so the crossing moment can be
   interpolated from (clock, icount) instead of being quantized to
   whole-operation completions — without this, one coarse Tick in a
   peer thread would inflate every waiter's grant time. *)
let crossing_time t tid c ~floor =
  Hashtbl.fold
    (fun tid' st acc ->
      match st with
      | Active when tid' <> tid ->
        let crossed =
          Engine.clock t.engine tid'
          - max 0 (Engine.icount t.engine tid' - c)
        in
        max acc crossed
      | Active | Inactive | Pending _ -> acc)
    t.states floor

let min_timer t =
  Hashtbl.fold
    (fun tid tm acc ->
      match acc with
      | None -> Some (tid, tm)
      | Some (_, best) when compare_stamp tm.tm_stamp best.tm_stamp < 0 ->
        Some (tid, tm)
      | Some _ -> acc)
    t.timers None

(* Requests and timers share one deterministic grant order: the globally
   minimal stamp goes first, so a timeout cannot leapfrog a turn that
   deterministically precedes it (or vice versa). *)
let rec poll t =
  let next =
    match min_pending t, min_timer t with
    | None, None -> None
    | Some (tid, p), None -> Some (`Req (tid, p))
    | None, Some (tid, tm) -> Some (`Timer (tid, tm))
    | Some (rtid, p), Some (ttid, tm) ->
      if compare_stamp p.stamp tm.tm_stamp <= 0 then Some (`Req (rtid, p))
      else Some (`Timer (ttid, tm))
  in
  match next with
  | None -> ()
  | Some (`Req (tid, p)) ->
    if grantable t tid p.stamp then begin
      Hashtbl.replace t.states tid Active;
      let mine = Engine.clock t.engine tid in
      let c, _ = p.stamp in
      let now = crossing_time t tid c ~floor:mine in
      if now > p.asked_at then begin
        let prof = Engine.profile t.engine in
        prof.kendo_waits <- prof.kendo_waits + 1;
        let obs = Engine.obs t.engine in
        if Rfdet_obs.Sink.enabled obs then
          Rfdet_obs.Sink.emit obs ~tid ~time:p.asked_at
            (Rfdet_obs.Trace.Kendo_wait { cycles = now - p.asked_at })
      end;
      p.grant ~now;
      poll t
    end
  | Some (`Timer (tid, tm)) ->
    if grantable t tid tm.tm_stamp then begin
      Hashtbl.remove t.timers tid;
      let c, _ = tm.tm_stamp in
      let now = crossing_time t tid c ~floor:(Engine.clock t.engine tid) in
      tm.tm_fire ~now;
      poll t
    end

let pending_count t =
  Hashtbl.fold
    (fun _ st acc ->
      match st with Pending _ -> acc + 1 | Active | Inactive -> acc)
    t.states 0
