(* Work-stealing domain pool for embarrassingly parallel index sweeps.

   Each worker owns a deque of contiguous cell indices, packed into one
   atomic int (lo in the high half, hi in the low half) so both the
   owner's chunked front-take and a thief's back-half steal are single
   CAS operations.  The spawning domain participates as worker 0, so
   [jobs = 1] (or a single cell) never spawns a domain and runs the
   plain serial loop — the determinism baseline the parallel paths are
   tested against. *)

(* 30 bits per half: sweeps are bounded well below 2^30 cells. *)
let half_bits = 30
let half_mask = (1 lsl half_bits) - 1
let max_cells = half_mask
let pack lo hi = (lo lsl half_bits) lor hi
let lo_of r = r lsr half_bits
let hi_of r = r land half_mask

let remaining d =
  let r = Atomic.get d in
  hi_of r - lo_of r

(* Owner side: take up to [chunk] indices from the front of [d].
   Returns the taken range as (lo, hi'), empty when lo >= hi'. *)
let rec take d ~chunk =
  let r = Atomic.get d in
  let lo = lo_of r and hi = hi_of r in
  if lo >= hi then (0, 0)
  else
    let hi' = min hi (lo + chunk) in
    if Atomic.compare_and_set d r (pack hi' hi) then (lo, hi')
    else take d ~chunk

(* Thief side: split off the back half of the victim's range.  Returns
   the stolen range, empty when there was nothing worth stealing. *)
let rec steal d =
  let r = Atomic.get d in
  let lo = lo_of r and hi = hi_of r in
  if hi - lo < 2 then (0, 0)
  else
    let mid = (lo + hi + 1) / 2 in
    if Atomic.compare_and_set d r (pack lo mid) then (mid, hi) else steal d

let default_jobs_cap = 8

let default_jobs () =
  max 1 (min default_jobs_cap (Domain.recommended_domain_count ()))

let clamp_jobs jobs =
  if jobs < 1 then invalid_arg "Pool.iter: jobs < 1";
  min jobs 64

let serial n f =
  for i = 0 to n - 1 do
    f i
  done

let parallel ~jobs n f =
  let w = min jobs n in
  (* Contiguous initial split keeps worker 0's share testbed-major-ish,
     but correctness never depends on who runs what: results land in
     caller-indexed slots and counters merge at the barrier. *)
  let deques =
    Array.init w (fun k -> Atomic.make (pack (k * n / w) ((k + 1) * n / w)))
  in
  (* Small chunks amortise the CAS without starving thieves. *)
  let chunk = max 1 (n / (w * 8)) in
  let failure = Atomic.make None in
  let stop = Atomic.make false in
  let record_failure exn bt =
    (* Keep the first failure; later ones lose the race and are dropped. *)
    ignore (Atomic.compare_and_set failure None (Some (exn, bt)) : bool);
    Atomic.set stop true
  in
  let run_range lo hi =
    let i = ref lo in
    (try
       while !i < hi && not (Atomic.get stop) do
         f !i;
         incr i
       done
     with exn -> record_failure exn (Printexc.get_raw_backtrace ()));
    Atomic.get stop
  in
  let worker me () =
    let own = deques.(me) in
    let rec loop () =
      let lo, hi = take own ~chunk in
      if lo < hi then begin
        if not (run_range lo hi) then loop ()
      end
      else begin
        (* Own deque drained: steal from the most loaded victim. *)
        let victim = ref (-1) and best = ref 0 in
        for k = 0 to w - 1 do
          if k <> me then begin
            let r = remaining deques.(k) in
            if r > !best then begin
              best := r;
              victim := k
            end
          end
        done;
        if !victim >= 0 && not (Atomic.get stop) then begin
          let lo, hi = steal deques.(!victim) in
          if lo < hi then begin
            (* Adopt the loot as our own deque, keep the first chunk. *)
            let hi' = min hi (lo + chunk) in
            Atomic.set own (pack hi' hi);
            if not (run_range lo hi') then loop ()
          end
          else loop ()
        end
        (* No stealable work left anywhere: taken chunks are no longer
           visible in any deque, so no new work can appear — done. *)
      end
    in
    loop ();
    (* Hand this worker's counter increments back to the spawner; the
       merge at the barrier makes totals independent of the sharding. *)
    Obs.Counters.snapshot ()
  in
  let spawned =
    Array.init (w - 1) (fun k -> Domain.spawn (worker (k + 1)))
  in
  (* The spawning domain is worker 0; its counters need no merge. *)
  let _ = worker 0 () in
  Array.iter
    (fun d -> Obs.Counters.merge (Domain.join d))
    spawned;
  match Atomic.get failure with
  | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> ()

let iter ?jobs n f =
  if n < 0 then invalid_arg "Pool.iter: negative count";
  if n > max_cells then invalid_arg "Pool.iter: more than 2^30 cells";
  let jobs = clamp_jobs (match jobs with Some j -> j | None -> default_jobs ()) in
  if jobs = 1 || n <= 1 then serial n f else parallel ~jobs n f

let map_array ?jobs f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    iter ?jobs n (fun i -> out.(i) <- Some (f a.(i)));
    Array.map
      (function
        | Some y -> y
        | None -> assert false (* iter returned, so every slot is filled *))
      out
  end

let map ?jobs f l = Array.to_list (map_array ?jobs f (Array.of_list l))

(* Persistent helper team for short, frequent parallel regions.

   [iter] spawns domains per call, which is fine for sweeps that run for
   seconds but measurably slower on the daemon's millisecond batches.  A
   [Team.t] parks [helpers] long-lived domains on a condition variable;
   [run] publishes a job (an index range and a worker-indexed
   function), wakes them, and waits at a barrier.  The split is static —
   worker [k] of [w] owns [k*n/w, (k+1)*n/w) — so which worker computes
   which index is a pure function of [(jobs, n)]: callers that index
   results by cell get byte-identical output at any team size, the same
   contract as [iter].

   Counter increments made by helpers are snapshotted per run and merged
   into the caller's domain at the barrier. *)
module Team = struct
  type t = {
    helpers : int;
    mutex : Mutex.t;
    work_ready : Condition.t;
    work_done : Condition.t;
    (* Protected by [mutex].  [epoch] increments once per published job;
       helpers idle until they see a fresh epoch. *)
    mutable epoch : int;
    mutable active : int; (* helpers participating in the current job *)
    mutable job_n : int;
    mutable job_w : int;
    mutable job_f : worker:int -> int -> unit;
    mutable pending : int;
    mutable failure : (exn * Printexc.raw_backtrace) option;
    snaps : Obs.Counters.snapshot array;
    mutable stopped : bool;
    mutable domains : unit Domain.t array;
  }

  let worker_range ~n ~w k = (k * n / w, (k + 1) * n / w)

  let helper_loop t me () =
    let seen = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock t.mutex;
      while t.epoch = !seen && not t.stopped do
        Condition.wait t.work_ready t.mutex
      done;
      if t.stopped then begin
        Mutex.unlock t.mutex;
        running := false
      end
      else begin
        seen := t.epoch;
        let active = t.active
        and n = t.job_n
        and w = t.job_w
        and f = t.job_f in
        Mutex.unlock t.mutex;
        if me < active then begin
          Obs.Counters.reset ();
          (* Helper [me] is worker [me + 1]; the caller is worker 0. *)
          let lo, hi = worker_range ~n ~w (me + 1) in
          (try
             for i = lo to hi - 1 do
               f ~worker:(me + 1) i
             done
           with exn ->
             let bt = Printexc.get_raw_backtrace () in
             Mutex.lock t.mutex;
             if t.failure = None then t.failure <- Some (exn, bt);
             Mutex.unlock t.mutex);
          t.snaps.(me) <- Obs.Counters.snapshot ();
          Mutex.lock t.mutex;
          t.pending <- t.pending - 1;
          if t.pending = 0 then Condition.signal t.work_done;
          Mutex.unlock t.mutex
        end
      end
    done

  let create ~helpers =
    if helpers < 0 then invalid_arg "Pool.Team.create: negative helpers";
    let t =
      {
        helpers;
        mutex = Mutex.create ();
        work_ready = Condition.create ();
        work_done = Condition.create ();
        epoch = 0;
        active = 0;
        job_n = 0;
        job_w = 1;
        job_f = (fun ~worker:_ _ -> ());
        pending = 0;
        failure = None;
        snaps = Array.make (max helpers 1) Obs.Counters.zero;
        stopped = false;
        domains = [||];
      }
    in
    t.domains <- Array.init helpers (fun me -> Domain.spawn (helper_loop t me));
    t

  let stop t =
    Mutex.lock t.mutex;
    if not t.stopped then begin
      t.stopped <- true;
      Condition.broadcast t.work_ready
    end;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.domains;
    t.domains <- [||]

  let run t ~jobs ~n f =
    if n <= 0 then ()
    else begin
      let w = max 1 (min jobs (min n (t.helpers + 1))) in
      if w = 1 then
        for i = 0 to n - 1 do
          f ~worker:0 i
        done
      else begin
        Mutex.lock t.mutex;
        if t.stopped then begin
          Mutex.unlock t.mutex;
          invalid_arg "Pool.Team.run: stopped team"
        end;
        t.job_n <- n;
        t.job_w <- w;
        t.job_f <- f;
        t.active <- w - 1;
        t.pending <- w - 1;
        t.failure <- None;
        t.epoch <- t.epoch + 1;
        Condition.broadcast t.work_ready;
        Mutex.unlock t.mutex;
        (* The caller is worker 0. *)
        let caller_failure = ref None in
        (let lo, hi = worker_range ~n ~w 0 in
         try
           for i = lo to hi - 1 do
             f ~worker:0 i
           done
         with exn -> caller_failure := Some (exn, Printexc.get_raw_backtrace ()));
        Mutex.lock t.mutex;
        while t.pending > 0 do
          Condition.wait t.work_done t.mutex
        done;
        let helper_failure = t.failure in
        Mutex.unlock t.mutex;
        for me = 0 to w - 2 do
          Obs.Counters.merge t.snaps.(me)
        done;
        match (!caller_failure, helper_failure) with
        | Some (exn, bt), _ | None, Some (exn, bt) ->
            Printexc.raise_with_backtrace exn bt
        | None, None -> ()
      end
    end
end
