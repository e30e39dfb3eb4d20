(* One domain pool for embarrassingly parallel index sweeps.

   A pool parks [jobs - 1] helper domains on a condition variable.
   [run] publishes an index range, wakes them, and works alongside them
   as worker 0; every worker claims chunks of indices from one shared
   atomic counter until the range is exhausted or some worker has
   failed, then meets the others at a barrier.  Claiming is dynamic
   because cell costs are skewed: a static split would leave workers
   idle behind the one that drew the expensive cells.

   [iter] makes a pool for one sweep.  [jobs = 1] or a single cell
   never spawns a domain and runs the plain serial loop — the
   determinism baseline the parallel paths are tested against. *)

(* The OCaml 5 runtime caps live domains (128 in 5.1); this stays well
   below it. *)
let max_jobs = 64
let default_jobs_cap = 8

let default_jobs () =
  max 1 (min default_jobs_cap (Domain.recommended_domain_count ()))

let serial n f =
  for i = 0 to n - 1 do
    f i
  done

type t = {
  helpers : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  (* Protected by [mutex].  [epoch] increments once per published run;
     helpers idle until they see a fresh one. *)
  mutable epoch : int;
  mutable job_n : int;
  mutable job_chunk : int;
  mutable job_f : int -> unit;
  mutable pending : int;
  mutable stopped : bool;
  (* The next unclaimed index, and the first failure of the run. *)
  next : int Atomic.t;
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  snaps : Obs.Counters.snapshot array;
  mutable domains : unit Domain.t array;
}

(* One worker's share of a run: claim a chunk, run it, repeat. *)
let work t n chunk f =
  try
    let rec loop () =
      if Option.is_none (Atomic.get t.failure) then begin
        let lo = Atomic.fetch_and_add t.next chunk in
        if lo < n then begin
          for i = lo to min n (lo + chunk) - 1 do
            f i
          done;
          loop ()
        end
      end
    in
    loop ()
  with exn ->
    (* Keep the first failure; later ones lose the race and are dropped. *)
    let bt = Printexc.get_raw_backtrace () in
    ignore (Atomic.compare_and_set t.failure None (Some (exn, bt)) : bool)

let helper_loop t me () =
  let seen = ref 0 in
  Mutex.lock t.mutex;
  while not t.stopped do
    if t.epoch = !seen then Condition.wait t.work_ready t.mutex
    else begin
      seen := t.epoch;
      let n = t.job_n and chunk = t.job_chunk and f = t.job_f in
      Mutex.unlock t.mutex;
      Obs.Counters.reset ();
      work t n chunk f;
      (* Hand this run's counter increments back to the caller; the merge
         at the barrier makes totals independent of who ran what. *)
      t.snaps.(me) <- Obs.Counters.snapshot ();
      Mutex.lock t.mutex;
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.signal t.work_done
    end
  done;
  Mutex.unlock t.mutex

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs < 1";
  let helpers = min jobs max_jobs - 1 in
  let t =
    {
      helpers;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      epoch = 0;
      job_n = 0;
      job_chunk = 1;
      job_f = ignore;
      pending = 0;
      stopped = false;
      next = Atomic.make 0;
      failure = Atomic.make None;
      snaps = Array.make helpers Obs.Counters.zero;
      domains = [||];
    }
  in
  t.domains <- Array.init helpers (fun me -> Domain.spawn (helper_loop t me));
  t

let stop t =
  Mutex.lock t.mutex;
  t.stopped <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  Array.iter Domain.join t.domains;
  t.domains <- [||]

let run t n f =
  if t.stopped then invalid_arg "Pool.run: stopped pool";
  if n < 0 then invalid_arg "Pool.run: negative count";
  if t.helpers = 0 || n <= 1 then serial n f
  else begin
    let chunk = max 1 (n / (8 * (t.helpers + 1))) in
    Mutex.lock t.mutex;
    Atomic.set t.next 0;
    Atomic.set t.failure None;
    t.job_n <- n;
    t.job_chunk <- chunk;
    t.job_f <- f;
    t.pending <- t.helpers;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    work t n chunk f;
    Mutex.lock t.mutex;
    while t.pending > 0 do
      Condition.wait t.work_done t.mutex
    done;
    (* Let the run's closure, and whatever it holds, be collected now
       rather than at the next run. *)
    t.job_f <- ignore;
    Mutex.unlock t.mutex;
    Array.iter Obs.Counters.merge t.snaps;
    match Atomic.get t.failure with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> ()
  end

let iter ?jobs n f =
  if n < 0 then invalid_arg "Pool.iter: negative count";
  let jobs = Option.value jobs ~default:(default_jobs ()) in
  if jobs < 1 then invalid_arg "Pool.iter: jobs < 1";
  if jobs = 1 || n <= 1 then serial n f
  else begin
    let t = create ~jobs:(min jobs n) in
    Fun.protect ~finally:(fun () -> stop t) (fun () -> run t n f)
  end
