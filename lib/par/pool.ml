(* The audited concurrency layer (lint rule R6): a fixed-size domain
   pool running index jobs off one claim cursor per job.

   Shape of a job: the submitting caller publishes it in [current] and
   bumps [epoch]; every executor (the caller plus each worker) then
   claims one index at a time with [fetch_and_add] on the job's own
   [j_next] cursor until the cursor passes [n]. Completion is tracked
   by an Atomic counting finished (or skipped) indices; the executor
   that finishes the last index wakes the caller.

   Between jobs the workers sleep on [work_ready], keyed by a
   monotonically increasing epoch — a worker that sleeps through two
   quick jobs is fine, because a job only finishes once every index
   completed, so a missed epoch is by definition a job that needed no
   help.

   No quiescence wait: the cursor belongs to the job, not the pool. A
   worker that wakes late, or is still between its last claim and its
   return when [run] does, can only claim from its own job's exhausted
   cursor, so it can never run an index of the next job under this
   job's closure.

   One job at a time: [current] is a single slot, so a second
   submission (another domain, or a task closure re-entering the pool)
   would hide the first job from the workers. [run] therefore holds an
   [in_run] flag for the duration of a job and raises
   [Invalid_argument] on concurrent or nested submission. *)

module Metrics = Ufp_obs.Metrics

(* Pool telemetry rides the sharded registry it feeds: submissions
   count on the submitting domain, indices on whichever executor ran
   them. Totals are exact once [run] returns (the job's completion
   Atomic synchronizes executors with the caller). *)
let m_jobs = Metrics.counter "pool.jobs"
let m_chunks = Metrics.counter "pool.chunks"

type job = {
  j_n : int;
  j_f : int -> unit;
  j_next : int Atomic.t;  (* the next unclaimed index *)
  j_completed : int Atomic.t;  (* indices finished or skipped *)
  j_exn : (exn * Printexc.raw_backtrace) option Atomic.t;
}

type t = {
  size : int;
  mutable workers : unit Domain.t array;
  in_run : bool Atomic.t;  (* a job is in flight; submission is exclusive *)
  lock : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable current : job option;
  mutable epoch : int;
  mutable stopped : bool;
}

let size pool = pool.size

(* Claim indices until the cursor passes [n]. The first exception is
   published by CAS; once one is pending the remaining indices are
   claimed but skipped (they still count as completed so the caller
   can return and re-raise). The executor completing the last index
   wakes the caller; taking the lock orders that wake-up after the
   caller's check-then-wait, so the signal cannot be lost. *)
let rec execute pool job =
  let i = Atomic.fetch_and_add job.j_next 1 in
  if i < job.j_n then begin
    (if Atomic.get job.j_exn = None then begin
       Metrics.incr m_chunks;
       try job.j_f i
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         ignore (Atomic.compare_and_set job.j_exn None (Some (e, bt)))
     end);
    if Atomic.fetch_and_add job.j_completed 1 + 1 = job.j_n then begin
      Mutex.lock pool.lock;
      Condition.broadcast pool.work_done;
      Mutex.unlock pool.lock
    end;
    execute pool job
  end

let rec worker_loop pool seen_epoch =
  Mutex.lock pool.lock;
  while (not pool.stopped) && pool.epoch = seen_epoch do
    Condition.wait pool.work_ready pool.lock
  done;
  let stopped = pool.stopped in
  let epoch = pool.epoch in
  let job = pool.current in
  Mutex.unlock pool.lock;
  if not stopped then begin
    Option.iter (execute pool) job;
    worker_loop pool epoch
  end

let create ?domains () =
  let size =
    match domains with
    | Some d ->
      if d < 1 then invalid_arg "Ufp_par.Pool.create: domains < 1";
      d
    | None -> Domain.recommended_domain_count ()
  in
  let pool =
    {
      size;
      workers = [||];
      in_run = Atomic.make false;
      lock = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      current = None;
      epoch = 0;
      stopped = false;
    }
  in
  pool.workers <-
    Array.init (size - 1) (fun _ ->
        Domain.spawn (fun () ->
            (* Merge this worker's metrics shard into the registry
               now, so the one-time CAS push never lands inside a
               timed parallel region. *)
            Metrics.ensure_shard ();
            worker_loop pool 0));
  pool

let shutdown pool =
  Mutex.lock pool.lock;
  pool.stopped <- true;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.lock;
  let workers = pool.workers in
  pool.workers <- [||];
  Array.iter Domain.join workers

(* Submit one job, claim indices alongside the workers, and return
   once every index has completed. *)
let run pool ~n f =
  if n > 0 then begin
    if not (Atomic.compare_and_set pool.in_run false true) then
      invalid_arg
        "Ufp_par.Pool: concurrent or nested job submission on one pool";
    Fun.protect ~finally:(fun () -> Atomic.set pool.in_run false) @@ fun () ->
    Metrics.incr m_jobs;
    let job =
      {
        j_n = n;
        j_f = f;
        j_next = Atomic.make 0;
        j_completed = Atomic.make 0;
        j_exn = Atomic.make None;
      }
    in
    Mutex.lock pool.lock;
    if pool.stopped then begin
      Mutex.unlock pool.lock;
      invalid_arg "Ufp_par.Pool: job submitted after shutdown"
    end;
    pool.current <- Some job;
    pool.epoch <- pool.epoch + 1;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.lock;
    execute pool job;
    Mutex.lock pool.lock;
    while Atomic.get job.j_completed < n do
      Condition.wait pool.work_done pool.lock
    done;
    pool.current <- None;
    Mutex.unlock pool.lock;
    match Atomic.get job.j_exn with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

type choice = [ `Seq | `Pool of t ]

let parallel_for ?(pool = `Seq) ~n f =
  match pool with
  | `Seq ->
    for i = 0 to n - 1 do
      f i
    done
  | `Pool p -> run p ~n f

let parallel_mapi ?(pool = `Seq) ~n f =
  match pool with
  | `Seq -> Array.init n f
  | `Pool _ ->
    if n = 0 then [||]
    else begin
      (* An option array keeps the slots boxed, so any 'a (floats
         included) can be written race-free from distinct domains. *)
      let out = Array.make n None in
      parallel_for ~pool ~n (fun i -> out.(i) <- Some (f i));
      Array.map
        (function
          | Some v -> v
          | None -> assert false (* parallel_for completed every index *))
        out
    end

let with_pool ?domains f =
  let p = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f (`Pool p))

let with_jobs jobs f =
  (* A negative count is always a caller mistake (a typo'd flag, an
     arithmetic slip) — fail loudly at the entry point, naming the
     flag, instead of silently degrading to `Seq deep in a solve. *)
  if jobs < 0 then
    invalid_arg
      (Printf.sprintf "--jobs: expected a count >= 0, got %d (0 = recommended \
                       domain count)" jobs);
  let domains = if jobs = 0 then Domain.recommended_domain_count () else jobs in
  if domains <= 1 then f `Seq else with_pool ~domains f

let jobs_from_env ?(default = 1) () =
  match Sys.getenv_opt "UFP_JOBS" with
  | None -> default
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 0 -> j
    | Some j ->
      invalid_arg
        (Printf.sprintf "UFP_JOBS: expected a count >= 0, got %d (0 = \
                         recommended domain count)" j)
    | None -> default)
