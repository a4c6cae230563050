(* The audited concurrency layer (lint rule R6): a fixed-size domain
   pool scheduling index-range jobs by work stealing.

   Shape of a job: the submitting caller seeds the full range
   [0 .. n-1] on its own Chase–Lev deque ({!Deque}); every executor
   (the caller plus each worker) repeatedly pops a range from its own
   deque, splits it in half until it is at most [grain] wide (pushing
   the upper half back for thieves), and runs the leaf. An executor
   whose own deque is empty steals the oldest range from a randomly
   chosen victim, backing off exponentially through [Domain.cpu_relax]
   and finally parking on [work_ready] (the sleepers protocol below).
   Completion is tracked by an Atomic counting finished indices; the
   executor that finishes the last index wakes everyone.

   Between jobs the workers sleep on [work_ready], keyed by a
   monotonically increasing epoch — a worker that sleeps through two
   quick jobs is fine, because a job only finishes once every index
   completed, so a missed epoch is by definition a job that needed no
   help.

   The sleepers protocol (no lost wake-ups): a parking thief takes the
   pool lock, increments [sleepers], and only then re-scans every
   deque and the completion counter before waiting. A pusher makes its
   push SC-visible first and reads [sleepers] second; the parker
   increments [sleepers] first and scans second. In the SC total order
   either the parker's scan sees the push, or the push precedes the
   pusher's [sleepers] read which then sees the parker's increment —
   so the pusher broadcasts, and it broadcasts under the lock the
   parker has held since before deciding to wait, so the signal cannot
   fire in the gap before the wait begins.

   Quiescence (no cross-job steals): completion of the last index is
   not enough for [run] to return. A worker that passed the top-of-loop
   completion check can still be mid-[steal_round] when the counter
   hits [n]; if the caller returned then and seeded the next job, that
   stale sweep could steal a fresh range and run it under the OLD job's
   closure and completion counter (the deques are pool-level and ranges
   carry no job identity) — wrong closure, and the new job blocks
   forever on indices it never gets credited for. So each job counts
   its executors: a worker registers in [j_active] under the pool lock
   (in [worker_loop], before it can touch a deque) and deregisters
   after leaving [ws_loop]; [run] waits for completion AND
   [j_active = 0] before returning. Once both hold, no domain other
   than the caller can touch the deques until the next submission
   bumps the epoch.

   One job at a time: the deque indexed [size - 1] is owned by "the
   submitting caller", so two overlapping [run]s (two domains, or a
   task closure re-entering the pool) would both do owner-side
   push/pop on one Chase–Lev deque — a single-owner contract
   violation that loses or duplicates ranges. [run] therefore holds an
   [in_run] flag for the duration of a job and raises
   [Invalid_argument] on concurrent or nested submission. *)

module Metrics = Ufp_obs.Metrics

(* Pool telemetry rides the sharded registry it feeds: submissions
   count on the submitting domain, executed leaf ranges on whichever
   executor ran them, steals on the thief. Totals are exact once [run]
   returns (the job's completion Atomic synchronizes executors with
   the caller). *)
let m_jobs = Metrics.counter "pool.jobs"
let m_chunks = Metrics.counter "pool.chunks"
let m_steals = Metrics.counter "pool.steals"
let m_steal_failures = Metrics.counter "pool.steal_failures"

type job = {
  j_n : int;
  j_grain : int;
  j_f : int -> unit;
  j_completed : int Atomic.t;  (* indices finished or skipped *)
  j_active : int Atomic.t;  (* workers inside ws_loop (quiescence) *)
  j_exn : (exn * Printexc.raw_backtrace) option Atomic.t;
}

type t = {
  size : int;
  mutable workers : unit Domain.t array;
  deques : int Deque.t array;  (* deques.(e): executor e's own deque *)
  rng : int array;  (* xorshift state, slot e * rng_stride, owner-only *)
  sleepers : int Atomic.t;  (* thieves parked on work_ready mid-job *)
  in_run : bool Atomic.t;  (* a job is in flight; submission is exclusive *)
  lock : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable current : job option;
  mutable epoch : int;
  mutable stopped : bool;
}

let size pool = pool.size

(* Ranges travel through the deques as single immediates:
   [lo lsl range_bits lor hi]. The width is derived from the platform
   word so the packed pair always fits a native int — 31 bits per
   bound on 63-bit ints (n up to 2^31 - 1), 15 on 31-bit ints — and
   the [run] guard on [max_n] rejects anything wider, loudly, instead
   of overflowing the shift. *)
let range_bits = (Sys.int_size - 1) / 2
let max_n = (1 lsl range_bits) - 1
let enc lo hi = (lo lsl range_bits) lor hi
let dec r = (r lsr range_bits, r land max_n)

(* Per-executor xorshift for victim selection: R8 forbids the global
   [Random] state in anything a pool closure can reach, and the
   scheduler itself should meet the bar it enforces. One cache line
   per executor (the stride) so owners never false-share. *)
let rng_stride = 8

let rand_bits pool me =
  let i = me * rng_stride in
  let s = pool.rng.(i) in
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = s lxor (s lsl 17) in
  let s = s land max_int in
  pool.rng.(i) <- (if s = 0 then (me + 1) * 0x9E3779B9 else s);
  s

(* Count [k] indices as done; the executor completing the last index
   wakes the caller ([work_done]) and any parked thieves
   ([work_ready]) so nobody outlives the job. *)
let finish pool job k =
  let finished = Atomic.fetch_and_add job.j_completed k + k in
  if finished = job.j_n then begin
    (* Taking the lock orders this wake-up after the caller's
       check-then-wait, so the signal cannot be lost. *)
    Mutex.lock pool.lock;
    Condition.broadcast pool.work_done;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.lock
  end

let wake_if_sleepers pool =
  if Atomic.get pool.sleepers > 0 then begin
    Mutex.lock pool.lock;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.lock
  end

(* Run one leaf range. The first exception is published by CAS; once
   one is pending the remaining ranges are skipped (they still count
   as completed so the caller can return and re-raise). *)
let run_leaf pool job lo hi =
  Metrics.incr m_chunks;
  (if Atomic.get job.j_exn = None then
     try
       for i = lo to hi - 1 do
         job.j_f i
       done
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       ignore (Atomic.compare_and_set job.j_exn None (Some (e, bt))));
  finish pool job (hi - lo)

(* Lazy binary splitting: keep the lower half hot on this executor,
   expose the upper half to thieves. Ranges at most [grain] wide run
   as leaves; once an exception is pending whole ranges are skipped
   without splitting. *)
let rec process pool job me lo hi =
  if Atomic.get job.j_exn <> None then finish pool job (hi - lo)
  else if hi - lo <= job.j_grain then run_leaf pool job lo hi
  else begin
    let mid = lo + ((hi - lo) / 2) in
    Deque.push pool.deques.(me) (enc mid hi);
    wake_if_sleepers pool;
    process pool job me lo mid
  end

(* One sweep over the other executors' deques in random rotation.
   [`Got r] on the first successful steal; [`Retry] if any victim was
   contended (someone is making progress — spin, don't park);
   [`Empty] only when every victim's deque scanned empty. *)
let steal_round pool me =
  let k = pool.size in
  let start = rand_bits pool me mod k in
  let result = ref `Empty in
  let off = ref 0 in
  while !off < k && not (match !result with `Got _ -> true | _ -> false) do
    let v = (start + !off) mod k in
    (if v <> me then
       match Deque.steal pool.deques.(v) with
       | Deque.Stolen r -> result := `Got r
       | Deque.Retry -> result := `Retry
       | Deque.Empty -> ());
    incr off
  done;
  !result

(* How many failed steal sweeps before a thief parks: the backoff
   ladder doubles cpu_relax spins per rung, so the total pre-park spin
   is ~2^park_after relaxations. *)
let park_after = 10

let rec ws_loop pool job me backoff =
  if Atomic.get job.j_completed >= job.j_n then ()
  else
    match Deque.pop pool.deques.(me) with
    | Some r ->
      let lo, hi = dec r in
      process pool job me lo hi;
      ws_loop pool job me 0
    | None -> (
      match steal_round pool me with
      | `Got r ->
        Metrics.incr m_steals;
        let lo, hi = dec r in
        process pool job me lo hi;
        ws_loop pool job me 0
      | `Retry ->
        Domain.cpu_relax ();
        ws_loop pool job me backoff
      | `Empty ->
        Metrics.incr m_steal_failures;
        if backoff < park_after then begin
          for _ = 1 to 1 lsl backoff do
            Domain.cpu_relax ()
          done;
          ws_loop pool job me (backoff + 1)
        end
        else begin
          (* Sleepers protocol: increment BEFORE the final scan, both
             under the lock — see the header comment for why this
             cannot lose a wake-up. *)
          Mutex.lock pool.lock;
          Atomic.incr pool.sleepers;
          let work_visible =
            Atomic.get job.j_completed >= job.j_n
            ||
            let any = ref false in
            for e = 0 to pool.size - 1 do
              if e <> me && not (Deque.is_empty pool.deques.(e)) then
                any := true
            done;
            !any
          in
          if not work_visible then Condition.wait pool.work_ready pool.lock;
          Atomic.decr pool.sleepers;
          Mutex.unlock pool.lock;
          ws_loop pool job me 0
        end)

let rec worker_loop pool me seen_epoch =
  Mutex.lock pool.lock;
  while (not pool.stopped) && pool.epoch = seen_epoch do
    Condition.wait pool.work_ready pool.lock
  done;
  let stopped = pool.stopped in
  let epoch = pool.epoch in
  let job = if stopped then None else pool.current in
  (* Register as an executor BEFORE releasing the lock: [run] must not
     observe completion + quiescence while this worker is about to
     enter [ws_loop], or its stale sweep could race the next job's
     seeding (see the header comment). *)
  (match job with Some j -> Atomic.incr j.j_active | None -> ());
  Mutex.unlock pool.lock;
  if not stopped then begin
    (match job with
    | Some j ->
      ws_loop pool j me 0;
      Mutex.lock pool.lock;
      Atomic.decr j.j_active;
      if Atomic.get j.j_active = 0 && Atomic.get j.j_completed >= j.j_n then
        Condition.broadcast pool.work_done;
      Mutex.unlock pool.lock
    | None -> ());
    worker_loop pool me epoch
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
      deques = Array.init size (fun _ -> Deque.create ());
      rng = Array.init (size * rng_stride) (fun i -> (i + 1) * 0x9E3779B9);
      sleepers = Atomic.make 0;
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
    Array.init (size - 1) (fun me ->
        Domain.spawn (fun () ->
            (* Merge this worker's metrics shard into the registry
               now, so the one-time CAS push never lands inside a
               timed parallel region. *)
            Metrics.ensure_shard ();
            worker_loop pool me 0));
  pool

let shutdown pool =
  Mutex.lock pool.lock;
  pool.stopped <- true;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.lock;
  let workers = pool.workers in
  pool.workers <- [||];
  Array.iter Domain.join workers

(* Submit one job and participate (as executor [size - 1]) until every
   index completed AND every worker that joined the job has left the
   scheduler (quiescence — see the header comment). *)
let run pool ~grain ~n f =
  if n > 0 then begin
    if n > max_n then
      invalid_arg
        (Printf.sprintf "Ufp_par.Pool: n exceeds the %d-index range bound"
           max_n);
    if not (Atomic.compare_and_set pool.in_run false true) then
      invalid_arg
        "Ufp_par.Pool: concurrent or nested job submission on one pool";
    Fun.protect ~finally:(fun () -> Atomic.set pool.in_run false) @@ fun () ->
    Metrics.incr m_jobs;
    let job =
      {
        j_n = n;
        j_grain = Int.max 1 grain;
        j_f = f;
        j_completed = Atomic.make 0;
        j_active = Atomic.make 0;
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
    let me = pool.size - 1 in
    (* Seed the whole range through the splitter: the first halves land
       on the caller's deque (waking parked thieves) while the caller
       dives into the cache-hot lower half. *)
    process pool job me 0 n;
    ws_loop pool job me 0;
    Mutex.lock pool.lock;
    while Atomic.get job.j_completed < n || Atomic.get job.j_active > 0 do
      Condition.wait pool.work_done pool.lock
    done;
    pool.current <- None;
    Mutex.unlock pool.lock;
    match Atomic.get job.j_exn with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let parallel_for_dynamic ?(pool = `Seq) ?(grain = 1) ~n f =
  match pool with
  | `Seq ->
    for i = 0 to n - 1 do
      f i
    done
  | `Pool p -> run p ~grain ~n f

let parallel_for ?pool ?(chunk = 1) ~n f =
  parallel_for_dynamic ?pool ~grain:chunk ~n f

type choice = [ `Seq | `Pool of t ]

let parallel_mapi ?(pool = `Seq) ?chunk ~n f =
  match pool with
  | `Seq -> Array.init n f
  | `Pool _ ->
    if n = 0 then [||]
    else begin
      (* An option array keeps the slots boxed, so any 'a (floats
         included) can be written race-free from distinct domains. *)
      let out = Array.make n None in
      parallel_for ~pool ?chunk ~n (fun i -> out.(i) <- Some (f i));
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
