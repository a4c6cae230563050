(** A fixed-size domain pool running index jobs off one claim cursor
    per job.

    This is the {e only} module in the repo allowed to spawn domains or
    create locks (lint rule R6 keeps all other concurrency out); see
    docs/PARALLELISM.md for the design and the determinism argument.

    The pool is built for the repo's parallel work, each job a flat
    list of {e independent, pure} and coarse tasks: one counterfactual
    critical value per winner ([ufp payments]), one two-probe payment
    certificate per winner ([ufp payments --audit]), one critical-value
    bisection per agent (unhinted payments), one VCG counterfactual
    solve per winner, and one Dijkstra tree per source in the
    selector's cold fill. Each task is heavy enough — milliseconds to seconds — that
    scheduling overhead is irrelevant, and tasks are {e uneven} (a hub
    winner's counterfactual dwarfs a leaf winner's). Workers are raw
    [Domain.spawn]ed threads that sleep on a condition variable between
    jobs, so a pool is cheap to keep around and reuse across calls.
    Within a job, every executor claims one index at a time from the
    job's [Atomic] cursor, so an idle executor always takes the next
    index and an expensive index never strands the rest of the range
    behind it the way a fixed chunk would.

    {b Determinism contract}: [parallel_mapi ~pool ~n f] computes
    [f i] for each [i] exactly once and stores it at slot [i]. When
    every [f i] is pure (no shared mutable state except domain-safe
    {!Ufp_obs} instruments), the result is {e bitwise identical} to
    [Array.init n f] — scheduling changes only the order in which
    slots are filled, never the float operations inside a slot. The
    payment laws in [test/test_mech.ml] enforce this end to end.

    {b Telemetry}: the pool reports through the sharded {!Ufp_obs}
    registry — [pool.jobs] counts submissions and [pool.chunks] the
    indices run on a pool — and each worker merges its metrics shard
    at spawn ([Metrics.ensure_shard]), keeping the one-time
    registration CAS out of timed regions. See docs/OBSERVABILITY.md. *)

type t
(** A running pool. Owns [size - 1] worker domains (the caller is the
    remaining executor); reusable across any number of jobs until
    {!shutdown}.

    {b One job at a time}: a pool publishes a single job per
    submission — submitting from two domains concurrently, or
    re-entering the pool from inside a task closure ([f] calling
    [parallel_for] on the same pool), raises [Invalid_argument]
    instead of hiding one job from the workers. Submissions from
    different domains at different times are fine. Nested regions
    should pass [`Seq] for the inner one. *)

type choice = [ `Seq | `Pool of t ]
(** How to execute a parallel region: [`Seq] runs it inline on the
    calling domain (the default everywhere, keeping all existing
    traces and timings single-domain), [`Pool p] fans it out. *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns a pool with [domains] total executors
    (so [domains - 1] worker domains; [1] is a valid, worker-less
    pool). Default: {!Stdlib.Domain.recommended_domain_count}. Raises
    [Invalid_argument] when [domains < 1]. *)

val size : t -> int
(** Total executors (workers + the calling domain). *)

val shutdown : t -> unit
(** Join all workers. Idempotent; the pool must not be used afterwards
    (jobs submitted after shutdown raise [Invalid_argument]). Safe to
    call with no job in flight only — i.e. not from inside [f]. *)

val parallel_for : ?pool:choice -> n:int -> (int -> unit) -> unit
(** [parallel_for ~pool ~n f] runs [f 0 .. f (n-1)], each exactly
    once: every executor claims the next index from the job's cursor
    until none is left. The call returns when all [n] indices have
    completed. If any [f i] raises, the first exception (by completion
    order) is re-raised in the caller with its backtrace after
    in-flight indices have drained; indices not yet started are
    skipped. With [`Seq] (the default) this is a plain [for] loop.
    Raises [Invalid_argument] on concurrent or nested submission to
    the same pool. *)

val parallel_mapi : ?pool:choice -> n:int -> (int -> 'a) -> 'a array
(** [parallel_mapi ~pool ~n f] is [Array.init n f], fanned out like
    {!parallel_for}. Slot [i] holds [f i]; completion order never
    affects the contents. *)

val with_pool : ?domains:int -> (choice -> 'a) -> 'a
(** [with_pool f] runs [f (`Pool p)] with a freshly created pool and
    shuts it down afterwards, also on exception. *)

val with_jobs : int -> (choice -> 'a) -> 'a
(** [with_jobs jobs f]: the CLI-facing convenience. [jobs = 1] runs
    [f `Seq] with no pool at all; [jobs = 0] means
    [Domain.recommended_domain_count] (which may still be 1 → [`Seq]);
    [jobs >= 2] wraps {!with_pool} at that size. A negative count
    raises [Invalid_argument] naming the [--jobs] flag — it is always
    a caller mistake and must not silently degrade to sequential. *)

val jobs_from_env : ?default:int -> unit -> int
(** Read the [UFP_JOBS] environment variable (same semantics as the
    [ufp payments --jobs] flag: [0] = recommended domain count).
    Returns [default] (itself defaulting to [1]) when unset or not an
    integer at all; a {e parsed but negative} value raises
    [Invalid_argument] naming [UFP_JOBS] rather than being silently
    replaced. *)
