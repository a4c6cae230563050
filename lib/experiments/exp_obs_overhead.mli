(** EXP-OBS-OVERHEAD — what the observability layer costs.

    Runs [Bounded-UFP] on the EXP-PERF grid workload in three tracer
    modes per size: with the {!Ufp_obs.Trace} sink off (the production
    default — metric counters still increment, since they are
    unconditional single stores), with the ring-buffer tracer
    recording, and with the tracer also sampling GC words for the
    profiler ([--profile]). The modes alternate for 30 rounds (5 under
    [~quick]); each mode reports its minimum wall time, and each
    recording mode its overhead over the off mode, with the recorded
    event count. This experiment keeps the "observability is
    effectively free when disabled" claim of docs/OBSERVABILITY.md
    honest and measures the per-span budget of ROADMAP item 1. *)

val run : ?quick:bool -> unit -> Ufp_prelude.Table.t list
