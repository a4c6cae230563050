(** EXP-OBS-OVERHEAD — what the observability layer costs.

    Runs [Bounded-UFP] on the EXP-PERF grid workload twice
    per size: once with the {!Ufp_obs.Trace} sink off (the production
    default — metric counters still increment, since they are
    unconditional single stores) and once with the ring-buffer tracer
    recording.  Reports both wall times, the relative overhead, and
    the recorded event count.  This experiment keeps the
    "observability is effectively free when disabled" claim of
    docs/OBSERVABILITY.md honest. *)

val run : ?quick:bool -> unit -> Ufp_prelude.Table.t list
