(** Phase profiler: per-phase wall-time and GC-allocation totals of
    the {!Trace} spans.

    {!Trace.with_span} folds each span into its phase (its name) as the
    span ends, so the profile counts every span that ended since the
    last [Trace.start] or [Trace.clear], however many events the trace
    ring kept. Nested spans split {e total} (inclusive) from {e self}
    (exclusive) time exactly, per recording domain — the pd loop's self
    time excludes the selector rebuilds it triggered, a payment's
    excludes the solves inside it. When the trace was started with
    [~gc:true] (the [--profile] path), GC word deltas attribute
    minor/promoted/major words the same way. Spans still open are not
    counted. See docs/OBSERVABILITY.md. *)

type phase = {
  p_name : string;  (** the span name *)
  p_count : int;  (** completed spans folded in *)
  p_total_ns : float;  (** wall time including children *)
  p_self_ns : float;  (** wall time excluding children *)
  p_minor_w : float;  (** minor words allocated, self *)
  p_promoted_w : float;  (** words promoted to the major heap, self *)
  p_major_w : float;  (** words allocated directly on the major heap,
                          self *)
}

type t = {
  phases : phase list;  (** sorted by self time, descending *)
  gc_sampled : bool;
      (** whether the trace was started with [~gc:true]; when false
          the word columns are all zero and the renderings say so *)
}

val of_trace : unit -> t
(** The phases folded since the last [Trace.start] or [Trace.clear].
    Run from the orchestrating domain once the traced work has joined
    (after [Trace.stop], say). *)

val to_table : ?title:string -> t -> Ufp_prelude.Table.t
(** One row per phase: count, total/self milliseconds, and (when
    sampled) self minor / major+promoted kilowords. *)

val to_json : t -> string
(** [{"schema": "ufp-profile/1", "gc_sampled": b, "phases": [...]}] —
    one object per phase with [total_ns]/[self_ns] and the three word
    deltas. *)

val save_json : string -> t -> unit
(** {!to_json} to a file, newline-terminated. *)

val json_float : float -> string
(** A float as a JSON value: [%.17g] when finite, else its hex form
    in quotes (JSON has no inf/nan). *)

(** {1 Folding}

    The tracer's side: both run inside its critical section. *)

val reset : gc:bool -> unit
(** Forget every folded span; [gc] is whether the spans folded next
    carry GC word deltas. [Trace.start] and [Trace.clear] call it. *)

val add_span : phase -> unit
(** Add one ended span (a [phase] whose [p_count] is 1) to its phase's
    totals. [Trace.with_span] calls it when the span ends. *)
