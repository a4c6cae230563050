(** Monotonic-clock span tracing for the primal-dual pipeline.

    Spans ([begin]/[end] pairs around a solver phase) and point events
    are recorded into an in-memory ring buffer and exported as Chrome
    [trace_event] JSONL — one JSON object per line, phases [B]/[E]/[i]
    with microsecond timestamps — loadable in [chrome://tracing] and
    {{:https://ui.perfetto.dev}Perfetto}. See docs/OBSERVABILITY.md.

    {b The default sink is off}: every recording entry point first
    reads one mutable boolean, so a disabled tracer costs a load and a
    branch per call site — cheap enough to leave [with_span]/[instant]
    in the per-iteration solver loops unconditionally
    (EXP-OBS-OVERHEAD measures the enabled and disabled modes).

    Timestamps come from the CLOCK_MONOTONIC nanosecond clock
    (bechamel's [Monotonic_clock]), so spans are immune to wall-clock
    steps. The ring buffer overwrites its oldest events when full; the
    exporter drops orphaned [E] events whose [B] was overwritten, so
    the output is always balanced ([bin/trace_check.ml] verifies
    this). The ring serves the export alone: each span is folded into
    {!Profile}'s per-phase totals as it ends, so the profile counts
    every span whatever the ring kept.

    {b Domain safety}: the tracer is process-global and domain-safe.
    Appends are serialised by an internal lock (the parallel payment
    engine, [ufp payments --jobs N], records spans from several
    domains at once), and each event is tagged with the recording
    domain's id, exported as the Chrome [tid] — so concurrent spans
    land on separate tracks, nest correctly per track, and the
    exported stream stays balanced {e per tid}. Timestamps are taken
    under the same lock, so the exported stream is globally monotone
    in [ts] even across domains, and a span's end is folded into the
    profile in the same critical section: one lock per event.
    [start]/[stop]/[clear] and the export functions belong to the
    orchestrating domain, outside any parallel region and any open
    span. See docs/PARALLELISM.md. *)

type arg = Int of int | Float of float | Str of string
(** Typed span/event argument, rendered into the Chrome [args]
    object. *)

type event = {
  ev_name : string;
  ev_ph : char;  (** ['B'] begin, ['E'] end, ['i'] instant *)
  ev_ts : int64;  (** CLOCK_MONOTONIC nanoseconds *)
  ev_tid : int;  (** recording domain id *)
  ev_args : (string * arg) list;
}
(** A retained ring-buffer event, as read by {!iter_events}. *)

val is_on : unit -> bool
(** Whether a recording sink is installed. Use to guard argument-list
    construction at hot call sites; the recording functions check it
    again themselves. *)

val start : ?capacity:int -> ?gc:bool -> unit -> unit
(** Install the ring-buffer sink, clearing any previous buffer and
    the profile's totals. [capacity] is the maximum retained event
    count (default 65536; oldest events are overwritten beyond that).
    When [gc] is true (default false) every span's begin and end also
    read the calling domain's GC word counters ([Gc.minor_words],
    [Gc.counters]: tens of nanoseconds, and never another domain's
    words), feeding the profiler's allocation attribution; it is
    opt-in via [--profile]. *)

val stop : unit -> unit
(** Return to the no-op sink. The recorded buffer is kept until the
    next {!start} or {!clear}, so exporting after [stop] is valid. *)

val clear : unit -> unit
(** Drop all recorded events and the profile's totals (the sink state
    is unchanged). *)

val with_span : ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] records a [B] event, runs [f], and records the
    matching [E] event — also on exception — folding the span into
    its phase of the profile. When tracing is off this is just
    [f ()]. *)

val instant : ?args:(string * arg) list -> string -> unit
(** Record a point event (phase [i]). No-op when tracing is off. *)

val n_events : unit -> int
(** Events currently retained in the ring. *)

val n_dropped : unit -> int
(** Events overwritten since the last {!start}/{!clear}. *)

val iter_events : (event -> unit) -> unit
(** Fold the retained events, oldest first. Raw ring order: after a
    wrap-around the stream may open with [E] events whose [B] was
    overwritten (the JSONL exporter skips those). Belongs to the
    orchestrating domain, after [stop]. *)

val export_jsonl : out_channel -> unit
(** Write the retained events, oldest first, one Chrome [trace_event]
    JSON object per line. Orphaned [E] events (begin overwritten by
    ring wrap-around) are skipped {e per tid} so begins and ends
    always balance on every track; timestamps are microseconds
    relative to the first retained event. *)

val save_jsonl : string -> unit
(** {!export_jsonl} to a file. *)

val json_escape : string -> string
(** The body of a JSON string literal: quotes, backslashes and control
    characters escaped. *)
