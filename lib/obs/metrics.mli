(** The process-wide metrics registry: named counters and log-scale
    histograms with O(1) hot-path updates, sharded per
    domain.

    The primal-dual pipeline (Dijkstra relaxations, selector cache
    traffic, dual inflations, payment probes) reports its work through
    metrics declared here; the CLI ([--metrics]), the experiment
    harness and the benchmark driver read them back as snapshot
    deltas. See docs/OBSERVABILITY.md for the metric catalogue and the
    sharding design.

    Design constraints, in order:

    + {b Hot-path updates are plain stores into a domain-private
      shard} — a counter increment is one domain-local-storage lookup
      plus one unsynchronized array store: no RMW, no shared cache
      line, no branch beyond a bounds check, no allocation — so
      instrumentation can live on solver hot paths without measurable
      cost (EXP-OBS-OVERHEAD and the [counter-incr-*] bechamel micros
      keep this honest). The innermost loop still keeps even that
      lookup out: the Dijkstra kernel counts in locals and {!add}s
      its settled and relaxation counts once per tree.
    + {b Updates are domain-safe by construction}: each domain writes
      only its own shard; totals are folded over the shard list at
      read time. Integer cells sum exactly, so counter totals are
      bitwise independent of how updates were distributed across
      domains; a histogram's float sum is exact only while its
      samples and their sum are integers below 2{^53} (the counts the
      engines observe are). See docs/PARALLELISM.md.
    + {b Registration is idempotent by name}: [counter "pd.iterations"]
      returns the same slot from every module, so each layer declares
      its own catalogue where it does the work (the [pd.*] counters in
      [Pd_engine], the one primal-dual loop) with no central file.
    + {b Snapshots are pure data, sorted by name} — two runs of a
      deterministic algorithm produce structurally equal snapshots
      (test_obs.ml enforces this as a law; the fixed shard-list fold
      order keeps float totals reproducible).

    Registration, {!snapshot}, {!diff} and {!reset} belong to the
    orchestrating (main) domain: slots are declared at module-init
    time and exact snapshots are taken around parallel regions. A
    snapshot taken {e inside} a parallel region is safe and never
    tears a cell, but each racing counter reads somewhere between the
    updates that finished and the ones that started — the envelope law
    in test_obs.ml. Only the update primitives
    ([incr]/[add]/[observe]) may race freely. *)

type counter
(** A monotone integer event count (e.g. heap pushes). *)

type histogram
(** A base-2 log-scale histogram: bucket 0 holds values in [[0, 1)],
    bucket [k >= 1] holds [[2^(k-1), 2^k)]. Observation is O(1) via
    [Float.frexp]. *)

val counter : string -> counter
(** [counter name] returns the registered counter of that [name],
    creating it at zero on first use. Raises [Invalid_argument] if the
    name is already registered as a different metric kind. *)

val histogram : string -> histogram
(** Same, for histograms. *)

val incr : counter -> unit
(** Add one. The hot-path primitive: a plain store into the calling
    domain's shard. *)

val add : counter -> int -> unit
(** Add [n] (an O(1) bulk form for per-run totals). *)

val value : counter -> int
(** Fold the counter's slot over every shard. Exact once the writers
    have synchronized with the reader (pool join / [Pool.run]
    return). *)

val observe : histogram -> float -> unit
(** Record one sample. Negative samples land in bucket 0. NaN samples
    are counted in a dedicated cell ({!hist_snapshot.h_nan}) and
    excluded from the count, the buckets and the sum, so they cannot
    skew the mean. *)

val ensure_shard : unit -> unit
(** Force the calling domain's shard to exist and be merged into the
    registry. Updates do this implicitly; pool workers call it once at
    spawn so the one-time shard registration (a CAS push) never lands
    inside a timed region. *)

(** {1 Snapshots} *)

type hist_snapshot = {
  h_count : int;  (** number of finite samples (NaNs excluded) *)
  h_sum : float;  (** sum of finite samples *)
  h_nan : int;  (** NaN samples, quarantined *)
  h_buckets : (int * int) list;
      (** (bucket index, count), nonzero buckets only, increasing index *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  histograms : (string * hist_snapshot) list;  (** sorted by name *)
}
(** An immutable copy of every registered metric, aggregated over all
    shards. Structural equality on snapshots is meaningful (and is
    what the determinism law in test_obs.ml checks). *)

val snapshot : unit -> snapshot

val diff : snapshot -> snapshot -> snapshot
(** [diff before after] subtracts pointwise: the work performed
    between the two snapshots. Metrics registered only in [after]
    count from zero. *)

val reset : unit -> unit
(** Zero every registered metric in every shard (the slots stay
    registered). A quiescent-moment operation. *)

val bucket_label : int -> string
(** ["[0,1)"], ["[1,2)"], ["[2,4)"], ... — the value range of a
    histogram bucket index. *)

val to_table : ?title:string -> snapshot -> Ufp_prelude.Table.t
(** Render as a fixed-width table (columns metric/type/value);
    histograms get one summary row plus one row per nonzero bucket.
    Zero-valued counters are kept — the catalogue itself is
    information. *)

val to_json : snapshot -> string
(** Self-contained JSON object [{"counters": {..}, "histograms": {..}}];
    histogram values are
    [{"count": n, "sum": s, "nan": k, "buckets": {"[2^k,2^k+1)": c}}]. *)
