(* Tests for the observability layer (lib/obs/) and its laws.

   Unit coverage: registry idempotence and kind checking, snapshot
   diff/reset algebra, histogram bucketing, ring-buffer tracing, the
   balance guarantee of the JSONL exporter, and the profile's fold of
   every span as it ends.

   Laws (ISSUE 3):
     - determinism: two runs of Pd_engine.execute on the same instance
       produce structurally equal metric snapshots;
     - engine invariance (QCheck): runs on `Seq and on a `Pool agree
       exactly on the algorithm-level pd.* counters and on every
       selector.* and dijkstra.* counter except selector.par_rebuilds,
       which stays zero under `Seq and counts at most one cold-fill
       tree per selector group on a `Pool. *)

module Metrics = Ufp_obs.Metrics
module Trace = Ufp_obs.Trace
module Profile = Ufp_obs.Profile
module Instance = Ufp_instance.Instance
module Request = Ufp_instance.Request
module Gen = Ufp_graph.Generators
module Workloads = Ufp_instance.Workloads
module Pd_engine = Ufp_core.Pd_engine
module Bounded_ufp = Ufp_core.Bounded_ufp
module Repeat = Ufp_core.Bounded_ufp_repeat
module Baselines = Ufp_core.Baselines
module Rng = Ufp_prelude.Rng
module Float_tol = Ufp_prelude.Float_tol

let check_float = Alcotest.(check (float Float_tol.check_eps))

(* --- metrics unit tests --- *)

let test_registration_idempotent () =
  let a = Metrics.counter "test.idem" in
  let b = Metrics.counter "test.idem" in
  Metrics.incr a;
  Metrics.incr b;
  Alcotest.(check int) "same cell" 2 (Metrics.value a);
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Ufp_obs.Metrics: \"test.idem\" is already a counter")
    (fun () -> ignore (Metrics.histogram "test.idem"))

let test_counter_ops () =
  let c = Metrics.counter "test.counter_ops" in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "incr + add" 42 (Metrics.value c)

let test_histogram_buckets () =
  let h = Metrics.histogram "test.hist" in
  (* bucket 0 = [0,1), bucket 1 = [1,2), bucket 2 = [2,4), 3 = [4,8) *)
  List.iter (Metrics.observe h) [ 0.0; 0.5; 1.0; 1.9; 2.0; 3.0; 4.0; -1.0 ];
  let s = Metrics.snapshot () in
  let hs = List.assoc "test.hist" s.Metrics.histograms in
  Alcotest.(check int) "count" 8 hs.Metrics.h_count;
  check_float "sum" 11.4 hs.Metrics.h_sum;
  Alcotest.(check (list (pair int int)))
    "buckets" [ (0, 3); (1, 2); (2, 2); (3, 1) ] hs.Metrics.h_buckets;
  Alcotest.(check string) "label 0" "[0,1)" (Metrics.bucket_label 0);
  Alcotest.(check string) "label 2" "[2,4)" (Metrics.bucket_label 2)

(* NaN observations are quarantined in a dedicated cell: they must
   not poison the sum, the count, or any bucket, and the diff algebra
   must carry the quarantine count like any other cell. *)
let test_histogram_nan_quarantine () =
  let h = Metrics.histogram "test.hist_nan" in
  List.iter (Metrics.observe h) [ 1.0; Float.nan; 2.0; Float.nan; Float.nan ];
  let s = Metrics.snapshot () in
  let hs = List.assoc "test.hist_nan" s.Metrics.histograms in
  Alcotest.(check int) "count excludes NaN" 2 hs.Metrics.h_count;
  check_float "sum excludes NaN" 3.0 hs.Metrics.h_sum;
  Alcotest.(check int) "NaNs quarantined" 3 hs.Metrics.h_nan;
  Alcotest.(check (list (pair int int)))
    "buckets exclude NaN" [ (1, 1); (2, 1) ] hs.Metrics.h_buckets;
  let before = Metrics.snapshot () in
  Metrics.observe h Float.nan;
  Metrics.observe h 8.0;
  let delta = Metrics.diff before (Metrics.snapshot ()) in
  let dh = List.assoc "test.hist_nan" delta.Metrics.histograms in
  Alcotest.(check int) "diff isolates the window's NaN" 1 dh.Metrics.h_nan;
  Alcotest.(check int) "diff counts only the real sample" 1 dh.Metrics.h_count

let test_snapshot_diff_reset () =
  let c = Metrics.counter "test.diff" in
  Metrics.incr c;
  let before = Metrics.snapshot () in
  Metrics.add c 5;
  let delta = Metrics.diff before (Metrics.snapshot ()) in
  Alcotest.(check int) "delta counts the window only" 5
    (List.assoc "test.diff" delta.Metrics.counters);
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.value c);
  let s = Metrics.snapshot () in
  Alcotest.(check int) "still registered" 0
    (List.assoc "test.diff" s.Metrics.counters)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let test_renderings () =
  Metrics.reset ();
  let c = Metrics.counter "test.render" in
  Metrics.add c 7;
  let s = Metrics.snapshot () in
  let json = Metrics.to_json s in
  Alcotest.(check bool) "json mentions the counter" true
    (contains json "\"test.render\": 7");
  let table = Metrics.to_table ~title:"t" s in
  Alcotest.(check string) "table titled" "t" (Ufp_prelude.Table.title table);
  let hq = Metrics.histogram "test.render_nan" in
  Metrics.observe hq Float.nan;
  let s = Metrics.snapshot () in
  let md = Ufp_prelude.Table.to_markdown (Metrics.to_table ~title:"t" s) in
  Alcotest.(check bool) "table surfaces the quarantine" true
    (contains md "nan=1");
  Alcotest.(check bool) "json carries the quarantine" true
    (contains (Metrics.to_json s) "\"nan\": 1")

(* --- trace unit tests --- *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let count_phase lines ph =
  List.length
    (List.filter (fun l -> contains l (Printf.sprintf "\"ph\": \"%s\"" ph)) lines)

let test_trace_off_by_default () =
  Trace.stop ();
  Alcotest.(check bool) "off" false (Trace.is_on ());
  Trace.instant "ignored";
  Alcotest.(check int) "nothing recorded" 0 (Trace.n_events ());
  Alcotest.(check int) "with_span still runs f" 3
    (Trace.with_span "ignored" (fun () -> 3))

let test_trace_spans_balance () =
  Trace.start ();
  Trace.with_span "outer" (fun () ->
      Trace.instant "tick";
      Trace.with_span "inner" (fun () -> ()));
  (try Trace.with_span "raises" (fun () -> failwith "boom") with Failure _ -> ());
  Trace.stop ();
  Alcotest.(check int) "2 B + 2 E + 1 i + 1 B/E pair" 7 (Trace.n_events ());
  let path = Filename.temp_file "ufp-test-trace" ".jsonl" in
  Trace.save_jsonl path;
  let lines =
    List.filter (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (read_file path))
  in
  Sys.remove path;
  Alcotest.(check int) "7 lines" 7 (List.length lines);
  Alcotest.(check int) "begins" 3 (count_phase lines "B");
  Alcotest.(check int) "ends match" 3 (count_phase lines "E");
  Alcotest.(check int) "instants" 1 (count_phase lines "i");
  Trace.clear ()

let test_trace_ring_overflow_stays_balanced () =
  Trace.start ~capacity:8 ();
  for _ = 1 to 20 do
    Trace.with_span "span" (fun () -> ())
  done;
  Trace.stop ();
  Alcotest.(check int) "ring full" 8 (Trace.n_events ());
  Alcotest.(check bool) "drops counted" true (Trace.n_dropped () > 0);
  let path = Filename.temp_file "ufp-test-ring" ".jsonl" in
  Trace.save_jsonl path;
  let lines =
    List.filter (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (read_file path))
  in
  Sys.remove path;
  (* The exporter must skip any E whose B was overwritten. *)
  Alcotest.(check int) "balanced after wrap" (count_phase lines "B")
    (count_phase lines "E");
  Trace.clear ()

(* --- profiler unit tests --- *)

(* Nested spans fold into self-vs-total exactly: the outer phase's
   self time excludes the inner span it wraps, and with [~gc:true]
   the allocation columns attribute the same way. *)
let test_profile_phases () =
  (* Small arrays, many times: minor-heap allocations, so the minor
     word columns are exercised (one big array would go straight to
     the major heap). *)
  let churn () =
    for _ = 1 to 200 do
      ignore (Sys.opaque_identity (Array.make 100 0.0))
    done
  in
  Trace.start ~gc:true ();
  Trace.with_span "prof.outer" (fun () ->
      churn ();
      Trace.with_span "prof.inner" (fun () -> churn ()));
  Trace.with_span "prof.outer" (fun () -> ());
  Trace.stop ();
  let p = Profile.of_trace () in
  Trace.clear ();
  Alcotest.(check bool) "gc sampled" true p.Profile.gc_sampled;
  let find name =
    List.find (fun ph -> ph.Profile.p_name = name) p.Profile.phases
  in
  let outer = find "prof.outer" and inner = find "prof.inner" in
  Alcotest.(check int) "outer folded both spans" 2 outer.Profile.p_count;
  Alcotest.(check int) "inner folded once" 1 inner.Profile.p_count;
  Alcotest.(check bool) "self excludes the child" true
    (outer.Profile.p_self_ns <= outer.Profile.p_total_ns);
  Alcotest.(check bool) "outer total covers the inner span" true
    (outer.Profile.p_total_ns >= inner.Profile.p_total_ns);
  Alcotest.(check bool) "inner allocation not billed to outer self" true
    (inner.Profile.p_minor_w > 0.0);
  let json = Profile.to_json p in
  Alcotest.(check bool) "schema stamped" true
    (contains json "\"schema\": \"ufp-profile/1\"");
  Alcotest.(check bool) "gc flag serialized" true
    (contains json "\"gc_sampled\": true");
  let table = Profile.to_table ~title:"p" p in
  Alcotest.(check string) "table titled" "p" (Ufp_prelude.Table.title table)

(* Without [~gc:true] the profiler still folds wall time but must say
   the allocation columns are not sampled. *)
let test_profile_without_gc () =
  Trace.start ();
  Trace.with_span "prof.plain" (fun () -> ());
  Trace.stop ();
  let p = Profile.of_trace () in
  Trace.clear ();
  Alcotest.(check bool) "gc not sampled" false p.Profile.gc_sampled;
  let ph = List.find (fun ph -> ph.Profile.p_name = "prof.plain") p.Profile.phases in
  check_float "no words attributed" 0.0 ph.Profile.p_minor_w

(* Spans are folded as they end, so the profile counts spans the ring
   overwrote long ago: 4,000 nested spans from two pool tasks pass
   through a 64-event ring. Each domain's self amounts stay net of the
   spans it nests, whichever domain ran which task. *)
let test_profile_outlives_the_ring () =
  let per_task = 1000 in
  let churn () =
    for _ = 1 to 50 do
      ignore (Sys.opaque_identity (Array.make 100 0.0))
    done
  in
  Trace.start ~capacity:64 ~gc:true ();
  Ufp_par.Pool.with_pool ~domains:2 (fun pool ->
      Ufp_par.Pool.parallel_for ~pool ~n:2 (fun _ ->
          for _ = 1 to per_task do
            Trace.with_span "ring.outer" (fun () ->
                Trace.with_span "ring.inner" churn)
          done));
  Trace.stop ();
  let p = Profile.of_trace () and dropped = Trace.n_dropped () in
  Trace.clear ();
  let find name =
    List.find (fun ph -> ph.Profile.p_name = name) p.Profile.phases
  in
  let outer = find "ring.outer" and inner = find "ring.inner" in
  Alcotest.(check int) "every outer span" (2 * per_task) outer.Profile.p_count;
  Alcotest.(check int) "every inner span" (2 * per_task) inner.Profile.p_count;
  List.iter
    (fun ph ->
      Alcotest.(check bool) (ph.Profile.p_name ^ " self <= total") true
        (ph.Profile.p_self_ns <= ph.Profile.p_total_ns))
    [ outer; inner ];
  Alcotest.(check bool) "inner words not billed to outer self" true
    (outer.Profile.p_minor_w < inner.Profile.p_minor_w /. 10.0);
  Alcotest.(check bool) "the ring still drops" true (dropped > 0)

(* A span's GC words are its own domain's: a span that waits for
   another domain to allocate a million-float array (8 MB, straight to
   the major heap) is billed none of those words. A process-wide
   reader would bill the span the whole array. *)
let test_profile_gc_per_domain () =
  let words = 1_000_000 in
  Trace.start ~gc:true ();
  Trace.with_span "prof.waits" (fun () ->
      Domain.join
        ((Domain.spawn [@lint.allow "R6" "the test needs a domain that \
           allocates outside any span; a pool task would run inside the \
           waiting span on this domain"])
           (fun () -> ignore (Sys.opaque_identity (Array.make words 0.0)))));
  Trace.stop ();
  let p = Profile.of_trace () in
  Trace.clear ();
  let ph = List.find (fun ph -> ph.Profile.p_name = "prof.waits") p.Profile.phases in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major words billed, not the other domain's %d"
       ph.Profile.p_major_w words)
    true
    (ph.Profile.p_major_w < float_of_int words /. 100.0)

(* --- domain safety (the Ufp_par contract) --- *)

module Pool = Ufp_par.Pool

(* Counter and histogram updates racing from 3 domains must lose
   nothing: each domain writes its own shard, and snapshots sum the
   shards' integer cells exactly. *)
let test_metrics_domain_safe () =
  let c = Metrics.counter "test.par_counter" in
  let h = Metrics.histogram "test.par_hist" in
  let before_c = Metrics.value c in
  let before_h =
    (List.assoc "test.par_hist" (Metrics.snapshot ()).Metrics.histograms)
      .Metrics.h_count
  in
  let n = 3000 in
  Pool.with_pool ~domains:3 (fun pool ->
      Pool.parallel_for ~pool ~n (fun i ->
          Metrics.incr c;
          Metrics.observe h (float_of_int (i mod 5))));
  Alcotest.(check int) "no lost increments" (before_c + n) (Metrics.value c);
  let hs = List.assoc "test.par_hist" (Metrics.snapshot ()).Metrics.histograms in
  Alcotest.(check int) "no lost observations" (before_h + n) hs.Metrics.h_count

(* --- the sharded-envelope law (QCheck) ---

   A snapshot taken WHILE writer tasks hammer a sharded counter may
   straggle — per-domain cells are plain stores — but it must never
   leave the [writes finished, writes started] envelope, and
   successive totals seen by one reader must be monotone (shard cells
   are coherent and only ever incremented).  After the pool joins,
   the total is exact: the pool's completion Atomics give the
   coordinating domain happens-before over every shard store.  One
   pool task snapshots in a loop; the envelope bounds are Atomics
   bumped around each write.  The reader's loop is capped at
   [envelope_cap_s] seconds: an executor runs one claimed task at a
   time, so a pool that left the reader and a writer to one executor
   would have the writer wait behind a reader waiting for it.  The cap
   turns that hang into a failure of the law. *)
let envelope_cap_s = 10.0

let envelope_law =
  QCheck.Test.make ~count:8
    ~name:"concurrent snapshots stay inside the write envelope"
    QCheck.(pair (int_range 200 2000) (int_range 1 3))
    (fun (per_task, writers) ->
      let c = Metrics.counter "test.envelope" in
      let base = Metrics.value c in
      let started = Atomic.make 0 and finished = Atomic.make 0 in
      let writers_done = Atomic.make 0 in
      let violations = Atomic.make 0 in
      (* Writers finished when the reader hit its cap; -1 = never. *)
      let capped_at = Atomic.make (-1) in
      let last = Atomic.make 0 in
      Pool.with_pool ~domains:2 (fun pool ->
          ignore
            (* Executors claim one task at a time, so the reader task
               never shares a claim with a writer it would then
               spin-wait on. *)
            (Pool.parallel_mapi ~pool ~n:(writers + 1) (fun task ->
                 if task = 0 then begin
                   (* Reader: snapshot until every writer has joined.
                      With 2 pool participants the writer tasks drain
                      on the other domain, well inside the cap. *)
                   let deadline = Unix.gettimeofday () +. envelope_cap_s in
                   while
                     Atomic.get writers_done < writers
                     && Atomic.get capped_at < 0
                   do
                     let lo = Atomic.get finished in
                     let s = Metrics.snapshot () in
                     let hi = Atomic.get started in
                     let total =
                       List.assoc "test.envelope" s.Metrics.counters - base
                     in
                     if total < lo || total > hi then Atomic.incr violations;
                     if total < Atomic.get last then Atomic.incr violations;
                     Atomic.set last total;
                     if Unix.gettimeofday () > deadline then
                       Atomic.set capped_at (Atomic.get writers_done);
                     Domain.cpu_relax ()
                   done
                 end
                 else begin
                   for _ = 1 to per_task do
                     Atomic.incr started;
                     Metrics.incr c;
                     Atomic.incr finished
                   done;
                   Atomic.incr writers_done
                 end)));
      if Atomic.get capped_at >= 0 then
        QCheck.Test.fail_reportf
          "the reader hit its %.0f s cap with %d of %d writers finished"
          envelope_cap_s (Atomic.get capped_at) writers;
      if Atomic.get violations > 0 then
        QCheck.Test.fail_reportf "%d envelope violations"
          (Atomic.get violations);
      (* Post-join exactness: nothing lost, nothing duplicated. *)
      if Metrics.value c - base <> writers * per_task then
        QCheck.Test.fail_reportf "post-join total %d, wanted %d"
          (Metrics.value c - base) (writers * per_task);
      true)

(* Concurrent spans from several domains: every event carries its
   recording domain's tid, the export balances per tid, and the
   locked timestamping keeps ts globally monotone. *)
let test_trace_domain_safe () =
  Trace.start ();
  Pool.with_pool ~domains:3 (fun pool ->
      Pool.parallel_for ~pool ~n:60 (fun i ->
          Trace.with_span "par.outer" (fun () ->
              Trace.instant "par.tick";
              Trace.with_span "par.inner" (fun () -> ignore (i * i)))));
  Trace.stop ();
  Alcotest.(check int) "5 events per index" (60 * 5) (Trace.n_events ());
  let path = Filename.temp_file "ufp-test-par-trace" ".jsonl" in
  Trace.save_jsonl path;
  let lines =
    List.filter (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (read_file path))
  in
  Sys.remove path;
  Trace.clear ();
  Alcotest.(check int) "all events exported" (60 * 5) (List.length lines);
  Alcotest.(check int) "balanced" (count_phase lines "B") (count_phase lines "E");
  (* Depth per tid, and global ts monotonicity, exactly what
     bin/trace_check.ml enforces on the CLI path. *)
  let depths = Hashtbl.create 8 in
  let last_ts = ref neg_infinity in
  List.iter
    (fun line ->
      let field key =
        match String.index_opt line ':' with
        | None -> None
        | Some _ ->
          let marker = Printf.sprintf "\"%s\": " key in
          let rec find from =
            if from + String.length marker > String.length line then None
            else if String.sub line from (String.length marker) = marker then
              Some (from + String.length marker)
            else find (from + 1)
          in
          find 0
      in
      let num_at pos =
        let stop = ref pos in
        while
          !stop < String.length line
          && (match line.[!stop] with
             | '0' .. '9' | '.' | '-' | 'e' -> true
             | _ -> false)
        do
          incr stop
        done;
        float_of_string (String.sub line pos (!stop - pos))
      in
      let tid =
        match field "tid" with
        | Some pos -> int_of_float (num_at pos)
        | None -> Alcotest.fail "event without tid"
      in
      let ts =
        match field "ts" with
        | Some pos -> num_at pos
        | None -> Alcotest.fail "event without ts"
      in
      if ts < !last_ts then Alcotest.fail "ts regressed across domains";
      last_ts := ts;
      let d = Option.value ~default:0 (Hashtbl.find_opt depths tid) in
      if contains line "\"ph\": \"B\"" then Hashtbl.replace depths tid (d + 1)
      else if contains line "\"ph\": \"E\"" then begin
        if d = 0 then Alcotest.fail "unmatched E on a tid";
        Hashtbl.replace depths tid (d - 1)
      end)
    lines;
  Hashtbl.iter
    (fun tid d ->
      if d <> 0 then Alcotest.failf "tid %d left %d spans open" tid d)
    depths

(* --- the determinism law --- *)

let grid_instance ~rows ~cols ~capacity ~count seed =
  let rng = Rng.create seed in
  let g = Gen.grid ~rows ~cols ~capacity in
  Instance.create g (Workloads.random_requests rng g ~count ())

let snapshot_of_run ?(pool = `Seq) config inst =
  Metrics.reset ();
  let run = Pd_engine.execute ~pool config inst in
  (Metrics.snapshot (), run)

let test_metrics_deterministic () =
  let inst = grid_instance ~rows:5 ~cols:5 ~capacity:45.0 ~count:60 7 in
  let config = Pd_engine.algorithm_1 ~eps:0.3 ~b:45.0 in
  let s1, r1 = snapshot_of_run config inst in
  let s2, r2 = snapshot_of_run config inst in
  Alcotest.(check bool) "same solution" true
    (r1.Pd_engine.solution = r2.Pd_engine.solution);
  Alcotest.(check bool) "identical snapshots" true (s1 = s2)

(* --- wrapper spans: the engine records inside its caller's span --- *)

(* A traced run of a primal-dual wrapper records exactly one span of
   its own, every pd.select instant of the engine lies inside it, and
   the engine opens no pd.execute span: profile self time lands on the
   wrapper span (the layer row perfbench reads as bounded_ufp.self_s). *)
let test_wrapper_span span solve () =
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:20.0 ~count:12 5 in
  Trace.start ();
  solve inst;
  Trace.stop ();
  let spans = ref [] and opened = ref None in
  let selects = ref [] and engine_spans = ref 0 in
  Trace.iter_events (fun ev ->
      let name = ev.Trace.ev_name in
      if name = "pd.execute" then incr engine_spans
      else if name = "pd.select" then selects := ev.Trace.ev_ts :: !selects
      else if name = span then
        match (ev.Trace.ev_ph, !opened) with
        | 'B', _ -> opened := Some ev.Trace.ev_ts
        | 'E', Some b ->
          spans := (b, ev.Trace.ev_ts) :: !spans;
          opened := None
        | _ -> ());
  Trace.clear ();
  Alcotest.(check int) ("one " ^ span ^ " span") 1 (List.length !spans);
  Alcotest.(check int) "no pd.execute span" 0 !engine_spans;
  Alcotest.(check bool) "the run selected something" true (!selects <> []);
  let b, e = List.hd !spans in
  Alcotest.(check bool) "every pd.select inside the span" true
    (List.for_all
       (fun ts -> Int64.compare b ts <= 0 && Int64.compare ts e <= 0)
       !selects)

(* --- the engine-invariance law (QCheck) --- *)

(* pd.* is decided by the algorithm. A pool builds only the cold-fill
   trees the first select would build lazily anyway, so the selector's
   cache economics and the Dijkstra work are the same too; only
   selector.par_rebuilds says where the cold fill ran. *)
let has_prefix p name =
  String.length name >= String.length p
  && String.sub name 0 (String.length p) = p

let exact_work snapshot =
  List.filter
    (fun (n, _) ->
      (has_prefix "pd." n || has_prefix "selector." n || has_prefix "dijkstra." n)
      && n <> "selector.par_rebuilds")
    snapshot.Metrics.counters

(* The number of selector groups: one per source, or per (source,
   demand) when residual filtering makes weights read the demand. *)
let n_groups config inst =
  let key r =
    ( r.Request.src,
      if config.Pd_engine.respect_residual then r.Request.demand else 0.0 )
  in
  List.length
    (List.sort_uniq compare (List.map key (Array.to_list (Instance.requests inst))))

let engine_agreement_law =
  QCheck.Test.make ~count:300
    ~name:"engines agree on pd.* metrics across `Seq and `Pool"
    (* No shrinking: int shrinks leave the 3..5 grid range. *)
    QCheck.(
      set_shrink Shrink.nil
        (quad (int_range 3 5) (int_range 3 5) (int_range 1 1000) (int_range 0 2)))
    (fun (rows, cols, seed, rule) ->
      let m = (rows * (cols - 1)) + (cols * (rows - 1)) in
      let eps = 0.3 in
      let capacity = Float.ceil (log (float_of_int m) /. (eps *. eps)) in
      let inst = grid_instance ~rows ~cols ~capacity ~count:25 seed in
      (* Algorithm 3 stops only on its budget; capping it at 2m (the
         duals start at D1 = m) keeps the with-repetitions run short. *)
      let label, config =
        match rule with
        | 0 -> ("algorithm_1", Pd_engine.algorithm_1 ~eps ~b:capacity)
        | 1 -> ("threshold_rule", Pd_engine.threshold_rule ~eps ~b:capacity)
        | _ ->
          ( "algorithm_3",
            {
              (Pd_engine.algorithm_3 ~eps ~b:capacity) with
              Pd_engine.stop = Pd_engine.Budget (2.0 *. float_of_int m);
            } )
      in
      Pool.with_pool ~domains:2 (fun pool ->
          let s_seq, r_seq = snapshot_of_run config inst in
          let s_pool, r_pool = snapshot_of_run ~pool config inst in
          let counter name s = List.assoc name s.Metrics.counters in
          if r_pool.Pd_engine.solution <> r_seq.Pd_engine.solution then
            QCheck.Test.fail_reportf "%s: solutions differ" label;
          List.iter2
            (fun (name, v_seq) (_, v_pool) ->
              if v_pool <> v_seq then
                QCheck.Test.fail_reportf "%s: %s is %d under `Seq, %d on a pool"
                  label name v_seq v_pool)
            (exact_work s_seq) (exact_work s_pool);
          if
            List.assoc "pd.path_edges" s_pool.Metrics.histograms
            <> List.assoc "pd.path_edges" s_seq.Metrics.histograms
          then QCheck.Test.fail_reportf "%s: pd.path_edges differs" label;
          (* Selection goes through the candidate heap, pooled or not. *)
          List.iter
            (fun (mode, s, r) ->
              if r.Pd_engine.iterations > 0 && counter "selector.heap_pops" s = 0
              then QCheck.Test.fail_reportf "%s: %s run bypassed the heap" label mode)
            [ ("seq", s_seq, r_seq); ("pool", s_pool, r_pool) ];
          (* selector.par_rebuilds accounts only the pooled cold fill. *)
          if counter "selector.par_rebuilds" s_seq <> 0 then
            QCheck.Test.fail_reportf "%s: seq run counted par_rebuilds" label;
          let par = counter "selector.par_rebuilds" s_pool in
          if par < 1 || par > n_groups config inst then
            QCheck.Test.fail_reportf "%s: %d pooled rebuilds for %d groups"
              label par (n_groups config inst);
          true))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "registration idempotent" `Quick
            test_registration_idempotent;
          Alcotest.test_case "counter ops" `Quick test_counter_ops;
          Alcotest.test_case "histogram bucketing" `Quick test_histogram_buckets;
          Alcotest.test_case "NaN observations quarantined" `Quick
            test_histogram_nan_quarantine;
          Alcotest.test_case "snapshot diff and reset" `Quick
            test_snapshot_diff_reset;
          Alcotest.test_case "table and json renderings" `Quick test_renderings;
        ] );
      ( "trace",
        [
          Alcotest.test_case "off by default" `Quick test_trace_off_by_default;
          Alcotest.test_case "spans balance in export" `Quick
            test_trace_spans_balance;
          Alcotest.test_case "ring overflow stays balanced" `Quick
            test_trace_ring_overflow_stays_balanced;
          Alcotest.test_case "bounded_ufp.run span encloses the loop" `Quick
            (test_wrapper_span "bounded_ufp.run" (fun inst ->
                 ignore (Bounded_ufp.run ~eps:0.3 inst)));
          Alcotest.test_case "bounded_ufp_repeat.run span encloses the loop"
            `Quick
            (test_wrapper_span "bounded_ufp_repeat.run" (fun inst ->
                 ignore (Repeat.run ~eps:0.3 inst)));
          Alcotest.test_case "baselines.threshold_pd span encloses the loop"
            `Quick
            (test_wrapper_span "baselines.threshold_pd" (fun inst ->
                 ignore (Baselines.threshold_pd ~eps:0.3 inst)));
        ] );
      ( "profile",
        [
          Alcotest.test_case "nested spans split self from total" `Quick
            test_profile_phases;
          Alcotest.test_case "gc columns honest when unsampled" `Quick
            test_profile_without_gc;
          Alcotest.test_case "every span counted past the ring" `Quick
            test_profile_outlives_the_ring;
          Alcotest.test_case "gc words are the span's own domain's" `Quick
            test_profile_gc_per_domain;
        ] );
      ( "domain-safety",
        [
          Alcotest.test_case "metrics lose no updates across domains" `Quick
            test_metrics_domain_safe;
          Alcotest.test_case "trace tags and balances per domain" `Quick
            test_trace_domain_safe;
          QCheck_alcotest.to_alcotest envelope_law;
        ] );
      ( "laws",
        [
          Alcotest.test_case "metric snapshots are deterministic" `Quick
            test_metrics_deterministic;
          QCheck_alcotest.to_alcotest engine_agreement_law;
        ] );
    ]
