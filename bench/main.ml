(* Benchmark harness: regenerates every table/figure of the paper
   (see DESIGN.md section 4 and EXPERIMENTS.md) and runs bechamel
   micro-benchmarks of the computational kernels.

   Usage:
     dune exec bench/main.exe                 # all experiments + micro
     dune exec bench/main.exe -- --quick      # reduced sweeps
     dune exec bench/main.exe -- --only EXP-FIG2-LB
     dune exec bench/main.exe -- --list
     dune exec bench/main.exe -- --no-micro   # skip bechamel section
     dune exec bench/main.exe -- --csv DIR    # also save tables as CSV
     dune exec bench/main.exe -- --markdown F # also save a markdown report
     dune exec bench/main.exe -- --json-pr8 F # run one BENCH_*.json suite
                                              # (pr6, pr8, pr9, pr10 or pr19; see
                                              # [suites]) and write its rows
                                              # to F; pr6 and pr10 honour
                                              # --quick *)

module Registry = Ufp_experiments.Registry
module Harness = Ufp_experiments.Harness
module Gen = Ufp_graph.Generators
module Graph = Ufp_graph.Graph
module Dijkstra = Ufp_graph.Dijkstra
module Instance = Ufp_instance.Instance
module Workloads = Ufp_instance.Workloads
module Bounded_ufp = Ufp_core.Bounded_ufp
module Bounded_muca = Ufp_auction.Bounded_muca
module Reasonable = Ufp_core.Reasonable
module Rng = Ufp_prelude.Rng
module Float_tol = Ufp_prelude.Float_tol
module Metrics = Ufp_obs.Metrics

(* --- bechamel micro-benchmarks: one per computational kernel --- *)

(* The CSR shortest-tree pair on one shared 12x12 grid: the path
   including its per-call weight-snapshot build, and the inner loop
   alone against a prebuilt snapshot (the steady-state Selector
   regime, where one patched snapshot serves every rebuild). *)
let dijkstra_pair_tests () =
  let open Bechamel in
  let grid = Gen.grid ~rows:12 ~cols:12 ~capacity:10.0 in
  let rng = Rng.create 1 in
  let weights =
    Array.init (Graph.n_edges grid) (fun _ -> Rng.float_in rng 0.1 2.0)
  in
  let n = Graph.n_vertices grid in
  let ws = Dijkstra.create_workspace grid in
  let dist = Array.make n infinity in
  let parent_edge = Array.make n (-1) in
  let dijkstra_csr =
    Test.make ~name:"dijkstra-csr-grid-12x12"
      (Staged.stage (fun () ->
           Dijkstra.shortest_tree_into ws grid
             ~weight:(fun e -> weights.(e))
             ~src:0 ~dist ~parent_edge))
  in
  let snapshot =
    Ufp_graph.Weight_snapshot.build grid ~weight:(fun e -> weights.(e))
  in
  let dijkstra_csr_snapshot =
    Test.make ~name:"dijkstra-csr-snapshot-grid-12x12"
      (Staged.stage (fun () ->
           Dijkstra.shortest_tree_snapshot_into ws grid ~snapshot ~src:0 ~dist
             ~parent_edge))
  in
  (grid, weights, [ dijkstra_csr; dijkstra_csr_snapshot ])

(* --- telemetry hot-path micros ---

   The cost of one counter bump under each regime the codebase has
   shipped: a plain ref (the uninstrumented floor), a shared Atomic
   fetch-and-add (the PR 3-7 registry — what every Dijkstra relaxation
   paid per edge), and the sharded [Metrics.incr] that replaced it
   (one DLS lookup plus a plain array store).  The atomic-vs-sharded
   delta here is the per-update cost the sharding removed from every
   instrumented hot path; the Dijkstra kernel, the hottest, keeps even
   the sharded store out of its relaxation loop by counting in locals
   and adding once per tree.  Snapshot cost rides along to show where
   the aggregation work went: off the hot path, into the (rare)
   readers. *)
let obs_tests () =
  let open Bechamel in
  let c = Metrics.counter "bench.obs_incr" in
  let h = Metrics.histogram "bench.obs_observe" in
  Metrics.ensure_shard ();
  let plain = ref 0 in
  let rmw = Atomic.make 0 in
  [
    Test.make ~name:"obs-counter-plain-ref"
      (Staged.stage (fun () -> incr plain));
    Test.make ~name:"obs-counter-atomic-rmw"
      (Staged.stage (fun () -> ignore (Atomic.fetch_and_add rmw 1 : int)));
    Test.make ~name:"obs-counter-sharded"
      (Staged.stage (fun () -> Metrics.incr c));
    Test.make ~name:"obs-histogram-sharded"
      (Staged.stage (fun () -> Metrics.observe h 3.0));
    Test.make ~name:"obs-snapshot"
      (Staged.stage (fun () -> ignore (Metrics.snapshot ())));
  ]

let micro_tests () =
  let open Bechamel in
  let grid, weights, dijkstra_pair = dijkstra_pair_tests () in
  (* Allocating Dijkstra on the same 12x12 grid (fresh workspace and
     snapshot per call). *)
  let dijkstra =
    Test.make ~name:"dijkstra-grid-12x12"
      (Staged.stage (fun () ->
           ignore (Dijkstra.shortest_tree grid ~weight:(fun e -> weights.(e)) ~src:0)))
  in
  (* Full Bounded-UFP solve (Theorem 3.1 instance). *)
  let eps = 0.3 in
  let capacity = Harness.capacity_for ~m:24 ~eps in
  let ufp_inst = Harness.grid_instance ~seed:2 ~rows:4 ~cols:4 ~capacity ~count:60 in
  let bounded_ufp =
    Test.make ~name:"bounded-ufp-incremental-4x4-60req"
      (Staged.stage (fun () -> ignore (Bounded_ufp.solve ~eps ufp_inst)))
  in
  (* Bounded-MUCA solve. *)
  let auction =
    Harness.random_auction ~seed:3 ~items:10
      ~multiplicity:(int_of_float (Harness.capacity_for ~m:10 ~eps))
      ~bids:80 ~bundle:3
  in
  let bounded_muca =
    Test.make ~name:"bounded-muca-10items-80bids"
      (Staged.stage (fun () -> ignore (Bounded_muca.solve ~eps auction)))
  in
  (* Reasonable-minimizer run on the Figure 2 staircase. *)
  let sc = Gen.staircase ~levels:16 ~capacity:4.0 in
  let stair_inst =
    Instance.create sc.Gen.graph (Workloads.staircase_requests sc ~per_source:4)
  in
  let staircase =
    Test.make ~name:"reasonable-staircase-16x4"
      (Staged.stage (fun () ->
           ignore
             (Reasonable.run
                ~priority:(Reasonable.h ~eps:0.1 ~b:4.0)
                ~tie_break:Reasonable.prefer_max_second_vertex stair_inst)))
  in
  (* Fractional LP solve. *)
  let lp_inst = Harness.grid_instance ~seed:4 ~rows:4 ~cols:4 ~capacity:10.0 ~count:30 in
  let mcf =
    Test.make ~name:"garg-konemann-lp-4x4-30req"
      (Staged.stage (fun () -> ignore (Ufp_lp.Mcf.solve ~eps:0.3 lp_inst)))
  in
  (* Exact LP by column generation on the same instance. *)
  let colgen =
    Test.make ~name:"path-lp-colgen-4x4-30req"
      (Staged.stage (fun () -> ignore (Ufp_lp.Path_lp.solve_colgen lp_inst)))
  in
  (* Dinic max flow corner to corner on the 12x12 grid. *)
  let maxflow =
    Test.make ~name:"dinic-grid-12x12"
      (Staged.stage (fun () ->
           ignore (Ufp_graph.Maxflow.max_flow grid ~src:0 ~dst:143)))
  in
  (* One critical-value payment (a full bisection of solver runs). *)
  let pay_inst = Harness.grid_instance ~seed:6 ~rows:3 ~cols:3 ~capacity:12.0 ~count:8 in
  let pay_model = Ufp_mech.Ufp_mechanism.model (Bounded_ufp.solve ~eps:0.3) in
  let payment =
    Test.make ~name:"critical-value-bisection-3x3-8req"
      (Staged.stage (fun () ->
           ignore
             (Ufp_mech.Single_param.critical_value ~rel_tol:Float_tol.coarse_slack pay_model
                pay_inst ~agent:0)))
  in
  (* The full payment vector, sequential vs fanned out over a reused
     2-domain pool (the pool outlives the benchmark iterations, so
     spawn cost is amortised away — what `ufp payments --jobs 2`
     amortises over one large instance instead). *)
  let payments_seq =
    Test.make ~name:"payments-3x3-8req-seq"
      (Staged.stage (fun () ->
           ignore
             (Ufp_mech.Single_param.payments ~rel_tol:Float_tol.coarse_slack
                pay_model pay_inst)))
  in
  let pay_pool = Ufp_par.Pool.create ~domains:2 () in
  at_exit (fun () -> Ufp_par.Pool.shutdown pay_pool);
  let payments_par =
    Test.make ~name:"payments-3x3-8req-2domains"
      (Staged.stage (fun () ->
           ignore
             (Ufp_mech.Single_param.payments ~rel_tol:Float_tol.coarse_slack
                ~pool:(`Pool pay_pool) pay_model pay_inst)))
  in
  (dijkstra :: dijkstra_pair)
  @ [
      bounded_ufp; bounded_muca; staircase; mcf; colgen;
      maxflow; payment; payments_seq; payments_par;
    ]
  @ obs_tests ()

(* Run bechamel over [tests] and return [(kernel, ns_per_run, r_square)]
   rows sorted by kernel name (the "micro " group prefix stripped). *)
let ols_rows tests =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let grouped = Test.make_grouped ~name:"micro" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let strip name =
    match String.index_opt name ' ' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> Some x
        | _ -> None
      in
      rows := (strip name, estimate, Analyze.OLS.r_square ols_result) :: !rows)
    results;
  List.sort compare !rows

let run_micro () =
  print_string "\n### MICRO: bechamel kernel benchmarks\n";
  let table =
    Ufp_prelude.Table.create ~title:"MICRO: ns per run (OLS on monotonic clock)"
      ~columns:[ "kernel"; "ns/run"; "r^2" ]
  in
  List.iter
    (fun (name, est, r2) ->
      let est =
        match est with Some x -> Printf.sprintf "%.0f" x | None -> "-"
      in
      let r2 = match r2 with Some r -> Printf.sprintf "%.4f" r | None -> "-" in
      Ufp_prelude.Table.add_row table [ name; est; r2 ])
    (ols_rows (micro_tests ()));
  Ufp_prelude.Table.print table

(* --- BENCH_*.json suites ---

   [--json-<suite> FILE] runs one suite and writes its rows as
   self-describing [{ id, unit, better, value }] objects under a
   provenance stamp.  bin/bench_diff.ml joins two such files by id
   with no schema knowledge, so a suite keeps its row ids from run to
   run; EXPERIMENTS.md has the row catalogue. *)

type better = Lower | Higher | Info

type row = { id : string; unit : string; better : better; value : float }

let row better id unit value = { id; unit; better; value }

(* Integer values (work counts, byte sizes) are written in full, so a
   count row holds the exact count; other values keep 6 digits. *)
let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.6g" x
  else "null"

(* Write [path] through [f], then say so on stdout. *)
let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc);
  Printf.printf "wrote %s\n" path

(* Every BENCH_*.json artifact records where its numbers came from, so
   a bench-diff across trajectories can tell a code regression from a
   host or toolchain change (EXPERIMENTS.md, "Provenance"). *)
let provenance_json () =
  let git_rev =
    try
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown"
    with _ -> "unknown"
  in
  Printf.sprintf
    "{ \"git_rev\": %S, \"ocaml_version\": %S, \"recommended_domains\": %d }"
    git_rev Sys.ocaml_version
    (Domain.recommended_domain_count ())

let write_rows ~schema path rows =
  let better_name = function
    | Lower -> "lower"
    | Higher -> "higher"
    | Info -> "info"
  in
  with_out path (fun oc ->
      Printf.fprintf oc "{\n  \"schema\": %S,\n  \"provenance\": %s,\n"
        schema (provenance_json ());
      output_string oc "  \"rows\": [\n";
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    { \"id\": %S, \"unit\": %S, \"better\": %S, \"value\": %s \
             }%s\n"
            r.id r.unit (better_name r.better) (json_float r.value)
            (if i = List.length rows - 1 then "" else ","))
        rows;
      output_string oc "  ]\n}\n")

(* pr6 (BENCH_PR6.json): an end-to-end Bounded-UFP solve over an RMAT
   instance with hub-laid requests, sequential vs a 2-domain pool.
   The suite fails instead of writing rows if the two traces differ.
   [--quick] drops to a CI-sized scale.  Row ids keep the
   [rmat_solve{...}.field] names the committed artifact carries. *)
let pr6 ~quick =
  print_string "### BENCH-JSON-PR6: RMAT Bounded-UFP solve, seq vs pool\n";
  let eps = 0.3 in
  let configs = if quick then [ (10, 8, 100) ] else [ (12, 8, 200) ] in
  List.concat_map
    (fun (scale, edge_factor, count) ->
      let rng = Rng.create 7 in
      let m = edge_factor * (1 lsl scale) in
      let capacity = Harness.capacity_for ~m ~eps in
      let g =
        Gen.rmat rng ~scale ~edge_factor ~capacity_lo:capacity
          ~capacity_hi:(capacity *. 1.5) ()
      in
      let inst = Instance.create g (Workloads.hub_requests rng g ~count ()) in
      let seq, seq_s =
        Harness.time_it (fun () -> Bounded_ufp.run ~eps ~pool:`Seq inst)
      in
      let pool = Ufp_par.Pool.create ~domains:2 () in
      let par, pool_s =
        Fun.protect
          ~finally:(fun () -> Ufp_par.Pool.shutdown pool)
          (fun () ->
            Harness.time_it (fun () ->
                Bounded_ufp.run ~eps ~pool:(`Pool pool) inst))
      in
      let equal = seq.Bounded_ufp.trace = par.Bounded_ufp.trace in
      let accepted = List.length seq.Bounded_ufp.solution in
      Printf.printf
        "  scale %2d ef %2d %d req: seq %.3fs pool2 %.3fs accepted %d equal \
         %b\n\
         %!"
        scale edge_factor count seq_s pool_s accepted equal;
      if not equal then
        failwith "BENCH-JSON-PR6: seq and pool traces differ on RMAT solve";
      let id field =
        Printf.sprintf "rmat_solve{scale=%d,edge_factor=%d,requests=%d}.%s"
          scale edge_factor count field
      in
      [
        row Info (id "vertices") "" (float_of_int (Graph.n_vertices g));
        row Info (id "edges") "" (float_of_int (Graph.n_edges g));
        row Info (id "accepted") "" (float_of_int accepted);
        row Lower (id "seq_s") "s" seq_s;
        row Lower (id "pool2_s") "s" pool_s;
        row Higher (id "speedup") "x"
          (seq_s /. Float.max pool_s Float_tol.div_guard);
      ])
    configs

(* pr8 (BENCH_PR8.json): the telemetry hot-path micros (the
   sharded-counter claim itself), the CSR Dijkstra pair whose inner
   loop carries the instrumented increment, and two CI-sized
   end-to-end anchors — small enough that a fresh run in CI carries
   identical row ids to the committed artifact. *)
let pr8 ~quick:_ =
  let micro_rows title tests =
    print_string title;
    List.map
      (fun (name, est, _) ->
        let r = row Lower name "ns" (Option.value est ~default:Float.nan) in
        Printf.printf "  %-34s %s ns/run\n" name (json_float r.value);
        r)
      (ols_rows tests)
  in
  let obs =
    micro_rows "### BENCH-JSON-PR8: telemetry hot-path micros\n" (obs_tests ())
  in
  let _, _, pair = dijkstra_pair_tests () in
  let dijkstra =
    micro_rows "### BENCH-JSON-PR8: instrumented Dijkstra pair\n" pair
  in
  print_string "### BENCH-JSON-PR8: end-to-end anchors\n";
  let eps = 0.3 in
  let m = (6 * 5) + (6 * 5) in
  let capacity = Harness.capacity_for ~m ~eps in
  let inst = Harness.grid_instance ~seed:1 ~rows:6 ~cols:6 ~capacity ~count:200 in
  let _, solve_s = Harness.time_it (fun () -> ignore (Bounded_ufp.run ~eps inst)) in
  Printf.printf "  bounded-ufp-incremental-6x6-200req %.3f s\n" solve_s;
  let pay_inst = Harness.grid_instance ~seed:6 ~rows:3 ~cols:3 ~capacity:12.0 ~count:8 in
  let pay_model = Ufp_mech.Ufp_mechanism.model (Bounded_ufp.solve ~eps:0.3) in
  let _, pay_s =
    Harness.time_it (fun () ->
        ignore
          (Ufp_mech.Single_param.payments ~rel_tol:Float_tol.coarse_slack
             pay_model pay_inst))
  in
  Printf.printf "  payments-seq-3x3-8req %.3f s\n" pay_s;
  obs @ dijkstra
  @ [
      row Lower "bounded-ufp-incremental-6x6-200req" "s" solve_s;
      row Lower "payments-seq-3x3-8req" "s" pay_s;
    ]

(* pr9 (BENCH_PR9.json): the fixed-chunk pathology the pool's
   per-index claims avoid, measured in a host-independent unit.  One
   task among [n] costs [mult]x the others; with a static split into
   two chunks, the executor that draws the expensive task's chunk
   also drags half the cheap ones behind it, so its assigned work —
   the modelled makespan, in task-cost units — is [mult + n/2 - 1]
   whatever the host does.  The dynamic rows run the real pool on 2
   domains and charge each task's model cost to the executor that
   actually ran it: claiming one index at a time leaves the expensive
   task alone on one executor (makespan -> [mult]-ish).
   Cost units, not seconds, so the committed artifact diffs cleanly
   against any CI host; the min over a few repetitions absorbs
   worker wake-up timing on loaded or single-core machines.

   The warm-start rows are probe counts (solver calls per payment
   vector), which are exactly reproducible everywhere: a declared-
   value bracket starts at least 4x tighter than the cold
   [0, 4 * total] ceiling and skips the ceiling probe, so the
   cold/warm ratio is a deterministic >1 gain. *)
let pr9 ~quick:_ =
  print_string "### BENCH-JSON-PR9: skewed-workload modelled makespan\n";
  let n = 64 in
  let mult = 100 in
  let unit_cost i = if i = 0 then mult else 1 in
  let spin units =
    let acc = ref 0.0 in
    for k = 1 to units * 20_000 do
      acc := !acc +. (1.0 /. float_of_int k)
    done;
    ignore (Sys.opaque_identity !acc)
  in
  (* Model cost charged to whichever domain ran the task; domain ids
     are small ints, so a fixed bucket array of Atomics suffices. *)
  let slots = Array.init 64 (fun _ -> Atomic.make 0) in
  let reset () = Array.iter (fun a -> Atomic.set a 0) slots in
  let makespan () =
    Array.fold_left (fun m a -> max m (Atomic.get a)) 0 slots
  in
  let body i =
    let u = unit_cost i in
    spin u;
    ignore
      (Atomic.fetch_and_add slots.((Domain.self () :> int) land 63) u : int)
  in
  (* Static chunking's makespan is a property of the split, not the
     host: the heaviest of the two n/2-chunks. *)
  let chunk = n / 2 in
  let static_units =
    let worst = ref 0 in
    let lo = ref 0 in
    while !lo < n do
      let hi = min n (!lo + chunk) in
      let c = ref 0 in
      for j = !lo to hi - 1 do
        c := !c + unit_cost j
      done;
      if !c > !worst then worst := !c;
      lo := hi
    done;
    !worst
  in
  let pool = Ufp_par.Pool.create ~domains:2 () in
  let dynamic_units, dynamic_s =
    Fun.protect
      ~finally:(fun () -> Ufp_par.Pool.shutdown pool)
      (fun () ->
        let best = ref max_int in
        let dynamic_s = ref 0.0 in
        for _rep = 1 to 5 do
          reset ();
          let (), t =
            Harness.time_it (fun () ->
                Ufp_par.Pool.parallel_for ~pool:(`Pool pool) ~n body)
          in
          dynamic_s := !dynamic_s +. t;
          let m = makespan () in
          if m < !best then best := m
        done;
        (!best, !dynamic_s /. 5.0))
  in
  let gain = float_of_int static_units /. float_of_int dynamic_units in
  Printf.printf
    "  %d tasks, one %dx: static chunk-%d makespan %d units, dynamic \
     best-of-5 %d units (%.3fs avg), gain %.2fx\n"
    n mult chunk static_units dynamic_units dynamic_s gain;
  print_string "### BENCH-JSON-PR9: warm-started payment probes\n";
  let pay_inst =
    Harness.grid_instance ~seed:6 ~rows:3 ~cols:3 ~capacity:12.0 ~count:8
  in
  let algo = Bounded_ufp.solve ~eps:0.3 in
  let m_probes = Metrics.counter "mech.payment_probes" in
  let probes_with warm =
    let before = Metrics.value m_probes in
    ignore
      (Ufp_mech.Ufp_mechanism.payments ~rel_tol:Float_tol.coarse_slack ~warm
         algo pay_inst
        : float array);
    Metrics.value m_probes - before
  in
  let cold = probes_with `Cold in
  let declared = probes_with `Declared in
  let run = Bounded_ufp.run ~eps:0.3 pay_inst in
  let hints = Ufp_mech.Ufp_mechanism.acceptance_thresholds pay_inst run in
  let hinted = probes_with (`Hinted (fun i -> hints.(i))) in
  let warm_gain = float_of_int cold /. float_of_int (max declared 1) in
  Printf.printf "  probes: cold %d, declared %d, hinted %d (gain %.2fx)\n"
    cold declared hinted warm_gain;
  [
    row Lower "skewed-static-makespan-units" "units"
      (float_of_int static_units);
    row Lower "skewed-dynamic-makespan-units" "units"
      (float_of_int dynamic_units);
    row Higher "skewed-dynamic-gain" "ratio" gain;
    row Lower "payments-probes-cold-3x3-8req" "probes" (float_of_int cold);
    row Lower "payments-probes-declared-3x3-8req" "probes"
      (float_of_int declared);
    row Lower "payments-probes-hinted-3x3-8req" "probes" (float_of_int hinted);
    row Higher "payments-warm-start-gain" "ratio" warm_gain;
  ]

(* pr10 (BENCH_PR10.json): the sequential Dijkstra tree on RMAT
   graphs and the footprint of its 32-bit packed adjacency (one 8-byte
   cell per slot).

   [--quick] keeps only the scale-14 configuration, so the CI gate
   joins the committed artifact on the scale-14 ids and reports the
   scale-18 rows as baseline-only; the committed artifact comes from
   a full run.  Best-of-k wall times absorb scheduler noise. *)
let pr10 ~quick =
  let module Snapshot = Ufp_graph.Weight_snapshot in
  print_string "### BENCH-JSON-PR10: Dijkstra and packed adjacency on RMAT\n";
  let configs = if quick then [ (14, 16) ] else [ (14, 16); (18, 10) ] in
  let time_best ~reps f =
    let best = ref infinity in
    for _ = 1 to reps do
      let (), t = Harness.time_it f in
      if t < !best then best := t
    done;
    !best
  in
  List.concat_map
    (fun (scale, edge_factor) ->
      let rng = Rng.create 11 in
      let g =
        Gen.rmat rng ~scale ~edge_factor ~capacity_lo:1.0 ~capacity_hi:4.0 ()
      in
      let n = Graph.n_vertices g in
      let csr = Graph.csr g in
      let snapshot =
        Snapshot.build g ~weight:(fun e -> 1.0 /. Graph.capacity g e)
      in
      (* First nonzero-out-degree vertex: deterministic and always a
         real traversal root on an RMAT graph. *)
      let src = ref 0 in
      (try
         for v = 0 to n - 1 do
           if csr.Graph.Csr.row_start.(v + 1) > csr.Graph.Csr.row_start.(v)
           then begin
             src := v;
             raise Exit
           end
         done
       with Exit -> ());
      let src = !src in
      let reps = if scale >= 16 then 3 else 5 in
      let dist = Array.make n infinity in
      let parent = Array.make n (-1) in
      let dij_ws = Dijkstra.create_workspace g in
      let dij_s =
        time_best ~reps (fun () ->
            Dijkstra.shortest_tree_snapshot_into dij_ws g ~snapshot ~src
              ~dist ~parent_edge:parent)
      in
      let packed_bytes = float_of_int (8 * Graph.Csr.Cells.length csr.Graph.Csr.cells) in
      Printf.printf "  scale %2d ef %2d: dijkstra %.4fs, packed adjacency %.1f MB\n%!"
        scale edge_factor dij_s (packed_bytes /. 1e6);
      let id fmt = Printf.sprintf fmt scale in
      [
        row Lower (id "sssp-rmat-s%d-dijkstra-seq") "s" dij_s;
        row Lower (id "adjacency-rmat-s%d-packed-bytes") "bytes" packed_bytes;
      ])
    configs

(* pr19 (BENCH_PR19.json): work counts at --jobs 1, from Metrics
   deltas.  They are the same on every host and under every load, so
   unlike the wall-clock suites they bear the probe-count rows' tight
   threshold (0.1), and a change to the selector's cache or the kernel
   shows as an exact work delta.  Three calls: a hub RMAT solve
   (rmat14-solve's shape two scales down, where tree rebuilds
   dominate), then grid-mechanism's pipeline on a small contended
   grid: the counterfactual critical values behind the payment hints
   (one partial re-solve per winner), and the hinted payments that
   certify them (two full re-solves per winner).  Allocated words stay
   out: they differ between OCaml 5.1 and 5.2. *)
let pr19 ~quick:_ =
  print_string "### BENCH-JSON-PR19: jobs-1 work counts\n";
  let work_rows call counters f =
    let result, work = Harness.counters_during f in
    ( result,
      List.map
        (fun (name, unit) ->
          let n = Harness.counter_delta work name in
          Printf.printf "  %-30s %-24s %d\n" call name n;
          row Lower (call ^ "." ^ name) unit (float_of_int n))
        counters )
  in
  let rmat_inst =
    let rng = Rng.create 1 in
    let g =
      Gen.rmat rng ~scale:12 ~edge_factor:16 ~capacity_lo:140.0
        ~capacity_hi:210.0 ()
    in
    Instance.create g (Workloads.hub_requests rng g ~count:48 ())
  in
  let (), solve =
    work_rows "solve-rmat-s12-ef16-hub48"
      [
        ("selector.tree_rebuilds", "trees");
        ("dijkstra.relaxations", "relaxations");
        ("pd.iterations", "iterations");
      ]
      (fun () -> ignore (Bounded_ufp.run ~eps:0.3 rmat_inst))
  in
  let eps = 0.6 in
  let grid_inst =
    Harness.grid_instance ~seed:1 ~rows:4 ~cols:4 ~capacity:11.0 ~count:60
  in
  let run = Bounded_ufp.run ~eps grid_inst in
  let hints, thresholds =
    work_rows "thresholds-grid-4x4-60req"
      [
        ("selector.tree_rebuilds", "trees");
        ("dijkstra.relaxations", "relaxations");
        ("pd.iterations", "iterations");
      ]
      (fun () -> Ufp_mech.Ufp_mechanism.acceptance_thresholds grid_inst run)
  in
  let (), payments =
    work_rows "payments-hinted-grid-4x4-60req"
      [
        ("mech.payment_probes", "probes");
        ("selector.tree_rebuilds", "trees");
        ("dijkstra.relaxations", "relaxations");
      ]
      (fun () ->
        ignore
          (Ufp_mech.Ufp_mechanism.payments ~rel_tol:Float_tol.payment_rel_tol
             ~warm:(`Hinted (fun i -> hints.(i)))
             (Bounded_ufp.solve ~eps) grid_inst
            : float array))
  in
  solve @ thresholds @ payments

(* The suite each [--json-<name> FILE] flag runs, and the schema its
   file declares (EXPERIMENTS.md documents each version). *)
let suites =
  [
    ("pr6", "ufp-bench-pr6/2", pr6);
    ("pr8", "ufp-bench-pr8/1", pr8);
    ("pr9", "ufp-bench-pr9/1", pr9);
    ("pr10", "ufp-bench-pr10/1", pr10);
    ("pr19", "ufp-bench-pr19/1", pr19);
  ]

(* --- driver --- *)

let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  let micro = not (List.mem "--no-micro" args) in
  let flag_value name =
    let rec find = function
      | key :: value :: _ when key = name -> Some value
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let only = flag_value "--only" in
  let csv_dir = flag_value "--csv" in
  let markdown_path = flag_value "--markdown" in
  List.iter
    (fun (name, schema, run) ->
      match flag_value ("--json-" ^ name) with
      | Some path ->
        write_rows ~schema path (run ~quick);
        exit 0
      | None -> ())
    suites;
  let markdown_buf = Buffer.create 4096 in
  (* Run each experiment once; print and optionally persist as CSV. *)
  let emit (entry : Registry.entry) =
    Printf.printf "\n### %s — %s\n### %s\n" entry.Registry.id
      entry.Registry.paper_artifact entry.Registry.description;
    (* Ufp_obs counter deltas sit next to the timing so a perf change
       in the log is attributable to a work change (or to a real
       per-operation regression when the counts are unchanged). *)
    let (tables, elapsed), work =
      Harness.counters_during (fun () ->
          Harness.time_it (fun () -> entry.Registry.run ~quick ()))
    in
    List.iter Ufp_prelude.Table.print tables;
    Printf.printf "time: %.3fs  work: %s\n" elapsed
      (if work = [] then "-"
       else
         String.concat ", "
           (List.map (fun (name, n) -> Printf.sprintf "%s=%d" name n) work));
    if markdown_path <> None then begin
      Buffer.add_string markdown_buf
        (Printf.sprintf "## %s — %s\n\n%s\n\n" entry.Registry.id
           entry.Registry.paper_artifact entry.Registry.description);
      List.iter
        (fun t ->
          Buffer.add_string markdown_buf (Ufp_prelude.Table.to_markdown t);
          Buffer.add_char markdown_buf '\n')
        tables
    end;
    match csv_dir with
    | None -> ()
    | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.iteri
        (fun k table ->
          let path =
            Filename.concat dir
              (Printf.sprintf "%s-%d.csv"
                 (String.lowercase_ascii entry.Registry.id)
                 k)
          in
          with_out path (fun oc ->
              output_string oc (Ufp_prelude.Table.to_csv table)))
        tables
  in
  if List.mem "--list" args then begin
    List.iter
      (fun (e : Registry.entry) ->
        Printf.printf "%-18s %-28s %s\n" e.Registry.id e.Registry.paper_artifact
          e.Registry.description)
      Registry.all;
    exit 0
  end;
  (match only with
  | Some id -> (
    match Registry.find id with
    | Some entry -> emit entry
    | None ->
      Printf.eprintf "unknown experiment %S; try --list\n" id;
      exit 1)
  | None ->
    print_string
      "Reproduction harness for \"Truthful Unsplittable Flow for Large \
       Capacity Networks\" (Azar, Gamzu, Gutner — SPAA'07).\n\
       One experiment per paper artifact; see DESIGN.md section 4 and \
       EXPERIMENTS.md.\n";
    List.iter emit Registry.all;
    if micro then run_micro ());
  (match markdown_path with
  | Some path ->
    with_out path (fun oc ->
        output_string oc
          "# Regenerated experiment tables\n\n(mechanical output of `dune exec \
           bench/main.exe -- --markdown <file>`; see EXPERIMENTS.md for the \
           paper-vs-measured discussion)\n\n";
        Buffer.output_buffer oc markdown_buf)
  | None -> ());
  print_newline ()
