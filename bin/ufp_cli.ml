(* ufp — command line interface to the truthful unsplittable flow
   library.

   Subcommands:
     generate    build an instance file (random or paper lower-bound)
     solve       run an allocation algorithm on an instance file
     payments    run the truthful mechanism and print critical payments
     lp          certified fractional bounds for an instance file
     experiment  run the paper-reproduction experiments *)

module Graph = Ufp_graph.Graph
module Gen = Ufp_graph.Generators
module Instance = Ufp_instance.Instance
module Request = Ufp_instance.Request
module Solution = Ufp_instance.Solution
module Workloads = Ufp_instance.Workloads
module Io = Ufp_instance.Io
module Bounded_ufp = Ufp_core.Bounded_ufp
module Repeat = Ufp_core.Bounded_ufp_repeat
module Baselines = Ufp_core.Baselines
module Exact = Ufp_lp.Exact
module Mcf = Ufp_lp.Mcf
module Ufp_mechanism = Ufp_mech.Ufp_mechanism
module Single_param = Ufp_mech.Single_param
module Audit = Ufp_core.Audit
module Registry = Ufp_experiments.Registry
module Rng = Ufp_prelude.Rng
module Metrics = Ufp_obs.Metrics
module Obs_trace = Ufp_obs.Trace
module Profile = Ufp_obs.Profile
module Pool = Ufp_par.Pool

open Cmdliner

let load_instance path =
  match Io.load path with
  | Ok inst -> inst
  | Error msg ->
    Printf.eprintf "error: cannot load %s: %s\n" path msg;
    exit 1

(* --- observability (--metrics / --trace / --profile) --- *)

let metrics_arg =
  Arg.(
    value
    & opt (some (enum [ ("text", `Text); ("json", `Json) ])) None
    & info [ "metrics" ] ~docv:"FORMAT"
        ~doc:
          "Report the work-counter deltas of the run (Dijkstra \
           relaxations, selector cache traffic, dual updates, payment \
           probes, ...) as a $(b,text) table or a $(b,json) object. See \
           docs/OBSERVABILITY.md for the catalogue and formats.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the $(b,--metrics) rendering to $(docv) instead of \
           stdout, so the table or JSON object stays apart from what the \
           command itself prints.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record solver spans and write them to $(docv) as Chrome \
           trace_event JSONL (load in chrome://tracing or \
           ui.perfetto.dev).")

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Fold the span stream plus GC deltas into a per-phase profile \
           (self/total wall time, minor/major allocation): a text table \
           on stderr and ufp-profile/1 JSON written to $(docv). Implies \
           span recording; composes with $(b,--trace), $(b,--metrics) \
           and $(b,--jobs).")

(* Wraps the measured part of a subcommand: snapshots the metric
   registry around [f], then renders the delta, the profile and/or the
   trace as requested.  With no flag given this is just [f ()] plus
   two cheap snapshots.  --profile turns the tracer on with GC
   sampling even without --trace; the two flags share one recording,
   so combining them costs one run.  The profile folds every span as
   it ends; only --trace reads the ring, so only it can lose events
   and says when the ring overwrote its oldest. *)
let with_observability ~metrics ~metrics_out ~trace ~profile f =
  let tracing = Option.is_some trace || Option.is_some profile in
  if tracing then Obs_trace.start ~gc:(Option.is_some profile) ();
  let before = Metrics.snapshot () in
  let result = f () in
  let delta = Metrics.diff before (Metrics.snapshot ()) in
  if tracing then Obs_trace.stop ();
  (match metrics with
  | None -> ()
  | Some format ->
    let render oc =
      match format with
      | `Text ->
        Ufp_prelude.Table.print ~oc (Metrics.to_table ~title:"run metrics" delta)
      | `Json ->
        output_string oc (Metrics.to_json delta);
        output_char oc '\n'
    in
    (match metrics_out with
    | None -> render stdout
    | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> render oc)));
  (match profile with
  | Some path ->
    let p = Profile.of_trace () in
    Profile.save_json path p;
    Ufp_prelude.Table.print ~oc:stderr (Profile.to_table ~title:"profile" p);
    Printf.eprintf "profile: %d spans folded into %s\n"
      (List.fold_left (fun n ph -> n + ph.Profile.p_count) 0 p.Profile.phases)
      path
  | None -> ());
  (match trace with
  | Some path ->
    Obs_trace.save_jsonl path;
    let d = Obs_trace.n_dropped () in
    Printf.eprintf "trace: %d events written to %s%s\n" (Obs_trace.n_events ())
      path
      (if d > 0 then Printf.sprintf " (%d oldest events dropped)" d else "")
  | None -> ());
  result

(* --- generate --- *)

let generate topology seed rows cols capacity requests levels b scale
    edge_factor out =
  let inst =
    match topology with
    | "grid" ->
      let g = Gen.grid ~rows ~cols ~capacity in
      let rng = Rng.create seed in
      Instance.create g (Workloads.random_requests rng g ~count:requests ())
    | "er" ->
      let rng = Rng.create seed in
      let g =
        Gen.erdos_renyi rng ~n:(rows * cols) ~edge_prob:0.3 ~directed:false
          ~capacity_lo:capacity ~capacity_hi:(capacity *. 1.5)
      in
      Instance.create g (Workloads.random_requests rng g ~count:requests ())
    | "staircase" ->
      let sc = Gen.staircase ~levels ~capacity:(float_of_int b) in
      Instance.create sc.Gen.graph (Workloads.staircase_requests sc ~per_source:b)
    | "gadget" ->
      Instance.create
        (Gen.gadget7 ~capacity:(float_of_int b))
        (Workloads.gadget7_requests ~per_pair:b)
    | "rmat" ->
      (* Degree-skewed Graph500-style instance: requests are laid from
         the highest-degree hubs so the workload survives the sparse
         directed topology (a uniformly random pair is usually
         unreachable at scale). *)
      let rng = Rng.create seed in
      let g =
        Gen.rmat rng ~scale ~edge_factor ~capacity_lo:capacity
          ~capacity_hi:(capacity *. 1.5) ()
      in
      Instance.create g (Workloads.hub_requests rng g ~count:requests ())
    | other ->
      Printf.eprintf
        "error: unknown topology %S (grid|er|staircase|gadget|rmat)\n" other;
      exit 1
  in
  (match out with
  | Some path ->
    Io.save path inst;
    Printf.printf "wrote %s: %d vertices, %d edges, %d requests\n" path
      (Graph.n_vertices (Instance.graph inst))
      (Graph.n_edges (Instance.graph inst))
      (Instance.n_requests inst)
  | None -> print_string (Io.to_string inst));
  0

let topology_arg =
  Arg.(value & opt string "grid" & info [ "topology"; "t" ] ~docv:"KIND"
         ~doc:"Instance family: grid, er, staircase (Figure 2), gadget \
               (Figure 3), rmat (Graph500-style recursive matrix; see \
               $(b,--scale) and $(b,--edge-factor)).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let rows_arg = Arg.(value & opt int 5 & info [ "rows" ] ~doc:"Grid rows.")

let cols_arg = Arg.(value & opt int 5 & info [ "cols" ] ~doc:"Grid columns.")

let capacity_arg =
  Arg.(value & opt float 20.0 & info [ "capacity"; "c" ] ~doc:"Edge capacity (B).")

let requests_arg =
  Arg.(value & opt int 50 & info [ "requests"; "r" ] ~doc:"Number of requests.")

let levels_arg =
  Arg.(value & opt int 16 & info [ "levels"; "l" ] ~doc:"Staircase levels.")

let b_arg =
  Arg.(value & opt int 8 & info [ "b" ] ~doc:"Capacity parameter B for the lower-bound families.")

let scale_arg =
  Arg.(value & opt int 14 & info [ "scale" ] ~docv:"S"
         ~doc:"RMAT scale: the graph has $(b,2^S) vertices.")

let edge_factor_arg =
  Arg.(value & opt int 16 & info [ "edge-factor" ] ~docv:"EF"
         ~doc:"RMAT edges per vertex: $(b,EF * 2^scale) edges are drawn.")

let out_arg =
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
         ~doc:"Output file (stdout when omitted).")

let generate_cmd =
  let doc = "generate a UFP instance file" in
  Cmd.v (Cmd.info "generate" ~doc)
    Term.(
      const generate $ topology_arg $ seed_arg $ rows_arg $ cols_arg
      $ capacity_arg $ requests_arg $ levels_arg $ b_arg $ scale_arg
      $ edge_factor_arg $ out_arg)

(* --- solve --- *)

(* Human-readable account of the --jobs choice; None for the silent
   sequential default so single-domain output is unchanged. *)
let pool_description jobs =
  if jobs = 1 then None
  else
    let domains =
      if jobs = 0 then Domain.recommended_domain_count () else jobs
    in
    Some
      (if domains <= 1 then
         Printf.sprintf "sequential (%d domain recommended)" domains
       else Printf.sprintf "parallel across %d domains" domains)

let jobs_arg =
  Arg.(
    value
    & opt int (Pool.jobs_from_env ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Fan the parallel regions — the selector's cold-fill trees \
           (its first selection) under $(b,solve), per-winner \
           critical-value bisections under $(b,payments) — out over \
           $(docv) domains (the Ufp_par pool); later selector rebuilds \
           stay sequential. $(b,1) (the default) stays sequential; \
           $(b,0) means the runtime's recommended domain count. Results \
           are bitwise identical at any job count, and $(b,solve) does \
           the same work (every selector and Dijkstra counter but \
           selector.par_rebuilds). Defaults to \\$UFP_JOBS when set.")

(* The solver behind --algo. Bounded-UFP also hands back its run
   record, so [solve] prints the certified bound and audits the very
   run it reports instead of solving again. *)
let pick_algo name eps seed pool =
  let plain solve inst = (solve inst, None) in
  match name with
  | "bounded-ufp" ->
    fun inst ->
      let run = Bounded_ufp.run ~eps ~pool inst in
      (run.Bounded_ufp.solution, Some run)
  | "repeat" -> plain (Repeat.solve ~eps ~pool)
  | "greedy-density" -> plain Baselines.greedy_by_density
  | "greedy-value" -> plain Baselines.greedy_by_value
  | "threshold-pd" -> plain (Baselines.threshold_pd ~eps ~pool)
  | "rounding" ->
    plain (Baselines.randomized_rounding ~eps:(Float.min eps 0.5) ~seed)
  | "exact" -> plain (fun inst -> Exact.solve inst)
  | other ->
    Printf.eprintf
      "error: unknown algorithm %S (bounded-ufp|repeat|greedy-density|\
       greedy-value|threshold-pd|rounding|exact)\n"
      other;
    exit 1

let warn_premise inst ~eps =
  if not (Instance.meets_bound inst ~eps) then
    Printf.printf
      "note: B = %.1f is below ln m / eps^2 = %.1f — the Theorem 3.1 premise \
       fails, so the primal-dual algorithms may stop early (try a larger \
       capacity or eps).\n"
      (Instance.bound inst)
      (log (float_of_int (Graph.n_edges (Instance.graph inst))) /. (eps *. eps))

let solve path algo_name eps seed jobs verbose audit out metrics
    metrics_out trace profile =
  let inst = Instance.normalize (load_instance path) in
  warn_premise inst ~eps;
  Pool.with_jobs jobs @@ fun pool ->
  let algo = pick_algo algo_name eps seed pool in
  let (sol, bounded_run), elapsed =
    try
      with_observability ~metrics ~metrics_out ~trace ~profile (fun () ->
          Ufp_experiments.Harness.time_it (fun () -> algo inst))
    with Exact.Too_large msg ->
      Printf.eprintf "error: instance too large for the exact solver: %s\n" msg;
      exit 1
  in
  let repetitions = algo_name = "repeat" in
  let value = Solution.value inst sol in
  Printf.printf "algorithm : %s\n" algo_name;
  (* Only the primal-dual rules build a Selector, so only they have
     cold-fill trees for --jobs to fan out. *)
  let has_selector =
    List.mem algo_name [ "bounded-ufp"; "repeat"; "threshold-pd" ]
  in
  (match pool_description jobs with
  | Some d when has_selector -> Printf.printf "selector rebuilds: %s\n" d
  | Some _ | None -> ());
  Printf.printf "allocated : %d / %d requests\n" (List.length sol)
    (Instance.n_requests inst);
  Printf.printf "value     : %.6g\n" value;
  Printf.printf "feasible  : %b\n" (Solution.is_feasible ~repetitions inst sol);
  Printf.printf "time      : %.3fs\n" elapsed;
  Option.iter
    (fun run ->
      Printf.printf "certified OPT upper bound: %.6g (ratio <= %.4f)\n"
        run.Bounded_ufp.certified_upper_bound
        (if value > 0.0 then run.Bounded_ufp.certified_upper_bound /. value
         else infinity))
    bounded_run;
  (* A failed audit finding fails the command, so scripts and CI gate
     on the paper's certificates, not just on the printed report. *)
  let audit_passed =
    (not audit)
    ||
    match bounded_run with
    | None ->
      Printf.printf "note: --audit applies to bounded-ufp only\n";
      true
    | Some run ->
      let report = Audit.bounded_ufp_run inst run in
      Format.printf "%a" Audit.pp report;
      report.Audit.all_passed
  in
  (match out with
  | Some out_path ->
    Io.save_solution out_path sol;
    Printf.printf "solution written to %s\n" out_path
  | None -> ());
  if verbose then Format.printf "%a@." Solution.pp sol;
  if audit_passed then 0 else 1

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Instance file (see $(b,ufp generate)).")

let algo_arg =
  Arg.(value & opt string "bounded-ufp" & info [ "algo"; "a" ] ~docv:"ALGO"
         ~doc:"Allocation algorithm.")

let eps_arg =
  Arg.(value & opt float 0.3 & info [ "eps"; "e" ] ~doc:"Accuracy parameter.")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print the allocation paths.")

let audit_arg =
  Arg.(value & flag & info [ "audit" ]
         ~doc:"Audit the run: feasibility, trace consistency, weak duality, \
               scaled-dual feasibility (bounded-ufp only). Exits 1 when a \
               check fails.")

let solve_cmd =
  let doc = "solve a UFP instance" in
  Cmd.v (Cmd.info "solve" ~doc)
    Term.(
      const solve $ file_arg $ algo_arg $ eps_arg $ seed_arg $ jobs_arg
      $ verbose_arg $ audit_arg $ out_arg $ metrics_arg $ metrics_out_arg
      $ trace_arg $ profile_arg)

(* --- payments --- *)

(* [payments --audit]: the forward run's own audit, then the two-probe
   certificate of every winner's payment, fanned out over the pool like
   the counterfactuals. Each certificate is a pure function of its
   winner, so the report does not depend on the job count. *)
let audit_payments ~pool algo inst run won pay =
  let model = Ufp_mechanism.model algo in
  let certified =
    Pool.parallel_mapi ~pool ~n:(Array.length pay) (fun i ->
        (not won.(i))
        || Single_param.certify model inst ~agent:i ~payment:pay.(i))
  in
  let winners = Array.fold_left (fun n w -> if w then n + 1 else n) 0 won in
  let failed =
    List.filter (fun i -> not certified.(i)) (List.init (Array.length pay) Fun.id)
  in
  let detail =
    match failed with
    | [] ->
      Printf.sprintf
        "%d winners: each wins at payment + d and, above d, loses at \
         payment - d (d = rel_tol/4 * max 1 payment)"
        winners
    | _ ->
      Printf.sprintf "%d of %d winners fail: %s" (List.length failed) winners
        (String.concat ", "
           (List.map (fun i -> Printf.sprintf "request %d pays %.9g" i pay.(i)) failed))
  in
  let forward = Audit.bounded_ufp_run inst run in
  let certificate =
    { Audit.check = "critical-value"; passed = failed = []; detail }
  in
  {
    Audit.findings = forward.Audit.findings @ [ certificate ];
    all_passed = forward.Audit.all_passed && failed = [];
  }

let payments path eps jobs audit metrics metrics_out trace profile =
  let inst = Instance.normalize (load_instance path) in
  warn_premise inst ~eps;
  let algo = Bounded_ufp.solve ~eps in
  let won, pay, report =
    Pool.with_jobs jobs @@ fun pool ->
    with_observability ~metrics ~metrics_out ~trace ~profile (fun () ->
        (* One recorded forward solve serves double duty: its solution
           is the winner set, and its trace is where each winner's
           counterfactual resumes. Each counterfactual's exact critical
           value is that winner's payment. *)
        let run = Bounded_ufp.run ~eps inst in
        let won = Array.make (Instance.n_requests inst) false in
        List.iter
          (fun a -> won.(a.Solution.request) <- true)
          run.Bounded_ufp.solution;
        let hints = Ufp_mechanism.acceptance_thresholds ~pool inst run in
        let pay =
          Ufp_mechanism.payments
            ~warm:(`Hinted (fun i -> hints.(i)))
            ~pool algo inst
        in
        let report =
          if audit then Some (audit_payments ~pool algo inst run won pay)
          else None
        in
        (won, pay, report))
  in
  Printf.printf "truthful mechanism: Bounded-UFP(%.2f) + critical-value payments\n"
    eps;
  (match pool_description jobs with
  | None -> ()
  | Some d -> Printf.printf "pricing: %s\n" d);
  Printf.printf "%-8s %-10s %-10s %-6s %-12s\n" "request" "demand" "value" "wins"
    "payment";
  Array.iteri
    (fun i p ->
      let r = Instance.request inst i in
      Printf.printf "%-8d %-10.4f %-10.4f %-6s %-12.6f\n" i r.Request.demand
        r.Request.value
        (if won.(i) then "yes" else "no")
        p)
    pay;
  let revenue = Array.fold_left ( +. ) 0.0 pay in
  Printf.printf "total revenue: %.6f\n" revenue;
  (* As under [solve --audit], a failed finding fails the command. *)
  match report with
  | None -> 0
  | Some report ->
    Format.printf "%a" Audit.pp report;
    if report.Audit.all_passed then 0 else 1

let payments_audit_arg =
  Arg.(value & flag & info [ "audit" ]
         ~doc:"Audit the forward run as $(b,solve --audit) does, then \
               certify every winner's payment with two probes: it must \
               win when it declares its payment plus a quarter of the \
               payment tolerance, and lose when it declares that much \
               less. Exits 1 when a check fails.")

let payments_cmd =
  let doc = "run the truthful mechanism and print critical-value payments" in
  Cmd.v (Cmd.info "payments" ~doc)
    Term.(
      const payments $ file_arg $ eps_arg $ jobs_arg $ payments_audit_arg
      $ metrics_arg $ metrics_out_arg $ trace_arg $ profile_arg)

(* --- lp --- *)

let lp path eps =
  let inst = Instance.normalize (load_instance path) in
  let r = Mcf.solve ~eps inst in
  Printf.printf "fractional (Figure 1 relaxation) certified interval:\n";
  Printf.printf "  feasible flow value : %.6g   (lower bound on OPT_LP)\n"
    r.Mcf.feasible_value;
  Printf.printf "  scaled dual bound   : %.6g   (upper bound on OPT_LP >= OPT)\n"
    r.Mcf.upper_bound;
  Printf.printf "  oracle iterations   : %d\n" r.Mcf.iterations;
  0

let lp_cmd =
  let doc = "certified fractional LP bounds (Garg-Konemann)" in
  Cmd.v (Cmd.info "lp" ~doc) Term.(const lp $ file_arg $ eps_arg)

(* --- verify-solution --- *)

let verify_solution inst_path sol_path repetitions =
  let inst = Instance.normalize (load_instance inst_path) in
  match Io.load_solution sol_path with
  | Error msg ->
    Printf.eprintf "error: cannot load %s: %s\n" sol_path msg;
    1
  | Ok sol -> (
    Printf.printf "allocations : %d\n" (List.length sol);
    Printf.printf "value       : %.6g\n" (Solution.value inst sol);
    match Solution.check ~repetitions inst sol with
    | Ok () ->
      Printf.printf "feasible    : yes\n";
      0
    | Error msg ->
      Printf.printf "feasible    : NO — %s\n" msg;
      1)

let sol_file_arg =
  Arg.(required & pos 1 (some file) None & info [] ~docv:"SOLUTION"
         ~doc:"Solution file (see $(b,ufp solve -o)).")

let repetitions_arg =
  Arg.(value & flag & info [ "repetitions" ]
         ~doc:"Allow a request to appear multiple times (Section 5 semantics).")

let verify_solution_cmd =
  let doc = "check a saved solution against its instance" in
  Cmd.v (Cmd.info "verify-solution" ~doc)
    Term.(const verify_solution $ file_arg $ sol_file_arg $ repetitions_arg)

(* --- export-dot --- *)

let export_dot path algo_name eps seed out =
  let inst = Instance.normalize (load_instance path) in
  let dot =
    match algo_name with
    | None -> Ufp_instance.Dot.instance inst
    | Some name ->
      let sol, _ = pick_algo name eps seed `Seq inst in
      Ufp_instance.Dot.solution inst sol
  in
  (match out with
  | Some out_path ->
    Ufp_instance.Dot.save out_path dot;
    Printf.printf "wrote %s (render with: dot -Tsvg %s > out.svg)\n" out_path
      out_path
  | None -> print_string dot);
  0

let dot_algo_arg =
  Arg.(value & opt (some string) None & info [ "algo"; "a" ] ~docv:"ALGO"
         ~doc:"Also solve with this algorithm and highlight the allocation.")

let export_dot_cmd =
  let doc = "export an instance (optionally with an allocation) as Graphviz DOT" in
  Cmd.v (Cmd.info "export-dot" ~doc)
    Term.(const export_dot $ file_arg $ dot_algo_arg $ eps_arg $ seed_arg $ out_arg)

(* --- inspect --- *)

let inspect path eps =
  let inst = load_instance path in
  let report = Ufp_instance.Diagnostics.analyze inst in
  Format.printf "%a@." Ufp_instance.Diagnostics.pp report;
  let needed = Ufp_instance.Diagnostics.premise_capacity inst ~eps in
  Format.printf
    "Theorem 3.1 premise at eps = %.2f: needs min capacity >= %.1f — %s@." eps
    needed
    (if report.Ufp_instance.Diagnostics.min_capacity >= needed then "satisfied"
     else "NOT satisfied (primal-dual algorithms may stop early)");
  0

let inspect_cmd =
  let doc = "report instance statistics and regime diagnostics" in
  Cmd.v (Cmd.info "inspect" ~doc) Term.(const inspect $ file_arg $ eps_arg)

(* --- experiment --- *)

let experiment id_opt list quick =
  if list then begin
    List.iter
      (fun (e : Registry.entry) ->
        Printf.printf "%-18s %-28s %s\n" e.Registry.id e.Registry.paper_artifact
          e.Registry.description)
      Registry.all;
    0
  end
  else
    match id_opt with
    | None ->
      List.iter (Registry.run_and_print ~quick) Registry.all;
      0
    | Some id -> (
      match Registry.find id with
      | Some entry ->
        Registry.run_and_print ~quick entry;
        0
      | None ->
        Printf.eprintf "error: unknown experiment %S; try --list\n" id;
        1)

let exp_id_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"EXP-ID"
         ~doc:"Experiment id from DESIGN.md (all when omitted).")

let list_arg = Arg.(value & flag & info [ "list" ] ~doc:"List experiments.")

let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced sweeps.")

let experiment_cmd =
  let doc = "run the paper-reproduction experiments" in
  Cmd.v (Cmd.info "experiment" ~doc)
    Term.(const experiment $ exp_id_arg $ list_arg $ quick_arg)

(* --- main --- *)

(* Solver tracing: UFP_LOG=info or UFP_LOG=debug enables the Logs
   sources (ufp.pd-engine for the per-iteration lines, ufp.bounded-ufp,
   ufp.bounded-ufp-repeat, ufp.mcf). *)
let setup_logs () =
  match Sys.getenv_opt "UFP_LOG" with
  | Some level ->
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level
      (match String.lowercase_ascii level with
      | "debug" -> Some Logs.Debug
      | "info" -> Some Logs.Info
      | "warning" -> Some Logs.Warning
      | _ -> None)
  | None -> ()

let () =
  setup_logs ();
  let doc =
    "truthful unsplittable flow for large capacity networks (Azar, Gamzu, \
     Gutner — SPAA'07)"
  in
  let info = Cmd.info "ufp" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [ generate_cmd; solve_cmd; payments_cmd; lp_cmd; inspect_cmd;
        verify_solution_cmd; export_dot_cmd; experiment_cmd ]
  in
  exit (Cmd.eval' group)
