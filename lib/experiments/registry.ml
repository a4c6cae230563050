type entry = {
  id : string;
  paper_artifact : string;
  description : string;
  run : ?quick:bool -> unit -> Ufp_prelude.Table.t list;
}

let all =
  [
    {
      id = "EXP-ALG1-RATIO";
      paper_artifact = "Theorem 3.1";
      description =
        "Bounded-UFP approximation ratio vs certified optimum bounds on random \
         workloads";
      run = Exp_alg1_ratio.run;
    };
    {
      id = "EXP-ALG1-SMALL";
      paper_artifact = "Theorem 3.1";
      description = "Bounded-UFP against the exact optimum on small instances";
      run = Exp_alg1_small.run;
    };
    {
      id = "EXP-FIG2-LB";
      paper_artifact = "Theorem 3.11 / Figure 2";
      description =
        "staircase lower bound: reasonable path minimizers approach e/(e-1)";
      run = Exp_fig2.run;
    };
    {
      id = "EXP-FIG3-LB";
      paper_artifact = "Theorem 3.12 / Figure 3";
      description = "undirected 4/3 gadget, independent of B";
      run = Exp_fig3.run;
    };
    {
      id = "EXP-MUCA-RATIO";
      paper_artifact = "Theorem 4.1";
      description = "Bounded-MUCA approximation ratio on random auctions";
      run = Exp_muca_ratio.run;
    };
    {
      id = "EXP-FIG4-LB";
      paper_artifact = "Theorem 4.5 / Figure 4";
      description =
        "partition instance: reasonable bundle minimizers approach 4/3";
      run = Exp_fig4.run;
    };
    {
      id = "EXP-REPEAT";
      paper_artifact = "Theorem 5.1";
      description = "UFP with repetitions achieves 1 + 6 eps";
      run = Exp_repeat.run;
    };
    {
      id = "EXP-CMP-BASELINES";
      paper_artifact = "Section 1.1";
      description =
        "Bounded-UFP vs BKV-style threshold PD vs greedy vs randomized rounding";
      run = Exp_cmp.run;
    };
    {
      id = "EXP-MONO";
      paper_artifact = "Lemma 3.4 / Theorem 2.3";
      description =
        "monotonicity checks: primal-dual algorithms monotone, rounding not";
      run = Exp_mono.run;
    };
    {
      id = "EXP-TRUTH";
      paper_artifact = "Corollaries 3.2 / 4.2";
      description = "critical-value payments and misreport utilities";
      run = Exp_truth.run;
    };
    {
      id = "EXP-DUALITY";
      paper_artifact = "Figures 1 and 5";
      description = "LP duality certificates: feasibility and weak duality";
      run = Exp_duality.run;
    };
    {
      id = "EXP-PERF";
      paper_artifact = "Section 3.2 remark";
      description = "running-time scaling: iterations bounded by |R|";
      run = Exp_perf.run;
    };
    {
      id = "EXP-OBS-OVERHEAD";
      paper_artifact = "infrastructure";
      description =
        "observability cost: Bounded-UFP wall time with the Ufp_obs tracer \
         off, recording and profiling, on the EXP-PERF grid workload";
      run = Exp_obs_overhead.run;
    };
    {
      id = "EXP-GAP";
      paper_artifact = "Section 1 motivation";
      description = "integrality gap OPT_LP/OPT_ILP collapses to 1 as B grows";
      run = Exp_gap.run;
    };
    {
      id = "EXP-ROUNDING";
      paper_artifact = "Section 1 motivation";
      description =
        "randomized rounding concentrates as B grows (but is non-monotone)";
      run = Exp_rounding.run;
    };
    {
      id = "EXP-MUCA-CMP";
      paper_artifact = "extension";
      description = "auction rules across uniform/interval/weighted workloads";
      run = Exp_muca_cmp.run;
    };
    {
      id = "EXP-ABLATION";
      paper_artifact = "DESIGN.md section 5";
      description = "update rule, stopping budget, and reasonable-family ablations";
      run = Exp_ablation.run;
    };
  ]

let find id =
  let target = String.lowercase_ascii id in
  List.find_opt (fun e -> String.lowercase_ascii e.id = target) all

let run_and_print ?quick ?(oc = stdout) entry =
  Printf.fprintf oc "\n### %s — %s\n### %s\n" entry.id entry.paper_artifact
    entry.description;
  List.iter (fun t -> Ufp_prelude.Table.print ~oc t) (entry.run ?quick ())
