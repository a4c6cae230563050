module Graph = Ufp_graph.Graph
module Instance = Ufp_instance.Instance
module Request = Ufp_instance.Request
module Solution = Ufp_instance.Solution
module Duality = Ufp_lp.Duality
module Float_tol = Ufp_prelude.Float_tol

let slack = Ufp_prelude.Float_tol.capacity_slack

type finding = { check : string; passed : bool; detail : string }

type report = { findings : finding list; all_passed : bool }

let finding check passed detail = { check; passed; detail }

let bounded_ufp_run inst (run : Bounded_ufp.run) =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  (* 1. Capacity feasibility (Lemma 3.3). *)
  (match Solution.check inst run.Bounded_ufp.solution with
  | Ok () ->
    add (finding "feasibility" true "all paths valid, all capacities respected")
  | Error msg -> add (finding "feasibility" false msg));
  (* 2. Trace bookkeeping. *)
  let trace = run.Bounded_ufp.trace in
  add
    (finding "trace-length"
       (List.length trace = run.Bounded_ufp.iterations)
       (Printf.sprintf "%d entries for %d iterations" (List.length trace)
          run.Bounded_ufp.iterations));
  (* 3. Selection lengths never decrease (duals only grow and the
     candidate pool only shrinks). *)
  let rec nondecreasing prev = function
    | [] -> true
    | (e : Bounded_ufp.trace_entry) :: rest ->
      e.Bounded_ufp.alpha >= prev -. slack
      && nondecreasing e.Bounded_ufp.alpha rest
  in
  add
    (finding "alpha-monotone" (nondecreasing 0.0 trace)
       "normalised path lengths are nondecreasing across iterations");
  (* 4. z bookkeeping: v_r for winners, 0 for losers (line 12). *)
  let selected = Solution.selected run.Bounded_ufp.solution in
  let z_ok = ref true in
  Array.iteri
    (fun i z ->
      let expected =
        if List.mem i selected then (Instance.request inst i).Request.value
        else 0.0
      in
      if Float.abs (z -. expected) > slack then z_ok := false)
    run.Bounded_ufp.final_z;
  add (finding "z-bookkeeping" !z_ok "z_r = v_r exactly for winners, 0 otherwise");
  (* 5. The running D1 matches the final duals. *)
  (match List.rev trace with
  | [] ->
    add (finding "d1-consistency" true "no iterations, nothing to check")
  | last :: _ ->
    let recomputed = Duality.dual_objective_repeat inst ~y:run.Bounded_ufp.final_y in
    add
      (finding "d1-consistency"
         (Float.abs (recomputed -. last.Bounded_ufp.d1)
         <= Float_tol.loose_check_eps *. Float.max 1.0 recomputed)
         (Printf.sprintf "recomputed %.6g vs tracked %.6g" recomputed
            last.Bounded_ufp.d1)));
  (* 6. Weak duality against the certificate. *)
  let value = Solution.value inst run.Bounded_ufp.solution in
  add
    (finding "weak-duality"
       (value <= run.Bounded_ufp.certified_upper_bound +. Float_tol.loose_check_eps)
       (Printf.sprintf "P = %.6g <= D = %.6g" value
          run.Bounded_ufp.certified_upper_bound));
  (* 7. The Claim 3.6 scaled dual is feasible for the Figure 1 dual. *)
  (match List.rev trace with
  | [] -> add (finding "scaled-dual" true "no iterations, nothing to check")
  | last :: _ ->
    let alpha = last.Bounded_ufp.alpha in
    if alpha <= 0.0 then
      add (finding "scaled-dual" false "nonpositive alpha in the last iteration")
    else begin
      let y = Array.map (fun v -> v /. alpha) run.Bounded_ufp.final_y in
      add
        (finding "scaled-dual"
           (Duality.dual_feasible ~eps:Float_tol.duality_check_eps inst ~y ~z:run.Bounded_ufp.final_z)
           (Printf.sprintf "(y/%.6g, z) satisfies the Figure 1 dual" alpha))
    end);
  let findings = List.rev !findings in
  { findings; all_passed = List.for_all (fun f -> f.passed) findings }

let pp ppf r =
  List.iter
    (fun f ->
      Format.fprintf ppf "[%s] %-16s %s@."
        (if f.passed then "PASS" else "FAIL")
        f.check f.detail)
    r.findings;
  Format.fprintf ppf "audit: %s@."
    (if r.all_passed then "all checks passed" else "CHECKS FAILED")
