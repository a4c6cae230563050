(* The one file where inline tolerance literals are legal (ufp-lint
   rule R1): every slack below is named once here and referenced
   everywhere else, so a retune is a single-line diff and the linter
   can prove no magic epsilon hides in a solver.  The groupings mirror
   docs/LINTING.md; values are frozen — renaming PRs must not retune. *)

let default_eps = 1e-9

let capacity_slack = 1e-9

(* --- LP / flow solver tolerances --- *)

let lp_pivot_eps = 1e-9

let lp_support_eps = 1e-9

let lp_price_tol = 1e-7

let lp_exact_tol = 1e-12

let maxflow_eps = 1e-12

let greedy_prune_tol = 1e-12

(* --- selection / tie-breaking --- *)

let tie_rel = 1e-9

(* --- mechanism (payments, truthfulness probes) --- *)

let payment_rel_tol = 1e-6

let fine_rel_tol = 1e-7

let spot_check_slack = 1e-5

let coarse_slack = 1e-4

let report_slack = 1e-3

let demand_tol = 1e-12

(* --- verification, audits and test assertions --- *)

let duality_check_eps = 1e-6

let check_eps = 1e-9

let loose_check_eps = 1e-6

let tight_eps = 1e-12

let contention_tol = 1e-9

let div_guard = 1e-9

(* [max 1 (max |a| |b|)] in plain comparisons, so a caller's floats
   stay unboxed. It differs from [Float.max] only when [a] or [b] is
   NaN, and then every comparison below is false either way. *)
let[@inline] scale a b =
  let a = Float.abs a and b = Float.abs b in
  let s = if a >= b then a else b in
  if s >= 1.0 then s else 1.0

let approx_eq ?(eps = default_eps) a b = Float.abs (a -. b) <= eps *. scale a b

let leq ?(eps = default_eps) a b = a <= b +. (eps *. scale a b)

let geq ?(eps = default_eps) a b = a >= b -. (eps *. scale a b)

(* [leq] at [default_eps], written out so [scale] inlines into the
   loop. *)
let rec first_not_leq_from (a : float array) (b : floatarray) i =
  if i = Array.length a then -1
  else begin
    let x = Array.unsafe_get a i and y = Float.Array.unsafe_get b i in
    if x <= y +. (default_eps *. scale x y) then first_not_leq_from a b (i + 1) else i
  end

let first_not_leq a b =
  if Float.Array.length b < Array.length a then invalid_arg "Float_tol.first_not_leq";
  first_not_leq_from a b 0

let clamp ~lo ~hi x = Float.min hi (Float.max lo x)
