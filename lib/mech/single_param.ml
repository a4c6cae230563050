module Float_tol = Ufp_prelude.Float_tol
module Metrics = Ufp_obs.Metrics
module Trace = Ufp_obs.Trace
module Pool = Ufp_par.Pool

let m_probes = Metrics.counter "mech.payment_probes"

let m_warm_hits = Metrics.counter "mech.warm_start_hits"

let m_checks = Metrics.counter "mech.certificate_checks"

let m_failures = Metrics.counter "mech.certificate_failures"

let h_probes_per_winner = Metrics.histogram "mech.probes_per_winner"

type 'inst model = {
  n_agents : 'inst -> int;
  get_value : 'inst -> int -> float;
  set_value : 'inst -> int -> float -> 'inst;
  winners : 'inst -> bool array;
}

let is_winner model inst agent = (model.winners inst).(agent)

type warm = [ `Cold | `Declared | `Hinted of int -> float ]

let default_v_hi model inst =
  let n = model.n_agents inst in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. model.get_value inst i
  done;
  4.0 *. Float.max !total 1.0

(* The one probe: does [agent] win when it alone re-declares [v]? *)
let wins_at model inst agent v =
  Metrics.incr m_probes;
  is_winner model (model.set_value inst agent v) agent

(* [critical_value] without a hint. *)
let bisect ?v_hi ~rel_tol ~known_winner model inst ~agent =
  let v_hi = match v_hi with Some v -> v | None -> default_v_hi model inst in
  let probes = ref 0 in
  let wins v =
    incr probes;
    wins_at model inst agent v
  in
  (* Warm start, upper end: a caller that already knows this agent wins
     at its declaration (the winner array of the forward solve) has
     certified [wins declared] — [set_value] to the declaration itself
     rebuilds a field-equal instance and the allocation is
     deterministic — so by monotonicity the critical value lies in
     [0, declared] and the [wins v_hi] ceiling probe carries no
     information. The warm bracket is tighter by the factor
     [v_hi / declared] (>= 4n on uniform values), which the bisection
     converts into probes saved.

     The bracket top is the declaration itself, NOT [min v_hi
     declared]: the certificate lives at the declaration, and
     monotonicity extends it upward only, so a caller-supplied [v_hi]
     below the declaration certifies nothing. Capping there would
     break the "wins hi" invariant silently — every probe loses, the
     bisection converges onto [v_hi], and a winner whose critical
     value lies in (v_hi, declared] gets undercharged, breaking
     truthfulness. (Cold mode surfaces the same misuse loudly: the
     ceiling probe fails and the result is [None].) The returned
     critical value may therefore exceed a small custom [v_hi]; payment
     callers already clamp at the declaration. *)
  let start =
    if known_winner then Some (model.get_value inst agent)
    else if wins v_hi then Some v_hi
    else None
  in
  let result =
    match start with
    | None -> None
    | Some hi0 ->
      (* Invariant: wins hi, loses lo (or lo = 0, an open bound since
         declarations must be positive). Convergence is measured
         against the current upper bound [!hi], not the starting
         [v_hi]: [v_hi] defaults to 4x the sum of all declared values,
         so a [v_hi]-relative stop would make the absolute error grow
         linearly with instance size even when the critical value
         itself is tiny. [!hi] converges onto the critical value from
         above, so [rel_tol * max 1.0 !hi] is a tolerance relative to
         the answer (floored at absolute [rel_tol] for sub-unit
         critical values). *)
      let lo = ref 0.0 and hi = ref hi0 in
      if known_winner then Metrics.incr m_warm_hits;
      while !hi -. !lo > rel_tol *. Float.max 1.0 !hi do
        let mid = 0.5 *. (!lo +. !hi) in
        if mid > 0.0 && wins mid then hi := mid else lo := mid
      done;
      Some !hi
  in
  Metrics.observe h_probes_per_winner (float_of_int !probes);
  result

let critical_value ?v_hi ?(rel_tol = Float_tol.payment_rel_tol)
    ?(known_winner = false) ?lo_hint model inst ~agent =
  Trace.with_span "mech.critical_value" @@ fun () ->
  match lo_hint with
  | Some h ->
    (* Pay the counterfactual: a hint is the caller's exact critical
       value (for Algorithm 1, the counterfactual run's [min_t d_i L_i(t)
       / alpha_sel(t)]), so it is the answer, at no probe. [certify] is
       the two-probe check of such a value. *)
    Metrics.incr m_warm_hits;
    Metrics.observe h_probes_per_winner 0.0;
    Some h
  | None -> bisect ?v_hi ~rel_tol ~known_winner model inst ~agent

let certify model inst ~agent ~payment =
  Trace.with_span "mech.certify" @@ fun () ->
  Metrics.incr m_checks;
  (* [delta] is a quarter of the bisection's stop rule at [payment], so
     a certified payment lies within [payment_rel_tol/4 * max 1
     payment] of the true critical value. Below a payment of [delta]
     the lower probe would leave the positive declarations and is
     skipped. *)
  let delta = 0.25 *. Float_tol.payment_rel_tol *. Float.max 1.0 payment in
  let below = payment -. delta in
  let ok =
    wins_at model inst agent (payment +. delta)
    && (below <= 0.0 || not (wins_at model inst agent below))
  in
  if not ok then Metrics.incr m_failures;
  ok

let payments ?v_hi ?rel_tol ?(warm = `Declared) ?(pool = `Seq) model inst =
  let winners = model.winners inst in
  (* Hoist the probe ceiling out of the per-winner loop: [default_v_hi]
     sums every declaration, so leaving it to [critical_value] would
     cost O(n) per winner — accidental O(n^2) on instances where most
     agents win. One value for all agents is also what makes the
     per-agent probes independent, hence safe to fan out. *)
  let v_hi = match v_hi with Some v -> v | None -> default_v_hi model inst in
  (* [winners.(i)] certifies [known_winner] for every warm mode except
     [`Cold]; [`Hinted] hands [critical_value] the caller's exact
     critical value, which it returns as it is. Warm payments agree
     with cold ones within the bisection tolerance but not bitwise
     (different midpoint sequences, or none) — the warm-vs-cold QCheck
     laws in test/test_mech.ml pin the tolerance bound. *)
  let known_winner, lo_hint =
    match warm with
    | `Cold -> (false, fun _ -> None)
    | `Declared -> (true, fun _ -> None)
    | `Hinted h -> (true, fun i -> Some (h i))
  in
  let payment_of i =
    if not winners.(i) then 0.0
    else
      match
        critical_value ~v_hi ?rel_tol ~known_winner ?lo_hint:(lo_hint i) model
          inst ~agent:i
      with
      | Some c -> Float.min c (model.get_value inst i)
      | None ->
        (* Cannot happen for a monotone rule: the agent wins at its
           declaration, hence also at the larger v_hi. Charge the
           declaration as a conservative fallback. *)
        model.get_value inst i
  in
  (* Each agent's bisection touches only its own copy of the instance
     ([set_value] is functional), so the probes are independent pure
     tasks: [`Pool p] computes bitwise the same array as [`Seq].
     ufp-lint R7/R8 statically audits [payment_of]'s transitive call
     graph at this seed (docs/LINTING.md). *)
  Pool.parallel_mapi ~pool ~n:(Array.length winners) payment_of

let utility ?v_hi ?rel_tol model inst ~agent ~true_value ~declared_value =
  let reported = model.set_value inst agent declared_value in
  if not (is_winner model reported agent) then 0.0
  else begin
    let payment =
      match critical_value ?v_hi ?rel_tol model reported ~agent with
      | Some c -> c
      | None -> declared_value
    in
    true_value -. payment
  end

type spot_check = {
  agent : int;
  truthful_utility : float;
  best_misreport_utility : float;
  best_misreport : float option;
}

let spot_check_truthfulness ?v_hi ?rel_tol ?(slack = Float_tol.spot_check_slack) model inst ~agent
    ~misreports =
  let true_value = model.get_value inst agent in
  (* One probe ceiling for every misreport, computed from the base
     instance: the critical value does not depend on the agent's own
     declaration, so re-deriving v_hi per misreported instance would
     buy nothing and cost a value sum per utility call. *)
  let v_hi = match v_hi with Some v -> v | None -> default_v_hi model inst in
  let u v = utility ~v_hi ?rel_tol model inst ~agent ~true_value ~declared_value:v in
  let truthful_utility = u true_value in
  let best_misreport_utility = ref truthful_utility in
  let best_misreport = ref None in
  List.iter
    (fun v ->
      let uv = u v in
      if
        uv > !best_misreport_utility
        && uv -. truthful_utility > slack *. Float.max 1.0 truthful_utility
      then begin
        best_misreport_utility := uv;
        best_misreport := Some v
      end)
    misreports;
  {
    agent;
    truthful_utility;
    best_misreport_utility = !best_misreport_utility;
    best_misreport = !best_misreport;
  }
