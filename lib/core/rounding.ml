module Graph = Ufp_graph.Graph
module Instance = Ufp_instance.Instance
module Request = Ufp_instance.Request
module Solution = Ufp_instance.Solution
module Mcf = Ufp_lp.Mcf
module Rng = Ufp_prelude.Rng
module Float_tol = Ufp_prelude.Float_tol

type trial = {
  tentative_value : float;
  tentative_feasible : bool;
  value : float;
  solution : Solution.t;
}

let group_flow flow =
  let by_request = Hashtbl.create 16 in
  List.iter
    (fun (i, path, amount) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_request i) in
      Hashtbl.replace by_request i ((path, amount) :: cur))
    flow;
  Hashtbl.fold (fun i paths acc -> (i, paths) :: acc) by_request []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let round_flow ~flow ?(eps = 0.1) ~seed inst =
  if not (eps >= 0.0 && eps < 1.0) then
    invalid_arg "Rounding.round: eps must be in [0, 1)";
  let g = Instance.graph inst in
  let rng = Rng.create seed in
  let picked = ref [] in
  List.iter
    (fun (i, paths) ->
      let x_r = List.fold_left (fun acc (_, a) -> acc +. a) 0.0 paths in
      if x_r > 0.0 && Rng.float rng 1.0 < (1.0 -. eps) *. x_r then begin
        let u = Rng.float rng x_r in
        let rec draw acc = function
          | [] ->
            ((assert false)
            [@lint.allow "R4" "unreachable: u < x_r, the sum of path amounts"])
          | [ (p, _) ] -> p
          | (p, a) :: rest -> if u < acc +. a then p else draw (acc +. a) rest
        in
        picked := { Solution.request = i; path = draw 0.0 paths } :: !picked
      end)
    (group_flow flow);
  let tentative = List.rev !picked in
  let tentative_value = Solution.value inst tentative in
  let tentative_feasible = Solution.is_feasible inst tentative in
  (* Alteration: admit in seeded random order, dropping overflows. The
     shuffle starts from the last-selected-first order, part of what a
     seed determines. *)
  let arr = Array.of_list !picked in
  Rng.shuffle rng arr;
  let residual = Graph.capacities g in
  let admit acc (a : Solution.allocation) =
    let d = (Instance.request inst a.Solution.request).Request.demand in
    if List.for_all (fun e -> residual.(e) +. Float_tol.capacity_slack >= d) a.Solution.path then begin
      List.iter (fun e -> residual.(e) <- residual.(e) -. d) a.Solution.path;
      a :: acc
    end
    else acc
  in
  let solution = List.rev (Array.fold_left admit [] arr) in
  {
    tentative_value;
    tentative_feasible;
    value = Solution.value inst solution;
    solution;
  }

let round ?lp ?eps ~seed inst =
  (match eps with
  | Some e when not (e >= 0.0 && e < 1.0) ->
    invalid_arg "Rounding.round: eps must be in [0, 1)"
  | _ -> ());
  let lp =
    match lp with
    | Some lp -> lp
    | None ->
      Mcf.solve ~eps:(Float.max (Option.value ~default:0.1 eps) 0.05) inst
  in
  let flow =
    List.map
      (fun (pf : Mcf.path_flow) ->
        (pf.Mcf.pf_request, pf.Mcf.pf_path, pf.Mcf.pf_amount))
      lp.Mcf.flow
  in
  round_flow ~flow ?eps ~seed inst

let success_probability ?(eps = 0.1) ~trials ~seed inst =
  if trials <= 0 then invalid_arg "Rounding.success_probability: trials <= 0";
  let lp = Mcf.solve ~eps:(Float.max eps 0.05) inst in
  let feasible = ref 0 and value_sum = ref 0.0 in
  for k = 1 to trials do
    let t = round ~lp ~eps ~seed:(seed + (k * 7919)) inst in
    if t.tentative_feasible then incr feasible;
    value_sum := !value_sum +. t.value
  done;
  let denom = Float.max lp.Mcf.upper_bound Float_tol.tight_eps in
  ( float_of_int !feasible /. float_of_int trials,
    !value_sum /. float_of_int trials /. denom )
