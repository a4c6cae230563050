module Pd_engine = Ufp_core.Pd_engine

type trace_entry = Pd_engine.trace_entry = {
  iteration : int; selected : int; path : int list;
  alpha : float; d1 : float; dual_bound : float;
}

type run = {
  allocation : Auction.Allocation.t;
  trace : trace_entry list;
  final_y : float array;
  budget_exhausted : bool;
  certified_upper_bound : float;
  iterations : int;
}

let theorem_ratio = Ufp_core.Bounded_ufp.theorem_ratio

let run ?(eps = 0.1) auction =
  if not (eps > 0.0 && eps <= 1.0) then
    invalid_arg "Bounded_muca: eps must be in (0, 1]";
  if Auction.n_bids auction = 0 then invalid_arg "Bounded_muca: no bids";
  let m = Auction.n_items auction in
  if m = 0 then invalid_arg "Bounded_muca: no items";
  let bids = Auction.bids auction in
  let { Pd_engine.trace; final_y; budget_exhausted; certified_upper_bound;
        iterations; _ } =
    Pd_engine.execute_bundles
      (Pd_engine.algorithm_1 ~eps ~b:(float_of_int (Auction.bound auction)))
      ~capacities:
        (Array.init m (fun u -> float_of_int (Auction.multiplicity auction u)))
      ~bundles:(Array.map (fun (b : Auction.bid) -> b.Auction.bundle) bids)
      ~values:(Array.map (fun (b : Auction.bid) -> b.Auction.value) bids)
  in
  { allocation = List.map (fun t -> t.selected) trace; trace; final_y;
    budget_exhausted; certified_upper_bound; iterations }

let solve ?eps auction = (run ?eps auction).allocation
