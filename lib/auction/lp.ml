module Mcf = Ufp_lp.Mcf

type result = {
  feasible_value : float;
  upper_bound : float;
  fractions : float array;
  iterations : int;
}

let solve ?(eps = 0.1) auction =
  if not (eps > 0.0 && eps < 1.0) then invalid_arg "Lp.solve: eps must be in (0,1)";
  let bids = Auction.bids auction in
  let n = Array.length bids in
  (* Each bid's one column is its bundle, at demand 1: the cheapest
     bid under the current duals, the first minimum winning. *)
  let columns ~y ~z =
    let price i =
      let bid = bids.(i) in
      (z.(i) +. List.fold_left (fun acc u -> acc +. y.(u)) 0.0 bid.Auction.bundle)
      /. bid.Auction.value
    in
    let best_column () =
      let best = ref 0 and best_price = ref (price 0) in
      for i = 1 to n - 1 do
        let p = price i in
        if p < !best_price then begin
          best := i;
          best_price := p
        end
      done;
      Some (!best_price, !best, bids.(!best).Auction.bundle)
    in
    { Mcf.best_column; after_update = ignore }
  in
  let r =
    Mcf.garg_konemann ~eps
      ~capacities:
        (Array.init (Auction.n_items auction) (fun u ->
             float_of_int (Auction.multiplicity auction u)))
      ~demands:(Array.make n 1.0)
      ~values:(Array.map (fun (bid : Auction.bid) -> bid.Auction.value) bids)
      columns
  in
  let fractions = Array.make n 0.0 in
  List.iter
    (fun (pf : Mcf.path_flow) -> fractions.(pf.Mcf.pf_request) <- pf.Mcf.pf_amount)
    r.Mcf.flow;
  {
    feasible_value = r.Mcf.feasible_value;
    upper_bound = r.Mcf.upper_bound;
    fractions;
    iterations = r.Mcf.iterations;
  }

let upper_bound ?eps auction = (solve ?eps auction).upper_bound
