module Reasonable = Ufp_core.Reasonable
module Rng = Ufp_prelude.Rng

type state = { auction : Auction.t; loads : int array }

type priority = state -> Auction.bid -> float

let h_muca ~eps st (bid : Auction.bid) =
  let b = float_of_int (Auction.bound st.auction) in
  let term u =
    let c = float_of_int (Auction.multiplicity st.auction u) in
    exp (eps *. b *. float_of_int st.loads.(u) /. c) /. c
  in
  List.fold_left (fun acc u -> acc +. term u) 0.0 bid.Auction.bundle
  /. bid.Auction.value

let bundle_size _ (bid : Auction.bid) =
  float_of_int (List.length bid.Auction.bundle) /. bid.Auction.value

let max_load st (bid : Auction.bid) =
  let worst =
    List.fold_left (fun acc u -> max acc st.loads.(u)) 0 bid.Auction.bundle
  in
  float_of_int ((worst + 1) * List.length bid.Auction.bundle)
  /. bid.Auction.value

type tie_break = state -> int list -> int

let first_bid _ = function
  | [] -> invalid_arg "Reasonable_bundle.tie_break: no candidates"
  | i :: _ -> i

let random_bid ~seed =
  let rng = Rng.create seed in
  fun _ cands ->
    match cands with
    | [] -> invalid_arg "Reasonable_bundle.tie_break: no candidates"
    | _ -> Rng.pick rng (Array.of_list cands)

type result = { allocation : Auction.Allocation.t; iterations : int }

let run ~priority ~tie_break auction =
  let st = { auction; loads = Array.make (Auction.n_items auction) 0 } in
  let bid = Auction.bid auction in
  let fits (b : Auction.bid) =
    List.for_all
      (fun u -> st.loads.(u) + 1 <= Auction.multiplicity auction u)
      b.Auction.bundle
  in
  (* Each bid's one candidate is its bundle, while the bundle fits. *)
  let selected =
    Reasonable.minimize ~n_requests:(Auction.n_bids auction)
      ~group:(fun i -> (bid i).Auction.bundle, (bid i).Auction.value)
      ~candidates:(fun i ->
        let b = bid i in
        if fits b then Seq.return b.Auction.bundle else Seq.empty)
      ~priority:(fun i _ -> priority st (bid i))
      ~tie_break:(fun tied ->
        let i =
          tie_break st (List.map (fun c -> c.Reasonable.cand_request) tied)
        in
        { Reasonable.cand_request = i; cand_path = (bid i).Auction.bundle })
      ~select:(fun c ->
        List.iter (fun u -> st.loads.(u) <- st.loads.(u) + 1) c.Reasonable.cand_path)
  in
  let allocation = List.map (fun c -> c.Reasonable.cand_request) selected in
  { allocation; iterations = List.length allocation }
