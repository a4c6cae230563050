module Rng = Ufp_prelude.Rng
module Gen = Ufp_graph.Generators
module Instance = Ufp_instance.Instance
module Workloads = Ufp_instance.Workloads
module Auction = Ufp_auction.Auction

let e_ratio = Float.exp 1.0 /. (Float.exp 1.0 -. 1.0)

let grid_instance ~seed ~rows ~cols ~capacity ~count =
  let rng = Rng.create seed in
  let g = Gen.grid ~rows ~cols ~capacity in
  Instance.create g (Workloads.random_requests rng g ~count ())

let layered_instance ~seed ~layers ~width ~capacity ~count =
  let rng = Rng.create seed in
  let g =
    Gen.layered rng ~layers ~width ~edge_prob:0.4 ~capacity_lo:capacity
      ~capacity_hi:(capacity *. 1.5)
  in
  Instance.create g (Workloads.random_requests rng g ~count ())

let capacity_for ~m ~eps = Float.ceil (log (float_of_int m) /. (eps *. eps))

let random_auction ~seed ~items ~multiplicity ~bids ~bundle =
  let rng = Rng.create seed in
  let bid _ =
    Auction.make_bid
      ~bundle:(Rng.sample_without_replacement rng bundle items)
      ~value:(Rng.float_in rng 0.5 3.0)
  in
  Auction.create ~multiplicities:(Array.make items multiplicity)
    (Array.init bids bid)

let pct x = Printf.sprintf "%.1f%%" (100.0 *. x)

let ratio_cell num den =
  if den <= 0.0 then "-" else Printf.sprintf "%.4f" (num /. den)

let time_it f =
  let t0 = Monotonic_clock.now () in
  let v = f () in
  (v, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9)

let counters_during f =
  let before = Ufp_obs.Metrics.snapshot () in
  let v = f () in
  let delta = Ufp_obs.Metrics.diff before (Ufp_obs.Metrics.snapshot ()) in
  (v, List.filter (fun (_, n) -> n <> 0) delta.Ufp_obs.Metrics.counters)

let counter_delta deltas name =
  Option.value ~default:0 (List.assoc_opt name deltas)
