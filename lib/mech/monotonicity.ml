module Rng = Ufp_prelude.Rng
module Instance = Ufp_instance.Instance
module Request = Ufp_instance.Request
module Auction = Ufp_auction.Auction

type ufp_violation = {
  agent : int;
  original_type : float * float;
  improved_type : float * float;
}

(* The sampling loop of both checkers: up to [trials] times, pick a
   random winner of [won] and ask [violation rng agent] whether one
   sampled improvement of its type makes it lose; the first such
   violation, if any. *)
let first_violation ~trials ~seed won violation =
  let rng = Rng.create seed in
  let winners =
    Array.of_list (List.filter (Array.get won) (List.init (Array.length won) Fun.id))
  in
  let rec go k =
    if k >= trials || Array.length winners = 0 then None
    else
      match violation rng (Rng.pick rng winners) with
      | None -> go (k + 1)
      | found -> found
  in
  go 0

let check_ufp ?(trials = 100) ~seed algo inst =
  first_violation ~trials ~seed (Ufp_mechanism.winners algo inst)
    (fun rng agent ->
      let r = Instance.request inst agent in
      let d' = r.Request.demand *. Rng.float_in rng 0.5 1.0 in
      let v' = r.Request.value *. Rng.float_in rng 1.0 2.0 in
      let improved =
        Instance.with_request inst agent
          (Request.with_type r ~demand:d' ~value:v')
      in
      if (Ufp_mechanism.winners algo improved).(agent) then None
      else
        Some
          {
            agent;
            original_type = (r.Request.demand, r.Request.value);
            improved_type = (d', v');
          })

type muca_violation = {
  bid : int;
  original_value : float;
  improved_value : float;
  shrunk_bundle : bool;
}

let shrink_bundle rng bundle =
  (* Drop each item with probability 1/4, keeping at least one. *)
  let kept = List.filter (fun _ -> Rng.float rng 1.0 >= 0.25) bundle in
  if kept = [] then [ List.hd bundle ] else kept

let check_muca ?(trials = 100) ?(shrink_bundles = true) ~seed algo auction =
  first_violation ~trials ~seed (Muca_mechanism.winners algo auction)
    (fun rng bid_idx ->
      let b = Auction.bid auction bid_idx in
      let v' = b.Auction.value *. Rng.float_in rng 1.0 2.0 in
      let shrink = shrink_bundles && Rng.bool rng in
      let bundle' =
        if shrink then shrink_bundle rng b.Auction.bundle else b.Auction.bundle
      in
      let improved =
        Auction.with_bid auction bid_idx
          (Auction.make_bid ~bundle:bundle' ~value:v')
      in
      if (Muca_mechanism.winners algo improved).(bid_idx) then None
      else
        Some
          {
            bid = bid_idx;
            original_value = b.Auction.value;
            improved_value = v';
            shrunk_bundle = shrink;
          })
