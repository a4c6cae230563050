(* Tests for Ufp_auction: auction, bounded_muca, lp and
   reasonable_bundle (each also against its hand-written loop),
   lower_bound, baselines. *)

module Auction = Ufp_auction.Auction
module Bounded_muca = Ufp_auction.Bounded_muca
module Lower_bound = Ufp_auction.Lower_bound
module Reasonable_bundle = Ufp_auction.Reasonable_bundle
module Baselines = Ufp_auction.Baselines
module Lp = Ufp_auction.Lp
module Workloads = Ufp_auction.Workloads
module Metrics = Ufp_obs.Metrics
module Trace = Ufp_obs.Trace
module Rng = Ufp_prelude.Rng
module Float_tol = Ufp_prelude.Float_tol

let check_float = Alcotest.(check (float Float_tol.check_eps))

let random_auction ?(items = 8) ?(multiplicity = 6) ?(bids = 12)
    ?(bundle_size = 3) seed =
  let rng = Rng.create seed in
  let bid _ =
    let bundle = Rng.sample_without_replacement rng bundle_size items in
    Auction.make_bid ~bundle ~value:(Rng.float_in rng 0.5 3.0)
  in
  Auction.create
    ~multiplicities:(Array.make items multiplicity)
    (Array.init bids bid)

(* --- Auction --- *)

let test_make_bid () =
  let b = Auction.make_bid ~bundle:[ 3; 1; 3; 2 ] ~value:1.5 in
  Alcotest.(check (list int)) "sorted deduped" [ 1; 2; 3 ] b.Auction.bundle;
  check_float "value" 1.5 b.Auction.value

let test_make_bid_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Auction.make_bid: empty bundle")
    (fun () -> ignore (Auction.make_bid ~bundle:[] ~value:1.0));
  Alcotest.check_raises "negative item"
    (Invalid_argument "Auction.make_bid: negative item id") (fun () ->
      ignore (Auction.make_bid ~bundle:[ -1 ] ~value:1.0));
  Alcotest.check_raises "bad value"
    (Invalid_argument "Auction.make_bid: value must be positive and finite")
    (fun () -> ignore (Auction.make_bid ~bundle:[ 0 ] ~value:0.0))

let test_create_validation () =
  Alcotest.check_raises "bad multiplicity"
    (Invalid_argument "Auction.create: multiplicity <= 0") (fun () ->
      ignore (Auction.create ~multiplicities:[| 2; 0 |] [||]));
  Alcotest.check_raises "unknown item"
    (Invalid_argument "Auction.create: bundle references unknown item")
    (fun () ->
      ignore
        (Auction.create ~multiplicities:[| 2 |]
           [| Auction.make_bid ~bundle:[ 5 ] ~value:1.0 |]))

let test_accessors () =
  let a =
    Auction.create ~multiplicities:[| 3; 5 |]
      [| Auction.make_bid ~bundle:[ 0; 1 ] ~value:2.0 |]
  in
  Alcotest.(check int) "items" 2 (Auction.n_items a);
  Alcotest.(check int) "bids" 1 (Auction.n_bids a);
  Alcotest.(check int) "multiplicity" 5 (Auction.multiplicity a 1);
  Alcotest.(check int) "bound" 3 (Auction.bound a);
  check_float "total value" 2.0 (Auction.total_value a);
  Alcotest.check_raises "bad bid" (Invalid_argument "Auction.bid: index out of range")
    (fun () -> ignore (Auction.bid a 7))

let test_with_bid () =
  let a =
    Auction.create ~multiplicities:[| 3; 5 |]
      [| Auction.make_bid ~bundle:[ 0 ] ~value:2.0 |]
  in
  let a' = Auction.with_bid a 0 (Auction.make_bid ~bundle:[ 1 ] ~value:4.0) in
  check_float "replaced value" 4.0 (Auction.bid a' 0).Auction.value;
  check_float "original intact" 2.0 (Auction.bid a 0).Auction.value

let test_allocation_check () =
  let a =
    Auction.create ~multiplicities:[| 1; 2 |]
      [|
        Auction.make_bid ~bundle:[ 0; 1 ] ~value:1.0;
        Auction.make_bid ~bundle:[ 0 ] ~value:1.0;
        Auction.make_bid ~bundle:[ 1 ] ~value:1.0;
      |]
  in
  Alcotest.(check bool) "ok" true (Auction.Allocation.is_feasible a [ 0; 2 ]);
  Alcotest.(check bool) "item 0 over-allocated" false
    (Auction.Allocation.is_feasible a [ 0; 1 ]);
  Alcotest.(check bool) "duplicate bid" false
    (Auction.Allocation.is_feasible a [ 1; 1 ]);
  Alcotest.(check bool) "unknown bid" false
    (Auction.Allocation.is_feasible a [ 9 ]);
  check_float "value" 2.0 (Auction.Allocation.value a [ 0; 2 ]);
  Alcotest.(check (array int)) "loads" [| 1; 2 |]
    (Auction.Allocation.item_loads a [ 0; 2 ])

let test_meets_bound () =
  let a =
    Auction.create ~multiplicities:[| 9; 9 |]
      [| Auction.make_bid ~bundle:[ 0 ] ~value:1.0 |]
  in
  Alcotest.(check bool) "meets for eps=1" true (Auction.meets_bound a ~eps:1.0);
  Alcotest.(check bool) "fails for tiny eps" false (Auction.meets_bound a ~eps:0.01)

(* --- Bounded_muca --- *)

let test_muca_feasible () =
  for seed = 1 to 10 do
    let a = random_auction seed in
    let alloc = Bounded_muca.solve ~eps:0.3 a in
    Alcotest.(check bool)
      (Printf.sprintf "feasible seed %d" seed)
      true
      (Auction.Allocation.is_feasible a alloc)
  done

let test_muca_ample_selects_all () =
  let a = random_auction ~multiplicity:50 ~bids:10 3 in
  let run = Bounded_muca.run ~eps:0.2 a in
  Alcotest.(check int) "all bids" 10 (List.length run.Bounded_muca.allocation);
  Alcotest.(check bool) "no budget stop" false run.Bounded_muca.budget_exhausted

let test_muca_prefers_value () =
  (* One item with one copy; two bids on it. *)
  let a =
    Auction.create ~multiplicities:[| 1 |]
      [|
        Auction.make_bid ~bundle:[ 0 ] ~value:1.0;
        Auction.make_bid ~bundle:[ 0 ] ~value:9.0;
      |]
  in
  Alcotest.(check (list int)) "takes the big bid" [ 1 ] (Bounded_muca.solve a)

let test_muca_certified_bound () =
  for seed = 1 to 6 do
    let a = random_auction ~multiplicity:8 ~bids:10 seed in
    let opt = Baselines.opt_value a in
    let run = Bounded_muca.run ~eps:0.3 a in
    Alcotest.(check bool)
      (Printf.sprintf "bound >= OPT seed %d" seed)
      true
      (run.Bounded_muca.certified_upper_bound >= opt -. Float_tol.loose_check_eps)
  done

let test_muca_trace () =
  let a = random_auction ~multiplicity:20 ~bids:10 5 in
  let run = Bounded_muca.run ~eps:0.2 a in
  Alcotest.(check int) "trace length" run.Bounded_muca.iterations
    (List.length run.Bounded_muca.trace);
  let rec nondecreasing prev = function
    | [] -> true
    | (e : Bounded_muca.trace_entry) :: rest ->
      e.Bounded_muca.alpha >= prev -. Float_tol.check_eps && nondecreasing e.Bounded_muca.alpha rest
  in
  Alcotest.(check bool) "alphas nondecreasing" true
    (nondecreasing 0.0 run.Bounded_muca.trace)

let test_muca_validation () =
  let a = random_auction 1 in
  Alcotest.check_raises "eps" (Invalid_argument "Bounded_muca: eps must be in (0, 1]")
    (fun () -> ignore (Bounded_muca.run ~eps:2.0 a));
  Alcotest.check_raises "no bids" (Invalid_argument "Bounded_muca: no bids")
    (fun () -> ignore (Bounded_muca.run (Auction.create ~multiplicities:[| 1 |] [||])))

let test_muca_monotone_manual () =
  let a = random_auction ~multiplicity:10 ~bids:10 7 in
  match Bounded_muca.solve ~eps:0.3 a with
  | [] -> Alcotest.fail "expected winners"
  | w :: _ ->
    let b = Auction.bid a w in
    let improved =
      Auction.with_bid a w
        (Auction.make_bid ~bundle:b.Auction.bundle ~value:(b.Auction.value *. 2.0))
    in
    Alcotest.(check bool) "still wins with higher value" true
      (List.mem w (Bounded_muca.solve ~eps:0.3 improved));
    (* Unknown single-minded: shrinking the bundle also preserves
       winning (Section 4.1 remark). *)
    (match b.Auction.bundle with
    | [ _ ] -> () (* nothing to shrink *)
    | first :: _ ->
      let shrunk =
        Auction.with_bid a w
          (Auction.make_bid ~bundle:[ first ] ~value:b.Auction.value)
      in
      Alcotest.(check bool) "still wins with smaller bundle" true
        (List.mem w (Bounded_muca.solve ~eps:0.3 shrunk))
    | [] -> assert false)

(* --- Bounded_muca against its hand-written loop --- *)

(* Algorithm 2 written out by hand, sharing nothing with Pd_engine: a
   list of pending bids scanned for the least (sum_u y_u) / v, ties to
   the lowest index. *)
module Muca_oracle = struct
  type trace_entry = {
    iteration : int;
    selected : int;
    alpha : float;
    d1 : float;
    dual_bound : float;
  }

  type run = {
    allocation : Auction.Allocation.t;
    trace : trace_entry list;
    final_y : float array;
    budget_exhausted : bool;
    certified_upper_bound : float;
    iterations : int;
  }

  let budget ~eps ~b = exp (eps *. (b -. 1.0))

  let run ?(eps = 0.1) auction =
    if not (eps > 0.0 && eps <= 1.0) then
      invalid_arg "Bounded_muca: eps must be in (0, 1]";
    if Auction.n_bids auction = 0 then invalid_arg "Bounded_muca: no bids";
    let m = Auction.n_items auction in
    if m = 0 then invalid_arg "Bounded_muca: no items";
    let b = float_of_int (Auction.bound auction) in
    let budget = budget ~eps ~b in
    let y = Array.init m (fun u -> 1.0 /. float_of_int (Auction.multiplicity auction u)) in
    let d1 = ref (float_of_int m) in
    let d2 = ref 0.0 in
    let pending = ref (List.init (Auction.n_bids auction) Fun.id) in
    let allocation = ref [] in
    let trace = ref [] in
    let iterations = ref 0 in
    let best_bound = ref infinity in
    let budget_exhausted = ref false in
    let continue = ref true in
    while !continue do
      if !pending = [] then continue := false
      else if !d1 > budget then begin
        budget_exhausted := true;
        continue := false
      end
      else begin
        (* Bid minimising the normalised bundle price; ties to the lowest
           index (the pending list is kept increasing). *)
        let price (bid : Auction.bid) =
          List.fold_left (fun acc u -> acc +. y.(u)) 0.0 bid.Auction.bundle
          /. bid.Auction.value
        in
        let best = ref None in
        List.iter
          (fun i ->
            let alpha = price (Auction.bid auction i) in
            match !best with
            | Some (a, _) when a <= alpha -> ()
            | _ -> best := Some (alpha, i))
          !pending;
        match !best with
        | None -> continue := false
        | Some (alpha, i) ->
          incr iterations;
          let bound = if alpha > 0.0 then (!d1 /. alpha) +. !d2 else infinity in
          best_bound := Float.min !best_bound bound;
          let bid = Auction.bid auction i in
          List.iter
            (fun u ->
              let c = float_of_int (Auction.multiplicity auction u) in
              let old = y.(u) in
              y.(u) <- old *. exp (eps *. b /. c);
              d1 := !d1 +. (c *. (y.(u) -. old)))
            bid.Auction.bundle;
          d2 := !d2 +. bid.Auction.value;
          pending := List.filter (fun j -> j <> i) !pending;
          allocation := i :: !allocation;
          trace :=
            { iteration = !iterations; selected = i; alpha; d1 = !d1; dual_bound = bound }
            :: !trace
      end
    done;
    let allocation = List.rev !allocation in
    let value = Auction.Allocation.value auction allocation in
    let certified_upper_bound =
      (* With zero iterations under an exhausted budget there is no
         Claim 3.6 certificate; [infinity] reports that honestly. *)
      if !budget_exhausted then !best_bound else Float.min !best_bound value
    in
    {
      allocation;
      trace = List.rev !trace;
      final_y = y;
      budget_exhausted = !budget_exhausted;
      certified_upper_bound;
      iterations = !iterations;
    }
end

(* Auctions for the oracle law: the three Workloads generators, with
   multiplicities from 1 up to twice Theorem 4.1's premise
   ln m / eps^2, so runs stop on the budget (low B, often before the
   first iteration) and on an empty pool (high B); and the Figure 4
   partition instances, where every bundle ties at zero load, so only
   the tie rule decides the first selections. *)
let law_auction (kind, seed, draw) eps =
  let rng = Rng.create seed in
  let items = 4 + (seed mod 9) and bids = 5 + (draw mod 40) in
  let premise = int_of_float (Float.ceil (log (float_of_int items) /. (eps *. eps))) in
  let multiplicity = 1 + (draw / 40 mod (2 * premise)) in
  match kind with
  | 0 -> Workloads.uniform rng ~items ~multiplicity ~bids ()
  | 1 -> Workloads.intervals rng ~items ~multiplicity ~bids ()
  | 2 -> Workloads.weighted_items rng ~items ~multiplicity ~bids ()
  | _ ->
    (Lower_bound.make ~p:(3 + (2 * (seed mod 3))) ~b:(2 + (2 * (draw mod 16))) ())
      .Lower_bound.auction

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* The engine law for Algorithm 2: Bounded_muca.run (Pd_engine over
   fixed bundles) makes the hand-written loop's run bit for bit, step
   by step (bid, alpha, d1, dual bound, and the bid's bundle as the
   path) and in its result (winners, final duals, stop reason,
   iteration count, certificate). *)
let qcheck_muca_matches_oracle =
  QCheck.Test.make ~count:400
    ~name:"Bounded-MUCA matches its hand-written loop bit for bit"
    QCheck.(
      pair
        (triple (int_range 0 3) (int_range 0 1000) (int_range 0 10_000))
        (oneofl ~print:string_of_float [ 0.1; 0.3; 0.5; 1.0 ]))
    (fun (shape, eps) ->
      let a = law_auction shape eps in
      let o = Muca_oracle.run ~eps a and r = Bounded_muca.run ~eps a in
      let same_step (o : Muca_oracle.trace_entry) (e : Bounded_muca.trace_entry) =
        o.Muca_oracle.iteration = e.Bounded_muca.iteration
        && o.Muca_oracle.selected = e.Bounded_muca.selected
        && e.Bounded_muca.path = (Auction.bid a o.Muca_oracle.selected).Auction.bundle
        && same_bits o.Muca_oracle.alpha e.Bounded_muca.alpha
        && same_bits o.Muca_oracle.d1 e.Bounded_muca.d1
        && same_bits o.Muca_oracle.dual_bound e.Bounded_muca.dual_bound
      in
      let ot = o.Muca_oracle.trace and rt = r.Bounded_muca.trace in
      if not (List.compare_lengths ot rt = 0 && List.for_all2 same_step ot rt)
      then QCheck.Test.fail_reportf "the traces differ";
      o.Muca_oracle.allocation = r.Bounded_muca.allocation
      && Array.for_all2 same_bits o.Muca_oracle.final_y r.Bounded_muca.final_y
      && o.Muca_oracle.budget_exhausted = r.Bounded_muca.budget_exhausted
      && o.Muca_oracle.iterations = r.Bounded_muca.iterations
      && same_bits o.Muca_oracle.certified_upper_bound
           r.Bounded_muca.certified_upper_bound)

(* --- Lp and Reasonable_bundle against their hand-written loops --- *)

(* The auction LP's Garg–Könemann loop written out by hand, sharing
   nothing with Ufp_lp.Mcf: each iteration scans the bids for the least
   (z_i + sum_u y_u) / v_i, ties to the lowest index. *)
module Lp_oracle = struct
  type result = {
    feasible_value : float;
    upper_bound : float;
    fractions : float array;
    iterations : int;
  }

  let solve ?(eps = 0.1) auction =
    if not (eps > 0.0 && eps < 1.0) then invalid_arg "Lp.solve: eps must be in (0,1)";
    let m = Auction.n_items auction in
    let n = Auction.n_bids auction in
    if m = 0 || n = 0 then
      { feasible_value = 0.0; upper_bound = 0.0; fractions = Array.make n 0.0; iterations = 0 }
    else begin
      let n_rows = m + n in
      let delta =
        (1.0 +. eps) /. (((1.0 +. eps) *. float_of_int n_rows) ** (1.0 /. eps))
      in
      let cap u = float_of_int (Auction.multiplicity auction u) in
      let y = Array.init m (fun u -> delta /. cap u) in
      let z = Array.make n delta in
      let dual_total () =
        let acc = ref 0.0 in
        for u = 0 to m - 1 do
          acc := !acc +. (cap u *. y.(u))
        done;
        !acc +. Array.fold_left ( +. ) 0.0 z
      in
      let price i =
        let bid = Auction.bid auction i in
        (z.(i) +. List.fold_left (fun acc u -> acc +. y.(u)) 0.0 bid.Auction.bundle)
        /. bid.Auction.value
      in
      let raw = Array.make n 0.0 in
      let raw_value = ref 0.0 in
      let upper = ref infinity in
      let iterations = ref 0 in
      let continue = ref true in
      while !continue do
        (* Best column: the bid with the cheapest normalised price. *)
        let best = ref 0 and best_price = ref (price 0) in
        for i = 1 to n - 1 do
          let p = price i in
          if p < !best_price then begin
            best := i;
            best_price := p
          end
        done;
        let d = dual_total () in
        upper := Float.min !upper (d /. !best_price);
        if d >= 1.0 then continue := false
        else begin
          incr iterations;
          let i = !best in
          let bid = Auction.bid auction i in
          (* Bottleneck in x units: the bid row caps at 1 and every item
             row at c_u >= 1, so the step is always 1. *)
          raw.(i) <- raw.(i) +. 1.0;
          raw_value := !raw_value +. bid.Auction.value;
          List.iter (fun u -> y.(u) <- y.(u) *. (1.0 +. (eps /. cap u))) bid.Auction.bundle;
          z.(i) <- z.(i) *. (1.0 +. eps)
        end
      done;
      let scale = log ((1.0 +. eps) /. delta) /. log (1.0 +. eps) in
      {
        feasible_value = !raw_value /. scale;
        upper_bound = (if !upper = infinity then 0.0 else !upper);
        fractions = Array.map (fun x -> x /. scale) raw;
        iterations = !iterations;
      }
    end
end

(* The bundle minimizer written out by hand, sharing nothing with
   Ufp_core.Reasonable: identical bids grouped, every fitting group
   representative scored, the ties within tie_rel of the least
   priority sorted by bid index. *)
module Bundle_oracle = struct
  type result = { allocation : Auction.Allocation.t; iterations : int }

  let run ~priority ~tie_break auction =
    let st =
      { Reasonable_bundle.auction; loads = Array.make (Auction.n_items auction) 0 }
    in
    (* Group identical bids; pending lists kept increasing. *)
    let groups : (int list * float, int list ref) Hashtbl.t = Hashtbl.create 16 in
    for i = Auction.n_bids auction - 1 downto 0 do
      let b = Auction.bid auction i in
      let key = (b.Auction.bundle, b.Auction.value) in
      match Hashtbl.find_opt groups key with
      | Some l -> l := i :: !l
      | None -> Hashtbl.add groups key (ref [ i ])
    done;
    let fits (bid : Auction.bid) =
      List.for_all
        (fun u -> st.Reasonable_bundle.loads.(u) + 1 <= Auction.multiplicity auction u)
        bid.Auction.bundle
    in
    let tie_rel = Float_tol.tie_rel in
    let allocation = ref [] in
    let iterations = ref 0 in
    let continue = ref true in
    while !continue do
      let best_priority = ref infinity in
      let raw = ref [] in
      Hashtbl.iter
        (fun _key pending ->
          match !pending with
          | [] -> ()
          | rep :: _ ->
            let bid = Auction.bid auction rep in
            if fits bid then begin
              let p = priority st bid in
              if p < !best_priority then best_priority := p;
              raw := (p, rep) :: !raw
            end)
        groups;
      if !raw = [] then continue := false
      else begin
        let cutoff =
          !best_priority +. (tie_rel *. Float.max 1.0 (Float.abs !best_priority))
        in
        let tied =
          List.filter_map (fun (p, i) -> if p <= cutoff then Some i else None) !raw
          |> List.sort compare
        in
        let chosen = tie_break st tied in
        incr iterations;
        let bid = Auction.bid auction chosen in
        List.iter
          (fun u -> st.Reasonable_bundle.loads.(u) <- st.Reasonable_bundle.loads.(u) + 1)
          bid.Auction.bundle;
        allocation := chosen :: !allocation;
        let key = (bid.Auction.bundle, bid.Auction.value) in
        let pending = Hashtbl.find groups key in
        pending := List.filter (fun i -> i <> chosen) !pending
      end
    done;
    { allocation = List.rev !allocation; iterations = !iterations }
end

(* Auctions for the LP law: law_auction's, at multiplicities of at
   most 2 ln m / 0.81 and Figure 4 partitions with p <= 5 and B <= 8.
   The loop routes on the order of OPT_LP ln(n_rows) / eps^2 unit
   columns, so law_auction's larger auctions cost seconds at
   eps = 0.1. *)
let lp_auction ((kind, seed, draw) as shape) =
  if kind < 3 then law_auction shape 0.9
  else
    (Lower_bound.make ~p:(3 + (2 * (seed mod 2))) ~b:(2 + (2 * (draw mod 4))) ())
      .Lower_bound.auction

(* The LP law: Lp.solve (Mcf.garg_konemann over fixed bundles) makes
   the hand-written loop's result bit for bit — feasible value, upper
   bound, every fraction and the iteration count — at several eps. *)
let qcheck_lp_matches_oracle =
  QCheck.Test.make ~count:300
    ~name:"auction LP matches its hand-written loop bit for bit"
    QCheck.(
      pair
        (triple (int_range 0 3) (int_range 0 1000) (int_range 0 10_000))
        (oneofl ~print:string_of_float [ 0.1; 0.25; 0.5; 0.9 ]))
    (fun (shape, eps) ->
      let a = lp_auction shape in
      let o = Lp_oracle.solve ~eps a and r = Lp.solve ~eps a in
      same_bits o.Lp_oracle.feasible_value r.Lp.feasible_value
      && same_bits o.Lp_oracle.upper_bound r.Lp.upper_bound
      && Array.for_all2 same_bits o.Lp_oracle.fractions r.Lp.fractions
      && o.Lp_oracle.iterations = r.Lp.iterations)

(* The bundle-minimizer law: Reasonable_bundle.run (Reasonable.minimize
   over fixed bundles) selects the hand-written loop's bids in the
   hand-written loop's order, for every shipped priority and
   tie-break, the seeded random one included (each run gets a fresh
   generator from the same seed). *)
let qcheck_bundle_minimizer_matches_oracle =
  QCheck.Test.make ~count:400
    ~name:"bundle minimizer matches its hand-written loop"
    QCheck.(
      triple
        (triple (int_range 0 3) (int_range 0 1000) (int_range 0 10_000))
        (int_range 0 2) (int_range 0 2))
    (fun (shape, prio, tie) ->
      let a = law_auction shape 0.5 in
      let priority () =
        match prio with
        | 0 -> Reasonable_bundle.h_muca ~eps:0.3
        | 1 -> Reasonable_bundle.bundle_size
        | _ -> Reasonable_bundle.max_load
      in
      let tie_break () =
        match tie with
        | 0 -> Reasonable_bundle.first_bid
        | 1 -> Reasonable_bundle.random_bid ~seed:7
        | _ -> Reasonable_bundle.random_bid ~seed:(Auction.n_bids a)
      in
      let o = Bundle_oracle.run ~priority:(priority ()) ~tie_break:(tie_break ()) a in
      let r = Reasonable_bundle.run ~priority:(priority ()) ~tie_break:(tie_break ()) a in
      o.Bundle_oracle.allocation = r.Reasonable_bundle.allocation
      && o.Bundle_oracle.iterations = r.Reasonable_bundle.iterations)

(* A Bounded_muca run is an engine run: it counts under pd.* (one run,
   its iterations, one dual update per item of each winning bundle)
   and, with the tracer on, emits one pd.select instant per
   iteration. *)
let test_muca_is_engine_run () =
  let a = random_auction ~multiplicity:20 ~bids:12 11 in
  let names = [ "pd.runs"; "pd.iterations"; "pd.dual_updates" ] in
  let counts () = List.map (fun n -> Metrics.value (Metrics.counter n)) names in
  let before = counts () in
  Trace.start ();
  let run = Bounded_muca.run ~eps:0.3 a in
  Trace.stop ();
  let after = counts () in
  let selects = ref 0 in
  Trace.iter_events (fun ev -> if ev.Trace.ev_name = "pd.select" then incr selects);
  Trace.clear ();
  let items =
    List.fold_left
      (fun acc i -> acc + List.length (Auction.bid a i).Auction.bundle)
      0 run.Bounded_muca.allocation
  in
  Alcotest.(check bool) "the run accepted bids" true (run.Bounded_muca.iterations > 0);
  Alcotest.(check (list int)) "pd.runs, pd.iterations, pd.dual_updates"
    [ 1; run.Bounded_muca.iterations; items ]
    (List.map2 ( - ) after before);
  Alcotest.(check int) "one pd.select per iteration" run.Bounded_muca.iterations
    !selects

(* --- Lower_bound --- *)

let test_lower_bound_structure () =
  let lb = Lower_bound.make ~p:3 ~b:4 () in
  let a = lb.Lower_bound.auction in
  Alcotest.(check int) "items" 12 (Auction.n_items a);
  (* p * B/2 type 1 bids + (p+1) * B/2 type 2 bids. *)
  Alcotest.(check int) "bids" ((3 * 2) + (4 * 2)) (Auction.n_bids a);
  Alcotest.(check int) "type1 count" 6 lb.Lower_bound.type1_count;
  check_float "opt" 12.0 lb.Lower_bound.opt_value;
  check_float "adversarial bound" 10.0 lb.Lower_bound.adversarial_bound;
  (* All bundles have m/p = 4 items. *)
  Array.iter
    (fun (bid : Auction.bid) ->
      Alcotest.(check int) "bundle size m/p" 4 (List.length bid.Auction.bundle))
    (Auction.bids a)

let test_lower_bound_optimal_allocation () =
  List.iter
    (fun (p, b) ->
      let lb = Lower_bound.make ~p ~b () in
      let alloc = Lower_bound.optimal_allocation lb in
      Alcotest.(check bool)
        (Printf.sprintf "optimal feasible p=%d b=%d" p b)
        true
        (Auction.Allocation.is_feasible lb.Lower_bound.auction alloc);
      check_float "optimal value" lb.Lower_bound.opt_value
        (Auction.Allocation.value lb.Lower_bound.auction alloc))
    [ (3, 2); (3, 4); (5, 4); (5, 8); (7, 6) ]

let test_lower_bound_validation () =
  Alcotest.check_raises "even p"
    (Invalid_argument "Lower_bound.make: p must be an odd integer >= 3")
    (fun () -> ignore (Lower_bound.make ~p:4 ~b:4 ()));
  Alcotest.check_raises "odd b"
    (Invalid_argument "Lower_bound.make: b must be an even integer >= 2")
    (fun () -> ignore (Lower_bound.make ~p:3 ~b:3 ()))

let test_lower_bound_exact_matches_formula () =
  (* For small instances, the true optimum really is p*B. *)
  let lb = Lower_bound.make ~p:3 ~b:2 () in
  check_float "exact = pB" lb.Lower_bound.opt_value
    (Baselines.opt_value lb.Lower_bound.auction)

(* --- Reasonable_bundle --- *)

let test_reasonable_bundle_fig4 () =
  List.iter
    (fun (p, b) ->
      let lb = Lower_bound.make ~p ~b () in
      let res =
        Reasonable_bundle.run
          ~priority:(Reasonable_bundle.h_muca ~eps:0.1)
          ~tie_break:Reasonable_bundle.first_bid lb.Lower_bound.auction
      in
      let v =
        Auction.Allocation.value lb.Lower_bound.auction
          res.Reasonable_bundle.allocation
      in
      Alcotest.(check (float Float_tol.check_eps))
        (Printf.sprintf "(3p+1)B/4 for p=%d B=%d" p b)
        lb.Lower_bound.adversarial_bound v;
      Alcotest.(check bool) "feasible" true
        (Auction.Allocation.is_feasible lb.Lower_bound.auction
           res.Reasonable_bundle.allocation))
    [ (3, 4); (5, 4); (5, 8); (7, 4) ]

let test_reasonable_bundle_priorities () =
  let a = random_auction ~multiplicity:4 ~bids:15 9 in
  List.iter
    (fun (name, priority) ->
      let res =
        Reasonable_bundle.run ~priority ~tie_break:Reasonable_bundle.first_bid a
      in
      Alcotest.(check bool) (name ^ " feasible") true
        (Auction.Allocation.is_feasible a res.Reasonable_bundle.allocation))
    [
      ("h_muca", Reasonable_bundle.h_muca ~eps:0.1);
      ("bundle_size", Reasonable_bundle.bundle_size);
      ("max_load", Reasonable_bundle.max_load);
    ]

let test_reasonable_bundle_saturates () =
  let a =
    Auction.create ~multiplicities:[| 2 |]
      (Array.init 5 (fun _ -> Auction.make_bid ~bundle:[ 0 ] ~value:1.0))
  in
  let res =
    Reasonable_bundle.run ~priority:Reasonable_bundle.bundle_size
      ~tie_break:Reasonable_bundle.first_bid a
  in
  Alcotest.(check int) "fills multiplicity" 2
    (List.length res.Reasonable_bundle.allocation)

let test_reasonable_bundle_random_tie () =
  let a = random_auction ~multiplicity:3 ~bids:10 15 in
  let run () =
    Reasonable_bundle.run ~priority:Reasonable_bundle.bundle_size
      ~tie_break:(Reasonable_bundle.random_bid ~seed:3)
      a
  in
  Alcotest.(check (list int)) "deterministic given seed"
    (run ()).Reasonable_bundle.allocation (run ()).Reasonable_bundle.allocation

(* --- Baselines --- *)

let test_muca_greedy_feasible () =
  for seed = 1 to 5 do
    let a = random_auction ~multiplicity:3 seed in
    List.iter
      (fun (name, algo) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s feasible seed %d" name seed)
          true
          (Auction.Allocation.is_feasible a (algo a)))
      [
        ("by value", Baselines.greedy_by_value);
        ("per item", Baselines.greedy_value_per_item);
        ("lehmann", Baselines.greedy_lehmann);
      ]
  done

let test_muca_exact_small () =
  (* Two conflicting bids and one compatible: optimum picks 1 + 2. *)
  let a =
    Auction.create ~multiplicities:[| 1; 1 |]
      [|
        Auction.make_bid ~bundle:[ 0; 1 ] ~value:2.5;
        Auction.make_bid ~bundle:[ 0 ] ~value:2.0;
        Auction.make_bid ~bundle:[ 1 ] ~value:1.0;
      |]
  in
  check_float "optimum" 3.0 (Baselines.opt_value a);
  Alcotest.(check (list int)) "selection" [ 1; 2 ] (Baselines.exact a)

let test_muca_exact_grouped () =
  (* Many identical bids collapse into one counted group. *)
  let a =
    Auction.create ~multiplicities:[| 3 |]
      (Array.init 10 (fun _ -> Auction.make_bid ~bundle:[ 0 ] ~value:1.0))
  in
  check_float "multiplicity binds" 3.0 (Baselines.opt_value a)

let test_muca_exact_dominates_greedy () =
  for seed = 1 to 8 do
    let a = random_auction ~multiplicity:3 ~bids:10 seed in
    let opt = Baselines.opt_value a in
    List.iter
      (fun algo ->
        Alcotest.(check bool) "exact dominates" true
          (Auction.Allocation.value a (algo a) <= opt +. Float_tol.check_eps))
      [
        Baselines.greedy_by_value;
        Baselines.greedy_value_per_item;
        Baselines.greedy_lehmann;
        Bounded_muca.solve ~eps:0.3;
      ]
  done

let test_muca_exact_too_large () =
  let rng = Rng.create 2 in
  let bids =
    Array.init 70 (fun _ ->
        Auction.make_bid
          ~bundle:(Rng.sample_without_replacement rng 2 10)
          ~value:(Rng.float_in rng 0.5 2.0))
  in
  let a = Auction.create ~multiplicities:(Array.make 10 2) bids in
  match Baselines.exact ~max_bids:20 a with
  | exception Baselines.Too_large _ -> ()
  | _ -> Alcotest.fail "expected Too_large"

(* --- Lp --- *)

let test_muca_lp_sandwich () =
  for seed = 1 to 6 do
    let a = random_auction ~multiplicity:4 ~bids:10 seed in
    let r = Lp.solve ~eps:0.2 a in
    let opt = Baselines.opt_value a in
    Alcotest.(check bool)
      (Printf.sprintf "upper >= OPT seed %d" seed)
      true
      (r.Lp.upper_bound >= opt -. Float_tol.loose_check_eps);
    Alcotest.(check bool) "lower <= upper" true
      (r.Lp.feasible_value <= r.Lp.upper_bound +. Float_tol.loose_check_eps);
    (* The scaled fractional acceptance is feasible. *)
    let loads = Array.make (Auction.n_items a) 0.0 in
    Array.iteri
      (fun i x ->
        Alcotest.(check bool) "fraction <= 1" true (x <= 1.0 +. Float_tol.loose_check_eps);
        List.iter
          (fun u -> loads.(u) <- loads.(u) +. x)
          (Auction.bid a i).Auction.bundle)
      r.Lp.fractions;
    Array.iteri
      (fun u load ->
        Alcotest.(check bool) "item load within multiplicity" true
          (load <= float_of_int (Auction.multiplicity a u) +. Float_tol.loose_check_eps))
      loads
  done

let test_muca_lp_empty () =
  let a = Auction.create ~multiplicities:[| 2 |] [||] in
  let r = Lp.solve a in
  check_float "empty feasible" 0.0 r.Lp.feasible_value;
  check_float "empty upper" 0.0 r.Lp.upper_bound

(* --- Workloads --- *)

let test_workload_uniform () =
  let rng = Rng.create 4 in
  let a = Workloads.uniform rng ~items:10 ~multiplicity:5 ~bids:20 () in
  Alcotest.(check int) "items" 10 (Auction.n_items a);
  Alcotest.(check int) "bids" 20 (Auction.n_bids a);
  Alcotest.(check int) "bound" 5 (Auction.bound a);
  Array.iter
    (fun (b : Auction.bid) ->
      let size = List.length b.Auction.bundle in
      Alcotest.(check bool) "size in [2,4]" true (size >= 2 && size <= 4);
      Alcotest.(check bool) "value in range" true
        (b.Auction.value >= 0.5 && b.Auction.value <= 3.0))
    (Auction.bids a)

let test_workload_uniform_deterministic () =
  let mk () =
    Workloads.uniform (Rng.create 9) ~items:8 ~multiplicity:3 ~bids:10 ()
  in
  let a = mk () and b = mk () in
  Array.iteri
    (fun i (ba : Auction.bid) ->
      let bb = Auction.bid b i in
      Alcotest.(check bool) "same bid" true
        (ba.Auction.bundle = bb.Auction.bundle && ba.Auction.value = bb.Auction.value))
    (Auction.bids a)

let test_workload_intervals () =
  let rng = Rng.create 7 in
  let a = Workloads.intervals rng ~items:12 ~multiplicity:4 ~bids:30 ~span:(2, 5) () in
  Array.iter
    (fun (b : Auction.bid) ->
      let bundle = b.Auction.bundle in
      let len = List.length bundle in
      Alcotest.(check bool) "span" true (len >= 2 && len <= 5);
      (* Contiguity: max - min = len - 1 for a sorted duplicate-free
         interval. *)
      let lo = List.hd bundle and hi = List.nth bundle (len - 1) in
      Alcotest.(check int) "contiguous" (len - 1) (hi - lo))
    (Auction.bids a)

let test_workload_weighted () =
  let rng = Rng.create 3 in
  let a = Workloads.weighted_items rng ~items:10 ~multiplicity:3 ~bids:25 () in
  Array.iter
    (fun (b : Auction.bid) ->
      Alcotest.(check bool) "positive value" true (b.Auction.value > 0.0))
    (Auction.bids a);
  (* All algorithms stay feasible on it. *)
  Alcotest.(check bool) "muca feasible" true
    (Auction.Allocation.is_feasible a (Bounded_muca.solve ~eps:0.3 a))

let test_workload_validation () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bundle too large"
    (Invalid_argument "Workloads.uniform: bundle larger than item set")
    (fun () ->
      ignore
        (Workloads.uniform rng ~items:3 ~multiplicity:1 ~bids:1
           ~bundle_size:(4, 5) ()));
  Alcotest.check_raises "span too large"
    (Invalid_argument "Workloads.intervals: span larger than item set")
    (fun () ->
      ignore (Workloads.intervals rng ~items:2 ~multiplicity:1 ~bids:1 ~span:(3, 3) ()))

(* --- Differential: Bounded-MUCA vs the h_muca bundle minimizer --- *)

let test_muca_matches_reasonable_bundle () =
  (* With ample multiplicities (no budget stop, no scarcity) Algorithm 2
     and the h_muca-minimising simulator pick the same bids in the same
     order: the duals of Bounded-MUCA are exactly the exponential loads
     h_muca evaluates. *)
  for seed = 1 to 5 do
    let a = random_auction ~multiplicity:50 ~bids:12 seed in
    let eps = 0.2 in
    let direct = Bounded_muca.solve ~eps a in
    let sim =
      Reasonable_bundle.run
        ~priority:(Reasonable_bundle.h_muca ~eps)
        ~tie_break:Reasonable_bundle.first_bid a
    in
    Alcotest.(check (list int))
      (Printf.sprintf "same order seed %d" seed)
      direct sim.Reasonable_bundle.allocation
  done

(* --- QCheck --- *)

let qcheck_muca_feasible =
  QCheck.Test.make ~name:"Bounded-MUCA output is always feasible" ~count:50
    QCheck.small_int (fun seed ->
      let a = random_auction ~multiplicity:3 (seed + 500) in
      Auction.Allocation.is_feasible a (Bounded_muca.solve ~eps:0.4 a))

let qcheck_muca_bound_sandwich =
  QCheck.Test.make ~name:"MUCA value within certified bound" ~count:30
    QCheck.small_int (fun seed ->
      let a = random_auction ~multiplicity:8 (seed + 900) in
      let run = Bounded_muca.run ~eps:0.3 a in
      Auction.Allocation.value a run.Bounded_muca.allocation
      <= run.Bounded_muca.certified_upper_bound +. Float_tol.loose_check_eps)

let () =
  Alcotest.run "auction"
    [
      ( "auction",
        [
          Alcotest.test_case "make_bid" `Quick test_make_bid;
          Alcotest.test_case "make_bid validation" `Quick test_make_bid_validation;
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "with_bid" `Quick test_with_bid;
          Alcotest.test_case "allocation check" `Quick test_allocation_check;
          Alcotest.test_case "meets_bound" `Quick test_meets_bound;
        ] );
      ( "bounded-muca",
        [
          Alcotest.test_case "feasible" `Quick test_muca_feasible;
          Alcotest.test_case "ample selects all" `Quick test_muca_ample_selects_all;
          Alcotest.test_case "prefers value" `Quick test_muca_prefers_value;
          Alcotest.test_case "certified bound" `Quick test_muca_certified_bound;
          Alcotest.test_case "trace" `Quick test_muca_trace;
          Alcotest.test_case "validation" `Quick test_muca_validation;
          Alcotest.test_case "monotone manual" `Quick test_muca_monotone_manual;
          Alcotest.test_case "is an engine run" `Quick test_muca_is_engine_run;
          QCheck_alcotest.to_alcotest qcheck_muca_matches_oracle;
        ] );
      ( "lower-bound",
        [
          Alcotest.test_case "structure" `Quick test_lower_bound_structure;
          Alcotest.test_case "optimal allocation" `Quick
            test_lower_bound_optimal_allocation;
          Alcotest.test_case "validation" `Quick test_lower_bound_validation;
          Alcotest.test_case "exact matches formula" `Quick
            test_lower_bound_exact_matches_formula;
        ] );
      ( "reasonable-bundle",
        [
          Alcotest.test_case "figure 4 ratio" `Quick test_reasonable_bundle_fig4;
          Alcotest.test_case "priorities" `Quick test_reasonable_bundle_priorities;
          Alcotest.test_case "saturates" `Quick test_reasonable_bundle_saturates;
          Alcotest.test_case "random tie" `Quick test_reasonable_bundle_random_tie;
          QCheck_alcotest.to_alcotest qcheck_bundle_minimizer_matches_oracle;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "greedy feasible" `Quick test_muca_greedy_feasible;
          Alcotest.test_case "exact small" `Quick test_muca_exact_small;
          Alcotest.test_case "exact grouped" `Quick test_muca_exact_grouped;
          Alcotest.test_case "exact dominates" `Quick test_muca_exact_dominates_greedy;
          Alcotest.test_case "exact too large" `Quick test_muca_exact_too_large;
        ] );
      ( "lp",
        [
          Alcotest.test_case "sandwich" `Quick test_muca_lp_sandwich;
          Alcotest.test_case "empty" `Quick test_muca_lp_empty;
          QCheck_alcotest.to_alcotest qcheck_lp_matches_oracle;
        ] );
      ( "differential",
        [
          Alcotest.test_case "matches reasonable bundle minimizer" `Quick
            test_muca_matches_reasonable_bundle;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "uniform" `Quick test_workload_uniform;
          Alcotest.test_case "deterministic" `Quick test_workload_uniform_deterministic;
          Alcotest.test_case "intervals" `Quick test_workload_intervals;
          Alcotest.test_case "weighted items" `Quick test_workload_weighted;
          Alcotest.test_case "validation" `Quick test_workload_validation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_muca_feasible; qcheck_muca_bound_sandwich ] );
    ]
