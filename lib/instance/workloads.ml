module Rng = Ufp_prelude.Rng
module Graph = Ufp_graph.Graph
module Dijkstra = Ufp_graph.Dijkstra
module Generators = Ufp_graph.Generators

let max_pair_attempts = 10_000

let random_reachable_pair rng g =
  let n = Graph.n_vertices g in
  let rec attempt k =
    if k > max_pair_attempts then
      failwith "Workloads: could not find a reachable request pair";
    let s = Rng.int rng n and t = Rng.int rng n in
    if s <> t && Dijkstra.reachable g ~src:s ~dst:t then (s, t) else attempt (k + 1)
  in
  attempt 0

let random_requests rng g ~count ?(demand = (0.2, 1.0)) ?(value = (0.5, 2.0)) ()
    =
  let dlo, dhi = demand and vlo, vhi = value in
  Array.init count (fun _ ->
      let src, dst = random_reachable_pair rng g in
      Request.make ~src ~dst
        ~demand:(Rng.float_in rng dlo dhi)
        ~value:(Rng.float_in rng vlo vhi))

let hop_distance g ~src ~dst =
  let tree = Dijkstra.shortest_tree g ~weight:(fun _ -> 1.0) ~src in
  tree.Dijkstra.dist.(dst)

let random_requests_value_per_hop rng g ~count ?(demand = (0.2, 1.0))
    ~value_per_hop () =
  let dlo, dhi = demand in
  Array.init count (fun _ ->
      let src, dst = random_reachable_pair rng g in
      let d = Rng.float_in rng dlo dhi in
      let hops = hop_distance g ~src ~dst in
      let v = d *. hops *. value_per_hop *. Rng.float_in rng 0.5 1.5 in
      Request.make ~src ~dst ~demand:d ~value:v)

(* Forward-reachable vertices of [src] (excluding [src] itself), by an
   array-backed BFS over the CSR rows — one linear pass, no per-pair
   Dijkstra.  [random_reachable_pair] is fine on small dense topologies
   but hopeless on million-edge RMAT graphs, where a uniformly random
   pair is usually unreachable and each rejection costs a traversal. *)
let reached_from g src =
  let n = Graph.n_vertices g in
  let csr = Graph.csr g in
  let row_start = csr.Graph.Csr.row_start and cells = csr.Graph.Csr.cells in
  let seen = Array.make n false in
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  seen.(src) <- true;
  queue.(!tail) <- src;
  incr tail;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for k = row_start.(u) to row_start.(u + 1) - 1 do
      let v = Graph.Csr.Cells.fst cells k in
      if not seen.(v) then begin
        seen.(v) <- true;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  (* queue.(1 .. tail-1) is exactly the reached set minus the source,
     in BFS order — deterministic, since CSR rows are pinned. *)
  Array.sub queue 1 (max 0 (!tail - 1))

let hub_requests rng g ~count ?(sources = 8) ?(demand = (0.2, 1.0))
    ?(value = (0.5, 2.0)) () =
  if count < 0 then invalid_arg "Workloads.hub_requests: negative count";
  if sources <= 0 then invalid_arg "Workloads.hub_requests: sources <= 0";
  let n = Graph.n_vertices g in
  if n = 0 then invalid_arg "Workloads.hub_requests: empty graph";
  let csr = Graph.csr g in
  let deg v = csr.Graph.Csr.row_start.(v + 1) - csr.Graph.Csr.row_start.(v) in
  (* Highest out-degree first, ties by vertex id: on a degree-skewed
     graph (RMAT) this picks the hubs, whose forward cones cover most
     of the giant component, so one BFS per source is enough to lay
     any number of requests. Deterministic given graph + seed. *)
  let order = Array.init n (fun v -> v) in
  Array.sort
    (fun x y ->
      let c = Int.compare (deg y) (deg x) in
      if c <> 0 then c else Int.compare x y)
    order;
  let picked = ref [] in
  let n_picked = ref 0 in
  let i = ref 0 in
  while !n_picked < sources && !i < n do
    let src = order.(!i) in
    incr i;
    if deg src > 0 then begin
      let reached = reached_from g src in
      if Array.length reached > 0 then begin
        picked := (src, reached) :: !picked;
        incr n_picked
      end
    end
  done;
  if !picked = [] then
    failwith "Workloads.hub_requests: no vertex reaches any other vertex";
  let picked = Array.of_list (List.rev !picked) in
  let dlo, dhi = demand and vlo, vhi = value in
  Array.init count (fun k ->
      let src, reached = picked.(k mod Array.length picked) in
      let dst = reached.(Rng.int rng (Array.length reached)) in
      Request.make ~src ~dst
        ~demand:(Rng.float_in rng dlo dhi)
        ~value:(Rng.float_in rng vlo vhi))

let per_source_requests sources sink ~per_source =
  let l = Array.length sources in
  Array.init (l * per_source) (fun k ->
      let i = k / per_source in
      Request.make ~src:sources.(i) ~dst:sink ~demand:1.0 ~value:1.0)

let staircase_requests (sc : Generators.staircase) ~per_source =
  per_source_requests sc.Generators.sources sc.Generators.sink ~per_source

let stretched_staircase_requests (sc : Generators.stretched_staircase)
    ~per_source =
  per_source_requests sc.Generators.s_sources sc.Generators.s_sink ~per_source

let gadget7_requests ~per_pair =
  let open Generators.Gadget7 in
  let pairs = [| (v1, v3); (v4, v6); (v1, v6); (v3, v4) |] in
  Array.init (4 * per_pair) (fun k ->
      let src, dst = pairs.(k / per_pair) in
      Request.make ~src ~dst ~demand:1.0 ~value:1.0)

let all_pairs_unit g ~demand ~value =
  let n = Graph.n_vertices g in
  let acc = ref [] in
  for s = n - 1 downto 0 do
    for t = n - 1 downto 0 do
      if s <> t && Dijkstra.reachable g ~src:s ~dst:t then
        acc := Request.make ~src:s ~dst:t ~demand ~value :: !acc
    done
  done;
  Array.of_list !acc
