module Graph = Ufp_graph.Graph
module Enumerate = Ufp_graph.Enumerate
module Instance = Ufp_instance.Instance
module Request = Ufp_instance.Request
module Solution = Ufp_instance.Solution
module Float_tol = Ufp_prelude.Float_tol

exception Too_large of string

let solve ?(max_paths_per_request = 2000) inst =
  let g = Instance.graph inst in
  let n_req = Instance.n_requests inst in
  let requests = Instance.requests inst in
  (* Sort request indices by decreasing value: large values first makes
     the remaining-value bound prune earlier. *)
  let order = Array.init n_req Fun.id in
  Array.sort
    (fun a b ->
      Float.compare requests.(b).Request.value requests.(a).Request.value)
    order;
  let paths =
    Array.map
      (fun i ->
        let r = requests.(i) in
        let ps =
          Enumerate.simple_paths ~max_paths:(max_paths_per_request + 1) g
            ~src:r.Request.src ~dst:r.Request.dst
        in
        if List.length ps > max_paths_per_request then
          raise
            (Too_large
               (Printf.sprintf "request %d has more than %d simple paths" i
                  max_paths_per_request));
        Array.of_list ps)
      order
  in
  (* suffix_value.(k) = sum of values of requests order.(k..). *)
  let suffix_value = Array.make (n_req + 1) 0.0 in
  for k = n_req - 1 downto 0 do
    suffix_value.(k) <- suffix_value.(k + 1) +. requests.(order.(k)).Request.value
  done;
  let residual = Graph.capacities g in
  let tol = Float_tol.lp_exact_tol in
  let best_value = ref (-1.0) in
  let best_solution = ref [] in
  let current = ref [] in
  let rec branch k acc_value =
    if acc_value +. suffix_value.(k) <= !best_value +. tol then ()
    else if k = n_req then begin
      if acc_value > !best_value then begin
        best_value := acc_value;
        best_solution := !current
      end
    end
    else begin
      let i = order.(k) in
      let r = requests.(i) in
      let d = r.Request.demand in
      let fits p = List.for_all (fun e -> residual.(e) +. tol >= d) p in
      let try_path p =
        if fits p then begin
          List.iter (fun e -> residual.(e) <- residual.(e) -. d) p;
          current := { Solution.request = i; path = p } :: !current;
          branch (k + 1) (acc_value +. r.Request.value);
          current := List.tl !current;
          List.iter (fun e -> residual.(e) <- residual.(e) +. d) p
        end
      in
      Array.iter try_path paths.(k);
      (* Skip branch last: allocating first finds good incumbents early. *)
      branch (k + 1) acc_value
    end
  in
  branch 0 0.0;
  List.rev !best_solution

let opt_value ?max_paths_per_request inst =
  Solution.value inst (solve ?max_paths_per_request inst)
