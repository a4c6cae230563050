module Graph = Ufp_graph.Graph
module Path = Ufp_graph.Path

type allocation = { request : int; path : int list }

type t = allocation list

let empty = []

let value inst sol =
  List.fold_left
    (fun acc a -> acc +. (Instance.request inst a.request).Request.value)
    0.0 sol

let edge_loads inst sol =
  let g = Instance.graph inst in
  let loads = Array.make (Graph.n_edges g) 0.0 in
  let add a =
    let d = (Instance.request inst a.request).Request.demand in
    List.iter (fun eid -> loads.(eid) <- loads.(eid) +. d) a.path
  in
  List.iter add sol;
  loads

let check ?(repetitions = false) inst sol =
  let g = Instance.graph inst in
  let n_req = Instance.n_requests inst in
  let seen = Array.make (max n_req 1) false in
  let rec check_allocs = function
    | [] -> Ok ()
    | a :: rest ->
      if a.request < 0 || a.request >= n_req then
        Error (Printf.sprintf "allocation refers to unknown request %d" a.request)
      else if (not repetitions) && seen.(a.request) then
        Error (Printf.sprintf "request %d allocated more than once" a.request)
      else begin
        seen.(a.request) <- true;
        let r = Instance.request inst a.request in
        if a.path = [] then
          Error (Printf.sprintf "request %d allocated an empty path" a.request)
        else if not (Path.is_valid g ~src:r.Request.src ~dst:r.Request.dst a.path)
        then
          Error
            (Printf.sprintf "request %d: path is not a simple %d->%d path"
               a.request r.Request.src r.Request.dst)
        else check_allocs rest
      end
  in
  match check_allocs sol with
  | Error _ as e -> e
  | Ok () ->
    let loads = edge_loads inst sol in
    (match Graph.first_over_capacity g loads with
    | -1 -> Ok ()
    | eid ->
      Error
        (Printf.sprintf "edge %d overloaded: load %g > capacity %g" eid loads.(eid)
           (Graph.capacity g eid)))

let is_feasible ?repetitions inst sol =
  match check ?repetitions inst sol with Ok () -> true | Error _ -> false

let selected sol = List.map (fun a -> a.request) sol

let mem sol i = List.exists (fun a -> a.request = i) sol

let pp ppf sol =
  Format.fprintf ppf "@[<v>%d allocations:@," (List.length sol);
  List.iter
    (fun a ->
      Format.fprintf ppf "  r%d via [%a]@," a.request
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
           Format.pp_print_int)
        a.path)
    sol;
  Format.fprintf ppf "@]"
