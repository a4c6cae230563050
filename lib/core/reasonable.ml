module Graph = Ufp_graph.Graph
module Path = Ufp_graph.Path
module Enumerate = Ufp_graph.Enumerate
module Instance = Ufp_instance.Instance
module Request = Ufp_instance.Request
module Solution = Ufp_instance.Solution
module Rng = Ufp_prelude.Rng
module Float_tol = Ufp_prelude.Float_tol

type state = { graph : Graph.t; flow : float array }

type priority = state -> Request.t -> int list -> float

let h ~eps ~b st r path =
  let weight e =
    let c = Graph.capacity st.graph e in
    exp (eps *. b *. st.flow.(e) /. c) /. c
  in
  Request.density r *. Path.length ~weight path

let h1 ~eps ~b st r path =
  log (1.0 +. float_of_int (List.length path)) *. h ~eps ~b st r path

let h2 st r path =
  let factor acc e = acc *. (st.flow.(e) /. Graph.capacity st.graph e) in
  Request.density r *. List.fold_left factor 1.0 path

let hops _ r path = Request.density r *. float_of_int (List.length path)

type candidate = { cand_request : int; cand_path : int list }

type tie_break = state -> candidate list -> candidate

let first_candidate _ = function
  | [] -> invalid_arg "Reasonable.tie_break: no candidates"
  | c :: _ -> c

let visits st vertex cand =
  List.exists
    (fun e ->
      let edge = Graph.edge st.graph e in
      edge.Graph.u = vertex || edge.Graph.v = vertex)
    cand.cand_path

let prefer_hub vertex st cands =
  match List.find_opt (visits st vertex) cands with
  | Some c -> c
  | None -> first_candidate st cands

let prefer_max_second_vertex st cands =
  match cands with
  | [] -> invalid_arg "Reasonable.tie_break: no candidates"
  | first :: _ ->
    (* Candidates arrive ordered by increasing request index; restrict
       to the first (minimal) request, then maximise the second vertex
       of the path. *)
    let same_request =
      List.filter (fun c -> c.cand_request = first.cand_request) cands
    in
    let second_vertex c =
      match c.cand_path with
      | [] -> -1
      | e :: rest -> (
        let edge = Graph.edge st.graph e in
        match rest with
        | [] -> max edge.Graph.u edge.Graph.v
        | e2 :: _ ->
          (* The second vertex is the endpoint shared with edge 2. *)
          let f = Graph.edge st.graph e2 in
          if edge.Graph.v = f.Graph.u || edge.Graph.v = f.Graph.v then
            edge.Graph.v
          else edge.Graph.u)
    in
    List.fold_left
      (fun best c -> if second_vertex c > second_vertex best then c else best)
      first same_request

let random_tie ~seed =
  let rng = Rng.create seed in
  fun _ cands ->
    match cands with
    | [] -> invalid_arg "Reasonable.tie_break: no candidates"
    | _ -> Rng.pick rng (Array.of_list cands)

type result = { solution : Solution.t; iterations : int }

let minimize ~n_requests ~group ~candidates ~priority ~tie_break ~select =
  (* Pending request indices per group, each kept sorted increasing:
     interchangeable requests are evaluated through one representative,
     the lowest pending index. *)
  let groups = Hashtbl.create 16 in
  for i = n_requests - 1 downto 0 do
    let key = group i in
    match Hashtbl.find_opt groups key with
    | Some l -> l := i :: !l
    | None -> Hashtbl.add groups key (ref [ i ])
  done;
  (* One iteration: the candidates within tie_rel of the least
     priority. The fold loses their order, so they are sorted by
     (request, candidate), the record's field order. *)
  let select_one () =
    let best = ref infinity and scored = ref [] in
    Hashtbl.iter
      (fun _ pending ->
        match !pending with
        | [] -> ()
        | rep :: _ ->
          Seq.iter
            (fun c ->
              let p = priority rep c in
              if p < !best then best := p;
              scored := (p, { cand_request = rep; cand_path = c }) :: !scored)
            (candidates rep))
      groups;
    match !scored with
    | [] -> None
    | scored ->
      let cutoff = !best +. (Float_tol.tie_rel *. Float.max 1.0 (Float.abs !best)) in
      let tied = List.filter_map (fun (p, c) -> if p <= cutoff then Some c else None) scored in
      Some (tie_break (List.sort compare tied))
  in
  let rec loop acc =
    match select_one () with
    | None -> List.rev acc
    | Some cand ->
      select cand;
      let pending = Hashtbl.find groups (group cand.cand_request) in
      pending := List.filter (fun i -> i <> cand.cand_request) !pending;
      loop (cand :: acc)
  in
  loop []

let run ?(max_paths = 20000) ~priority ~tie_break inst =
  let g = Instance.graph inst in
  let req = Instance.request inst in
  let st = { graph = g; flow = Array.make (Graph.n_edges g) 0.0 } in
  (* Cache simple-path sets per endpoint pair. *)
  let path_cache : (int * int, int list array) Hashtbl.t = Hashtbl.create 16 in
  let paths_for src dst =
    match Hashtbl.find_opt path_cache (src, dst) with
    | Some ps -> ps
    | None ->
      let ps =
        Enumerate.simple_paths ~max_paths:(max_paths + 1) g ~src ~dst
      in
      if List.length ps > max_paths then
        invalid_arg "Reasonable.run: simple-path budget exceeded";
      let ps = Array.of_list ps in
      Hashtbl.add path_cache (src, dst) ps;
      ps
  in
  let feasible d path =
    List.for_all
      (fun e -> st.flow.(e) +. d <= Graph.capacity g e +. Float_tol.capacity_slack)
      path
  in
  let selected =
    minimize ~n_requests:(Instance.n_requests inst)
      ~group:(fun i ->
        let r = req i in
        (r.Request.src, r.Request.dst, r.Request.demand, r.Request.value))
      ~candidates:(fun i ->
        let r = req i in
        Seq.filter (feasible r.Request.demand)
          (Array.to_seq (paths_for r.Request.src r.Request.dst)))
      ~priority:(fun i path -> priority st (req i) path)
      ~tie_break:(tie_break st)
      ~select:(fun c ->
        let d = (req c.cand_request).Request.demand in
        List.iter (fun e -> st.flow.(e) <- st.flow.(e) +. d) c.cand_path)
  in
  let route c = { Solution.request = c.cand_request; path = c.cand_path } in
  { solution = List.map route selected; iterations = List.length selected }
