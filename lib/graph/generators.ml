module Rng = Ufp_prelude.Rng

type staircase = {
  graph : Graph.t;
  sources : int array;
  mids : int array;
  sink : int;
}

let staircase ~levels ~capacity =
  if levels <= 0 then invalid_arg "Generators.staircase: levels <= 0";
  let l = levels in
  let g = Graph.create ~directed:true ~n:((2 * l) + 1) in
  (* Vertex layout: sources 0..l-1, mids l..2l-1, sink 2l. *)
  let sources = Array.init l (fun i -> i) in
  let mids = Array.init l (fun j -> l + j) in
  let sink = 2 * l in
  Array.iter
    (fun vj -> ignore (Graph.add_edge g ~u:vj ~v:sink ~capacity))
    mids;
  for i = 0 to l - 1 do
    for j = i to l - 1 do
      ignore (Graph.add_edge g ~u:sources.(i) ~v:mids.(j) ~capacity)
    done
  done;
  { graph = g; sources; mids; sink }

type stretched_staircase = {
  s_graph : Graph.t;
  s_sources : int array;
  s_mids : int array;
  s_sink : int;
}

let staircase_stretched ~levels ~capacity =
  if levels <= 0 then invalid_arg "Generators.staircase_stretched: levels <= 0";
  let l = levels in
  (* Edge (s_i, v_j), with 1-based i, j, becomes a path of
     [i*l + 1 - j] edges, hence [i*l - j] fresh interior vertices. *)
  let interior = ref 0 in
  for i = 1 to l do
    for j = i to l do
      interior := !interior + ((i * l) - j)
    done
  done;
  let n = (2 * l) + 1 + !interior in
  let g = Graph.create ~directed:true ~n in
  let sources = Array.init l (fun i -> i) in
  let mids = Array.init l (fun j -> l + j) in
  let sink = 2 * l in
  let next_fresh = ref ((2 * l) + 1) in
  Array.iter
    (fun vj -> ignore (Graph.add_edge g ~u:vj ~v:sink ~capacity))
    mids;
  for i = 1 to l do
    for j = i to l do
      let hops = (i * l) + 1 - j in
      assert (hops >= 1);
      let src = sources.(i - 1) and dst = mids.(j - 1) in
      let cur = ref src in
      for _ = 1 to hops - 1 do
        let w = !next_fresh in
        incr next_fresh;
        ignore (Graph.add_edge g ~u:!cur ~v:w ~capacity);
        cur := w
      done;
      ignore (Graph.add_edge g ~u:!cur ~v:dst ~capacity)
    done
  done;
  { s_graph = g; s_sources = sources; s_mids = mids; s_sink = sink }

module Gadget7 = struct
  let v1 = 0
  let v2 = 1
  let v3 = 2
  let v4 = 3
  let v5 = 4
  let v6 = 5
  let v7 = 6
end

let gadget7 ~capacity =
  let open Gadget7 in
  let g = Graph.create ~directed:false ~n:7 in
  let edges = [ (v1, v2); (v2, v3); (v4, v5); (v5, v6); (v1, v7); (v3, v7); (v4, v7); (v6, v7) ] in
  List.iter (fun (u, v) -> ignore (Graph.add_edge g ~u ~v ~capacity)) edges;
  g

let grid ~rows ~cols ~capacity =
  if rows <= 0 || cols <= 0 then invalid_arg "Generators.grid";
  let g = Graph.create ~directed:false ~n:(rows * cols) in
  let idx r c = (r * cols) + c in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then
        ignore (Graph.add_edge g ~u:(idx r c) ~v:(idx r (c + 1)) ~capacity);
      if r + 1 < rows then
        ignore (Graph.add_edge g ~u:(idx r c) ~v:(idx (r + 1) c) ~capacity)
    done
  done;
  g

(* NaN fails both comparisons, so it is rejected alongside the
   out-of-range values instead of silently acting like "never" (the
   pre-PR-6 behavior: [Rng.float rng 1.0 < nan] is false forever). *)
let check_edge_prob fname edge_prob =
  if not (edge_prob >= 0.0 && edge_prob <= 1.0) then
    invalid_arg (fname ^ ": edge_prob must be in [0, 1]")

let layered rng ~layers ~width ~edge_prob ~capacity_lo ~capacity_hi =
  if layers < 2 || width <= 0 then invalid_arg "Generators.layered";
  check_edge_prob "Generators.layered" edge_prob;
  if not (capacity_lo > 0.0 && capacity_hi >= capacity_lo) then
    invalid_arg "Generators.layered: bad capacity range";
  let g = Graph.create ~directed:true ~n:(layers * width) in
  let idx layer slot = (layer * width) + slot in
  let cap () = Rng.float_in rng capacity_lo capacity_hi in
  for layer = 0 to layers - 2 do
    for a = 0 to width - 1 do
      (* A guaranteed forward edge avoids dead ends. *)
      let forced = Rng.int rng width in
      for b = 0 to width - 1 do
        if b = forced || Rng.float rng 1.0 < edge_prob then
          ignore
            (Graph.add_edge g ~u:(idx layer a) ~v:(idx (layer + 1) b)
               ~capacity:(cap ()))
      done
    done
  done;
  g

let erdos_renyi rng ~n ~edge_prob ~directed ~capacity_lo ~capacity_hi =
  if n <= 1 then invalid_arg "Generators.erdos_renyi";
  check_edge_prob "Generators.erdos_renyi" edge_prob;
  if not (capacity_lo > 0.0 && capacity_hi >= capacity_lo) then
    invalid_arg "Generators.erdos_renyi: bad capacity range";
  let g = Graph.create ~directed ~n in
  let cap () = Rng.float_in rng capacity_lo capacity_hi in
  for u = 0 to n - 1 do
    let lo = if directed then 0 else u + 1 in
    for v = lo to n - 1 do
      if u <> v && Rng.float rng 1.0 < edge_prob then
        ignore (Graph.add_edge g ~u ~v ~capacity:(cap ()))
    done
  done;
  g

(* Graph500-style recursive-matrix generator.  Each edge picks one of
   the four quadrants of the adjacency matrix per bit level (top-left
   with probability [a], then [b], [c], [d]), so with the standard
   skewed (0.57, 0.19, 0.19, 0.05) split the degree distribution comes
   out heavy-tailed: a few hub vertices of degree 10^4..10^6 at
   million-edge scale — exactly the structure-skewed regime the
   scale-hardening fixes of PR 6 target. *)
let rmat rng ~scale ~edge_factor ?(a = 0.57) ?(b = 0.19) ?(c = 0.19)
    ?(d = 0.05) ?(directed = true) ~capacity_lo ~capacity_hi () =
  (* [1 lsl scale] vertices and [edge_factor] times as many edges must
     both stay well inside the int range; 30 already means a billion
     vertices, far past what one address space holds as edge columns. *)
  if scale < 1 || scale > 30 then
    invalid_arg "Generators.rmat: scale must be in [1, 30]";
  if edge_factor < 1 then invalid_arg "Generators.rmat: edge_factor < 1";
  let check_prob name p =
    if not (p >= 0.0 && p <= 1.0) then
      invalid_arg ("Generators.rmat: probability " ^ name ^ " must be in [0, 1]")
  in
  check_prob "a" a;
  check_prob "b" b;
  check_prob "c" c;
  check_prob "d" d;
  if not (Ufp_prelude.Float_tol.approx_eq (a +. b +. c +. d) 1.0) then
    invalid_arg "Generators.rmat: quadrant probabilities must sum to 1";
  if not (capacity_lo > 0.0 && capacity_hi >= capacity_lo) then
    invalid_arg "Generators.rmat: bad capacity range";
  let n = 1 lsl scale in
  let m = edge_factor * n in
  let ab = a +. b in
  let abc = ab +. c in
  (* One (u, v) endpoint pair: descend [scale] quadrant choices.  Self
     loops are illegal in Graph, so they are redrawn — still a pure
     function of the seed, just a longer draw for the affected edge. *)
  let rec draw_pair () =
    let u = ref 0 and v = ref 0 in
    for _ = 1 to scale do
      let r = Rng.float rng 1.0 in
      let du, dv =
        if r < a then (0, 0)
        else if r < ab then (0, 1)
        else if r < abc then (1, 0)
        else (1, 1)
      in
      u := (!u lsl 1) lor du;
      v := (!v lsl 1) lor dv
    done;
    if !u = !v then draw_pair () else (!u, !v)
  in
  Graph.of_edge_stream ~directed ~n ~m ~f:(fun _ ->
      let u, v = draw_pair () in
      (u, v, Rng.float_in rng capacity_lo capacity_hi))

let ring ~n ~capacity =
  if n < 3 then invalid_arg "Generators.ring: n < 3";
  let g = Graph.create ~directed:false ~n in
  for u = 0 to n - 1 do
    ignore (Graph.add_edge g ~u ~v:((u + 1) mod n) ~capacity)
  done;
  g

module Abilene = struct
  let names =
    [|
      "Seattle"; "Sunnyvale"; "Los Angeles"; "Denver"; "Kansas City";
      "Houston"; "Chicago"; "Indianapolis"; "Atlanta"; "Washington DC";
      "New York";
    |]
end

let abilene ~capacity =
  let g = Graph.create ~directed:false ~n:(Array.length Abilene.names) in
  (* The 14 OC-192 links of the Abilene backbone. Indices follow
     [Abilene.names]. *)
  let links =
    [
      (0, 1); (* Seattle - Sunnyvale *)
      (0, 3); (* Seattle - Denver *)
      (1, 2); (* Sunnyvale - Los Angeles *)
      (1, 3); (* Sunnyvale - Denver *)
      (2, 5); (* Los Angeles - Houston *)
      (3, 4); (* Denver - Kansas City *)
      (4, 5); (* Kansas City - Houston *)
      (4, 6); (* Kansas City - Chicago *)
      (5, 8); (* Houston - Atlanta *)
      (6, 7); (* Chicago - Indianapolis *)
      (6, 10); (* Chicago - New York *)
      (7, 8); (* Indianapolis - Atlanta *)
      (8, 9); (* Atlanta - Washington DC *)
      (9, 10); (* Washington DC - New York *)
    ]
  in
  List.iter (fun (u, v) -> ignore (Graph.add_edge g ~u ~v ~capacity)) links;
  g
