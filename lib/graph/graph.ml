type edge = { id : int; u : int; v : int; capacity : float }

module Csr = struct
  (* The monomorphic accessor layer shared by every adjacency hot loop
     (Dijkstra, the Dinic residual): a flat sequence of (fst, snd) int
     pairs packed into one 8-byte cell per slot — two 32-bit halves
     read back with a single unaligned 64-bit load, half the cache
     traffic of two plain int arrays. No functor, no closure, so the
     relaxation loops stay monomorphic and allocation-free. *)
  module Cells = struct
    external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

    type t = Bytes.t  (* 8 bytes per slot *)

    (* Largest value a 32-bit half can carry: 2^31 - 1. *)
    let max_packed = 0x7FFFFFFF

    let length c = Bytes.length c / 8

    (* Slot [k] := (x, y), both already known to lie in
       [0, max_packed]. *)
    let[@inline] set c k x y =
      Bytes.set_int64_ne c (k * 8)
        (Int64.logor (Int64.of_int x) (Int64.shift_left (Int64.of_int y) 32))

    let pack a b =
      let len = Array.length a in
      if Array.length b <> len then
        invalid_arg "Graph.Csr.Cells.pack: arrays differ in length";
      (* The packed word is reassembled through [Int64.to_int], which
         keeps 63 bits — enough for (snd << 32) | fst only when native
         ints are 63-bit (every 64-bit platform). *)
      if Sys.int_size < 63 then
        invalid_arg "Graph.Csr.Cells.pack: requires 63-bit native ints";
      let cells = Bytes.create (len * 8) in
      for k = 0 to len - 1 do
        let x = Array.unsafe_get a k and y = Array.unsafe_get b k in
        if x < 0 || x > max_packed || y < 0 || y > max_packed then
          invalid_arg
            (Printf.sprintf
               "Graph.Csr.Cells.pack: value out of 32-bit range at slot %d" k);
        set cells k x y
      done;
      cells

    (* Both halves are nonnegative and < 2^31, so the low half is bits
       0..30 (bit 31 is zero) and the high half survives the 63-bit
       [Int64.to_int] truncation intact. *)
    let fst c k =
      if k < 0 || k >= length c then invalid_arg "Graph.Csr.Cells.fst: slot out of range";
      Int64.to_int (unsafe_get64 c (k lsl 3)) land max_packed

    let snd c k =
      if k < 0 || k >= length c then invalid_arg "Graph.Csr.Cells.snd: slot out of range";
      Int64.to_int (unsafe_get64 c (k lsl 3)) lsr 32
  end

  type t = { row_start : int array; cells : Cells.t }
end

type t = {
  directed : bool;
  n : int;
  (* Edge [i] is [(tails.(i), heads.(i), caps.(i))] for [i < m]: three
     flat columns, no heap object per edge. [add_edge] grows them by
     doubling, so a column may be longer than [m]; a column two graphs
     share ([rescale]) is always exactly [m] long, so the next
     [add_edge] on either graph copies it before writing. *)
  mutable tails : int array;
  mutable heads : int array;
  mutable caps : floatarray;
  mutable m : int;
  (* Lazily built packed adjacency; [None] after any [add_edge] so
     traversals never see a stale row. A [rescale] copy starts out with
     its source's: the arrays are never written after the build, so
     sharing them cannot leak an edge change. *)
  mutable csr : Csr.t option;
}

(* Cache economics (docs/OBSERVABILITY.md): graphs are append-only and
   solvers add all edges before traversing, so a solve normally pays
   for exactly one build per graph. *)
let m_csr_builds = Ufp_obs.Metrics.counter "graph.csr_builds"

let m_stream_builds = Ufp_obs.Metrics.counter "graph.stream_builds"

let create ~directed ~n =
  if n < 0 then invalid_arg "Graph.create: negative vertex count";
  {
    directed;
    n;
    tails = [||];
    heads = [||];
    caps = Float.Array.create 0;
    m = 0;
    csr = None;
  }

let is_directed g = g.directed

let n_vertices g = g.n

let n_edges g = g.m

(* A full column is replaced by a copy twice as long, never written in
   place: this is what keeps a shared (exactly [m] long) column
   private to the graphs that share it. *)
let grow g =
  let cap = Array.length g.tails in
  if g.m = cap then begin
    let cap' = max 8 (2 * cap) in
    let tails = Array.make cap' 0 and heads = Array.make cap' 0 in
    let caps = Float.Array.create cap' in
    Array.blit g.tails 0 tails 0 g.m;
    Array.blit g.heads 0 heads 0 g.m;
    Float.Array.blit g.caps 0 caps 0 g.m;
    g.tails <- tails;
    g.heads <- heads;
    g.caps <- caps
  end

(* Inlined, so the loops of [of_edge_stream] and [rescale] pass it an
   unboxed float. *)
let[@inline] check_capacity fn capacity =
  if not (Float.is_finite capacity && capacity > 0.0) then
    invalid_arg (fn ^ ": capacity must be positive and finite")

let add_edge g ~u ~v ~capacity =
  if u < 0 || u >= g.n || v < 0 || v >= g.n then
    invalid_arg "Graph.add_edge: endpoint out of range";
  if u = v then invalid_arg "Graph.add_edge: self loop";
  check_capacity "Graph.add_edge" capacity;
  let id = g.m in
  grow g;
  g.tails.(id) <- u;
  g.heads.(id) <- v;
  Float.Array.set g.caps id capacity;
  g.m <- id + 1;
  g.csr <- None;
  id

(* [scatter] writes each slot's vertex and edge id into the 32-bit
   halves of a cell without [Cells.pack]'s per-slot range check, so a
   build checks the layout's limits once, before it allocates anything
   [n]- or [m]-sized: every vertex id is below [n] and every edge id
   below [m]. *)
let check_packable fn ~n ~m =
  if Sys.int_size < 63 then invalid_arg (fn ^ ": requires 63-bit native ints");
  if n > Csr.Cells.max_packed + 1 then invalid_arg (fn ^ ": vertex count too large");
  if m > Csr.Cells.max_packed + 1 then invalid_arg (fn ^ ": edge count too large")

(* The second half of the counting sort, shared by [sort] and
   [of_edge_stream] (which counts degrees as it drains its stream): given
   [row_start] holding vertex [u]'s degree at [u + 1], prefix-sums it
   into row offsets and writes the first [m] edges of the columns into
   their cells in increasing edge id, which pins every row to
   insertion order — the canonical neighbor order (see the .mli
   determinism note). Every slot is written exactly once, so none of
   [Bytes.create]'s uninitialized bytes survives. [cursor] is scratch
   of length [max n 1]. *)
let scatter ~directed ~n ~m ~tails ~heads ~row_start ~cursor =
  for u = 1 to n do
    row_start.(u) <- row_start.(u) + row_start.(u - 1)
  done;
  let cells = Bytes.create (8 * row_start.(n)) in
  Array.blit row_start 0 cursor 0 n;
  for i = 0 to m - 1 do
    let u = tails.(i) and v = heads.(i) in
    let k = cursor.(u) in
    Csr.Cells.set cells k v i;
    cursor.(u) <- k + 1;
    if not directed then begin
      let k = cursor.(v) in
      Csr.Cells.set cells k u i;
      cursor.(v) <- k + 1
    end
  done;
  { Csr.row_start; cells }

(* Degree count, then [scatter]: the one counting sort over columns
   already in memory, for a graph's CSR and for [arcs_csr]. *)
let sort ~directed ~n ~m ~tails ~heads =
  let row_start = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    let u = tails.(i) in
    row_start.(u + 1) <- row_start.(u + 1) + 1;
    if not directed then begin
      let v = heads.(i) in
      row_start.(v + 1) <- row_start.(v + 1) + 1
    end
  done;
  scatter ~directed ~n ~m ~tails ~heads ~row_start ~cursor:(Array.make (max n 1) 0)

let build_csr g =
  check_packable "Graph.csr" ~n:g.n ~m:g.m;
  Ufp_obs.Metrics.incr m_csr_builds;
  sort ~directed:g.directed ~n:g.n ~m:g.m ~tails:g.tails ~heads:g.heads

let arcs_csr ~n ~tails ~heads =
  let m = Array.length tails in
  if n < 0 then invalid_arg "Graph.arcs_csr: negative vertex count";
  if Array.length heads <> m then invalid_arg "Graph.arcs_csr: columns differ in length";
  check_packable "Graph.arcs_csr" ~n ~m;
  (* [scatter] stores heads unchecked, so every endpoint is checked here. *)
  for i = 0 to m - 1 do
    let u = tails.(i) and v = heads.(i) in
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg "Graph.arcs_csr: endpoint out of range"
  done;
  sort ~directed:true ~n ~m ~tails ~heads

let csr g =
  match g.csr with
  | Some c -> c
  | None ->
    let c = build_csr g in
    g.csr <- Some c;
    c

let csr_view = csr

let of_edge_stream ~directed ~n ~m ~f =
  if n < 0 then invalid_arg "Graph.of_edge_stream: negative vertex count";
  if m < 0 then invalid_arg "Graph.of_edge_stream: negative edge count";
  (* No edge bounds [n] (isolated vertices need none), so a count read
     from a file can be any size: one past the packed layout's limits,
     or whose two [n]-sized arrays cannot be allocated, is rejected like
     a negative one, before the stream is drained. *)
  check_packable "Graph.of_edge_stream" ~n ~m;
  let row_start, cursor =
    try (Array.make (n + 1) 0, Array.make (max n 1) 0)
    with Out_of_memory -> invalid_arg "Graph.of_edge_stream: vertex count too large"
  in
  Ufp_obs.Metrics.incr m_stream_builds;
  Ufp_obs.Metrics.incr m_csr_builds;
  (* Pass 1: drain the stream once into exactly-sized columns — no
     doubling growth path — while accumulating per-vertex degrees into
     what becomes [row_start]. At million-edge RMAT scale the growth
     path would copy the columns ~20 times and double the peak
     footprint; here every array is allocated once at its final size,
     and nothing per edge outlives its stream tuple. *)
  let tails = Array.make m 0 and heads = Array.make m 0 in
  let caps = Float.Array.create m in
  for i = 0 to m - 1 do
    let u, v, capacity = f i in
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg "Graph.of_edge_stream: endpoint out of range";
    if u = v then invalid_arg "Graph.of_edge_stream: self loop";
    check_capacity "Graph.of_edge_stream" capacity;
    tails.(i) <- u;
    heads.(i) <- v;
    Float.Array.unsafe_set caps i capacity;
    row_start.(u + 1) <- row_start.(u + 1) + 1;
    if not directed then row_start.(v + 1) <- row_start.(v + 1) + 1
  done;
  (* Pass 2: prefix-sum + scatter, exactly as [build_csr]. *)
  let csr = scatter ~directed ~n ~m ~tails ~heads ~row_start ~cursor in
  { directed; n; tails; heads; caps; m; csr = Some csr }

let rescale g ~divisor =
  let m = g.m in
  let caps = Float.Array.create m in
  for i = 0 to m - 1 do
    let c = Float.Array.unsafe_get g.caps i /. divisor in
    check_capacity "Graph.rescale" c;
    Float.Array.unsafe_set caps i c
  done;
  (* The endpoint columns are shared only at exactly [m] long: a
     column with spare slots would let an [add_edge] on one graph write
     the other's next slot. Same endpoints in the same order, so the
     source's adjacency, built now if need be, is the copy's too. *)
  let exact col = if Array.length col = m then col else Array.sub col 0 m in
  { g with tails = exact g.tails; heads = exact g.heads; caps; csr = Some (csr g) }

(* Every reader by edge id fails with [edge]'s message. *)
let check_id g id = if id < 0 || id >= g.m then invalid_arg "Graph.edge: id out of range"

let edge g id =
  check_id g id;
  { id; u = g.tails.(id); v = g.heads.(id); capacity = Float.Array.get g.caps id }

let capacity g id =
  check_id g id;
  Float.Array.get g.caps id

let capacities g =
  let c = Array.create_float g.m in
  for i = 0 to g.m - 1 do
    Array.unsafe_set c i (Float.Array.unsafe_get g.caps i)
  done;
  c

let first_over_capacity g loads =
  if Array.length loads <> g.m then invalid_arg "Graph.first_over_capacity";
  Ufp_prelude.Float_tol.first_not_leq loads g.caps

let min_capacity g =
  if g.m = 0 then invalid_arg "Graph.min_capacity: no edges";
  let c = ref (Float.Array.get g.caps 0) in
  for i = 1 to g.m - 1 do
    let ci = Float.Array.unsafe_get g.caps i in
    if ci < !c then c := ci
  done;
  !c

let out_edges g u =
  if u < 0 || u >= g.n then invalid_arg "Graph.out_edges: vertex out of range";
  let c = csr g in
  let lo = c.Csr.row_start.(u) in
  (* Built back to front with constant stack: recursion depth would
     equal the vertex degree, and RMAT hub vertices reach degrees where
     that is a guaranteed Stack_overflow. *)
  let acc = ref [] in
  for k = c.Csr.row_start.(u + 1) - 1 downto lo do
    acc := (Csr.Cells.snd c.Csr.cells k, Csr.Cells.fst c.Csr.cells k) :: !acc
  done;
  !acc

let fold_edges f g init =
  let acc = ref init in
  for i = 0 to g.m - 1 do
    acc := f (edge g i) !acc
  done;
  !acc

let other_endpoint g id w =
  check_id g id;
  let u = g.tails.(id) and v = g.heads.(id) in
  if u = w then v
  else if v = w then u
  else invalid_arg "Graph.other_endpoint: vertex not an endpoint"

let pp ppf g =
  Format.fprintf ppf "@[<v>%s graph: %d vertices, %d edges@,"
    (if g.directed then "directed" else "undirected")
    g.n g.m;
  for i = 0 to g.m - 1 do
    Format.fprintf ppf "  e%d: %d %s %d (c=%g)@," i g.tails.(i)
      (if g.directed then "->" else "--")
      g.heads.(i) (Float.Array.get g.caps i)
  done;
  Format.fprintf ppf "@]"
