type t = floatarray

(* O(m) materialisations and O(1) per-edge patches
   (docs/OBSERVABILITY.md): a caller that patches after every weight
   update counts one build. *)
let m_builds = Ufp_obs.Metrics.counter "dijkstra.snapshot_builds"

let m_patched_edges = Ufp_obs.Metrics.counter "dijkstra.snapshot_patched_edges"

(* The checks [build] and [patch] share, so a patched slot fails with
   the message a fresh build would give. *)
let checked e w =
  if Float.is_nan w then
    invalid_arg (Printf.sprintf "Weight_snapshot: NaN weight on edge %d" e);
  if w < 0.0 then
    invalid_arg
      (Printf.sprintf "Weight_snapshot: negative weight on edge %d" e);
  w

let build g ~weight =
  Ufp_obs.Metrics.incr m_builds;
  let m = Graph.n_edges g in
  let a = Float.Array.create m in
  for e = 0 to m - 1 do
    Float.Array.unsafe_set a e (checked e (weight e))
  done;
  a

let rec patch s ~weight = function
  | [] -> ()
  | e :: rest ->
    Ufp_obs.Metrics.incr m_patched_edges;
    Float.Array.set s e (checked e (weight e));
    patch s ~weight rest

let length = Float.Array.length

let get = Float.Array.get

external unsafe_get : t -> int -> float = "%floatarray_unsafe_get"
