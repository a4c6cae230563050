module Graph = Ufp_graph.Graph

type t = { graph : Graph.t; requests : Request.t array }

let create graph requests =
  let n = Graph.n_vertices graph in
  let check (r : Request.t) =
    if r.Request.src < 0 || r.Request.src >= n || r.Request.dst < 0
       || r.Request.dst >= n
    then invalid_arg "Instance.create: request endpoint out of range"
  in
  Array.iter check requests;
  { graph; requests = Array.copy requests }

let graph t = t.graph

let n_requests t = Array.length t.requests

let request t i =
  if i < 0 || i >= Array.length t.requests then
    invalid_arg "Instance.request: index out of range";
  t.requests.(i)

let requests t = Array.copy t.requests

let with_request t i r =
  let old = request t i in
  if old.Request.src <> r.Request.src || old.Request.dst <> r.Request.dst then
    invalid_arg "Instance.with_request: endpoints are public and fixed";
  let requests = Array.copy t.requests in
  requests.(i) <- r;
  { t with requests }

let max_demand t =
  if Array.length t.requests = 0 then invalid_arg "Instance.max_demand: empty";
  Array.fold_left (fun acc r -> Float.max acc r.Request.demand) 0.0 t.requests

let bound t = Graph.min_capacity t.graph /. max_demand t

let normalize t =
  let dmax = max_demand t in
  if dmax = 1.0 then t
  else begin
    (* Divide rather than multiply by the reciprocal: IEEE guarantees
       x /. x = 1., so the maximal demand lands exactly on 1 and
       normalisation is idempotent. *)
    let graph = Graph.rescale t.graph ~divisor:dmax in
    let requests =
      Array.map
        (fun (r : Request.t) ->
          Request.make ~src:r.Request.src ~dst:r.Request.dst
            ~demand:(r.Request.demand /. dmax) ~value:r.Request.value)
        t.requests
    in
    { graph; requests }
  end

let is_normalized t =
  Array.length t.requests > 0
  && Array.for_all (fun r -> r.Request.demand <= 1.0) t.requests

let meets_bound t ~eps =
  let m = float_of_int (Graph.n_edges t.graph) in
  bound t >= log m /. (eps *. eps)

let total_value t =
  Array.fold_left (fun acc r -> acc +. r.Request.value) 0.0 t.requests

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@,%d requests:@," Graph.pp t.graph
    (Array.length t.requests);
  Array.iteri
    (fun i r -> Format.fprintf ppf "  r%d %a@," i Request.pp r)
    t.requests;
  Format.fprintf ppf "@]"
