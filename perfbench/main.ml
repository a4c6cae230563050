(* End-to-end and per-layer benchmark of the truthful UFP mechanism:
   Bounded-UFP (Algorithm 1) plus critical-value payments.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   One process measures one workload. It generates the workload's
   instances from the seed (cached on disk, generation is not timed),
   sets each up several times, then repeats the workload's calls in a
   closed loop (one caller, each call waits for the previous one) for
   S seconds. With --trace 0 it reports the end-to-end metrics, with
   --trace 1 the per-layer ones, which adds isolated layer calls and
   one traced pass. Every output is checked; a call that raises or
   fails a check is a failed operation. The last line of standard
   output is the JSON result; README.md in this directory defines every
   metric. *)

module Graph = Ufp_graph.Graph
module Gen = Ufp_graph.Generators
module Dijkstra = Ufp_graph.Dijkstra
module Weight_snapshot = Ufp_graph.Weight_snapshot
module Instance = Ufp_instance.Instance
module Request = Ufp_instance.Request
module Solution = Ufp_instance.Solution
module Workloads = Ufp_instance.Workloads
module Io = Ufp_instance.Io
module Bounded_ufp = Ufp_core.Bounded_ufp
module Selector = Ufp_core.Selector
module Audit = Ufp_core.Audit
module Ufp_mechanism = Ufp_mech.Ufp_mechanism
module Single_param = Ufp_mech.Single_param
module Metrics = Ufp_obs.Metrics
module Trace = Ufp_obs.Trace
module Profile = Ufp_obs.Profile
module Pool = Ufp_par.Pool
module Rng = Ufp_prelude.Rng
module Float_tol = Ufp_prelude.Float_tol

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* The highest of p90 / p99 / p99.9 that has at least ten samples
   beyond it, as (quantile, value). *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  List.find_opt (fun q -> float_of_int n *. (1.0 -. q) >= 10.0) [ 0.999; 0.99; 0.9 ]
  |> Option.map (fun q ->
         (q, a.(max 0 (int_of_float (ceil (q *. float_of_int n)) - 1))))

let ratio a b = if b = 0.0 then 0.0 else a /. b

let mb_of_bytes b = b /. 1048576.0

let mb_of_words w = mb_of_bytes (w *. float_of_int (Sys.word_size / 8))

(* --- workloads --- *)

type workload = {
  name : string;
  eps : float;
  instances : int;  (** distinct instances per run, all derived from the seed *)
  prices : bool;  (** the workload's command is [ufp payments], else [ufp solve] *)
  generate : Rng.t -> Instance.t;  (** the calls [ufp generate] makes *)
}

let rmat ~scale ~edge_factor ~capacity ~requests rng =
  let g =
    Gen.rmat rng ~scale ~edge_factor ~capacity_lo:capacity
      ~capacity_hi:(capacity *. 1.5) ()
  in
  Instance.create g (Workloads.hub_requests rng g ~count:requests ())

let workloads =
  [
    {
      name = "grid-mechanism";
      eps = 0.6;
      instances = 4;
      prices = true;
      generate =
        (fun rng ->
          let g = Gen.grid ~rows:5 ~cols:5 ~capacity:11.0 in
          Instance.create g (Workloads.random_requests rng g ~count:120 ()));
    };
    {
      name = "rmat14-solve";
      eps = 0.3;
      instances = 4;
      prices = false;
      generate = rmat ~scale:14 ~edge_factor:16 ~capacity:140.0 ~requests:48;
    };
  ]

(* Instance [k] of a run with seed [s] is [ufp generate ... --seed
   (s + 1000003 k)]: instance 0 is exactly the CLI's instance for [s]. *)
let gen_seed seed k = seed + (1_000_003 * k)

(* --- instance cache --- *)

let cache_dir = ".perfbench-cache"

let cache_path w gseed = Filename.concat cache_dir (Printf.sprintf "%s-%d.inst" w.name gseed)

let write_instance w gseed path =
  let tmp = path ^ ".tmp" in
  Io.save tmp (w.generate (Rng.create gseed));
  Sys.rename tmp path

(* Generation runs in a child process so that its memory never counts
   towards the measuring process's peak RSS. *)
let ensure_instance w gseed =
  let path = cache_path w gseed in
  if not (Sys.file_exists path) then begin
    let exe = Sys.executable_name in
    let pid =
      Unix.create_process exe
        [| exe; "--generate"; w.name; string_of_int gseed; path |]
        Unix.stdin Unix.stderr Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 when Sys.file_exists path -> ()
    | _ -> failwith ("generating " ^ path ^ " failed")
  end;
  path

(* Keep only this run's instances of the workload, so the cache stays
   bounded whatever seeds are used. *)
let prune_cache w keep =
  Array.iter
    (fun f ->
      let path = Filename.concat cache_dir f in
      if String.starts_with ~prefix:(w.name ^ "-") f && not (List.mem path keep)
      then Sys.remove path)
    (Sys.readdir cache_dir)

(* --- operations: timed calls with counter and GC deltas --- *)

type sample = {
  secs : float;
  work : (string * int) list;
      (** nonzero counter deltas across the call, and the number of
          samples each histogram took *)
  minor_mb : float;
  major_mb : float;
  major_gcs : int;
}

let attempted = ref 0

let failed = ref 0

let recorded : (string, sample list) Hashtbl.t = Hashtbl.create 16

let push tbl k v = Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))

let samples name = List.rev (Option.value ~default:[] (Hashtbl.find_opt recorded name))

let secs name = List.map (fun s -> s.secs) (samples name)

let count work name = Option.value ~default:0 (List.assoc_opt name work)

let work_done (d : Metrics.snapshot) =
  List.filter
    (fun (_, n) -> n <> 0)
    (d.Metrics.counters @ List.map (fun (k, h) -> (k, h.Metrics.h_count)) d.Metrics.histograms)

(* Median over the samples of [name] of counter [c]'s delta. *)
let median_work name c = median (List.map (fun s -> float_of_int (count s.work c)) (samples name))

let report_failure name msg = Printf.printf "FAILED %s: %s\n%!" name msg

(* One timed call: the clock, [Metrics] and [Gc.quick_stat] are read
   around [f]; [check] then judges the output outside the timed region.
   An exception (Out_of_memory, Iteration_limit, ...) or a failed check
   makes the call a failed operation and drops its sample. *)
let op name ?(check = fun _ -> []) f =
  incr attempted;
  let gc0 = Gc.quick_stat () in
  let m0 = Metrics.snapshot () in
  let t0 = now () in
  match f () with
  | exception e ->
    incr failed;
    report_failure name (Printexc.to_string e);
    None
  | r -> (
    let dt = now () -. t0 in
    let m1 = Metrics.snapshot () in
    let gc1 = Gc.quick_stat () in
    match check r with
    | [] ->
      let s =
        {
          secs = dt;
          work = work_done (Metrics.diff m0 m1);
          minor_mb = mb_of_words (gc1.Gc.minor_words -. gc0.Gc.minor_words);
          major_mb = mb_of_words (gc1.Gc.major_words -. gc0.Gc.major_words);
          major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
        }
      in
      push recorded name s;
      Some (r, dt)
    | errors ->
      incr failed;
      List.iter (report_failure name) errors;
      None)

(* --- output checks, independent of the code under test --- *)

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let check_run inst (run : Bounded_ufp.run) =
  let feasible =
    match Solution.check inst run.Bounded_ufp.solution with
    | Ok () -> []
    | Error m -> [ "Solution.check: " ^ m ]
  in
  let report = Audit.bounded_ufp_run inst run in
  feasible
  @
  if report.Audit.all_passed then []
  else
    "Audit.all_passed is false"
    :: List.filter_map
         (fun (f : Audit.finding) ->
           if f.Audit.passed then None
           else Some (Printf.sprintf "audit %s: %s" f.Audit.check f.Audit.detail))
         report.Audit.findings

let same_entry (a : Bounded_ufp.trace_entry) (b : Bounded_ufp.trace_entry) =
  a.iteration = b.iteration && a.selected = b.selected && a.path = b.path
  && same_bits a.alpha b.alpha && same_bits a.d1 b.d1
  && same_bits a.dual_bound b.dual_bound

let same_trace_as reference (run : Bounded_ufp.run) =
  match reference with
  | None -> [ "no jobs-1 run to compare with" ]
  | Some (r : Bounded_ufp.run) ->
    if List.equal same_entry r.trace run.trace then []
    else [ "jobs-2 trace differs from the jobs-1 trace" ]

let winners inst (run : Bounded_ufp.run) =
  let won = Array.make (Instance.n_requests inst) false in
  List.iter (fun a -> won.(a.Solution.request) <- true) run.solution;
  won

let value inst i = (Instance.request inst i).Request.value

let check_payments inst run pay =
  let won = winners inst run in
  if Array.length pay <> Array.length won then [ "payment vector has the wrong length" ]
  else
    List.filter_map Fun.id
      (List.init (Array.length pay) (fun i ->
           let p = pay.(i) and v = value inst i in
           if (not won.(i)) && p <> 0.0 then Some (Printf.sprintf "loser %d pays %g" i p)
           else if won.(i) && not (p >= 0.0 && p <= v) then
             Some (Printf.sprintf "winner %d pays %g, outside [0, %g]" i p v)
           else None))

let same_payments_as reference pay =
  match reference with
  | None -> [ "no jobs-1 payments to compare with" ]
  | Some p1 ->
    if Array.length p1 = Array.length pay && Array.for_all2 same_bits p1 pay then []
    else [ "jobs-2 payments differ bitwise from jobs-1 payments" ]

(* Spot-check margin: a winner must win at payment x (1 + margin) and
   lose at payment x (1 - margin). *)
let spot_margin = 1e-3

(* The fixed sample of winners for the critical-value spot check and the
   traced payment probes: up to 8 winners evenly spaced in request
   order, among those paying at least 1e-3 — 1000x the bisection's
   absolute tolerance floor, so the (1 - margin) probe is decisive. *)
let sample_winners pay =
  let eligible =
    Array.of_list (List.filter (fun i -> pay.(i) >= 1e-3) (List.init (Array.length pay) Fun.id))
  in
  let n = Array.length eligible in
  if n <= 8 then eligible else Array.init 8 (fun j -> eligible.(j * n / 8))

let model ~eps = Ufp_mechanism.model (Bounded_ufp.solve ~eps)

let spot_check ~eps inst pay =
  let m = model ~eps in
  let wins i v = Single_param.is_winner m (m.Single_param.set_value inst i v) i in
  let sample = sample_winners pay in
  if Array.length sample = 0 then [ "no winner to spot-check" ]
  else
    Array.to_list sample
    |> List.concat_map (fun i ->
           let p = pay.(i) in
           (if wins i (p *. (1.0 +. spot_margin)) then []
            else [ Printf.sprintf "winner %d loses at its payment %g x (1 + 1e-3)" i p ])
           @
           if wins i (p *. (1.0 -. spot_margin)) then
             [ Printf.sprintf "winner %d still wins at its payment %g x (1 - 1e-3)" i p ]
           else [])

(* Forward adjacency rebuilt from the edge list, independent of the CSR
   views the kernel under test traverses. *)
type adjacency = { rows : int array; heads : int array; eids : int array }

let adjacency g =
  let n = Graph.n_vertices g and undirected = not (Graph.is_directed g) in
  let rows = Array.make (n + 1) 0 in
  let arcs f = Graph.fold_edges (fun e () -> f e.Graph.u e.Graph.v e.Graph.id;
                                   if undirected then f e.Graph.v e.Graph.u e.Graph.id) g () in
  arcs (fun u _ _ -> rows.(u + 1) <- rows.(u + 1) + 1);
  for u = 1 to n do rows.(u) <- rows.(u) + rows.(u - 1) done;
  let heads = Array.make rows.(n) 0 and eids = Array.make rows.(n) 0 in
  let fill = Array.sub rows 0 n in
  arcs (fun u v id ->
      heads.(fill.(u)) <- v;
      eids.(fill.(u)) <- id;
      fill.(u) <- fill.(u) + 1);
  { rows; heads; eids }

(* The tail of [pe] when entering [v], or -1 when [pe] does not enter
   [v]. *)
let tail_of g pe v =
  let e = Graph.edge g pe in
  if e.Graph.v = v then e.Graph.u
  else if (not (Graph.is_directed g)) && e.Graph.u = v then e.Graph.v
  else -1

(* A shortest-path tree under [weight] is right when the source is its
   root, exactly the BFS-reachable vertices have finite distances, every
   parent edge is tight (dist v = dist u + w, bitwise), no edge relaxes
   any vertex further, and the parent graph is acyclic. *)
let check_tree g adj ~weight ~src dist parent =
  let n = Graph.n_vertices g in
  let errors = ref [] in
  let err fmt =
    Printf.ksprintf (fun s -> if List.length !errors < 5 then errors := s :: !errors) fmt
  in
  let seen = Array.make n false and queue = Array.make n src in
  seen.(src) <- true;
  let head = ref 0 and next = ref 1 in
  while !head < !next do
    let u = queue.(!head) in
    incr head;
    for k = adj.rows.(u) to adj.rows.(u + 1) - 1 do
      let v = adj.heads.(k) in
      if not seen.(v) then begin
        seen.(v) <- true;
        queue.(!next) <- v;
        incr next
      end
    done
  done;
  if dist.(src) <> 0.0 || parent.(src) <> -1 then err "source %d is not the root" src;
  for v = 0 to n - 1 do
    if seen.(v) <> Float.is_finite dist.(v) then
      err "vertex %d: BFS-reachable %b but distance %g" v seen.(v) dist.(v);
    if v <> src && Float.is_finite dist.(v) then begin
      let pe = parent.(v) in
      let u = if pe < 0 || pe >= Graph.n_edges g then -1 else tail_of g pe v in
      if u < 0 then err "vertex %d: parent edge %d does not enter it" v pe
      else if dist.(v) <> dist.(u) +. weight pe then
        err "vertex %d: parent edge %d is not tight" v pe
    end;
    if Float.is_finite dist.(v) then
      for k = adj.rows.(v) to adj.rows.(v + 1) - 1 do
        if dist.(v) +. weight adj.eids.(k) < dist.(adj.heads.(k)) then
          err "edge %d still relaxes vertex %d" adj.eids.(k) adj.heads.(k)
      done
  done;
  (* 0 unvisited, 1 on the current parent walk, 2 finished *)
  let state = Array.make n 0 and walk = Array.make n 0 in
  for v0 = 0 to n - 1 do
    let depth = ref 0 and v = ref v0 in
    while !v >= 0 && state.(!v) = 0 do
      state.(!v) <- 1;
      walk.(!depth) <- !v;
      incr depth;
      let pe = parent.(!v) in
      v := if pe < 0 || pe >= Graph.n_edges g then -1 else tail_of g pe !v
    done;
    if !v >= 0 && state.(!v) = 1 then err "parent cycle through vertex %d" !v;
    for i = 0 to !depth - 1 do state.(walk.(i)) <- 2 done
  done;
  List.rev !errors

(* --- provenance --- *)

let read_file path = try Some (In_channel.with_open_bin path In_channel.input_all) with _ -> None

let git_rev () =
  match Option.map String.trim (read_file ".git/HEAD") with
  | None -> "unknown (not a git checkout)"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let r = String.sub head 5 (String.length head - 5) in
    match read_file (Filename.concat ".git" r) with
    | Some sha -> String.trim sha
    | None -> "unknown (" ^ r ^ ")")
  | Some sha -> sha

let proc_status field =
  match read_file "/proc/self/status" with
  | None -> None
  | Some s ->
    String.split_on_char '\n' s
    |> List.find_map (fun line ->
           match String.index_opt line ':' with
           | Some i when String.sub line 0 i = field ->
             Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
           | _ -> None)

(* CPUs this process may run on, from the affinity list (what nproc
   prints). *)
let nproc () =
  match proc_status "Cpus_allowed_list" with
  | None -> 0
  | Some l ->
    String.split_on_char ',' l
    |> List.fold_left
         (fun acc r ->
           match String.split_on_char '-' r with
           | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
           | [ _ ] -> acc + 1
           | _ -> acc)
         0

let peak_rss_mb () =
  match proc_status "VmHWM" with
  | Some v -> Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb /. 1024.0)
  | None -> nan

(* --- the workload's calls --- *)

let load path =
  match Io.load path with Ok inst -> inst | Error m -> failwith ("Io.load: " ^ m)

(* What [ufp solve FILE] pays before the solve: load, normalize, first
   CSR view. The CSR build and the view's layout pick are timed apart. *)
let setup path =
  let t0 = now () in
  let raw = load path in
  let t1 = now () in
  let inst = Instance.normalize raw in
  let t2 = now () in
  let g = Instance.graph inst in
  ignore (Graph.csr g);
  let t3 = now () in
  ignore (Graph.csr_view g);
  let t4 = now () in
  (inst, [ ("io.load_s", t1 -. t0); ("io.normalize_s", t2 -. t1);
           ("graph.csr_build_s", t3 -. t2); ("graph.view_build_s", t4 -. t3) ])

(* [ufp payments --jobs N]: forward solve, acceptance thresholds, hinted
   critical-value payments. *)
let payments ~eps ~pool inst =
  let run = Bounded_ufp.run ~eps inst in
  let hints = Ufp_mechanism.acceptance_thresholds inst run in
  ( run,
    Ufp_mechanism.payments ~rel_tol:Float_tol.payment_rel_tol
      ~warm:(`Hinted (fun i -> hints.(i)))
      ~pool (Bounded_ufp.solve ~eps) inst )

type instance = {
  path : string;
  seed : int;  (** the [ufp generate --seed] of this instance *)
  file_bytes : int;
  inst : Instance.t;
  mutable j1_run : Bounded_ufp.run option;  (** latest jobs-1 solve *)
  mutable j1_pay : float array option;  (** latest jobs-1 payments *)
  mutable certified_ratio : float;
  mutable revenue : float;
}

let setup_min_reps = 2

(* Set-up time budget of a run, shared by its instances. *)
let setup_secs = 2.0

let setup_max_reps = 200

let stages : (string, float list) Hashtbl.t = Hashtbl.create 4

(* Sets the instance up several times (at least [setup_min_reps], until
   its share [budget] of the set-up time is spent) and keeps the last. *)
let set_up ~budget gseed path =
  let rec go reps spent last =
    if reps >= setup_max_reps || (reps >= setup_min_reps && spent >= budget)
    then last
    else
      match op "setup" (fun () -> setup path) with
      | Some ((inst, st), dt) ->
        List.iter (fun (k, v) -> push stages k v) st;
        go (reps + 1) (spent +. dt) (Some inst)
      | None -> go (reps + 1) (spent +. budget) last
  in
  match go 0 0.0 None with
  | None -> failwith ("every set-up of " ^ path ^ " failed")
  | Some inst ->
    {
      path;
      seed = gseed;
      file_bytes = (Unix.stat path).Unix.st_size;
      inst;
      j1_run = None;
      j1_pay = None;
      certified_ratio = nan;
      revenue = nan;
    }

let command w = if w.prices then "payments" else "solve"

(* One closed-loop trial on one instance: the solve at jobs 1 and 2 and,
   on a pricing workload, the payments pipeline at jobs 1 and 2. *)
let trial w pi =
  let eps = w.eps and inst = pi.inst in
  (match op "solve_j1" ~check:(check_run inst) (fun () -> Bounded_ufp.run ~eps inst) with
  | Some (run, _) ->
    pi.j1_run <- Some run;
    pi.certified_ratio <-
      run.Bounded_ufp.certified_upper_bound /. Solution.value inst run.solution
  | None -> pi.j1_run <- None);
  ignore
    (op "solve_j2"
       ~check:(fun run -> check_run inst run @ same_trace_as pi.j1_run run)
       (fun () -> Pool.with_jobs 2 (fun pool -> Bounded_ufp.run ~eps ~pool inst)));
  if w.prices then begin
    let first = pi.j1_pay = None in
    (match
       op "payments_j1"
         ~check:(fun (run, pay) ->
           check_run inst run @ check_payments inst run pay
           @ if first then spot_check ~eps inst pay else [])
         (fun () -> payments ~eps ~pool:`Seq inst)
     with
    | Some ((_, pay), _) ->
      pi.j1_pay <- Some pay;
      pi.revenue <- Array.fold_left ( +. ) 0.0 pay
    | None -> pi.j1_pay <- None);
    ignore
      (op "payments_j2"
         ~check:(fun (run, pay) ->
           check_run inst run @ check_payments inst run pay @ same_payments_as pi.j1_pay pay)
         (fun () -> Pool.with_jobs 2 (fun pool -> payments ~eps ~pool inst)))
  end

let last_secs name =
  match Hashtbl.find_opt recorded name with Some (s :: _) -> s.secs | _ -> nan

let top_heap_mb () = mb_of_words (float_of_int (Gc.quick_stat ()).Gc.top_heap_words)

let top_heaps = ref []

let first_round_rss = ref nan

(* Trials cycle through the instances, each instance at least once,
   and a new trial starts only while it is expected to end within half
   a trial of the [seconds] deadline. The peak RSS is taken once every
   instance has had its trial; the top of the major heap is logged after
   each trial, so growth across repetitions shows. *)
let trial_loop w pis ~seconds =
  let k = Array.length pis in
  let start = now () in
  let rec go t =
    trial w pis.(t mod k);
    let top = top_heap_mb () in
    top_heaps := top :: !top_heaps;
    if t = k - 1 then first_round_rss := peak_rss_mb ();
    Printf.printf "trial %d instance %d: solve_j1 %.4fs solve_j2 %.4fs%s gc.top_heap_mb %.1f\n%!"
      t (t mod k) (last_secs "solve_j1") (last_secs "solve_j2")
      (if w.prices then
         Printf.sprintf " payments_j1 %.4fs payments_j2 %.4fs" (last_secs "payments_j1")
           (last_secs "payments_j2")
       else "")
      top;
    let elapsed = now () -. start in
    if t + 1 < k || elapsed +. (0.5 *. elapsed /. float_of_int (t + 1)) < seconds then go (t + 1)
  in
  go 0

(* --- isolated layer calls (per-layer run) --- *)

(* Repeats [f] at least [min] times and until [secs] are spent. *)
let repeat ?(min = 1) ~secs f =
  let t0 = now () in
  let rec go k = if k < min || now () -. t0 < secs then (f k; go (k + 1)) in
  go 0

let layer_calls pi =
  let inst = pi.inst in
  let g = Instance.graph inst in
  let weight e = 1.0 /. Graph.capacity g e in
  repeat ~min:3 ~secs:0.2 (fun _ ->
      ignore (op "weight_snapshot.build" (fun () -> Weight_snapshot.build g ~weight)));
  let snapshot = Weight_snapshot.build g ~weight in
  let sources =
    List.sort_uniq compare
      (Array.to_list (Array.map (fun r -> r.Request.src) (Instance.requests inst)))
  in
  let n = Graph.n_vertices g in
  let ws = Dijkstra.create_workspace g in
  let dist = Array.make n 0.0 and parent = Array.make n (-1) in
  let adj = adjacency g in
  (* The first sweep checks every tree; later sweeps only add samples. *)
  repeat ~secs:0.2 (fun sweep ->
      List.iter
        (fun src ->
          ignore
            (op "dijkstra.tree"
               ~check:(fun () ->
                 if sweep = 0 then check_tree g adj ~weight ~src dist parent else [])
               (fun () ->
                 Dijkstra.shortest_tree_snapshot_into ws g ~snapshot ~src ~dist
                   ~parent_edge:parent)))
        sources);
  let y = Array.init (Graph.n_edges g) weight in
  repeat ~secs:0.2 (fun _ ->
      ignore
        (op "selector.cold_fill"
           ~check:(fun c -> if c = None then [ "no routable request" ] else [])
           (fun () ->
             let s = Selector.create ~weights:(Selector.Uniform (fun e -> y.(e))) inst in
             Selector.select s)))

(* --- the traced pass (per-layer run) --- *)

let trace_capacity = 1 lsl 19

(* Benchmark-owned spans plus the program's own spans must cover the
   traced wall time to within this share. *)
let coverage_tolerance = 0.02

type traced = {
  profile : Profile.t;
  wall : float;
  dropped : int;
  iterations : int;
  overhead_ratio : float;
}

(* Critical values of the fixed winner sample, computed exactly as
   [Single_param.payments] computes them for the whole vector. *)
let sample_payments ~eps inst run sample =
  let m = model ~eps in
  let hints = Ufp_mechanism.acceptance_thresholds inst run in
  let v_hi = Single_param.default_v_hi m inst in
  Array.map
    (fun i ->
      match
        Single_param.critical_value ~v_hi ~rel_tol:Float_tol.payment_rel_tol
          ~known_winner:true ~lo_hint:hints.(i) m inst ~agent:i
      with
      | Some c -> Float.min c (value inst i)
      | None -> value inst i)
    sample

let phase (p : Profile.t) name =
  List.find_opt (fun ph -> ph.Profile.p_name = name) p.Profile.phases

let self_s p name = match phase p name with Some ph -> ph.Profile.p_self_ns *. 1e-9 | None -> 0.0

let total_s p name = match phase p name with Some ph -> ph.Profile.p_total_ns *. 1e-9 | None -> 0.0

let attributed_s (p : Profile.t) =
  List.fold_left (fun acc ph -> acc +. ph.Profile.p_self_ns) 0.0 p.Profile.phases *. 1e-9

(* Loads, sets up and solves instance 0 again with the tracer on, each
   layer call inside a benchmark-owned span; on a pricing workload the
   payment probes of the fixed winner sample follow (the whole payment
   vector would overflow any sensible ring). *)
let traced_pass w pi =
  let eps = w.eps in
  let sample, reference =
    match (pi.j1_pay, pi.j1_run) with
    | Some pay, Some run when w.prices ->
      let s = sample_winners pay in
      let t0 = now () in
      ignore (sample_payments ~eps pi.inst run s);
      (s, median (secs "solve_j1") +. (now () -. t0))
    | _ -> ([||], median (secs "solve_j1"))
  in
  let traced () =
    Trace.start ~gc:true ~capacity:trace_capacity ();
    let t0 = now () in
    let raw = Trace.with_span "io.load" (fun () -> load pi.path) in
    let inst = Trace.with_span "io.normalize" (fun () -> Instance.normalize raw) in
    let g = Instance.graph inst in
    Trace.with_span "graph.csr_build" (fun () -> ignore (Graph.csr g));
    Trace.with_span "graph.view_build" (fun () -> ignore (Graph.csr_view g));
    let run = Trace.with_span "solve" (fun () -> Bounded_ufp.run ~eps inst) in
    let pay =
      if w.prices then
        Trace.with_span "payments" (fun () -> sample_payments ~eps inst run sample)
      else [||]
    in
    let wall = now () -. t0 in
    Trace.stop ();
    let profile = Profile.of_trace () in
    let dropped = Trace.n_dropped () in
    Trace.clear ();
    (inst, run, pay, profile, wall, dropped)
  in
  let check (inst, run, pay, profile, wall, dropped) =
    let unattributed = wall -. attributed_s profile in
    check_run inst run
    @ (if dropped = 0 then [] else [ Printf.sprintf "trace ring dropped %d events" dropped ])
    @ (if Float.abs unattributed <= coverage_tolerance *. wall then []
       else [ Printf.sprintf "spans leave %.4fs of %.4fs unattributed" unattributed wall ])
    @
    match pi.j1_pay with
    | Some full when w.prices ->
      if Array.for_all2 (fun i p -> same_bits p full.(i)) sample pay then []
      else [ "traced sample payments differ from the payment vector" ]
    | _ -> []
  in
  match op "traced" ~check traced with
  | None -> None
  | Some ((_, _, _, profile, wall, dropped), _) ->
    let s = List.hd (samples "traced") in
    Some
      {
        profile;
        wall;
        dropped;
        iterations = count s.work "pd.iterations";
        overhead_ratio = (total_s profile "solve" +. total_s profile "payments") /. reference;
      }

(* --- report --- *)

type metric = { label : string; unit : string; value : float; note : string }

let metric ?(note = "") name unit value = { label = name; unit; value; note }

(* A timing: the median, plus the tail percentile when there are enough
   samples for one. *)
let timing name ops =
  let xs = List.concat_map secs ops in
  let n = List.length xs in
  let note =
    match tail xs with
    | Some (q, v) -> Printf.sprintf "median of n=%d; p%g %.6g s" n (100.0 *. q) v
    | None -> Printf.sprintf "median of n=%d; no tail percentile (n < 100)" n
  in
  metric ~note name "s" (median xs)

let stage name = median (Option.value ~default:[] (Hashtbl.find_opt stages name))

let end_to_end w pis =
  let cmd = command w in
  let ratios = Array.to_list (Array.map (fun pi -> pi.certified_ratio) pis) in
  let setup = timing "setup_s" [ "setup" ] in
  [
    { setup with note = setup.note ^ "; load + normalize + first csr_view" };
    timing "command_j1_s" [ cmd ^ "_j1" ];
    metric "peak_rss_mb" "MB" !first_round_rss
      ~note:"VmHWM of this process once every instance has had a trial";
    metric "certified_ratio" "ratio" (median ratios)
      ~note:"certified_upper_bound / value of the jobs-1 solve, median over instances";
  ]

(* Reported alongside but not gated: the jobs-2 command, whose time
   swings with the second CPU's availability on a small shared host, and
   the per-call timings the command metrics are picked from. *)
let end_to_end_aliases w =
  [
    timing "command_j2_s" [ command w ^ "_j2" ];
    timing "solve_j1_s" [ "solve_j1" ];
    timing "solve_j2_s" [ "solve_j2" ];
  ]
  @ if w.prices then [ timing "payments_j1_s" [ "payments_j1" ]; timing "payments_j2_s" [ "payments_j2" ] ]
    else []

let per_layer w pis (t : traced option) =
  let cmd = command w in
  let pi = pis.(0) in
  let solve_j1 = median (secs "solve_j1") in
  let snapshot_s = median (secs "weight_snapshot.build") in
  let tree_samples = samples "dijkstra.tree" in
  let tree_relax =
    List.fold_left (fun a s -> a + count s.work "dijkstra.relaxations") 0 tree_samples
  in
  let tree_secs = List.fold_left (fun a s -> a +. s.secs) 0.0 tree_samples in
  let rebuilds = median_work "solve_j1" "selector.tree_rebuilds" in
  let hits = median_work "solve_j1" "selector.cache_hits"
  and misses = median_work "solve_j1" "selector.cache_misses" in
  let steals = median_work (cmd ^ "_j2") "pool.steals"
  and steal_failures = median_work (cmd ^ "_j2") "pool.steal_failures" in
  let gc f = median (List.map f (samples (cmd ^ "_j1"))) in
  let self name = Option.fold ~none:0.0 ~some:(fun t -> self_s t.profile name) t in
  let bounded_self = self "bounded_ufp.run" in
  let view = Graph.csr_view (Instance.graph pi.inst) in
  [
    metric "io.load_s" "s" (stage "io.load_s");
    metric "io.load_mb_per_s" "MB/s" (mb_of_bytes (float_of_int pi.file_bytes) /. stage "io.load_s")
      ~note:(Printf.sprintf "%d-byte instance file" pi.file_bytes);
    metric "io.normalize_s" "s" (stage "io.normalize_s");
    metric "graph.csr_build_s" "s" (stage "graph.csr_build_s");
    metric "graph.view_build_s" "s" (stage "graph.view_build_s");
    metric "graph.adjacency_bytes" "bytes"
      (float_of_int (Obj.reachable_words (Obj.repr view) * (Sys.word_size / 8)))
      ~note:"computed: heap words reachable from Graph.csr_view";
    metric "weight_snapshot.build_s" "s" snapshot_s ~note:"one build at the initial duals 1/c_e";
    metric "weight_snapshot.builds" "count" (median_work "solve_j1" "dijkstra.snapshot_builds")
      ~note:"per jobs-1 solve";
    metric "weight_snapshot.modelled_share" "ratio"
      (ratio (median_work "solve_j1" "dijkstra.snapshot_builds" *. snapshot_s) solve_j1)
      ~note:"builds x build_s / solve_j1_s";
    metric "dijkstra.tree_s" "s" (median (secs "dijkstra.tree"))
      ~note:"one tree per distinct request source, initial duals";
    metric "dijkstra.mteps" "1/us" (ratio (float_of_int tree_relax) tree_secs /. 1e6)
      ~note:"relaxations per microsecond over the isolated trees";
    metric "dijkstra.runs" "count" (median_work "solve_j1" "dijkstra.runs") ~note:"per jobs-1 solve";
    metric "dijkstra.relaxations" "count" (median_work "solve_j1" "dijkstra.relaxations")
      ~note:"per jobs-1 solve";
    metric "selector.cold_fill_s" "s" (median (secs "selector.cold_fill"))
      ~note:"Selector.create + first select";
    metric "selector.tree_rebuilds" "count" rebuilds ~note:"per jobs-1 solve";
    metric "selector.rebuild_ratio_j2" "ratio" (ratio (median_work "solve_j2" "selector.tree_rebuilds") rebuilds)
      ~note:"jobs-2 solve rebuilds / jobs-1 solve rebuilds";
    metric "selector.cache_hit_ratio" "ratio" (ratio hits (hits +. misses))
      ~note:"hits / (hits + misses), jobs-1 solve";
    metric "selector.stale_pop_ratio" "ratio"
      (ratio (median_work "solve_j1" "selector.stale_pops") (median_work "solve_j1" "selector.heap_pops"))
      ~note:"stale_pops / heap_pops, jobs-1 solve";
    metric "selector.rebuild_self_s" "s" (self "selector.rebuild") ~note:"traced pass";
    metric "bounded_ufp.iterations" "count" (median_work "solve_j1" "pd.iterations") ~note:"per jobs-1 solve";
    metric "bounded_ufp.dual_updates" "count" (median_work "solve_j1" "pd.dual_updates")
      ~note:"per jobs-1 solve";
    metric "bounded_ufp.self_s" "s" bounded_self ~note:"traced pass, bounded_ufp.run self time";
    metric "bounded_ufp.ns_per_iteration" "ns"
      (ratio (bounded_self *. 1e9)
         (Option.fold ~none:0.0 ~some:(fun t -> float_of_int t.iterations) t))
      ~note:"traced self time / iterations in the traced pass";
    metric "pool.chunks" "count" (median_work (cmd ^ "_j2") "pool.chunks") ~note:("per jobs-2 " ^ cmd);
    metric "pool.steals" "count" steals ~note:("per jobs-2 " ^ cmd);
    metric "pool.steal_failure_ratio" "ratio" (ratio steal_failures (steals +. steal_failures))
      ~note:"failures / (steals + failures)";
    metric "pool.speedup" "ratio" (ratio (median (secs (cmd ^ "_j1"))) (median (secs (cmd ^ "_j2"))))
      ~note:(Printf.sprintf "%s_j1_s / %s_j2_s" cmd cmd);
    metric "gc.minor_mb" "MB" (gc (fun s -> s.minor_mb)) ~note:("per jobs-1 " ^ cmd);
    metric "gc.major_mb" "MB" (gc (fun s -> s.major_mb)) ~note:("per jobs-1 " ^ cmd);
    metric "gc.major_collections" "count" (gc (fun s -> float_of_int s.major_gcs))
      ~note:("per jobs-1 " ^ cmd);
    metric "gc.top_heap_mb" "MB" (match !top_heaps with top :: _ -> top | [] -> nan)
      ~note:"after the last trial";
    metric "trace.overhead_ratio" "ratio"
      (Option.fold ~none:0.0 ~some:(fun t -> t.overhead_ratio) t)
      ~note:"traced / untraced wall of the same calls";
    metric "trace.unattributed_s" "s"
      (Option.fold ~none:0.0 ~some:(fun t -> t.wall -. attributed_s t.profile) t)
      ~note:(Printf.sprintf "traced wall minus all span self times; tolerance %g of the wall"
               coverage_tolerance);
  ]

(* Reported alongside where they apply. *)
let per_layer_extras w (t : traced option) =
  let self name = Option.fold ~none:0.0 ~some:(fun t -> self_s t.profile name) t in
  [
    metric "trace.dropped_events" "count"
      (Option.fold ~none:nan ~some:(fun t -> float_of_int t.dropped) t)
      ~note:"must be 0";
    metric "pool.speedup_solve" "ratio" (ratio (median (secs "solve_j1")) (median (secs "solve_j2")));
  ]
  @
  if not w.prices then []
  else
    let probes = median_work "payments_j1" "mech.payment_probes" in
    (* Winners priced per call: one mech.probes_per_winner observation
       each. *)
    let per_winner c =
      median
        (List.map
           (fun s ->
             ratio
               (float_of_int (count s.work c))
               (float_of_int (count s.work "mech.probes_per_winner")))
           (samples "payments_j1"))
    in
    [
      metric "single_param.probes" "count" probes ~note:"per jobs-1 payments";
      metric "single_param.probes_per_winner" "count" (per_winner "mech.payment_probes");
      metric "single_param.warm_hit_ratio" "ratio" (per_winner "mech.warm_start_hits")
        ~note:"warm_start_hits / winners";
      metric "single_param.probe_s" "s" (ratio (median (secs "payments_j1")) probes)
        ~note:"payments_j1_s / probes";
      metric "single_param.critical_value_self_s" "s" (self "mech.critical_value")
        ~note:"traced pass, sampled winners";
      metric "pool.speedup_payments" "ratio"
        (ratio (median (secs "payments_j1")) (median (secs "payments_j2")));
    ]

let print_metric m =
  Printf.printf "metric %-32s %18.9g %-6s %s\n" m.label m.value m.unit m.note

let json_result declared =
  let values =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.label
          (if Float.is_finite m.value then m.value else 0.0) m.unit)
      declared
  in
  let finite = List.for_all (fun m -> Float.is_finite m.value) declared in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!failed = 0 && !attempted > 0 && finite) (max 1 !attempted) !failed
    (String.concat ", " values)

(* --- main --- *)

let usage () =
  prerr_endline
    ("usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n       workloads: "
    ^ String.concat " | " (List.map (fun (w : workload) -> w.name) workloads));
  exit 2

let find_workload name =
  match List.find_opt (fun (w : workload) -> w.name = name) workloads with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %S\n" name;
    usage ()

let measure w ~seed ~seconds ~traced =
  Printf.printf "provenance: git_rev=%s ocaml=%s nproc=%d recommended_domains=%d\n"
    (git_rev ()) Sys.ocaml_version (nproc ()) (Domain.recommended_domain_count ());
  Printf.printf "run: workload=%s seed=%d seconds=%g trace=%b eps=%g instances=%d\n%!"
    w.name seed seconds traced w.eps w.instances;
  if not (Sys.file_exists cache_dir) then Sys.mkdir cache_dir 0o755;
  let seeds = List.init w.instances (gen_seed seed) in
  let paths = List.map (ensure_instance w) seeds in
  prune_cache w paths;
  let budget = setup_secs /. float_of_int w.instances in
  let pis = Array.of_list (List.map2 (set_up ~budget) seeds paths) in
  trial_loop w pis ~seconds;
  Array.iteri
    (fun k pi ->
      let g = Instance.graph pi.inst in
      let accepted =
        match pi.j1_run with Some r -> List.length r.Bounded_ufp.solution | None -> -1
      in
      Printf.printf
        "fingerprint instance %d: gen_seed=%d vertices=%d edges=%d requests=%d accepted=%d \
         winners=%d revenue=%s certified_ratio=%.6f premise=%b\n"
        k pi.seed (Graph.n_vertices g) (Graph.n_edges g) (Instance.n_requests pi.inst) accepted
        accepted
        (if w.prices then Printf.sprintf "%.6f" pi.revenue else "n/a")
        pi.certified_ratio
        (Instance.meets_bound pi.inst ~eps:w.eps))
    pis;
  if traced then begin
    layer_calls pis.(0);
    let t = traced_pass w pis.(0) in
    let declared = per_layer w pis t in
    List.iter print_metric (declared @ per_layer_extras w t);
    declared
  end
  else begin
    let declared = end_to_end w pis in
    List.iter print_metric (declared @ end_to_end_aliases w);
    declared
  end

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "--generate"; name; gseed; path ] ->
    write_instance (find_workload name) (int_of_string gseed) path
  | args ->
    let rec parse acc = function
      | key :: v :: rest when String.starts_with ~prefix:"--" key -> parse ((key, v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get key default =
      match List.assoc_opt key opts with Some v -> v | None -> (
        match default with Some d -> d | None -> usage ())
    in
    let w = find_workload (get "--workload" None) in
    let int key d = match int_of_string_opt (get key (Some d)) with Some n -> n | None -> usage () in
    let seed = int "--seed" "1" and seconds = int "--seconds" "20" and trace = int "--trace" "0" in
    if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
    let declared =
      try measure w ~seed ~seconds:(float_of_int seconds) ~traced:(trace = 1)
      with e ->
        incr failed;
        report_failure "run" (Printexc.to_string e);
        []
    in
    print_endline (json_result declared)
