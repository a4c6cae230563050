module Table = Ufp_prelude.Table
module Graph = Ufp_graph.Graph
module Instance = Ufp_instance.Instance
module Bounded_ufp = Ufp_core.Bounded_ufp
module Float_tol = Ufp_prelude.Float_tol
module Trace = Ufp_obs.Trace

(* Time one solver run under a given tracer state.  The instance is
   solved once untimed first so both measured runs see warm caches. *)
let timed_run ~eps inst =
  snd (Harness.time_it (fun () -> ignore (Bounded_ufp.run ~eps inst)))

let run ?(quick = false) () =
  let table =
    Table.create
      ~title:
        "EXP-OBS-OVERHEAD: Ufp_obs cost on the EXP-PERF grid workload \
         (counters are always on; tracing off vs on)"
      ~columns:
        [
          "grid"; "m"; "|R|"; "trace off (s)"; "trace on (s)"; "overhead";
          "events"; "dropped";
        ]
  in
  let eps = 0.3 in
  let configs =
    if quick then [ (6, 6, 200) ] else [ (6, 6, 200); (8, 8, 400); (10, 10, 800) ]
  in
  List.iter
    (fun (rows, cols, count) ->
      let m = (rows * (cols - 1)) + (cols * (rows - 1)) in
      let capacity = Harness.capacity_for ~m ~eps in
      let inst = Harness.grid_instance ~seed:1 ~rows ~cols ~capacity ~count in
      ignore (Bounded_ufp.run ~eps inst) (* warm-up *);
      Trace.stop ();
      let t_off = timed_run ~eps inst in
      Trace.start ();
      let t_on = timed_run ~eps inst in
      let events = Trace.n_events () and dropped = Trace.n_dropped () in
      Trace.stop ();
      Trace.clear ();
      Table.add_row table
        [
          Printf.sprintf "%dx%d" rows cols;
          Table.cell_i (Graph.n_edges (Instance.graph inst));
          Table.cell_i count;
          Table.cell_f t_off;
          Table.cell_f t_on;
          Harness.pct ((t_on -. t_off) /. Float.max t_off Float_tol.div_guard);
          Table.cell_i events;
          Table.cell_i dropped;
        ])
    configs;
  [ table ]
