module Table = Ufp_prelude.Table
module Graph = Ufp_graph.Graph
module Instance = Ufp_instance.Instance
module Bounded_ufp = Ufp_core.Bounded_ufp
module Float_tol = Ufp_prelude.Float_tol
module Trace = Ufp_obs.Trace

(* The tracer modes, each as the call that installs it: off, tracing,
   and tracing with the profiler's GC sampling ([--profile]). *)
let modes = [| Trace.stop; (fun () -> Trace.start ()); (fun () -> Trace.start ~gc:true ()) |]

let run ?(quick = false) () =
  let rounds = if quick then 5 else 30 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "EXP-OBS-OVERHEAD: Ufp_obs cost on the EXP-PERF grid workload \
            (counters are always on; each mode's minimum over %d \
            alternating runs)"
           rounds)
      ~columns:
        [
          "grid"; "m"; "|R|"; "trace off (s)"; "trace on (s)";
          "profile on (s)"; "trace overhead"; "profile overhead"; "events";
          "dropped";
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
      (* The modes alternate within each round, so a drift of the
         machine's speed reaches all three alike; the minimum is each
         mode's least disturbed run. *)
      let best = Array.make (Array.length modes) infinity in
      let events = ref 0 and dropped = ref 0 in
      for _ = 1 to rounds do
        Array.iteri
          (fun k install ->
            install ();
            let t = snd (Harness.time_it (fun () -> ignore (Bounded_ufp.run ~eps inst))) in
            best.(k) <- Float.min best.(k) t;
            if Trace.is_on () then begin
              events := Trace.n_events ();
              dropped := Trace.n_dropped ()
            end;
            Trace.stop ())
          modes
      done;
      Trace.clear ();
      let overhead t = Harness.pct ((t -. best.(0)) /. Float.max best.(0) Float_tol.div_guard) in
      Table.add_row table
        [
          Printf.sprintf "%dx%d" rows cols;
          Table.cell_i (Graph.n_edges (Instance.graph inst));
          Table.cell_i count;
          Table.cell_f best.(0);
          Table.cell_f best.(1);
          Table.cell_f best.(2);
          overhead best.(1);
          overhead best.(2);
          Table.cell_i !events;
          Table.cell_i !dropped;
        ])
    configs;
  [ table ]
