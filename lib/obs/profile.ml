module Table = Ufp_prelude.Table

(* Per-phase totals of the spans that ended since the last Trace.start
   or Trace.clear. A phase is a span name (bounded_ufp.run, selector
   rebuilds, counterfactuals, certificate probes, ...); Trace.with_span
   folds each span into its phase as the span ends, inside the
   tracer's critical section, with self time (and, when the trace
   samples the GC, self words) net of the spans it encloses — the way
   a sampling profiler attributes. *)

type phase = {
  p_name : string;
  p_count : int;  (* completed spans *)
  p_total_ns : float;  (* wall time including children *)
  p_self_ns : float;  (* wall time excluding children *)
  p_minor_w : float;  (* minor words allocated, self *)
  p_promoted_w : float;  (* words promoted minor->major, self *)
  p_major_w : float;  (* words allocated directly major, self *)
}

type t = {
  phases : phase list;  (* sorted by self time, descending *)
  gc_sampled : bool;
}

(* Per phase, its running sums in a float array: count, total ns, then
   self ns, minor, promoted and major words. The array is stored flat,
   so a span's end adds to it in place; replacing an immutable [phase]
   per span instead doubled what tracing costs a solve (EXPERIMENTS.md,
   EXP-OBS-OVERHEAD). Written only under Trace's lock; read by
   [of_trace] from the orchestrating domain once the traced region has
   joined. *)
let totals : (string, float array) Hashtbl.t = Hashtbl.create 32

let gc_sampled = ref false

let reset ~gc =
  Hashtbl.reset totals;
  gc_sampled := gc

let add_span s =
  let a =
    match Hashtbl.find_opt totals s.p_name with
    | Some a -> a
    | None ->
      let a = Array.make 6 0.0 in
      Hashtbl.add totals s.p_name a;
      a
  in
  a.(0) <- a.(0) +. float_of_int s.p_count;
  a.(1) <- a.(1) +. s.p_total_ns;
  a.(2) <- a.(2) +. s.p_self_ns;
  a.(3) <- a.(3) +. s.p_minor_w;
  a.(4) <- a.(4) +. s.p_promoted_w;
  a.(5) <- a.(5) +. s.p_major_w

let of_trace () =
  let phase name a rows =
    {
      p_name = name;
      p_count = int_of_float a.(0);
      p_total_ns = a.(1);
      p_self_ns = a.(2);
      p_minor_w = a.(3);
      p_promoted_w = a.(4);
      p_major_w = a.(5);
    }
    :: rows
  in
  let phases =
    List.sort
      (fun a b ->
        match Float.compare b.p_self_ns a.p_self_ns with
        | 0 -> String.compare a.p_name b.p_name
        | c -> c)
      (Hashtbl.fold phase totals [])
  in
  { phases; gc_sampled = !gc_sampled }

(* --- rendering --- *)

let ms ns = ns /. 1e6

let to_table ?(title = "profile") p =
  let t =
    Table.create ~title
      ~columns:
        [ "phase"; "count"; "total ms"; "self ms"; "minor kw"; "major kw" ]
  in
  List.iter
    (fun ph ->
      Table.add_row t
        [
          ph.p_name;
          Table.cell_i ph.p_count;
          Printf.sprintf "%.3f" (ms ph.p_total_ns);
          Printf.sprintf "%.3f" (ms ph.p_self_ns);
          (if p.gc_sampled then Printf.sprintf "%.1f" (ph.p_minor_w /. 1e3)
           else "-");
          (if p.gc_sampled then
             Printf.sprintf "%.1f" ((ph.p_promoted_w +. ph.p_major_w) /. 1e3)
           else "-");
        ])
    p.phases;
  t

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else Printf.sprintf "\"%h\"" v

let to_json p =
  let phase ph =
    String.concat ", "
      [
        Printf.sprintf "\"phase\": \"%s\"" ph.p_name;
        Printf.sprintf "\"count\": %d" ph.p_count;
        Printf.sprintf "\"total_ns\": %s" (json_float ph.p_total_ns);
        Printf.sprintf "\"self_ns\": %s" (json_float ph.p_self_ns);
        Printf.sprintf "\"minor_words\": %s" (json_float ph.p_minor_w);
        Printf.sprintf "\"promoted_words\": %s" (json_float ph.p_promoted_w);
        Printf.sprintf "\"major_words\": %s" (json_float ph.p_major_w);
      ]
  in
  Printf.sprintf
    "{\"schema\": \"ufp-profile/1\", \"gc_sampled\": %b, \"phases\": [%s]}"
    p.gc_sampled
    (String.concat ", " (List.map (fun ph -> "{" ^ phase ph ^ "}") p.phases))

let save_json path p =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_json p);
      output_char oc '\n')
