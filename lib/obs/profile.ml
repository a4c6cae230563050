module Table = Ufp_prelude.Table

(* Fold the span stream into a per-phase profile. A phase is a span
   name (bounded_ufp.run, selector rebuilds, payment bisections, VCG
   counterfactuals, ...); the stream is replayed per tid with an
   explicit frame stack, so nested spans attribute self time the way
   a sampling profiler would: a frame's self time is its duration
   minus the durations of its direct children, and likewise for the
   Gc.quick_stat word deltas when the trace sampled them. *)

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

(* One open span on some tid's stack. The child accumulators let the
   parent subtract its children without a second pass. *)
type frame = {
  f_name : string;
  f_ts : int64;
  f_minor : float;
  f_promoted : float;
  f_major : float;
  mutable f_child_ns : float;
  mutable f_child_minor : float;
  mutable f_child_promoted : float;
  mutable f_child_major : float;
}

type acc = {
  mutable a_count : int;
  mutable a_total_ns : float;
  mutable a_self_ns : float;
  mutable a_minor : float;
  mutable a_promoted : float;
  mutable a_major : float;
}

let of_trace () =
  let stacks : (int, frame list ref) Hashtbl.t = Hashtbl.create 8 in
  let accs : (string, acc) Hashtbl.t = Hashtbl.create 32 in
  let gc_sampled = ref false in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.add stacks tid s;
      s
  in
  let acc name =
    match Hashtbl.find_opt accs name with
    | Some a -> a
    | None ->
      let a =
        {
          a_count = 0;
          a_total_ns = 0.0;
          a_self_ns = 0.0;
          a_minor = 0.0;
          a_promoted = 0.0;
          a_major = 0.0;
        }
      in
      Hashtbl.add accs name a;
      a
  in
  Trace.iter_events (fun ev ->
      if ev.Trace.ev_minor <> 0.0 then gc_sampled := true;
      match ev.Trace.ev_ph with
      | 'B' ->
        let s = stack ev.Trace.ev_tid in
        s :=
          {
            f_name = ev.Trace.ev_name;
            f_ts = ev.Trace.ev_ts;
            f_minor = ev.Trace.ev_minor;
            f_promoted = ev.Trace.ev_promoted;
            f_major = ev.Trace.ev_major;
            f_child_ns = 0.0;
            f_child_minor = 0.0;
            f_child_promoted = 0.0;
            f_child_major = 0.0;
          }
          :: !s
      | 'E' -> (
        let s = stack ev.Trace.ev_tid in
        match !s with
        | [] -> ()  (* orphan E: its B was overwritten by ring wrap *)
        | f :: rest when f.f_name = ev.Trace.ev_name ->
          s := rest;
          let dur =
            Float.max 0.0 (Int64.to_float (Int64.sub ev.Trace.ev_ts f.f_ts))
          in
          let minor = Float.max 0.0 (ev.Trace.ev_minor -. f.f_minor) in
          let promoted =
            Float.max 0.0 (ev.Trace.ev_promoted -. f.f_promoted)
          in
          let major = Float.max 0.0 (ev.Trace.ev_major -. f.f_major) in
          let a = acc f.f_name in
          a.a_count <- a.a_count + 1;
          a.a_total_ns <- a.a_total_ns +. dur;
          a.a_self_ns <- a.a_self_ns +. Float.max 0.0 (dur -. f.f_child_ns);
          a.a_minor <-
            a.a_minor +. Float.max 0.0 (minor -. f.f_child_minor);
          a.a_promoted <-
            a.a_promoted +. Float.max 0.0 (promoted -. f.f_child_promoted);
          a.a_major <- a.a_major +. Float.max 0.0 (major -. f.f_child_major);
          (match rest with
          | parent :: _ ->
            parent.f_child_ns <- parent.f_child_ns +. dur;
            parent.f_child_minor <- parent.f_child_minor +. minor;
            parent.f_child_promoted <- parent.f_child_promoted +. promoted;
            parent.f_child_major <- parent.f_child_major +. major
          | [] -> ())
        | _ :: _ -> ()
        (* name mismatch: a truncated ring interleaved two spans —
           keep the stack rather than corrupt the attribution *))
      | _ -> ());
  let phases =
    Hashtbl.fold
      (fun name a rows ->
        {
          p_name = name;
          p_count = a.a_count;
          p_total_ns = a.a_total_ns;
          p_self_ns = a.a_self_ns;
          p_minor_w = a.a_minor;
          p_promoted_w = a.a_promoted;
          p_major_w = a.a_major;
        }
        :: rows)
      accs []
  in
  let phases =
    List.sort
      (fun a b ->
        match Float.compare b.p_self_ns a.p_self_ns with
        | 0 -> String.compare a.p_name b.p_name
        | c -> c)
      phases
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
