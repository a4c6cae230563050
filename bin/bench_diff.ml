(* bench-diff — the perf-trajectory regression gate.

   Loads two BENCH_*.json files (the committed trajectory and a fresh
   run), joins their benchmark rows by id, reports the current/baseline
   ratio per metric, and exits non-zero when any gated metric moved
   past the threshold in its bad direction. This is what finally
   *reads* the trajectory the bench driver has been emitting since
   PR 5: a regression like the one PR 6's stack-overflow fix caught by
   luck now fails CI instead of sailing through.

   Every artifact carries a top-level "rows" array of self-describing
   rows {"id": ..., "unit": ..., "better": "lower"|"higher"|"info",
   "value": ...}: `id` is the join key and `better` the gating
   direction ("info" rows are reported but never gated).  A file
   without a "rows" array is rejected.  The "provenance" stamp (git
   rev, OCaml version, core count), when present, is printed for
   context.

   Usage: bench-diff [--threshold R] BASELINE.json CURRENT.json
     --threshold R   gate at ratio > 1+R (lower-better) or
                     < 1/(1+R) (higher-better); default 0.25.

   Exit 0: all gated metrics within threshold.
   Exit 1: at least one regression.
   Exit 2: usage/parse error, or no gated metric joined (a silent
           no-op gate would be worse than none).

   A second mode renders the whole committed trajectory instead of
   gating one step of it:

     bench-diff --trajectory OUT.md BENCH_PR5.json BENCH_PR6.json ...

   joins every row id across all the given artifacts (columns ordered
   by the number in the file name, so PR10 sorts after PR9) into one
   markdown table — value, unit, better-direction, and a provenance
   footnote per artifact. `make bench-trajectory` regenerates
   docs/BENCH_TRAJECTORY.md this way, and a runtest rule checks the
   committed file against it.

   No JSON library: files go through the small reader in bin/json.ml,
   which trace-check shares. *)

open Json

(* --- row extraction --- *)

type direction = Lower | Higher | Info

type row = { r_id : string; r_dir : direction; r_unit : string; r_value : float }

let direction_of_string = function
  | "lower" -> Lower
  | "higher" -> Higher
  | _ -> Info

let fields = function Obj f -> f | _ -> []

let str_field o key =
  match List.assoc_opt key (fields o) with Some (Str s) -> Some s | _ -> None

let num_field o key =
  match List.assoc_opt key (fields o) with Some (Num v) -> Some v | _ -> None

(* A row without a numeric value (a micro-benchmark with no estimate
   writes null) is skipped. *)
let extract_rows doc =
  match List.assoc_opt "rows" (fields doc) with
  | Some (List items) ->
    List.filter_map
      (fun item ->
        match (str_field item "id", num_field item "value") with
        | Some id, Some v ->
          let dir =
            match str_field item "better" with
            | Some d -> direction_of_string d
            | None -> Info
          in
          let unit = Option.value (str_field item "unit") ~default:"" in
          Some { r_id = id; r_dir = dir; r_unit = unit; r_value = v }
        | _ -> None)
      items
  | _ -> raise (Bad "no top-level \"rows\" array")

let provenance_line doc =
  match List.assoc_opt "provenance" (fields doc) with
  | Some p ->
    let part key =
      match List.assoc_opt key (fields p) with
      | Some (Str s) -> Printf.sprintf "%s=%s" key s
      | Some (Num n) when Float.is_integer n ->
        Printf.sprintf "%s=%d" key (int_of_float n)
      | _ -> ""
    in
    String.concat " "
      (List.filter
         (fun s -> s <> "")
         [ part "git_rev"; part "ocaml_version"; part "recommended_domains" ])
  | None -> "(no provenance stamp)"

(* One artifact's rows and provenance line; exit 2 when it cannot be
   read or parsed. *)
let load path =
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg ->
      Printf.eprintf "bench-diff: %s\n" msg;
      exit 2
  in
  try
    let doc = parse text in
    (extract_rows doc, provenance_line doc)
  with Bad msg ->
    Printf.eprintf "bench-diff: %s: %s\n" path msg;
    exit 2

(* --- trajectory rendering --- *)

(* Column order: the PR number embedded in the file name (BENCH_PR10
   after BENCH_PR9, which plain lexicographic order gets wrong), name
   as tie-break. *)
let file_ordinal path =
  let base = Filename.basename path in
  let n = String.length base in
  let best = ref (-1) in
  let i = ref 0 in
  while !i < n do
    if base.[!i] >= '0' && base.[!i] <= '9' then begin
      let j = ref !i in
      while !j < n && base.[!j] >= '0' && base.[!j] <= '9' do incr j done;
      (match int_of_string_opt (String.sub base !i (!j - !i)) with
      | Some v when v > !best -> best := v
      | _ -> ());
      i := !j
    end
    else incr i
  done;
  !best

let direction_label = function
  | Lower -> "lower"
  | Higher -> "higher"
  | Info -> "info"

let write_trajectory out_path files =
  let files =
    List.stable_sort
      (fun a b ->
        let c = compare (file_ordinal a) (file_ordinal b) in
        if c <> 0 then c else compare a b)
      files
  in
  let columns =
    List.map
      (fun path ->
        let rows, prov = load path in
        (Filename.basename path, rows, prov))
      files
  in
  (* Row order: first appearance across the artifacts in column
     order, so metrics appear in the order they entered the
     trajectory. *)
  let seen = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (_, rows, _) ->
      List.iter
        (fun r ->
          if not (Hashtbl.mem seen r.r_id) then begin
            Hashtbl.add seen r.r_id r;
            order := r.r_id :: !order
          end)
        rows)
    columns;
  let ids = List.rev !order in
  let buf = Buffer.create 4096 in
  let bprintf fmt = Printf.bprintf buf fmt in
  bprintf "# Benchmark trajectory\n\n";
  bprintf
    "Every committed `BENCH_PR*.json` artifact joined by row id — one \
     column per PR, in PR order. Regenerate with `make bench-trajectory` \
     (this file is generated; edit `bin/bench_diff.ml` instead). A `—` \
     means the artifact does not carry that row; `better` says which \
     direction is an improvement (`info` rows are context, never \
     gated).\n\n";
  bprintf "| benchmark | unit | better |%s\n"
    (String.concat ""
       (List.map (fun (name, _, _) -> " " ^ name ^ " |") columns));
  bprintf "|---|---|---|%s\n"
    (String.concat "" (List.map (fun _ -> "---|") columns));
  List.iter
    (fun id ->
      let proto = Hashtbl.find seen id in
      bprintf "| `%s` | %s | %s |" id
        (if proto.r_unit = "" then " " else proto.r_unit)
        (direction_label proto.r_dir);
      List.iter
        (fun (_, rows, _) ->
          match List.find_opt (fun r -> r.r_id = id) rows with
          | Some r -> bprintf " %.6g |" r.r_value
          | None -> bprintf " — |")
        columns;
      bprintf "\n")
    ids;
  bprintf "\n## Provenance\n\n";
  List.iter
    (fun (name, rows, prov) ->
      bprintf "- `%s` — %d rows — %s\n" name (List.length rows) prov)
    columns;
  let oc =
    try open_out out_path
    with Sys_error msg ->
      Printf.eprintf "bench-diff: %s\n" msg;
      exit 2
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents buf));
  Printf.printf "wrote %s: %d benchmarks x %d artifacts\n" out_path
    (List.length ids) (List.length columns)

(* --- the gate --- *)

let () =
  let threshold = ref 0.25 in
  let trajectory_out = ref None in
  let paths = ref [] in
  let rec parse_args = function
    | "--threshold" :: v :: rest -> (
      match float_of_string_opt v with
      | Some t when t > 0.0 ->
        threshold := t;
        parse_args rest
      | _ ->
        prerr_endline "bench-diff: --threshold expects a positive number";
        exit 2)
    | "--trajectory" :: out :: rest ->
      trajectory_out := Some out;
      parse_args rest
    | arg :: rest ->
      paths := arg :: !paths;
      parse_args rest
    | [] -> ()
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  (match !trajectory_out with
  | Some out ->
    (match List.rev !paths with
    | [] ->
      prerr_endline
        "usage: bench-diff --trajectory OUT.md BENCH_PR*.json...";
      exit 2
    | files ->
      write_trajectory out files;
      exit 0)
  | None -> ());
  let base_path, cur_path =
    match List.rev !paths with
    | [ b; c ] -> (b, c)
    | _ ->
      prerr_endline "usage: bench-diff [--threshold R] BASELINE.json CURRENT.json";
      exit 2
  in
  let base_rows, base_prov = load base_path in
  let cur_rows, cur_prov = load cur_path in
  Printf.printf "baseline: %s  %s\n" base_path base_prov;
  Printf.printf "current : %s  %s\n" cur_path cur_prov;
  Printf.printf "threshold: %.2fx\n\n" (1.0 +. !threshold);
  Printf.printf "%-58s %14s %14s %8s  %s\n" "benchmark" "baseline" "current"
    "ratio" "verdict";
  let regressions = ref 0 in
  let gated = ref 0 in
  let joined = ref 0 in
  List.iter
    (fun cur ->
      match List.find_opt (fun b -> b.r_id = cur.r_id) base_rows with
      | None -> ()
      | Some base ->
        incr joined;
        let ratio =
          if base.r_value = 0.0 then
            if cur.r_value = 0.0 then 1.0 else infinity
          else cur.r_value /. base.r_value
        in
        let verdict =
          match cur.r_dir with
          | Info -> "info"
          | Lower | Higher ->
            incr gated;
            let bad =
              match cur.r_dir with
              | Lower -> ratio > 1.0 +. !threshold
              | Higher -> ratio < 1.0 /. (1.0 +. !threshold)
              | Info -> false
            in
            if bad then begin
              incr regressions;
              "REGRESSED"
            end
            else "ok"
        in
        Printf.printf "%-58s %14.6g %14.6g %8.3f  %s\n" cur.r_id base.r_value
          cur.r_value ratio verdict)
    cur_rows;
  let unmatched_cur =
    List.filter
      (fun c -> not (List.exists (fun b -> b.r_id = c.r_id) base_rows))
      cur_rows
  in
  let unmatched_base =
    List.filter
      (fun b -> not (List.exists (fun c -> c.r_id = b.r_id) cur_rows))
      base_rows
  in
  if unmatched_cur <> [] then
    Printf.printf "\n%d current row(s) not in the baseline (new benchmarks?):\n%s\n"
      (List.length unmatched_cur)
      (String.concat "\n"
         (List.map (fun r -> "  + " ^ r.r_id) unmatched_cur));
  if unmatched_base <> [] then
    Printf.printf "\n%d baseline row(s) missing from the current run:\n%s\n"
      (List.length unmatched_base)
      (String.concat "\n"
         (List.map (fun r -> "  - " ^ r.r_id) unmatched_base));
  if !gated = 0 then begin
    Printf.eprintf
      "bench-diff: no gated metric joined (%d rows matched) — disjoint \
       schemas?\n"
      !joined;
    exit 2
  end;
  Printf.printf "\n%d metrics joined, %d gated, %d regressed\n" !joined !gated
    !regressions;
  if !regressions > 0 then exit 1
