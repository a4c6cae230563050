(* Tests for Ufp_prelude: rng, stats, float_tol, table. *)

module Rng = Ufp_prelude.Rng
module Stats = Ufp_prelude.Stats
module Float_tol = Ufp_prelude.Float_tol
module Table = Ufp_prelude.Table

let check_float = Alcotest.(check (float Float_tol.check_eps))

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_changes_stream () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "in [0,10)" true (v >= 0 && v < 10)
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create 7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_uniformish () =
  let rng = Rng.create 11 in
  let counts = Array.make 10 0 in
  let n = 20000 in
  for _ = 1 to n do
    let v = Rng.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d near uniform" i)
        true
        (abs (c - (n / 10)) < n / 20))
    counts

let test_rng_int_in () =
  let rng = Rng.create 3 in
  let saw_lo = ref false and saw_hi = ref false in
  for _ = 1 to 2000 do
    let v = Rng.int_in rng (-3) 3 in
    Alcotest.(check bool) "in [-3,3]" true (v >= -3 && v <= 3);
    if v = -3 then saw_lo := true;
    if v = 3 then saw_hi := true
  done;
  Alcotest.(check bool) "inclusive bounds reached" true (!saw_lo && !saw_hi)

let test_rng_int_in_empty () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "empty range" (Invalid_argument "Rng.int_in: empty range")
    (fun () -> ignore (Rng.int_in rng 5 4))

let test_rng_float_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_float_in () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.float_in rng 1.0 2.0 in
    Alcotest.(check bool) "in [1,2)" true (v >= 1.0 && v < 2.0)
  done

let test_rng_float_mean () =
  let rng = Rng.create 17 in
  let n = 50000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.float rng 1.0
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_rng_bool_balanced () =
  let rng = Rng.create 23 in
  let trues = ref 0 in
  let n = 10000 in
  for _ = 1 to n do
    if Rng.bool rng then incr trues
  done;
  Alcotest.(check bool) "balanced coin" true (abs (!trues - (n / 2)) < n / 20)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 9 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_shuffle_deterministic () =
  let mk () =
    let rng = Rng.create 13 in
    let a = Array.init 20 Fun.id in
    Rng.shuffle rng a;
    a
  in
  Alcotest.(check (array int)) "same seed, same shuffle" (mk ()) (mk ())

let test_rng_pick () =
  let rng = Rng.create 4 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let v = Rng.pick rng a in
    Alcotest.(check bool) "member" true (Array.exists (( = ) v) a)
  done;
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick rng [||]))

let test_rng_split_diverges () =
  let parent = Rng.create 99 in
  let child = Rng.split parent in
  let same = ref true in
  for _ = 1 to 10 do
    if Rng.bits64 parent <> Rng.bits64 child then same := false
  done;
  Alcotest.(check bool) "parent and child streams diverge" false !same

let test_rng_copy () =
  let a = Rng.create 55 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  for _ = 1 to 20 do
    Alcotest.(check int64) "copy replays" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_sample_without_replacement () =
  let rng = Rng.create 31 in
  for _ = 1 to 50 do
    let s = Rng.sample_without_replacement rng 5 20 in
    Alcotest.(check int) "count" 5 (List.length s);
    Alcotest.(check bool) "sorted distinct" true
      (List.sort_uniq compare s = s);
    List.iter
      (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 20))
      s
  done;
  Alcotest.(check (list int)) "k = 0" [] (Rng.sample_without_replacement rng 0 5);
  Alcotest.(check (list int)) "k = n" [ 0; 1; 2 ]
    (Rng.sample_without_replacement rng 3 3);
  Alcotest.check_raises "k > n" (Invalid_argument "Rng.sample_without_replacement")
    (fun () -> ignore (Rng.sample_without_replacement rng 4 3))

(* --- Stats --- *)

let test_stats_mean () =
  check_float "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check bool) "empty mean nan" true (Float.is_nan (Stats.mean [||]))

let test_stats_stddev () =
  check_float "stddev" 1.0 (Stats.stddev [| 1.0; 2.0; 3.0 |]);
  check_float "single sample" 0.0 (Stats.stddev [| 5.0 |])

let test_stats_percentile () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  check_float "p0 = min" 1.0 (Stats.percentile xs 0.0);
  check_float "p100 = max" 4.0 (Stats.percentile xs 100.0);
  check_float "median interp" 2.5 (Stats.percentile xs 50.0);
  Alcotest.(check (array (float 0.0))) "input unchanged" [| 4.0; 1.0; 3.0; 2.0 |] xs

let test_stats_summarize () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check int) "count" 4 s.Stats.count;
  check_float "mean" 2.5 s.Stats.mean;
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 4.0 s.Stats.max;
  check_float "median" 2.5 s.Stats.median;
  Alcotest.check_raises "empty raises"
    (Invalid_argument "Stats.summarize: empty sample") (fun () ->
      ignore (Stats.summarize [||]))

let test_stats_geometric_mean () =
  check_float "geomean" 2.0 (Stats.geometric_mean [| 1.0; 2.0; 4.0 |]);
  Alcotest.(check bool) "empty nan" true (Float.is_nan (Stats.geometric_mean [||]))

let test_stats_pp () =
  let s = Stats.summarize [| 1.0; 2.0 |] in
  let str = Format.asprintf "%a" Stats.pp_summary s in
  Alcotest.(check bool) "mentions mean" true
    (String.length str > 0 && String.sub str 0 5 = "mean=")

(* --- Float_tol --- *)

let test_float_tol () =
  Alcotest.(check bool) "approx eq" true (Float_tol.approx_eq 1.0 (1.0 +. Float_tol.tight_eps));
  Alcotest.(check bool) "not approx eq" false (Float_tol.approx_eq 1.0 1.1);
  Alcotest.(check bool) "relative for big" true
    (Float_tol.approx_eq 1e12 (1e12 +. 1.0));
  Alcotest.(check bool) "leq strict" true (Float_tol.leq 1.0 2.0);
  Alcotest.(check bool) "leq tolerant" true (Float_tol.leq (1.0 +. Float_tol.tight_eps) 1.0);
  Alcotest.(check bool) "leq fails" false (Float_tol.leq 2.0 1.0);
  Alcotest.(check bool) "geq" true (Float_tol.geq 2.0 1.0);
  Alcotest.(check bool) "geq tolerant" true (Float_tol.geq 1.0 (1.0 +. Float_tol.tight_eps));
  check_float "clamp low" 0.0 (Float_tol.clamp ~lo:0.0 ~hi:1.0 (-5.0));
  check_float "clamp high" 1.0 (Float_tol.clamp ~lo:0.0 ~hi:1.0 5.0);
  check_float "clamp mid" 0.5 (Float_tol.clamp ~lo:0.0 ~hi:1.0 0.5)

(* The named tolerances are frozen at the values the inline literals
   had before the PR-2 lint sweep: renaming must never retune.  The
   literals below are the golden record, hence the R1 escape hatch. *)
let test_float_tol_golden_values () =
  (let exact name expected actual =
     Alcotest.(check bool) name true (Float.equal expected actual)
   in
   exact "default_eps" 1e-9 Float_tol.default_eps;
   exact "capacity_slack" 1e-9 Float_tol.capacity_slack;
   exact "lp_pivot_eps" 1e-9 Float_tol.lp_pivot_eps;
   exact "lp_support_eps" 1e-9 Float_tol.lp_support_eps;
   exact "lp_price_tol" 1e-7 Float_tol.lp_price_tol;
   exact "lp_exact_tol" 1e-12 Float_tol.lp_exact_tol;
   exact "maxflow_eps" 1e-12 Float_tol.maxflow_eps;
   exact "greedy_prune_tol" 1e-12 Float_tol.greedy_prune_tol;
   exact "tie_rel" 1e-9 Float_tol.tie_rel;
   exact "payment_rel_tol" 1e-6 Float_tol.payment_rel_tol;
   exact "fine_rel_tol" 1e-7 Float_tol.fine_rel_tol;
   exact "spot_check_slack" 1e-5 Float_tol.spot_check_slack;
   exact "coarse_slack" 1e-4 Float_tol.coarse_slack;
   exact "report_slack" 1e-3 Float_tol.report_slack;
   exact "demand_tol" 1e-12 Float_tol.demand_tol;
   exact "duality_check_eps" 1e-6 Float_tol.duality_check_eps;
   exact "check_eps" 1e-9 Float_tol.check_eps;
   exact "loose_check_eps" 1e-6 Float_tol.loose_check_eps;
   exact "tight_eps" 1e-12 Float_tol.tight_eps;
   exact "contention_tol" 1e-9 Float_tol.contention_tol;
   exact "div_guard" 1e-9 Float_tol.div_guard)
  [@lint.allow "R1" "golden values: the lint sweep renames, it does not retune"]

(* --- Table --- *)

let render table =
  let path = Filename.temp_file "table" ".txt" in
  let oc = open_out path in
  Table.print ~oc table;
  close_out oc;
  let content = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  content

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let test_table_basic () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "bee" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_rule t;
  Table.add_row t [ "333"; "4" ];
  let out = render t in
  Alcotest.(check bool) "has title" true (contains out "== demo ==");
  Alcotest.(check bool) "has header" true (contains out "bee");
  Alcotest.(check bool) "has cell" true (contains out "333")

let test_table_mismatch () =
  let t = Table.create ~title:"x" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "cell count"
    (Invalid_argument "Table.add_row: cell count mismatch") (fun () ->
      Table.add_row t [ "only-one" ])

let test_table_cells () =
  Alcotest.(check string) "float cell" "1.2346" (Table.cell_f 1.23456);
  Alcotest.(check string) "int cell" "42" (Table.cell_i 42)

let test_table_csv () =
  let t = Table.create ~title:"csv demo" ~columns:[ "a"; "b" ] in
  Table.add_row t [ "1"; "plain" ];
  Table.add_rule t;
  Table.add_row t [ "2,5"; "say \"hi\"" ];
  Alcotest.(check string) "title accessor" "csv demo" (Table.title t);
  Alcotest.(check string) "escaped csv"
    "a,b\n1,plain\n\"2,5\",\"say \"\"hi\"\"\"\n" (Table.to_csv t)

let test_table_markdown () =
  let t = Table.create ~title:"md demo" ~columns:[ "x"; "y" ] in
  Table.add_row t [ "1"; "a|b" ];
  Table.add_rule t;
  Alcotest.(check string) "markdown"
    "**md demo**\n\n| x | y |\n|---|---|\n| 1 | a\\|b |\n" (Table.to_markdown t)

(* --- QCheck properties --- *)

let qcheck_percentile_bounds =
  QCheck.Test.make ~name:"percentile stays within min/max" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 100.0))
              (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let v = Stats.percentile a p in
      let lo = Array.fold_left min a.(0) a and hi = Array.fold_left max a.(0) a in
      v >= lo -. Float_tol.check_eps && v <= hi +. Float_tol.check_eps)

let qcheck_rng_int_bound =
  QCheck.Test.make ~name:"rng int respects bound" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let () =
  Alcotest.run "prelude"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed changes stream" `Quick test_rng_seed_changes_stream;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects nonpositive" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "int near uniform" `Quick test_rng_int_uniformish;
          Alcotest.test_case "int_in inclusive" `Quick test_rng_int_in;
          Alcotest.test_case "int_in empty" `Quick test_rng_int_in_empty;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "float_in bounds" `Quick test_rng_float_in;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "bool balanced" `Quick test_rng_bool_balanced;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "shuffle deterministic" `Quick test_rng_shuffle_deterministic;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          Alcotest.test_case "split diverges" `Quick test_rng_split_diverges;
          Alcotest.test_case "copy replays" `Quick test_rng_copy;
          Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "summarize" `Quick test_stats_summarize;
          Alcotest.test_case "geometric mean" `Quick test_stats_geometric_mean;
          Alcotest.test_case "pp" `Quick test_stats_pp;
        ] );
      ( "float_tol",
        [
          Alcotest.test_case "comparisons" `Quick test_float_tol;
          Alcotest.test_case "golden values" `Quick
            test_float_tol_golden_values;
        ] );
      ( "table",
        [
          Alcotest.test_case "basic" `Quick test_table_basic;
          Alcotest.test_case "mismatch" `Quick test_table_mismatch;
          Alcotest.test_case "cells" `Quick test_table_cells;
          Alcotest.test_case "csv" `Quick test_table_csv;
          Alcotest.test_case "markdown" `Quick test_table_markdown;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_percentile_bounds; qcheck_rng_int_bound ] );
    ]
