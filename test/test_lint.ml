(* Tests for the ufp-lint float-discipline linter (lib/lint/).

   Each rule is exercised both ways: a known-bad snippet must produce
   the right rule id at the right location, and the same snippet under
   [@lint.allow] must be silent.  A final self-check asserts the
   shipped source tree is lint-clean, which is what keeps the @lint
   alias green. *)

module Finding = Ufp_lint.Finding
module Rules = Ufp_lint.Rules
module Driver = Ufp_lint.Driver
module Callgraph = Ufp_lint.Callgraph
module Mutstate = Ufp_lint.Mutstate

let lint ?(path = "lib/core/snippet.ml") source =
  match Driver.lint_string ~path source with
  | Ok findings -> findings
  | Error e -> Alcotest.failf "parse error in %s: %s" e.Driver.err_path e.detail

let rules fs = List.map (fun f -> Finding.rule_id f.Finding.rule) fs

let check_rules name expected findings =
  Alcotest.(check (list string)) name expected (rules findings)

(* --- R1: inline tolerance literals --- *)

let test_r1_fires () =
  let fs = lint "let eps = 1e-9\n" in
  check_rules "one R1" [ "R1" ] fs;
  let f = List.hd fs in
  Alcotest.(check int) "line" 1 f.Finding.line;
  Alcotest.(check string) "path" "lib/core/snippet.ml" f.Finding.path

let test_r1_decimal_form () =
  check_rules "decimal epsilon" [ "R1" ] (lint "let slack = 0.0005\n")

let test_r1_ignores_ordinary_floats () =
  check_rules "0.5 and 2.0 pass" []
    (lint "let half = 0.5\nlet two = 2.0\nlet big = 1e9\n")

let test_r1_float_tol_exempt () =
  check_rules "float_tol.ml may define literals" []
    (lint ~path:"lib/prelude/float_tol.ml" "let default_eps = 1e-9\n")

let test_r1_allow () =
  check_rules "expression allow" []
    (lint "let eps = (1e-9 [@lint.allow \"R1\" \"test fixture\"])\n");
  check_rules "binding allow" []
    (lint "let eps = 1e-9 [@@lint.allow \"R1\" \"test fixture\"]\n");
  check_rules "file-wide allow" []
    (lint "[@@@lint.allow \"R1\" \"generated file\"]\nlet eps = 1e-9\n");
  check_rules "slug also accepted" []
    (lint "let eps = (1e-9 [@lint.allow \"inline-tolerance\" \"x\"])\n");
  check_rules "wrong rule does not suppress" [ "R1" ]
    (lint "let eps = (1e-9 [@lint.allow \"R3\" \"mismatched\"])\n")

(* --- R2: polymorphic comparisons on float-bearing operands --- *)

let test_r2_fires () =
  check_rules "= infinity" [ "R2" ] (lint "let f d = d = infinity\n");
  check_rules "min with float literal" [ "R2" ] (lint "let m x = min x 2.5\n");
  check_rules "compare on float fields" [ "R2" ]
    (lint "let c a b = compare a.value b.value\n");
  check_rules "compare on float arithmetic" [ "R2" ]
    (lint "let c a b = compare (a +. 0.5) b\n")

let test_r2_scope () =
  let snippet = "let f d = d = infinity\n" in
  check_rules "lib/graph in scope" [ "R2" ]
    (lint ~path:"lib/graph/snippet.ml" snippet);
  check_rules "lib/lp in scope" [ "R2" ]
    (lint ~path:"lib/lp/snippet.ml" snippet);
  check_rules "lib/auction out of scope" []
    (lint ~path:"lib/auction/snippet.ml" snippet);
  check_rules "test out of scope" []
    (lint ~path:"test/snippet.ml" snippet)

let test_r2_ignores_int_compare () =
  check_rules "int compare passes" []
    (lint "let f (a : int) b = compare a b\nlet g x = min x 3\n")

let test_r2_allow () =
  (* Attributes bind tighter than infix operators, so the allow must
     wrap the parenthesised comparison, not its right operand. *)
  check_rules "allowed" []
    (lint
       "let f d = ((d = infinity) [@lint.allow \"R2\" \"exact sentinel \
        test\"])\n");
  check_rules "attribute on the operand alone does not cover the compare"
    [ "R2" ]
    (lint "let f d = (d = infinity [@lint.allow \"R2\" \"too narrow\"])\n")

(* --- R3: polymorphic hashing --- *)

let test_r3_fires () =
  let snippet = "module K = struct\n  let hash = Hashtbl.hash\nend\n" in
  let fs = lint ~path:"lib/auction/snippet.ml" snippet in
  check_rules "R3 everywhere, even outside R2 scope" [ "R3" ] fs;
  Alcotest.(check int) "line" 2 (List.hd fs).Finding.line

let test_r3_allow () =
  check_rules "justified poly hash" []
    (lint
       "let hash = (Hashtbl.hash [@lint.allow \"R3\" \"key type is \
        float-free\"])\n")

(* --- R4: bare aborts on selection paths --- *)

let test_r4_fires () =
  check_rules "assert false" [ "R4" ] (lint "let f () = assert false\n");
  check_rules "failwith" [ "R4" ]
    (lint ~path:"lib/mech/snippet.ml" "let f () = failwith \"boom\"\n")

let test_r4_scope () =
  check_rules "lib/lp out of scope" []
    (lint ~path:"lib/lp/snippet.ml" "let f () = assert false\n");
  check_rules "ordinary asserts pass" []
    (lint "let f x = assert (x >= 0)\n")

let test_r4_allow () =
  check_rules "justified abort" []
    (lint
       "let f () = ((assert false) [@lint.allow \"R4\" \"unreachable: \
        guarded by caller\"])\n")

(* --- R5: direct printing from library code --- *)

let test_r5_fires () =
  check_rules "Printf.printf" [ "R5" ]
    (lint "let f x = Printf.printf \"%d\\n\" x\n");
  check_rules "Printf.eprintf" [ "R5" ]
    (lint ~path:"lib/graph/snippet.ml" "let f () = Printf.eprintf \"oops\"\n");
  check_rules "print_string" [ "R5" ]
    (lint ~path:"lib/lp/snippet.ml" "let f s = print_string s\n");
  check_rules "print_endline" [ "R5" ]
    (lint ~path:"lib/mech/snippet.ml" "let f s = print_endline s\n");
  check_rules "Format.printf" [ "R5" ]
    (lint "let f x = Format.printf \"%d@.\" x\n")

let test_r5_ignores_pure_formatting () =
  check_rules "sprintf is pure" []
    (lint "let f x = Printf.sprintf \"%d\" x\n");
  check_rules "Format.asprintf is pure" []
    (lint "let f x = Format.asprintf \"%d\" x\n");
  check_rules "fprintf to a caller-supplied channel is targeted" []
    (lint "let f oc x = Printf.fprintf oc \"%d\" x\n")

let test_r5_scope () =
  let snippet = "let f x = Printf.printf \"%d\\n\" x\n" in
  check_rules "bin out of scope" [] (lint ~path:"bin/snippet.ml" snippet);
  check_rules "bench out of scope" [] (lint ~path:"bench/snippet.ml" snippet);
  check_rules "experiments out of scope" []
    (lint ~path:"lib/experiments/snippet.ml" snippet);
  check_rules "test out of scope" [] (lint ~path:"test/snippet.ml" snippet)

let test_r5_allow () =
  check_rules "justified print" []
    (lint
       "let f x = ((Printf.printf) [@lint.allow \"R5\" \"debug hook behind \
        an env flag\"]) \"%d\\n\" x\n");
  check_rules "binding-level allow" []
    (lint
       "let f s = print_endline s [@@lint.allow \"R5\" \"temporary \
        diagnostic\"]\n")

(* --- R6: raw concurrency outside lib/par --- *)

let test_r6_fires () =
  check_rules "Domain.spawn" [ "R6" ]
    (lint "let d = Domain.spawn (fun () -> ())\n");
  check_rules "Mutex.create" [ "R6" ]
    (lint ~path:"lib/obs/snippet.ml" "let lock = Mutex.create ()\n");
  check_rules "Stdlib-qualified too" [ "R6" ]
    (lint ~path:"bin/snippet.ml" "let lock = Stdlib.Mutex.create ()\n")

let test_r6_scope () =
  let snippet = "let d = Domain.spawn (fun () -> ())\n" in
  check_rules "lib/par exempt" [] (lint ~path:"lib/par/pool.ml" snippet);
  check_rules "everywhere else in scope, even tests" [ "R6" ]
    (lint ~path:"test/snippet.ml" snippet)

let test_r6_ignores_uses () =
  (* Consuming concurrency someone else minted is fine: R6 polices the
     creation sites only. *)
  check_rules "joins, locks, Domain.self pass" []
    (lint
       "let f d m = Domain.join d; Mutex.lock m; Mutex.unlock m\n\
        let me () = (Domain.self () :> int)\n\
        let n () = Domain.recommended_domain_count ()\n")

let test_r6_allow () =
  check_rules "justified lock" []
    (lint
       "let lock = ((Mutex.create) [@lint.allow \"R6\" \"tracer append \
        lock\"]) ()\n")

(* --- R0: allows must carry a reason --- *)

let test_r0_bare_allow_fires () =
  (* The bare allow is a wildcard, so it silences the R1 it covers —
     but it cannot silence its own meta-finding. *)
  check_rules "bare allow" [ "R0" ] (lint "let eps = (1e-9 [@lint.allow])\n")

let test_r0_reasonless_rule_allow () =
  check_rules "rule without reason" [ "R0" ]
    (lint "let eps = (1e-9 [@lint.allow \"R1\"])\n")

let test_r0_justified_is_silent () =
  check_rules "justified allow" []
    (lint "let eps = (1e-9 [@lint.allow \"R1\" \"test fixture\"])\n")

let test_r0_file_wide_bare () =
  let fs = lint "[@@@lint.allow]\nlet eps = 1e-9\n" in
  check_rules "floating bare allow" [ "R0" ] fs;
  Alcotest.(check int) "reported at the attribute" 1 (List.hd fs).Finding.line

let test_r0_suppressible_by_outer_justified_allow () =
  check_rules "documented escape for legacy fixtures" []
    (lint
       "[@@@lint.allow \"R0\" \"legacy fixture, sweeping separately\"]\n\
        let eps = (1e-9 [@lint.allow])\n")

(* --- whole-program fixtures (R7/R8) --- *)

let analyze files =
  let findings, errors, _cg = Driver.analyze_strings files in
  List.iter
    (fun e ->
      Alcotest.failf "parse error in %s: %s" e.Driver.err_path e.detail)
    errors;
  findings

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let racy_state = "let tally = ref 0\nlet bump () = tally := !tally + 1\n"
let step_via_state = "let advance () = State.bump ()\n"

let test_r7_cross_module_chain () =
  (* closure -> Step.advance -> State.bump -> write to State.tally:
     the write is two modules away from the pool site, so only the
     interprocedural phase can see it. *)
  let fs =
    analyze
      [
        ("lib/fix/state.ml", racy_state);
        ("lib/fix/step.ml", step_via_state);
        ( "lib/fix/runner.ml",
          "let run pool n =\n\
          \  Pool.parallel_for pool 0 n (fun _i -> Step.advance ())\n" );
      ]
  in
  check_rules "one R7" [ "R7" ] fs;
  let f = List.hd fs in
  Alcotest.(check string) "at the seed" "lib/fix/runner.ml" f.Finding.path;
  Alcotest.(check bool) "names the target" true
    (contains f.Finding.message "State.tally");
  Alcotest.(check bool) "names the chain" true
    (contains f.Finding.message "via Step.advance -> State.bump")

let test_r7_safe_closure_is_silent () =
  check_rules "pure closure" []
    (analyze
       [
         ("lib/fix/state.ml", racy_state);
         ( "lib/fix/runner.ml",
           "let run pool n =\n\
           \  Pool.parallel_for pool 0 n (fun i -> i * i)\n" );
       ])

let test_r7_allow_silences () =
  check_rules "justified seed allow" []
    (analyze
       [
         ("lib/fix/state.ml", racy_state);
         ("lib/fix/step.ml", step_via_state);
         ( "lib/fix/runner.ml",
           "let run pool n =\n\
           \  Pool.parallel_for pool 0 n (fun _i -> Step.advance ())\n\
            [@@lint.allow \"R7\" \"fixture: the race is the point\"]\n" );
       ])

let test_r7_atomic_is_guarded () =
  check_rules "Atomic state passes" []
    (analyze
       [
         ( "lib/fix/state.ml",
           "let tally = Atomic.make 0\nlet bump () = Atomic.incr tally\n" );
         ( "lib/fix/runner.ml",
           "let run pool n =\n\
           \  Pool.parallel_for pool 0 n (fun _i -> State.bump ())\n" );
       ])

let shared_registry =
  "let table = Hashtbl.create 16\nlet note k = Hashtbl.replace table k 1\n"

let test_r7_audited_module_is_guarded () =
  (* The same Hashtbl mutation fires under lib/fix but is the audited
     exception under lib/obs — the allow-list is load-bearing. *)
  let runner =
    "let run pool n = Pool.parallel_for pool 0 n (fun i -> Registry.note i)\n"
  in
  let fs =
    analyze
      [
        ("lib/fix/registry.ml", shared_registry);
        ("lib/fix/runner.ml", runner);
      ]
  in
  check_rules "unaudited table write fires" [ "R7" ] fs;
  Alcotest.(check bool) "names Hashtbl.replace" true
    (contains (List.hd fs).Finding.message "Hashtbl.replace");
  check_rules "audited lib/obs table passes" []
    (analyze
       [
         ("lib/obs/registry.ml", shared_registry);
         ("lib/fix/runner.ml", runner);
       ])

let test_r8_random_from_pool_site () =
  let fs =
    analyze
      [
        ( "lib/fix/runner.ml",
          "let run pool n =\n\
          \  Pool.parallel_for pool 0 n (fun _i -> Random.self_init ())\n" );
      ]
  in
  check_rules "one R8" [ "R8" ] fs;
  Alcotest.(check bool) "names Random.self_init" true
    (contains (List.hd fs).Finding.message "Random.self_init")

let test_r8_format_printf_from_pool_site () =
  let fs =
    analyze
      [
        ( "lib/fix/runner.ml",
          "let run pool n =\n\
          \  Pool.parallel_for pool 0 n (fun i -> Format.printf \"%d\" i)\n" );
      ]
  in
  check_rules "one R8" [ "R8" ] fs;
  Alcotest.(check bool) "names Format.printf" true
    (contains (List.hd fs).Finding.message "Format.printf")

let test_r8_two_offences_both_survive () =
  (* Two distinct offences at one seed must not collapse under the
     final sort_uniq (Finding.compare tie-breaks on the message). *)
  let fs =
    analyze
      [
        ( "lib/fix/runner.ml",
          "let run pool n =\n\
          \  Pool.parallel_for pool 0 n (fun i ->\n\
          \      Random.self_init ();\n\
          \      Format.printf \"%d\" i)\n" );
      ]
  in
  check_rules "both R8s" [ "R8"; "R8" ] fs

let test_r8_random_state_is_safe () =
  check_rules "explicit Random.State passes" []
    (analyze
       [
         ( "lib/fix/runner.ml",
           "let run pool n st =\n\
           \  Pool.parallel_for pool 0 n (fun _i ->\n\
           \      ignore (Random.State.int st 10))\n" );
       ])

let test_seed_through_module_alias () =
  check_rules "P.parallel_for is still a seed" [ "R8" ]
    (analyze
       [
         ( "lib/fix/runner.ml",
           "module P = Ufp_par.Pool\n\
            let run pool n =\n\
           \  P.parallel_for pool 0 n (fun _i -> ignore (Random.bits ()))\n" );
       ])

let test_seed_closure_passed_by_name () =
  (* A local [let]-bound task handed to the pool by name is expanded
     inline, like single_param.ml's [payment_of]. *)
  check_rules "named local closure scanned" [ "R8" ]
    (analyze
       [
         ( "lib/fix/runner.ml",
           "let run pool n =\n\
           \  let task i = Format.printf \"%d\" i in\n\
           \  Pool.parallel_mapi pool n task\n" );
       ])

(* --- callgraph and mutstate units --- *)

let build_cg files =
  let _, errors, cg = Driver.analyze_strings files in
  List.iter
    (fun e ->
      Alcotest.failf "parse error in %s: %s" e.Driver.err_path e.detail)
    errors;
  cg

let test_callgraph_edges () =
  let cg =
    build_cg
      [
        ("lib/fix/state.ml", racy_state);
        ("lib/fix/step.ml", step_via_state);
      ]
  in
  Alcotest.(check bool) "Step.advance -> State.bump" true
    (List.mem "State.bump" (Callgraph.callees cg "Step.advance"));
  Alcotest.(check bool) "State.bump -> State.tally (ident use)" true
    (List.mem "State.tally" (Callgraph.callees cg "State.bump"));
  Alcotest.(check bool) "unknown key has no callees" true
    (Callgraph.callees cg "Nowhere.nothing" = [])

let test_callgraph_alias_resolution () =
  let cg =
    build_cg
      [
        ("lib/fix/state.ml", racy_state);
        ("lib/fix/user.ml", "module S = State\nlet f () = S.bump ()\n");
      ]
  in
  Alcotest.(check bool) "S.bump keys to State.bump" true
    (List.mem "State.bump" (Callgraph.callees cg "User.f"))

let test_callgraph_functor_warning () =
  let cg =
    build_cg
      [
        ( "lib/fix/maker.ml",
          "module F (X : sig val n : int end) = struct let n = X.n end\n" );
      ]
  in
  match Callgraph.warnings cg with
  | [ w ] ->
    Alcotest.(check bool) "warning names the functor" true
      (contains w "functor `F'")
  | ws -> Alcotest.failf "expected one functor warning, got %d" (List.length ws)

let test_mutstate_classification () =
  let cg =
    build_cg
      [
        ( "lib/fix/state.ml",
          "let tally = ref 0\n\
           let names = Hashtbl.create 8\n\
           let flags = Atomic.make 0\n\
           let limit = 42\n" );
        ("lib/obs/ring.ml", "let ring = ref []\n");
      ]
  in
  let ms = Mutstate.classify cg in
  let cls key =
    match Mutstate.find ms key with
    | Some b -> Mutstate.cls_name b.Mutstate.m_cls
    | None -> Alcotest.failf "no binding %s" key
  in
  Alcotest.(check string) "ref is mutable" "mutable" (cls "State.tally");
  Alcotest.(check string) "table is mutable" "mutable" (cls "State.names");
  Alcotest.(check string) "Atomic is guarded" "guarded" (cls "State.flags");
  Alcotest.(check string) "int literal is immutable" "immutable"
    (cls "State.limit");
  Alcotest.(check string) "lib/obs binding is guarded" "guarded"
    (cls "Ring.ring")

let test_audited_paths () =
  Alcotest.(check bool) "lib/obs audited" true
    (Mutstate.audited "lib/obs/metrics.ml");
  Alcotest.(check bool) "pool.ml audited" true
    (Mutstate.audited "lib/par/pool.ml");
  Alcotest.(check bool) "deque.ml not audited" false
    (Mutstate.audited "lib/par/deque.ml");
  Alcotest.(check bool) "rest of lib/par not audited" false
    (Mutstate.audited "lib/par/chunk.ml");
  Alcotest.(check bool) "lib/core not audited" false
    (Mutstate.audited "lib/core/selector.ml")

(* --- driver: symlink-safe walk, exit codes, stream discipline --- *)

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let test_collect_files_survives_symlink_cycle () =
  let dir = Filename.temp_dir "lintwalk" "" in
  let sub = Filename.concat dir "sub" in
  Unix.mkdir sub 0o755;
  write_file (Filename.concat sub "a.ml") "let x = 1\n";
  (* sub/loop -> sub: without the symlink guard the walk recurses
     forever (and would lint a.ml under infinitely many names). *)
  Unix.symlink sub (Filename.concat sub "loop");
  let files = Driver.collect_files [ dir ] in
  Alcotest.(check (list string)) "one file, once"
    [ Filename.concat sub "a.ml" ]
    files;
  (* An explicitly named symlinked root is still followed. *)
  let link_root = Filename.concat dir "root-link" in
  Unix.symlink sub link_root;
  Alcotest.(check (list string)) "symlinked root followed"
    [ Filename.concat link_root "a.ml" ]
    (Driver.collect_files [ link_root ])

let test_exit_codes () =
  let f =
    { Finding.rule = Finding.R1; path = "x.ml"; line = 1; col = 0;
      message = "m" }
  in
  let e = { Driver.err_path = "x.ml"; detail = "boom" } in
  Alcotest.(check int) "clean" 0 (Driver.exit_code ~findings:[] ~errors:[]);
  Alcotest.(check int) "violations" 1
    (Driver.exit_code ~findings:[ f ] ~errors:[]);
  Alcotest.(check int) "driver errors" 2
    (Driver.exit_code ~findings:[] ~errors:[ e ]);
  Alcotest.(check int) "errors dominate" 2
    (Driver.exit_code ~findings:[ f ] ~errors:[ e ])

(* Capture stdout/stderr across [f] at the fd level, so the assertion
   covers exactly what a shell pipeline would see. *)
let with_captured f =
  let out_file = Filename.temp_file "lint_stdout" ".txt" in
  let err_file = Filename.temp_file "lint_stderr" ".txt" in
  let saved_out = Unix.dup Unix.stdout and saved_err = Unix.dup Unix.stderr in
  let fd_out = Unix.openfile out_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fd_err = Unix.openfile err_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  flush stdout;
  flush stderr;
  Unix.dup2 fd_out Unix.stdout;
  Unix.dup2 fd_err Unix.stderr;
  Unix.close fd_out;
  Unix.close fd_err;
  let restore () =
    flush stdout;
    flush stderr;
    Unix.dup2 saved_out Unix.stdout;
    Unix.dup2 saved_err Unix.stderr;
    Unix.close saved_out;
    Unix.close saved_err
  in
  let result =
    try f ()
    with exn ->
      restore ();
      raise exn
  in
  restore ();
  let read file = In_channel.with_open_bin file In_channel.input_all in
  (result, read out_file, read err_file)

let test_json_stdout_is_pure () =
  let dir = Filename.temp_dir "lintjson" "" in
  write_file (Filename.concat dir "dirty.ml") "let eps = 1e-9\n";
  let code, out, err =
    with_captured (fun () -> Driver.run ~format:Driver.Json ~roots:[ dir ] ())
  in
  Alcotest.(check int) "violation exit" 1 code;
  let trimmed = String.trim out in
  Alcotest.(check bool) "stdout is a JSON array" true
    (String.length trimmed > 1
    && trimmed.[0] = '['
    && trimmed.[String.length trimmed - 1] = ']');
  Alcotest.(check bool) "summary not on stdout" false (contains out "violation");
  Alcotest.(check bool) "summary on stderr" true
    (contains err "ufp-lint: 1 violation")

(* --- engine plumbing --- *)

let test_rule_of_string () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "id round trip" true
        (Finding.rule_of_string (Finding.rule_id r) = Some r);
      Alcotest.(check bool) "slug round trip" true
        (Finding.rule_of_string (Finding.rule_name r) = Some r))
    Finding.all_rules;
  Alcotest.(check bool) "unknown rejected" true
    (Finding.rule_of_string "R9" = None)

let test_scope_of_path () =
  let s = Rules.scope_of_path "lib/core/selector.ml" in
  Alcotest.(check bool) "core: r2" true s.Rules.r2_active;
  Alcotest.(check bool) "core: r4" true s.Rules.r4_active;
  Alcotest.(check bool) "core: r5" true s.Rules.r5_active;
  let s = Rules.scope_of_path "lib/mech/vcg.ml" in
  Alcotest.(check bool) "mech: no r2" false s.Rules.r2_active;
  Alcotest.(check bool) "mech: r4" true s.Rules.r4_active;
  Alcotest.(check bool) "mech: r5" true s.Rules.r5_active;
  let s = Rules.scope_of_path "lib/experiments/harness.ml" in
  Alcotest.(check bool) "experiments: no r5" false s.Rules.r5_active;
  let s = Rules.scope_of_path "lib/prelude/float_tol.ml" in
  Alcotest.(check bool) "float_tol exempt" true s.Rules.in_float_tol;
  let s = Rules.scope_of_path "lib/prelude/heap.ml" in
  Alcotest.(check bool) "heap not exempt" false s.Rules.in_float_tol;
  Alcotest.(check bool) "prelude: r6" true s.Rules.r6_active;
  let s = Rules.scope_of_path "lib/par/pool.ml" in
  Alcotest.(check bool) "par: no r6" false s.Rules.r6_active

let test_json_output () =
  let fs = lint "let eps = 1e-9\n" in
  let json = Finding.to_json fs in
  Alcotest.(check bool) "mentions rule" true (contains json "\"rule\": \"R1\"");
  Alcotest.(check bool) "mentions path" true
    (contains json "lib/core/snippet.ml")

let test_parse_error_reported () =
  match Driver.lint_string ~path:"lib/core/bad.ml" "let let let\n" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> Alcotest.(check string) "path" "lib/core/bad.ml" e.Driver.err_path

(* --- self-check: the shipped tree is lint-clean --- *)

let test_tree_is_clean () =
  (* Under `dune runtest` the cwd is _build/default/test and the dune
     stanza declares the source trees as deps, so they sit next door;
     under `dune exec` the cwd is the workspace root. *)
  let candidates =
    match List.filter Sys.file_exists [ "../lib"; "../bin"; "../bench" ] with
    | [] -> List.filter Sys.file_exists [ "lib"; "bin"; "bench" ]
    | roots -> roots
  in
  let roots = candidates in
  Alcotest.(check bool) "source roots visible" true (roots <> []);
  let findings, errors = Driver.lint_paths roots in
  List.iter
    (fun e ->
      Alcotest.failf "unparsable file %s: %s" e.Driver.err_path e.detail)
    errors;
  List.iter
    (fun f ->
      Alcotest.failf "violation: %s" (Format.asprintf "%a" Finding.pp_human f))
    findings

let () =
  Alcotest.run "lint"
    [
      ( "r1",
        [
          Alcotest.test_case "fires on 1e-9" `Quick test_r1_fires;
          Alcotest.test_case "fires on 0.0005" `Quick test_r1_decimal_form;
          Alcotest.test_case "ignores ordinary floats" `Quick
            test_r1_ignores_ordinary_floats;
          Alcotest.test_case "float_tol.ml exempt" `Quick
            test_r1_float_tol_exempt;
          Alcotest.test_case "allow suppresses" `Quick test_r1_allow;
        ] );
      ( "r2",
        [
          Alcotest.test_case "fires on floaty compares" `Quick test_r2_fires;
          Alcotest.test_case "scoped to core/graph/lp" `Quick test_r2_scope;
          Alcotest.test_case "ignores int compares" `Quick
            test_r2_ignores_int_compare;
          Alcotest.test_case "allow suppresses" `Quick test_r2_allow;
        ] );
      ( "r3",
        [
          Alcotest.test_case "fires on Hashtbl.hash" `Quick test_r3_fires;
          Alcotest.test_case "allow suppresses" `Quick test_r3_allow;
        ] );
      ( "r4",
        [
          Alcotest.test_case "fires on bare aborts" `Quick test_r4_fires;
          Alcotest.test_case "scoped to core/mech" `Quick test_r4_scope;
          Alcotest.test_case "allow suppresses" `Quick test_r4_allow;
        ] );
      ( "r5",
        [
          Alcotest.test_case "fires on direct prints" `Quick test_r5_fires;
          Alcotest.test_case "ignores pure formatting" `Quick
            test_r5_ignores_pure_formatting;
          Alcotest.test_case "scoped to library code" `Quick test_r5_scope;
          Alcotest.test_case "allow suppresses" `Quick test_r5_allow;
        ] );
      ( "r6",
        [
          Alcotest.test_case "fires on raw concurrency" `Quick test_r6_fires;
          Alcotest.test_case "lib/par exempt" `Quick test_r6_scope;
          Alcotest.test_case "ignores consuming uses" `Quick
            test_r6_ignores_uses;
          Alcotest.test_case "allow suppresses" `Quick test_r6_allow;
        ] );
      ( "r0",
        [
          Alcotest.test_case "bare allow fires" `Quick test_r0_bare_allow_fires;
          Alcotest.test_case "reason-less rule allow fires" `Quick
            test_r0_reasonless_rule_allow;
          Alcotest.test_case "justified allow is silent" `Quick
            test_r0_justified_is_silent;
          Alcotest.test_case "file-wide bare allow fires" `Quick
            test_r0_file_wide_bare;
          Alcotest.test_case "outer justified R0 allow is the escape" `Quick
            test_r0_suppressible_by_outer_justified_allow;
        ] );
      ( "r7",
        [
          Alcotest.test_case "fires across a 2-deep module chain" `Quick
            test_r7_cross_module_chain;
          Alcotest.test_case "pure closure is silent" `Quick
            test_r7_safe_closure_is_silent;
          Alcotest.test_case "allow suppresses at the seed" `Quick
            test_r7_allow_silences;
          Alcotest.test_case "Atomic state is guarded" `Quick
            test_r7_atomic_is_guarded;
          Alcotest.test_case "audited modules are guarded" `Quick
            test_r7_audited_module_is_guarded;
        ] );
      ( "r8",
        [
          Alcotest.test_case "Random.self_init from a pool site" `Quick
            test_r8_random_from_pool_site;
          Alcotest.test_case "Format.printf from a pool site" `Quick
            test_r8_format_printf_from_pool_site;
          Alcotest.test_case "two offences at one seed both survive" `Quick
            test_r8_two_offences_both_survive;
          Alcotest.test_case "Random.State is safe" `Quick
            test_r8_random_state_is_safe;
          Alcotest.test_case "seed through a module alias" `Quick
            test_seed_through_module_alias;
          Alcotest.test_case "closure passed by local name" `Quick
            test_seed_closure_passed_by_name;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "cross-module edges" `Quick test_callgraph_edges;
          Alcotest.test_case "module aliases resolve" `Quick
            test_callgraph_alias_resolution;
          Alcotest.test_case "functor skip is warned" `Quick
            test_callgraph_functor_warning;
          Alcotest.test_case "mutstate classification" `Quick
            test_mutstate_classification;
          Alcotest.test_case "audited path list" `Quick test_audited_paths;
        ] );
      ( "driver",
        [
          Alcotest.test_case "symlink cycle terminates" `Quick
            test_collect_files_survives_symlink_cycle;
          Alcotest.test_case "exit codes pinned" `Quick test_exit_codes;
          Alcotest.test_case "json stdout stays machine-parseable" `Quick
            test_json_stdout_is_pure;
        ] );
      ( "engine",
        [
          Alcotest.test_case "rule ids round trip" `Quick test_rule_of_string;
          Alcotest.test_case "path scoping" `Quick test_scope_of_path;
          Alcotest.test_case "json output" `Quick test_json_output;
          Alcotest.test_case "parse errors surface" `Quick
            test_parse_error_reported;
        ] );
      ( "self-check",
        [ Alcotest.test_case "shipped tree is clean" `Quick test_tree_is_clean ] );
    ]
