# Convenience targets; everything is plain dune underneath.

.PHONY: all build test lint bench bench-quick bench-csv bench-json bench-diff bench-trajectory examples doc clean trace-demo par-demo profile-demo rmat-demo

all: build

build:
	dune build @all

test:
	dune runtest

# Float-discipline / determinism linter (see docs/LINTING.md).
lint:
	dune build @lint

# Observability demo (see docs/OBSERVABILITY.md): solve a generated
# instance with the metrics table + span trace on, then validate the
# trace.  Load trace-demo.jsonl at https://ui.perfetto.dev.
trace-demo:
	dune exec bin/ufp_cli.exe -- generate -t grid --capacity 50 -r 200 -o trace-demo.inst
	dune exec bin/ufp_cli.exe -- solve trace-demo.inst --metrics text --trace trace-demo.jsonl
	dune exec bin/trace_check.exe trace-demo.jsonl
	@echo "open https://ui.perfetto.dev and drop trace-demo.jsonl in"

# Multicore payment demo (see docs/PARALLELISM.md): compute truthful
# payments across 2 domains with metrics + a multi-track trace, then
# validate the trace and run the seq-vs-par experiment (its table
# includes the bitwise seq/par equality check).
par-demo:
	dune exec bin/ufp_cli.exe -- generate -t grid --rows 4 --cols 4 --capacity 40 -r 40 -o par-demo.inst
	dune exec bin/ufp_cli.exe -- payments par-demo.inst --jobs 2 --metrics text --trace par-demo.jsonl
	dune exec bin/trace_check.exe par-demo.jsonl
	dune exec bin/ufp_cli.exe -- experiment EXP-PAR-PAYMENTS --quick

# Phase-profiler + OpenMetrics demo (see docs/OBSERVABILITY.md):
# one solve with the GC-attributing profiler and the Prometheus-format
# metrics dump on, both validated.
profile-demo:
	dune exec bin/ufp_cli.exe -- generate -t grid --capacity 50 -r 200 -o profile-demo.inst
	dune exec bin/ufp_cli.exe -- solve profile-demo.inst --profile profile-demo.json --metrics openmetrics --metrics-out profile-demo.om
	dune exec bin/openmetrics_check.exe profile-demo.om

bench:
	dune exec bench/main.exe

bench-quick:
	dune exec bench/main.exe -- --quick --no-micro

bench-csv:
	dune exec bench/main.exe -- --csv results

# Perf artifacts, all self-describing rows for ufp-bench-diff (row
# catalogue in EXPERIMENTS.md):
#   BENCH_PR6.json — end-to-end RMAT solve, seq vs 2-domain pool (no
#                    TEPS trials; EXP-RMAT and perfbench measure those)
#   BENCH_PR8.json — telemetry hot-path micros, the CSR Dijkstra pair
#                    and two CI-sized end-to-end anchors
#   BENCH_PR9.json — work-stealing vs fixed-chunk modelled makespan
#                    (host-independent cost units) + warm-start
#                    payment probe counts
#   BENCH_PR10.json — sequential Dijkstra on RMAT + packed adjacency
#                    footprint rows
#   BENCH_PR19.json — jobs-1 work counts (tree rebuilds, relaxations,
#                    iterations, payment probes) of a hub RMAT solve
#                    and hinted grid payments
bench-json:
	dune exec bench/main.exe -- --json-pr6 BENCH_PR6.json
	dune exec bench/main.exe -- --json-pr8 BENCH_PR8.json
	dune exec bench/main.exe -- --json-pr9 BENCH_PR9.json
	dune exec bench/main.exe -- --json-pr10 BENCH_PR10.json
	dune exec bench/main.exe -- --json-pr19 BENCH_PR19.json

# Perf-trajectory regression gate (see docs/OBSERVABILITY.md): rerun
# the BENCH_PR8/9/10/19.json rows and diff against the committed
# trajectories.
# Exits non-zero past the threshold; loosen it for noisy hosts.  The
# BENCH_PR9.json rows are deterministic cost-model units and probe
# counts, and the BENCH_PR19.json rows are work counts, so they bear a
# much tighter threshold than the wall-clock rows.
bench-diff:
	dune exec bench/main.exe -- --json-pr8 /tmp/ufp-bench-pr8.json
	dune exec bin/bench_diff.exe -- BENCH_PR8.json /tmp/ufp-bench-pr8.json --threshold 2.0
	dune exec bench/main.exe -- --json-pr9 /tmp/ufp-bench-pr9.json
	dune exec bin/bench_diff.exe -- BENCH_PR9.json /tmp/ufp-bench-pr9.json --threshold 0.1
	dune exec bench/main.exe -- --json-pr10 /tmp/ufp-bench-pr10.json
	dune exec bin/bench_diff.exe -- BENCH_PR10.json /tmp/ufp-bench-pr10.json --threshold 2.0
	dune exec bench/main.exe -- --json-pr19 /tmp/ufp-bench-pr19.json
	dune exec bin/bench_diff.exe -- BENCH_PR19.json /tmp/ufp-bench-pr19.json --threshold 0.1

# Cross-PR performance history: join every committed BENCH_PR*.json
# by row id into one markdown table (docs/BENCH_TRAJECTORY.md), one
# column per PR in PR order.  Regenerate after committing a new
# artifact.
bench-trajectory:
	dune exec bin/bench_diff.exe -- --trajectory docs/BENCH_TRAJECTORY.md BENCH_PR*.json

# Million-edge end-to-end demo: a scale-18 RMAT instance (~2.6M edges)
# generated, solved with the selector's cold-fill trees built across 2
# domains (later rebuilds stay sequential), and audited.
# Capacity 165 satisfies the Theorem 3.1 premise B >= ln m / eps^2 at
# the default eps = 0.3.
rmat-demo:
	dune exec bin/ufp_cli.exe -- generate -t rmat --scale 18 --edge-factor 10 --capacity 165 -r 200 -o rmat-demo.inst
	dune exec bin/ufp_cli.exe -- solve rmat-demo.inst --jobs 2 --audit -o rmat-demo.sol

examples:
	dune exec examples/quickstart.exe
	dune exec examples/isp_routing.exe
	dune exec examples/spectrum_auction.exe
	dune exec examples/truthfulness_demo.exe
	dune exec examples/online_admission.exe
	dune exec examples/abilene_pipeline.exe

doc:
	dune build @doc

clean:
	dune clean
