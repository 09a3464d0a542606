#!/usr/bin/env bash
# One-stop verification: the quick test tier, the exact work-counter gate,
# the fault drills and the end-to-end smoke runs.
#
#   scripts/verify.sh
#
# Runs the tier-1 suite without the wall-clock perf-smoke / process-pool
# tests (the `slow` marker — run `PYTHONPATH=src python -m pytest -x -q`
# for the full tier), runs the serving, fleet and protocol-edge tests once more
# under `python -X dev` with leaked sockets and files as errors, runs the
# robustness, data-eval, serving, distributed, and fleet benchmarks in
# --smoke mode (robustness asserts the counted budget-work bound and
# fault-recovery bit-identity, one pair per row; data-eval asserts the
# columnar engine beats the tuple oracle and the approximation stays sound; serving
# replays a scaled-down Zipfian log through a live daemon and runs the
# worker-kill / cache-corruption / SIGTERM-drain fault drills;
# distributed spins up 2 local TCP shard workers, kills one mid-run, and
# asserts recovery plus the per-worker stream-scaling row; fleet
# SIGKILLs a supervised worker mid-replay and asserts zero failed client
# requests, healed capacity, and post-restart warm ≡ cold — all without
# rewriting the committed JSON), runs bench_substrates.py's two
# homomorphism benchmarks once each as plain tests (bounded-treewidth and
# backtracking on the same instance, each asserting a homomorphism is
# found), runs the 20-scenario deterministic
# chaos sweep (every scenario reproducible from the seed it prints,
# upholding the four serving invariants), runs the work-counter gate
# (tests/test_work_counters.py, including its slow workers=2 cases: the
# pipeline and evaluation counters of the e2e smoke queries must not rise
# above tests/work_counters.json; a fall passes with a warning naming the
# case and the counter), runs tests/test_reference.py with its slow
# workers=2 cases (pipeline frontiers, serial and merged from shards,
# against a brute-force solver built from the paper's definitions), runs
# the end-to-end benchmark's solve-plain,
# solve-ext, solve-2w and evaluate workloads in --smoke mode (a few seconds
# each; exit 1 when a frontier, or evaluate's approximations and answer
# sets, differ from the committed references — solve-2w runs the sharded
# workers=2 path), runs the evaluate smoke a second time on the
# pure-python columnar backend (REPRO_EVAL_BACKEND=python) against the
# same references, runs the solve-2w smoke once more traced (--trace 1:
# the tracer patches names in src/ — among them ProcessExecutor's
# __init__, imap and close — so a change that drops one fails here
# instead of silently breaking the per-layer benchmark), runs the evaluate
# smoke traced (trace.py's evaluation_targets patch six ColumnarKernel
# names, product_extend among them, so a change that drops one fails
# here too), runs the serve workload's smoke traced too (a live fleet replay plus an in-process
# daemon whose layer table needs the names trace.py's serve_targets
# patches: ApproximationServer._handle_line and the decode, key, cache,
# compute and encode globals of repro.serve.server), and finally prints
# the line total of src/.

set -euo pipefail

cd "$(dirname "$0")/.."

PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q -m "not slow"
# Socket and file leaks on the serving paths fail here: dev mode turns a
# ResourceWarning into an error, and pytest's unraisable-exception warning
# (how a finalizer's error surfaces) into a failure.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -X dev -W error::ResourceWarning -m pytest -q -m "not slow" \
  -W error::pytest.PytestUnraisableExceptionWarning tests/test_protocol_edges.py tests/test_serving.py \
  tests/test_fleet.py
(cd benchmarks && PYTHONPATH=../src${PYTHONPATH:+:$PYTHONPATH} python bench_robustness.py --smoke)
(cd benchmarks && PYTHONPATH=../src${PYTHONPATH:+:$PYTHONPATH} python bench_data_eval.py --smoke)
(cd benchmarks && PYTHONPATH=../src${PYTHONPATH:+:$PYTHONPATH} python bench_serving.py --smoke)
(cd benchmarks && PYTHONPATH=../src${PYTHONPATH:+:$PYTHONPATH} python bench_distributed.py --smoke)
(cd benchmarks && PYTHONPATH=../src${PYTHONPATH:+:$PYTHONPATH} python bench_fleet.py --smoke)
(cd benchmarks && PYTHONPATH=../src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q -p no:cacheprovider \
  bench_substrates.py -o python_files='bench_*.py' -o python_functions='bench_*' \
  -k 'bounded_tw or generic_hom' --benchmark-disable)
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro.testing.chaos --count 20
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q tests/test_work_counters.py
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q tests/test_reference.py
python3 benchmarks/e2e/run.py --smoke --workload solve-plain
python3 benchmarks/e2e/run.py --smoke --workload solve-ext
python3 benchmarks/e2e/run.py --smoke --workload solve-2w
python3 benchmarks/e2e/run.py --smoke --workload evaluate
REPRO_EVAL_BACKEND=python python3 benchmarks/e2e/run.py --smoke --workload evaluate
python3 benchmarks/e2e/run.py --smoke --workload solve-2w --trace 1
python3 benchmarks/e2e/run.py --smoke --workload evaluate --trace 1
python3 benchmarks/e2e/run.py --smoke --workload serve --trace 1
echo "src/ lines: $(find src -name '*.py' -exec cat {} + | wc -l)"
