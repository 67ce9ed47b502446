# Developer entry points. Everything runs from the repo root with the
# sources on PYTHONPATH (no install step needed).

PY ?= python
export PYTHONPATH := src

.PHONY: test lint perf-gate update-baseline bench serve-bench

test:
	$(PY) -m pytest -x -q

lint:
	ruff check .

# What the CI perf job runs: collect BENCH_pr.json and gate it against
# the committed baseline.
perf-gate:
	$(PY) benchmarks/perf_gate.py --quick --out BENCH_pr.json \
		--check benchmarks/results/baseline.json

# Refresh the committed perf baseline. The baseline is machine-specific:
# regenerate it (on the hardware CI uses) whenever the benchmark workload
# changes, CI moves to different hardware, or an intentional perf change
# lands — then commit benchmarks/results/baseline.json. See DESIGN.md §8.
update-baseline:
	$(PY) benchmarks/perf_gate.py --quick --update-baseline

bench:
	$(PY) benchmarks/bench_backend_scaling.py --quick
	$(PY) benchmarks/bench_serve.py --quick
	$(PY) benchmarks/bench_trace_overhead.py --quick

# Serving-path benchmark alone: cold/warm query latency + throughput of
# an in-process repro-serve instance (see DESIGN.md §13).
serve-bench:
	$(PY) benchmarks/bench_serve.py --quick
