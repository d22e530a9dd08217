# Local mirror of .github/workflows/ci.yml — same jobs, same order,
# same commands. Tools the environment lacks (ruff, mypy, pytest-cov)
# are skipped with a notice instead of failing, so `make ci` works in
# offline containers where only the python toolchain is baked in; on a
# developer machine with the tools installed it is the full pipeline.

PYTHON ?= python
PYTHONPATH := src
export PYTHONPATH

.PHONY: ci test paper ruff repro-analyze sanitize mypy \
	heavy-traffic-smoke ckernel ab hop-budget import-budget

# ckernel goes last: it leaves the built extension under src/, and
# every python process after that runs the C drain loop.
ci: test paper ruff repro-analyze sanitize mypy \
	heavy-traffic-smoke ckernel
	@echo "== ci: all jobs done =="

test:
	@echo "== ci job: tests =="
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		$(PYTHON) -m pytest -x -q --cov=repro --cov-report=term-missing; \
	else \
		echo "-- pytest-cov not installed: running without coverage --"; \
		$(PYTHON) -m pytest -x -q; \
	fi
	@echo "-- ledger benchmark: smoke run + self-tests --"
	$(PYTHON) benchmarks/ledger/run.py --smoke
	$(PYTHON) -m pytest -q benchmarks/ledger/tests

# The paper-shape assertions EXPERIMENTS.md rests on: Figs. 7-17, the
# §2 worked examples, §4 and PGPS equality (about two minutes).
paper:
	@echo "== ci job: paper =="
	$(PYTHON) -m pytest -q benchmarks --ignore=benchmarks/ledger

ruff:
	@echo "== ci job: ruff =="
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "-- ruff not installed: skipped (runs in GitHub Actions) --"; \
	fi

# The whole static suite — lint + verify + det packs — in one
# stateless pass: the gate, then the SARIF re-emit CI uploads.
repro-analyze:
	@echo "== ci job: analyze =="
	$(PYTHON) -m repro.analysis src
	$(PYTHON) -m repro.analysis src --format sarif > /tmp/repro-analysis.sarif

sanitize:
	@echo "== ci job: sanitize =="
	$(PYTHON) -m repro figure07 --duration 1 --workers 1 --sanitize
	$(PYTHON) -m repro figure08 --duration 3 --workers 1 --sanitize
	$(PYTHON) -m repro call_churn --duration 20 --workers 1 --sanitize
	$(PYTHON) -m repro fault_sweep --duration 5 --workers 2 --sanitize
	$(PYTHON) -m repro regulator_comparison --duration 3 --workers 1 --sanitize
	$(PYTHON) -m repro figure11 --duration 3 --workers 1 --sanitize

mypy:
	@echo "== ci job: mypy =="
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro/sim src/repro/analysis; \
	else \
		echo "-- mypy not installed: skipped (runs in GitHub Actions) --"; \
	fi

heavy-traffic-smoke:
	@echo "== ci job: heavy-traffic-smoke =="
	$(PYTHON) -m repro heavy_traffic --duration 0.5 --sanitize

# Also the build recipe for the optional C drain loop, and the whole of
# ci.yml's `ckernel` job (`make ckernel PYTHON=python`): a failed
# compile fails the target; no C compiler at all is a tool-absence
# skip like ruff's, except on a CI runner ($CI set), where it fails.
# `rm src/repro/sim/_ckernel*.so` goes back to the reference loop.
# tests/analysis/test_det.py rides along because det/perturb.py is the
# one builder of heap entries outside sim/; tests/faults because fault
# timers are the only PRIORITY_FAULT traffic through the C loop, and
# they interleave with parked work; tests/analysis/test_sanitizer.py and
# a sanitized fig07 because a sanitized run drains through the C loop
# too (the kernel has one loop whoever is watching).
ckernel:
	@echo "== ci job: ckernel =="
	@if command -v cc >/dev/null 2>&1; then \
		REPRO_BUILD_CKERNEL=1 $(PYTHON) setup.py build_ext --inplace \
		&& $(PYTHON) -c "from repro.sim import _ckernel" \
		&& $(PYTHON) -m pytest -q tests/sim tests/properties tests/integration \
			tests/faults tests/net/test_decision_epochs.py \
			tests/net/test_hop_path_budget.py tests/analysis/test_det.py \
			tests/analysis/test_sanitizer.py \
		&& $(PYTHON) -m repro figure07 --duration 1 --workers 1 --sanitize; \
	elif [ -n "$$CI" ]; then \
		echo "-- no C compiler on a CI runner: the job cannot run --"; exit 1; \
	else \
		echo "-- no C compiler: skipped (runs in GitHub Actions) --"; \
	fi

# Not a CI job (tier-1 runs the same file without -s): the table a
# per-hop change is sized with.  Per cell, Python calls per packet-hop,
# opcodes per packet-hop by function, twelve heaviest first, and the
# classes constructed inside Network.run.
hop-budget:
	$(PYTHON) -m pytest -q -s tests/net/test_hop_path_budget.py

# Not a CI job (tier-1 runs the same file without -s): per entry point
# (import repro, import repro.cli, the ledger child), the repro modules
# a fresh interpreter loads and its -X importtime table, cumulative,
# fifteen largest first.
import-budget:
	$(PYTHON) -m pytest -q -s tests/test_import_budget.py

# Not a CI job: the A/B protocol a perf PR is held to, as one command.
#   make ab BASE=<rev> [WORKLOADS=mix_onoff,heavy_1e4] [PAIRS=10]
# Alternated base/working-tree pairs of the ledger's driver form; prints
# both medians, the base's IQR, the change and pairs won per metric.
PAIRS ?= 10
AB_SCRATCH ?= /tmp/repro-ab
ab:
	@test -n "$(BASE)" || { echo "usage: make ab BASE=<rev> [WORKLOADS=a,b] [PAIRS=10]"; exit 2; }
	$(PYTHON) benchmarks/ab.py --base $(BASE) --pairs $(PAIRS) \
		--scratch $(AB_SCRATCH) $(if $(WORKLOADS),--workloads $(WORKLOADS))
