# Convenience targets for the repro repository.

PYTHON ?= python

.PHONY: install test doctest bench bench-full bench-save bench-compare experiments experiments-full examples lint lint-docs docs check-links all

# Perf-regression gate defaults: compare a fresh run against the one
# committed baseline (the file CI gates on), failing past a 50% slowdown.
BENCH_BASELINE ?= BENCH_7c00de1.json
BENCH_CURRENT ?= bench_current.json
BENCH_THRESHOLD ?= 0.5

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Config lives in pyproject.toml ([tool.ruff]). Skips gracefully when
# ruff is not on PATH (e.g. the minimal runtime container); CI installs
# it and fails hard.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi

# API reference into docs/api/ (markdown always; pdoc HTML when pdoc is
# installed — CI installs it and the build fails hard on docstring or
# import errors). Also validates every intra-repo markdown link.
docs:
	$(PYTHON) tools/build_docs.py

# Just the markdown link/anchor checker (also part of `make docs`).
check-links:
	$(PYTHON) tools/build_docs.py --check-links

# Executable documentation: the doctests embedded in the api facade and
# engine docstrings (the README/engine.md quickstarts mirror these).
doctest:
	PYTHONPATH=src $(PYTHON) -m pytest --doctest-modules \
		src/repro/api.py src/repro/engine -q -p no:cacheprovider

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The paper's exact evaluation scale (n = 100..500, 100 instances/point).
bench-full:
	REPRO_BENCH_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Save a machine-readable baseline named after the current commit, for
# before/after comparison across perf changes (pytest-benchmark JSON,
# with operation-count metrics attached under extra_info).
bench-save:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only \
		--benchmark-json=BENCH_$$(git rev-parse --short HEAD).json

# Run the suite, then diff it per-benchmark against the committed
# baseline (tools/bench_compare.py); non-zero exit past the threshold.
# Override pieces: make bench-compare BENCH_BASELINE=BENCH_abc.json \
#                       BENCH_THRESHOLD=0.25
bench-compare:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only \
		--benchmark-json=$(BENCH_CURRENT)
	$(PYTHON) tools/bench_compare.py $(BENCH_BASELINE) $(BENCH_CURRENT) \
		--threshold $(BENCH_THRESHOLD)

experiments:
	$(PYTHON) benchmarks/generate_experiments_md.py --instances 30

experiments-full:
	$(PYTHON) benchmarks/generate_experiments_md.py --full

examples:
	@for f in examples/*.py; do echo "== $$f"; \
		PYTHONPATH=src $(PYTHON) $$f > /dev/null || exit 1; done; \
	echo "all examples ran clean"

all: test doctest bench examples
