"""Unified benchmark subsystem: registry, result schema, harness, gate.

One stack for every experiment that produces a number:

* :mod:`repro.bench.registry` — :class:`Benchmark` registrations with
  tiers (``smoke`` ⊂ ``full`` ⊂ ``nightly``) and per-tier parameters;
* :mod:`repro.bench.result` — the ``repro-bench-result/1`` JSON schema
  every benchmark emits (:class:`BenchResult`);
* :mod:`repro.bench.suites` — the benchmark definitions;
* :mod:`repro.bench.harness` — execution + persistence
  (``benchmarks/results/*.json``, repo-root ``BENCH_summary.json``);
* :mod:`repro.bench.gate` — baseline comparison and CI regression
  gating against ``benchmarks/baselines.json``.

CLI front-end: ``python -m repro bench list|run|compare|gate``; one
benchmark runs alone with ``python -m repro bench run --only NAME``.
"""

from repro.bench.gate import (
    DEFAULT_TOLERANCE,
    GateReport,
    compare_summaries,
    compare_to_baselines,
    load_baselines,
    parse_tolerance,
    update_baselines,
    write_baselines,
)
from repro.bench.harness import (
    RESULTS_DIR,
    SUMMARY_PATH,
    load_summary,
    outcome_failures,
    run_benchmark,
    run_tier,
    summarize,
    validate_summary,
    write_summary,
)
from repro.bench.registry import (
    REGISTRY,
    TIERS,
    Benchmark,
    all_benchmarks,
    get_benchmark,
    register,
    select_tier,
)
from repro.bench.result import (
    BASELINE_SCHEMA,
    REPORT_SCHEMA,
    RESULT_SCHEMA,
    SUMMARY_SCHEMA,
    BenchOutcome,
    BenchReport,
    BenchResult,
    git_metadata,
    result_key,
    validate_result_record,
)

__all__ = [
    "BASELINE_SCHEMA",
    "Benchmark",
    "BenchOutcome",
    "BenchReport",
    "BenchResult",
    "DEFAULT_TOLERANCE",
    "GateReport",
    "REGISTRY",
    "REPORT_SCHEMA",
    "RESULTS_DIR",
    "RESULT_SCHEMA",
    "SUMMARY_PATH",
    "SUMMARY_SCHEMA",
    "TIERS",
    "all_benchmarks",
    "compare_summaries",
    "compare_to_baselines",
    "get_benchmark",
    "git_metadata",
    "load_baselines",
    "load_summary",
    "outcome_failures",
    "parse_tolerance",
    "register",
    "result_key",
    "run_benchmark",
    "run_tier",
    "select_tier",
    "summarize",
    "update_baselines",
    "validate_result_record",
    "validate_summary",
    "write_baselines",
    "write_summary",
]
