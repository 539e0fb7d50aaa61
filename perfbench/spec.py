"""What the benchmark measures: workloads, metrics and their meaning.

This module is the single source for names, units, directions and time
bases.  ``BENCHMARK.json`` at the repository root must list the same
workloads and metrics (``perfbench/tests`` checks it), but its schema has
no field for a metric's time base, so that lives here: every time the
benchmark reports is host (wall-clock) time of the benchmark process;
no simulated time is used as a speed metric.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

#: Names of workloads and metrics: letters, digits, ``_``, ``.``, ``-``.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Why each workload is in the benchmark (one line each).
WORKLOADS: dict[str, str] = {
    "sim-lowlocality": (
        "Cold Radix grid on C1/C8/C13: misses dominate, so the per-miss "
        "path in sim.backends and batch dispatch in sim.engine do most of "
        "the work"
    ),
    "sim-highlocality": (
        "Cold LU/FFT/EDGE grid on C1/C8/C13: long hit runs take the "
        "batched path, and apps and trace.analysis take a larger share"
    ),
    "design": (
        "Design and machine-mix queries one at a time: core, cost.search, "
        "scheduling, topology.build and core.contention work, the "
        "simulator does not"
    ),
    "trace-ingest": (
        "Zipf address file imported, ingested in small chunks and "
        "predicted: the only workload that runs trace.store, "
        "trace.streamdist and trace.fit"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  #: "lower" or "higher"
    base: str | None  #: "host" for times; None for counts and ratios
    about: str
    bound: float | None = None  #: end-to-end only


#: Reported by every untraced run (``--trace 0``), on every workload.
END_TO_END: tuple[Metric, ...] = (
    Metric(
        "setup_s", "s", "lower", "host",
        "import of the modules the workload uses plus the median of three "
        "seeded input generations",
        bound=0.25,
    ),
    Metric(
        "peak_rss_mib", "MiB", "lower", None,
        "peak resident memory of the benchmark process",
        bound=0.1,
    ),
    Metric(
        "work_per_s", "1/s", "higher", "host",
        "work per host second spent in operations: simulated references "
        "(sim-*), answered design queries (design), records imported and "
        "ingested (trace-ingest)",
        bound=0.25,
    ),
    Metric(
        "op_p50_ms", "ms", "lower", "host",
        "median latency of one operation: a cold compare grid (sim-*), a "
        "design query (design), import+ingest+predict (trace-ingest)",
        bound=0.25,
    ),
)

_S = "host seconds of self time (own code, excluding wrapped callees)"

#: Reported by every traced run (``--trace 1``), on every workload; a
#: layer that does not run on a workload reports 0.
PER_LAYER: tuple[Metric, ...] = (
    Metric("sim.backends.access_calls", "count", "lower", None,
           "scalar ComposedBackend.access calls"),
    Metric("sim.backends.access_s", "s", "lower", "host", _S),
    Metric("sim.backends.batch_calls", "count", "lower", None,
           "ComposedBackend.access_batch calls"),
    Metric("sim.backends.batch_s", "s", "lower", "host", _S),
    Metric("sim.backends.batch_offered", "count", "lower", None,
           "references offered to access_batch"),
    Metric("sim.backends.batch_consumed", "count", "higher", None,
           "references access_batch consumed"),
    Metric("sim.backends.batch_yield", "ratio", "higher", None,
           "consumed / offered"),
    Metric("sim.backends.batch_empty_ratio", "ratio", "lower", None,
           "share of access_batch calls that consumed nothing"),
    Metric("sim.engine.execute_s", "s", "lower", "host",
           "host seconds in SimulationEngine.execute, callees included"),
    Metric("sim.engine.self_s", "s", "lower", "host", _S),
    Metric("sim.stacked.schedules_s", "s", "lower", "host", _S),
    Metric("sim.stacked.self_s", "s", "lower", "host", _S),
    Metric("sim.stacked.cells", "count", "higher", None,
           "cells run through simulate_grid"),
    Metric("experiments.runner.self_s", "s", "lower", "host", _S),
    Metric("experiments.runner.lane", "code", "lower", None,
           "lane compare chose: 0 serial, 1 tensor, 2 pool (last grid)"),
    Metric("experiments.runner.model_err_pct", "%", "lower", None,
           "mean |model - sim| / sim of E(Instr) under DEFAULT_CALIBRATION"),
    Metric("apps.run_s", "s", "lower", "host", _S),
    Metric("apps.refs", "count", "lower", None,
           "references the application runs generated"),
    Metric("trace.analysis.characterize_s", "s", "lower", "host", _S),
    Metric("trace.analysis.sharing_s", "s", "lower", "host", _S),
    Metric("core.contention.emax_calls", "count", "lower", None,
           "expected_max_exponential calls"),
    Metric("core.contention.emax_repeat_ratio", "ratio", "lower", None,
           "share of those calls whose arguments repeat an earlier call "
           "of the same operation"),
    Metric("core.contention.emax_s", "s", "lower", "host", _S),
    Metric("topology.build.leaf_calls", "count", "lower", None,
           "leaf_hierarchies calls"),
    Metric("topology.build.leaf_s", "s", "lower", "host", _S),
    Metric("scheduling.evaluate_calls", "count", "lower", None,
           "evaluate_hetero calls"),
    Metric("scheduling.evaluate_s", "s", "lower", "host", _S),
    Metric("scheduling.policies_s", "s", "lower", "host", _S),
    Metric("scheduling.mix_s", "s", "lower", "host", _S),
    Metric("cost.search.s", "s", "lower", "host", _S),
    Metric("cost.search.evaluations", "count", "lower", None,
           "full model evaluations the design search performed"),
    Metric("cost.search.pruning_ratio", "ratio", "higher", None,
           "pruned candidates / candidates"),
    Metric("core.batch_s", "s", "lower", "host", _S),
    Metric("core.evaluate_calls", "count", "lower", None,
           "core.execution.evaluate calls"),
    Metric("core.evaluate_s", "s", "lower", "host", _S),
    Metric("trace.fit.update_s", "s", "lower", "host", _S),
    Metric("trace.fit.refit_s", "s", "lower", "host", _S),
    Metric("trace.fit.refits", "count", "lower", None,
           "least-squares refits (IncrementalFit._fit_now calls)"),
    Metric("trace.fit.refit_ms_p50", "ms", "lower", "host",
           "median host time of one refit"),
    Metric("trace.fit.refits_per_record", "ratio", "lower", None,
           "refits / ingested records"),
    Metric("trace.streamdist.update_s", "s", "lower", "host", _S),
    Metric("trace.store.write_s", "s", "lower", "host", _S),
    Metric("trace.store.read_s", "s", "lower", "host", _S),
    Metric("trace.store.import_s", "s", "lower", "host", _S),
    Metric("trace.store.bytes", "bytes", "lower", None,
           "container bytes the ingest read"),
    Metric("trace.ingest.self_s", "s", "lower", "host", _S),
    Metric("traced_wall_s", "s", "lower", "host",
           "host seconds of the traced operations"),
    Metric("unattributed_s", "s", "lower", "host",
           "traced_wall_s minus the self time of every layer above"),
    Metric("trace_overhead_pct", "%", "lower", None,
           "traced over untraced host time of the same operations, minus 1"),
)

#: Per-layer self times; with unattributed_s they sum to traced_wall_s.
SELF_TIMES: tuple[str, ...] = tuple(
    m.name for m in PER_LAYER if m.about == _S
)
