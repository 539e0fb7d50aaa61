"""The four workloads: seeded inputs, one timed operation, output checks.

Every workload is a closed loop of one client in one process: the next
operation starts when the previous one has returned.  A workload object
is built from the seed (that is the set-up), then :func:`measure` runs
its operations for a fixed number of host seconds.  Outputs are checked
after the loop, outside every timed region:

* sim cells and design answers against digests pinned in
  ``perfbench/pinned.json`` (written by ``perfbench/pin.py``);
* the ingest's fitted (alpha, beta, gamma) against
  ``fit_from_distances`` on the same addresses, computed offline.

The seed never reaches the program directly.  It draws the order in
which a fixed, pinned universe of inputs is visited (sim and design),
or generates the address stream (trace-ingest).
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned.json"

#: Paper configurations of one grid: one SMP, one COW, one CLUMP.
SIM_CONFIGS = ("C1", "C8", "C13")
#: Application seeds the sim workloads draw from (all pinned).
APP_SEEDS = tuple(range(8))
#: Problem sizes.  The defaults take ~57 s (Radix) and ~16 s (LU, FFT,
#: EDGE) per cold grid on a 2-core host, longer than one run lasts;
#: these keep each grid near 4 s and the same side of the scaled caches.
SIM_APPS = {
    "sim-lowlocality": {"Radix": {"num_keys": 4096}},
    "sim-highlocality": {
        "LU": {"order": 96},
        "FFT": {"points": 1024},
        "EDGE": {"height": 32, "width": 32},
    },
}

#: Table 2 workloads the design queries ask about (as ``repro design``
#: knows them).
DESIGN_WORKLOADS = ("FFT", "LU", "Radix", "EDGE", "TPC-C")
DESIGN_BUDGETS = (4000, 6000, 8000, 12000, 16000, 24000, 32000)
#: A machine-mix query at this budget takes seconds, not minutes.
MIX_BUDGET = 4000
#: Permutations of the homogeneous queries per mix query, so that mix
#: queries take about half the time.
HOMOG_ROUNDS = 2

#: The ingest's address stream: Zipf-ranked lines over a fixed footprint.
#: Half a million records keep one ingest near 4 s, so a run holds
#: several.
INGEST_RECORDS = 1 << 19
INGEST_FOOTPRINT = 1 << 16
INGEST_ZIPF = 1.1
INGEST_CHUNK = 2048
INGEST_PREDICT_CONFIG = "C8"

SETUP_REPEATS = 3


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def digest(obj) -> str:
    """Stable hash of plain data; floats enter at full precision."""
    text = json.dumps(_plain(obj), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def load_pinned() -> dict[str, str]:
    return json.loads(PINNED.read_text())


def sim_key(app: str, kwargs: dict, app_seed: int, config: str) -> str:
    size = ",".join(f"{k}={v}" for k, v in sorted(kwargs.items()))
    return f"sim/{app}({size})/seed{app_seed}/{config}"


def sim_cell_digest(result) -> str:
    return digest(
        {
            "total_cycles": result.total_cycles,
            "total_references": result.total_references,
            "stats": result.stats.as_dict(),
        }
    )


def design_key(kind: str, workload: str, budget: int) -> str:
    return f"{kind}/{workload}/{budget}"


def design_digest(outcome) -> str:
    best = outcome.result.best
    return digest(
        {
            "spec": best.spec.to_dict(),
            "price": best.price,
            "e_instr_seconds": best.e_instr_seconds,
        }
    )


def mix_digest(mixes) -> str:
    return digest([[m.name, m.cost, m.e_instr_seconds] for m in mixes])


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass
class Record:
    """One completed (or failed) operation."""

    op: tuple
    seconds: float
    work: float
    output: object
    error: str | None = None


class SimGrid:
    """A cold ``ExperimentRunner.compare`` grid per operation, with
    ``jobs=1``, ``lane="auto"`` and the disk cache off; each operation
    simulates the next application seed of a seeded permutation."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        from repro.experiments.configs import paper_config, scaled

        self.name = name
        self.apps = SIM_APPS[name]
        self.specs = [scaled(paper_config(c)) for c in SIM_CONFIGS]
        rng = np.random.default_rng(seed)
        self.order = [int(s) for s in rng.permutation(APP_SEEDS)]

    @staticmethod
    def import_modules() -> None:
        import repro.experiments.runner  # noqa: F401
        import repro.sim.stacked  # noqa: F401  (imported lazily by the tensor lane)

    def plan(self, clock: Callable[[], float], seconds: float,
             records: list[Record]) -> Iterator[tuple]:
        i = 0
        while _more(clock, seconds, records):
            yield ("grid", self.order[i % len(self.order)])
            i += 1

    def run(self, op: tuple):
        from repro.experiments.runner import DEFAULT_CALIBRATION, ExperimentRunner

        runner = ExperimentRunner(
            seed=op[1], jobs=1, lane="auto", cache_dir=None, app_kwargs=self.apps
        )
        rows = runner.compare(list(self.apps), self.specs, DEFAULT_CALIBRATION)
        cells = {
            (app, spec.name): runner.simulate(app, spec)
            for app in self.apps
            for spec in self.specs
        }
        work = float(sum(r.total_references for r in cells.values()))
        return {"rows": rows, "cells": cells, "lane": runner.last_grid_lane}, work

    def check(self, rec: Record, pinned: dict[str, str]) -> str | None:
        for (app, spec_name), result in rec.output["cells"].items():
            key = sim_key(app, self.apps[app], rec.op[1], spec_name.split("/")[0])
            if pinned.get(key) != sim_cell_digest(result):
                return f"{key}: digest mismatch"
        return None

    def summary(self, records: list[Record]) -> list[str]:
        errs = [
            100.0 * statistics.fmean(
                abs(r.modeled - r.simulated) / r.simulated for r in rec.output["rows"]
            )
            for rec in records
            if rec.error is None
        ]
        lanes = sorted({rec.output["lane"] for rec in records if rec.error is None})
        return [
            f"grids: {len(records)}, lanes: {','.join(lanes)}",
            f"model_err_pct (mean over grids, DEFAULT_CALIBRATION): "
            f"{statistics.fmean(errs) if errs else float('nan'):.4f} %",
        ]


class Design:
    """``repro design`` queries (one fresh ``DesignSearch`` per query)
    and ``repro design --mix`` queries, answered one at a time.

    The run is a sequence of whole rounds.  A round is one mix query,
    then :data:`HOMOG_ROUNDS` seeded permutations of every (workload,
    budget) pair as homogeneous queries.  Every run therefore asks the
    same queries in the same proportions, in a seeded order: queries
    per second moves with the speed of either kind, and the median does
    not jump with the seed.  Mix queries cycle through seeded
    permutations of the workloads."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        from repro.workloads import params

        self.name = name
        table = (params.PAPER_FFT, params.PAPER_LU, params.PAPER_RADIX,
                 params.PAPER_EDGE, params.PAPER_TPCC)
        self.workloads = {w.name: w for w in table}
        self.rng = np.random.default_rng(seed)
        self.pairs = [(w, b) for w in DESIGN_WORKLOADS for b in DESIGN_BUDGETS]

    @staticmethod
    def import_modules() -> None:
        import repro.cost.search  # noqa: F401
        import repro.scheduling  # noqa: F401

    def plan(self, clock: Callable[[], float], seconds: float,
             records: list[Record]) -> Iterator[tuple]:
        rounds = 0
        mixes: list[str] = []
        # Start a round only if one of the mean length so far still fits.
        while not rounds or clock() * (rounds + 1) / rounds <= seconds:
            if not mixes:
                mixes = [DESIGN_WORKLOADS[i] for i in self.rng.permutation(len(DESIGN_WORKLOADS))]
            yield ("mix", mixes.pop(0), MIX_BUDGET)
            for _ in range(HOMOG_ROUNDS):
                for i in self.rng.permutation(len(self.pairs)):
                    yield ("design", *self.pairs[i])
            rounds += 1

    def run(self, op: tuple):
        kind, name, budget = op
        workload = self.workloads[name]
        if kind == "mix":
            from repro.scheduling import design_mix

            return design_mix(
                workload.locality, workload.gamma, budget,
                top=5, remote_rate_adjustment=0.124,
            ), 1.0
        from repro.cost.search import DesignQuery, DesignSearch

        return DesignSearch(cache_dir=None).run([DesignQuery(workload, budget)])[0], 1.0

    def check(self, rec: Record, pinned: dict[str, str]) -> str | None:
        key = design_key(*rec.op)
        got = mix_digest(rec.output) if rec.op[0] == "mix" else design_digest(rec.output)
        return None if pinned.get(key) == got else f"{key}: digest mismatch"

    def summary(self, records: list[Record]) -> list[str]:
        lines = []
        for kind, label in (("design", "design query"), ("mix", "mix query")):
            ms = sorted(1000.0 * r.seconds for r in records if r.op[0] == kind)
            if not ms:
                continue
            line = f"{label}: n={len(ms)} p50={statistics.median(ms):.3f} ms"
            pct, tail = tail_percentile(ms)
            if pct > 50.0:
                line += f" p{pct:g}={tail:.3f} ms"
            lines.append(line)
        return lines


class TraceIngest:
    """A seeded Zipf address file imported into an ``.rtc`` container,
    ingested at a small chunk size, and used for one ``predict``.

    Its files live in ``workdir``, which the caller removes."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name = name
        self.workdir = workdir
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.text = self.workdir / "zipf.trace"
        self._reference = None
        rng = np.random.default_rng(seed)
        weights = 1.0 / np.arange(1, INGEST_FOOTPRINT + 1) ** INGEST_ZIPF
        ranks = rng.choice(INGEST_FOOTPRINT, size=INGEST_RECORDS, p=weights / weights.sum())
        lines = rng.permutation(INGEST_FOOTPRINT) + 1024
        self.addresses = lines[ranks]
        self.writes = rng.random(INGEST_RECORDS) < 0.3
        self.work = rng.integers(0, 4, INGEST_RECORDS)
        with open(self.text, "w", encoding="utf-8") as f:
            f.write("".join(
                f"{a} {'w' if w else 'r'} {k}\n"
                for a, w, k in zip(
                    self.addresses.tolist(), self.writes.tolist(), self.work.tolist()
                )
            ))

    @staticmethod
    def import_modules() -> None:
        import repro.core.execution  # noqa: F401
        import repro.trace.ingest  # noqa: F401

    def plan(self, clock: Callable[[], float], seconds: float,
             records: list[Record]) -> Iterator[tuple]:
        while _more(clock, seconds, records):
            yield ("ingest",)

    def run(self, op: tuple):
        from repro.core.execution import evaluate
        from repro.experiments.configs import paper_config
        from repro.trace.ingest import ingest
        from repro.workloads.registry import load_registry

        registry = self.workdir / "workloads"
        result = ingest(
            self.text, name="zipf", workload_dir=registry, chunk_records=INGEST_CHUNK
        )
        params = load_registry(registry)["zipf"].params
        estimate = _predict(evaluate, paper_config(INGEST_PREDICT_CONFIG), params)
        return {"params": params, "e_instr_seconds": estimate}, float(result.records)

    def check(self, rec: Record, pinned: dict[str, str]) -> str | None:
        if self._reference is None:
            self._reference = self._offline_reference()
        want, e_instr = self._reference
        p = rec.output["params"]
        if (p.alpha, p.beta, p.gamma, p.max_distance) != want:
            return "ingest: fit differs from fit_from_distances on the same addresses"
        if rec.output["e_instr_seconds"] != e_instr:
            return "ingest: predict differs from the offline fit's"
        return None

    def _offline_reference(self):
        """(alpha, beta, gamma, max_distance) fitted offline, and the
        predict answer for those parameters."""
        from repro.core.execution import evaluate
        from repro.experiments.configs import paper_config
        from repro.trace.stackdist import stack_distances
        from repro.workloads.fitting import fit_from_distances
        from repro.workloads.params import WorkloadParams

        ref = fit_from_distances(stack_distances(self.addresses))
        n = INGEST_RECORDS
        gamma = n / (n + int(self.work.sum()))
        params = WorkloadParams(
            "zipf", alpha=ref.alpha, beta=ref.beta, gamma=gamma,
            max_distance=ref.max_distance,
        )
        e_instr = _predict(evaluate, paper_config(INGEST_PREDICT_CONFIG), params)
        return (ref.alpha, ref.beta, gamma, ref.max_distance), e_instr

    def summary(self, records: list[Record]) -> list[str]:
        p = records[0].output["params"] if records and records[0].error is None else None
        if p is None:
            return []
        return [f"fit: alpha={p.alpha:.6f} beta={p.beta:.6f} gamma={p.gamma:.6f}"]


def _predict(evaluate, spec, params) -> float:
    """The CLI's ``predict`` call for a workload on a platform."""
    return evaluate(
        spec, params.locality, params.gamma,
        remote_rate_adjustment=0.124 if spec.N > 1 else 0.0,
        mode="throttled", on_saturation="inf",
        sharing_fraction=params.sharing_at(spec.N),
        sharing_fresh_fraction=params.sharing_fresh_fraction,
    ).e_instr_seconds


WORKLOAD_CLASSES = {
    "sim-lowlocality": SimGrid,
    "sim-highlocality": SimGrid,
    "design": Design,
    "trace-ingest": TraceIngest,
}


def make(name: str, seed: int, workdir: Path):
    return WORKLOAD_CLASSES[name](name, seed, workdir)


# ----------------------------------------------------------------------
# The loop
# ----------------------------------------------------------------------
def _more(clock, seconds: float, records: list[Record]) -> bool:
    """Start another operation only if one more of the mean length of
    ``records`` still ends within ``seconds`` (always at least one)."""
    if not records:
        return True
    return clock() + statistics.fmean(r.seconds for r in records) <= seconds


def tail_percentile(sorted_ms: list[float]) -> tuple[float, float]:
    """The highest of p50/p75/p90/p95/p99/p99.9 with at least ten
    samples beyond it, and its value (nearest rank)."""
    n = len(sorted_ms)
    best = (50.0, sorted_ms[(n - 1) // 2])
    for pct in (75.0, 90.0, 95.0, 99.0, 99.9):
        rank = int(np.ceil(pct / 100.0 * n)) - 1
        if n - 1 - rank >= 10:
            best = (pct, sorted_ms[rank])
    return best


def run_ops(workload, ops, wrap=None) -> list[Record]:
    """Run a fixed list of operations (the traced replay)."""
    records: list[Record] = []
    for op in ops:
        records.append(_one(workload, op, wrap))
    return records


def measure(workload, seconds: float) -> list[Record]:
    """Closed loop for ``seconds`` of host time; returns every record."""
    records: list[Record] = []
    t0 = perf_counter()

    def clock() -> float:
        return perf_counter() - t0

    for op in workload.plan(clock, seconds, records):
        records.append(_one(workload, op, None))
    return records


def _one(workload, op: tuple, wrap) -> Record:
    import traceback

    t0 = perf_counter()
    try:
        output, work = wrap(lambda: workload.run(op)) if wrap else workload.run(op)
    except Exception:  # an operation that raises is a failure, not a crash
        return Record(op, perf_counter() - t0, 0.0, None, traceback.format_exc())
    return Record(op, perf_counter() - t0, work, output)
