"""Run one benchmark workload and print its metrics.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs one warm-up operation, runs the workload untraced for
a third of ``--seconds``, then replays the same operations with every
layer wrapped, and reports
the per-layer metrics (see ``perfbench/spec.py``).  Every metric is
printed by name with its unit; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
An operation that raises, or whose output fails its check, counts as
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(
        "sim-lowlocality", "sim-highlocality", "design", "trace-ingest"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from a "
              "repository checkout", file=sys.stderr)
        return 2
    # One client in one process: keep numeric libraries single-threaded.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(SRC), str(ROOT)]

    t0 = perf_counter()
    from perfbench import layers, spec, workloads

    workloads.WORKLOAD_CLASSES[args.workload].import_modules()
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import_s = perf_counter() - t0

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    gen_s = []
    try:
        for _ in range(workloads.SETUP_REPEATS):
            t = perf_counter()
            workload = workloads.make(args.workload, args.seed, workdir)
            gen_s.append(perf_counter() - t)
        setup_s = import_s + statistics.median(gen_s)
        if args.trace:
            records, metrics, notes = _traced(workload, args.seconds, layers)
            table = spec.PER_LAYER
        else:
            records = workloads.measure(workload, args.seconds)
            metrics, notes = _end_to_end(records, setup_s), []
            table = spec.END_TO_END
        failed = failures(workload, records, workloads.load_pinned()) + notes
        summary = workload.summary([r for r in records if r.error is None])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone

    for op, problem in failed:
        print(f"FAILED {op}: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}; times are host time")
    for line in summary:
        print(f"  {line}")
    result = {}
    for m in table:
        value = metrics[m.name]
        print(f"  {m.name} = {value:.6g} {m.unit}")
        result[m.name] = {"value": value, "unit": m.unit}
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": result,
    }))
    return 0


def failures(workload, records, pinned) -> list[tuple[tuple, str]]:
    """(operation, problem) for every record that raised or whose
    output fails its check."""
    out = []
    for rec in records:
        problem = rec.error or workload.check(rec, pinned)
        if problem:
            out.append((rec.op, problem))
    return out


def _end_to_end(records, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work_per_s": sum(r.work for r in records) / sum(r.seconds for r in records),
        "op_p50_ms": 1000.0 * statistics.median(r.seconds for r in records),
    }


def _traced(workload, seconds: float, layers):
    """One warm-up operation, the workload untraced for a third of the
    time, then the same operations traced.

    Returns every record, the per-layer metrics and a list of problems
    that are not tied to one record (a lane that differs between the
    phases, a wrapper left installed)."""
    from perfbench import workloads

    warmup = workloads.measure(workload, 0.0)  # exactly one operation
    untraced = workloads.measure(workload, seconds / 3.0)
    tracer = layers.Tracer()
    installation = layers.install(tracer)
    try:
        traced = workloads.run_ops(
            workload, [r.op for r in untraced], wrap=tracer.operation
        )
    finally:
        installation.restore()
    notes = [("trace", f"wrapper left installed: {w}") for w in layers.leftover_wrappers()]
    for a, b in zip(untraced, traced):
        if _lane(a) != _lane(b):
            notes.append((a.op, f"lane {_lane(a)} untraced but {_lane(b)} traced"))
    metrics = tracer.metrics(sum(r.seconds for r in untraced))
    return warmup + untraced + traced, metrics, notes


def _lane(record) -> str | None:
    """The lane a sim grid chose (None for other operations)."""
    return record.output.get("lane") if isinstance(record.output, dict) else None


if __name__ == "__main__":
    sys.exit(main())
