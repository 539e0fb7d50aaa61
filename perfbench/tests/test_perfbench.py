"""Tests of the benchmark itself.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from perfbench import layers, run, spec, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def design(tmp_path):
    return workloads.make("design", 0, tmp_path)


def test_perturbed_digest_counts_as_failure(design):
    ops = [("design", "LU", 8000), ("design", "FFT", 4000)]
    records = workloads.run_ops(design, ops)
    pinned = workloads.load_pinned()
    assert run.failures(design, records, pinned) == []

    perturbed = dict(pinned)
    key = workloads.design_key(*ops[0])
    perturbed[key] = perturbed[key][::-1]
    failed = run.failures(design, records, perturbed)
    assert [op for op, _ in failed] == [ops[0]]


def test_wrappers_are_restored_and_layer_times_add_up(design):
    originals = {
        (owner, attr): vars(owner)[attr] for owner, attr, _, _ in layers._targets()
    }
    tracer = layers.Tracer()
    installation = layers.install(tracer)
    try:
        assert layers.leftover_wrappers()  # installed while tracing
        records = workloads.run_ops(
            design, [("design", "LU", 8000)], wrap=tracer.operation
        )
        sim = workloads.make("sim-lowlocality", 0, ROOT)
        sim.apps = {"FFT": {"points": 64}}  # tiny grid: same code path, fast
        records += workloads.run_ops(sim, [("grid", 0)], wrap=tracer.operation)
    finally:
        installation.restore()
    assert layers.leftover_wrappers() == []
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, (owner, attr)
    assert all(rec.error is None for rec in records)

    metrics = tracer.metrics(untraced_s=tracer.op_s)
    # The traced grid took the same batched path and lane as untraced.
    assert metrics["sim.backends.batch_calls"] > 0
    assert records[-1].output["lane"] == "tensor"
    assert metrics["experiments.runner.lane"] == 1
    assert metrics["cost.search.evaluations"] > 0
    total = sum(metrics[name] for name in spec.SELF_TIMES) + metrics["unattributed_s"]
    assert math.isclose(total, metrics["traced_wall_s"], rel_tol=1e-9)


def test_every_name_is_well_formed():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(set(names)) == len(names)
    for name in names + list(spec.WORKLOADS):
        assert spec.NAME_RE.fullmatch(name), name


def test_benchmark_json_matches_the_spec():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == spec.WORKLOADS
    assert all(w["why"] and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    for key, table in (("end_to_end", spec.END_TO_END), ("per_layer", spec.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"], m.get("bound")) for m in BENCHMARK[key]]
        assert listed == [(m.name, m.unit, m.better, m.bound) for m in table]
    for m in spec.END_TO_END + spec.PER_LAYER:
        # Every time is host time; no simulated time is a speed metric.
        assert m.base in ("host", None), m.name
        assert m.base == "host" or m.unit not in ("s", "ms", "1/s"), m.name
    assert workloads.WORKLOAD_CLASSES.keys() == spec.WORKLOADS.keys()
    setup = BENCHMARK["end_to_end"][0]
    assert setup["name"] == "setup_s"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert workloads.tail_percentile([float(i) for i in range(100)]) == (90.0, 89.0)
    assert workloads.tail_percentile([float(i) for i in range(1000)])[0] == 99.0
    assert workloads.tail_percentile([1.0, 2.0, 3.0]) == (50.0, 2.0)
