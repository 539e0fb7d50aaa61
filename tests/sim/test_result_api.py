"""SimulationResult's designer-facing API and BackendStats export.

Satellite coverage: ``utilizations``/``bottleneck``/``describe`` on real
runs of each backend family, plus ``BackendStats.as_dict()`` surviving a
round trip through the metrics JSON exporter.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.sim.backends.base import BackendStats
from repro.sim.engine import SimulationEngine

from tests.sim.test_fastpath_equivalence import SPECS, _SPEC_IDS, _random_run


@pytest.fixture(scope="module")
def results():
    return {
        spec.name: SimulationEngine(
            spec, _random_run(spec.total_processors, 0)
        ).execute()
        for spec in SPECS
    }


_EXPECTED_RESOURCES = {
    "eq-smp": {"memory bus", "disk"},
    "eq-smp-l2": {"memory bus", "disk"},
    "eq-cow-bus": {"network", "disks"},
    "eq-cow-switch": {"network", "disks"},
    "eq-clump": {"network", "memory buses", "disks"},
}


@pytest.mark.parametrize("name", list(_EXPECTED_RESOURCES), ids=_SPEC_IDS)
def test_utilizations_per_family(results, name):
    res = results[name]
    util = res.utilizations
    assert set(util) == _EXPECTED_RESOURCES[name]
    for resource, value in util.items():
        # A switch's ports queue independently, so its aggregate busy
        # cycles (and hence "utilization") may legitimately exceed 1.
        assert value >= 0.0, resource
    # utilization:<r> extras are exactly busy/span, nothing else leaks in
    for key in res.stats.extra:
        if key.startswith("utilization:"):
            assert key[len("utilization:"):] in util


@pytest.mark.parametrize("name", list(_EXPECTED_RESOURCES), ids=_SPEC_IDS)
def test_bottleneck_is_the_busiest_resource(results, name):
    res = results[name]
    util = res.utilizations
    assert res.bottleneck in util
    assert util[res.bottleneck] == max(util.values())


def test_bottleneck_none_without_resources():
    stats = BackendStats()
    from repro.sim.engine import SimulationResult

    res = SimulationResult(
        platform_name="p", application="a", total_cycles=0.0,
        total_instructions=0, total_references=0,
        e_instr_seconds=0.0, e_instr_cycles=0.0,
        barrier_wait_cycles=0.0, stats=stats,
    )
    assert res.utilizations == {}
    assert res.bottleneck is None


@pytest.mark.parametrize("name", list(_EXPECTED_RESOURCES), ids=_SPEC_IDS)
def test_describe_mentions_the_headline_numbers(results, name):
    res = results[name]
    text = res.describe()
    assert res.application in text and res.platform_name in text
    assert f"{res.total_cycles:,.0f} cycles" in text
    assert "miss" in text and "util:" in text
    assert res.bottleneck in text


def test_stats_ratios_handle_zero_references():
    stats = BackendStats()
    assert stats.miss_ratio == 0.0
    assert stats.remote_ratio == 0.0


def test_as_dict_round_trips_through_metrics_json(results):
    """Feed every as_dict() field into gauges, export, and read it back."""
    res = results["eq-clump"]
    flat = res.stats.as_dict()
    assert flat["references"] == res.stats.references
    assert all(isinstance(k, str) for k in flat)

    reg = MetricsRegistry()
    gauge = reg.gauge("repro_backend_stat", "one BackendStats field", labelnames=("field",))
    for field, value in flat.items():
        gauge.labels(field=field).set(float(value))

    exported = json.loads(reg.to_json())
    (family,) = exported["metrics"]
    recovered = {
        s["labels"]["field"]: s["value"] for s in family["series"]
    }
    assert recovered == {k: pytest.approx(float(v)) for k, v in flat.items()}
    # the access-class identity: every reference is served by exactly one level
    served = (
        flat["cache_hits"] + flat["l2_hits"] + flat["peer_cache"]
        + flat["local_memory"] + flat["remote_clean"] + flat["remote_dirty"]
    )
    assert served == flat["references"]


@pytest.mark.parametrize("fastpath", [True, False], ids=["fastpath", "scalar"])
@pytest.mark.parametrize("spec", SPECS, ids=_SPEC_IDS)
def test_clock_fields_are_python_floats(spec, fastpath):
    """The engine keeps its clocks in Python floats in both lanes, so
    every float field of the result is a plain ``float``."""
    r = SimulationEngine(
        spec, _random_run(spec.total_processors, 0), fastpath=fastpath
    ).execute()
    for value in (
        r.total_cycles,
        r.e_instr_cycles,
        r.e_instr_seconds,
        r.barrier_wait_cycles,
        r.fault_cycles,
        *r.per_process_cycles,
        *r.utilizations.values(),
    ):
        assert type(value) is float
