"""Golden simulator outputs: every scaled paper configuration, every app.

``sim_golden.json`` pins what the simulator produced for the 15 scaled
paper configurations (C1..C15 at 1/64) x the four paper applications at
small problem sizes: total and per-process cycles, barrier waiting and
every statistics counter, bit for bit.  A few cells also pin their
exact cycle profile and interval timeline, and one cell runs under a
fault plan.  Both execution lanes (``fastpath=True`` and ``False``) must
reproduce the same values.

The file was captured before the per-reference hit shortcut, the cache
residency index, the Python-float clock and the batch back-off went in;
those changes must not move a single bit.  It is also the reference the
legacy per-kind back-ends can be retired against.  Never regenerate it
to make a failure pass: a mismatch means the simulator's results moved.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.apps.registry import make_application
from repro.experiments.configs import ALL_CONFIGS, scaled
from repro.faults.plan import plan_from_specs
from repro.sim.engine import SimulationEngine

GOLDEN_PATH = Path(__file__).with_name("sim_golden.json")

#: Problem sizes that fit every configuration's process count (2, 4, 8).
APPS: dict[str, dict] = {
    "FFT": {"points": 256},
    "LU": {"order": 32, "block": 8},
    "Radix": {"num_keys": 512},
    "EDGE": {"height": 16, "width": 16, "iterations": 2},
}

#: Cells that also pin their cycle profile and interval timeline, with
#: the timeline's window (about 35 windows per run).
OBSERVED = {
    ("C5", "FFT"): 1000.0,
    ("C10", "Radix"): 200_000.0,
    ("C14", "LU"): 10_000.0,
    ("C7", "EDGE"): 1_500_000.0,
}

#: The fault-plan cell: every engine-side fault kind plus a network spike.
FAULT_CELL = ("C13", "Radix")
FAULT_SPECS = (
    "delay:proc=0,at=2000,cycles=5000",
    "stall:proc=1,at=4000,cycles=3000",
    "slow:proc=2,start=1000,end=20000,factor=2.5",
    "netspike:start=3000,end=9000,extra=40",
)

CONFIGS = sorted(ALL_CONFIGS, key=lambda name: int(name[1:]))


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _run(config: str, app: str):
    spec = scaled(ALL_CONFIGS[config])
    return spec, make_application(
        app, num_procs=spec.total_processors, seed=0, **APPS[app]
    ).run()


def cell_record(config: str, app: str, run_cache: dict, fastpath: bool) -> dict:
    """The pinned view of one cell's :class:`SimulationResult`."""
    key = (config, app)
    if key not in run_cache:
        run_cache[key] = _run(config, app)
    spec, run = run_cache[key]
    observed = key in OBSERVED
    faulted = key == FAULT_CELL
    result = SimulationEngine(
        spec,
        run,
        fastpath=fastpath,
        profile=observed,
        sample_every=OBSERVED.get(key),
        fault_plan=plan_from_specs(FAULT_SPECS) if faulted else None,
    ).execute()
    rec = {
        "total_cycles": result.total_cycles,
        "per_process_cycles": result.per_process_cycles,
        "barrier_wait_cycles": result.barrier_wait_cycles,
        "stats": result.stats.as_dict(),
    }
    if observed:
        rec["profile"] = result.profile.to_obj()
        rec["timeline"] = result.timeline.to_obj()
    if faulted:
        rec["fault_cycles"] = result.fault_cycles
        rec["fault_events"] = result.fault_events
    # Through JSON, exactly as the file stores it: floats round-trip
    # bit-exactly via repr, tuples become lists.
    return json.loads(json.dumps(_plain(rec)))


GOLDEN = json.loads(GOLDEN_PATH.read_text())
_RUNS: dict = {}


def test_golden_covers_every_cell():
    assert sorted(GOLDEN) == sorted(f"{c}/{a}" for c in CONFIGS for a in APPS)
    for c, a in OBSERVED:
        assert {"profile", "timeline"} <= set(GOLDEN[f"{c}/{a}"])
    assert GOLDEN["/".join(FAULT_CELL)]["fault_events"] > 0


@pytest.mark.parametrize("fastpath", [True, False], ids=["fastpath", "scalar"])
@pytest.mark.parametrize("config", CONFIGS)
def test_cell_matches_golden(config, fastpath):
    for app in APPS:
        got = cell_record(config, app, _RUNS, fastpath)
        assert got == GOLDEN[f"{config}/{app}"], f"{config}/{app} moved"
