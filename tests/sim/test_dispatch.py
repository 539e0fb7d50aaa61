"""Batch dispatch decides only *how* references are stepped, never what
they do.

``SimulationEngine.MIN_BATCH`` and ``BACKOFF_CAP`` choose when the
vectorized lane offers a batch and how long a process steps scalar after
a batch that did not pay.  Any setting -- back-off off (0), a constant
one-reference back-off (1), an effectively unbounded one -- must give
the same :class:`SimulationResult` as the scalar lane, bit for bit,
including the cycle profile and the interval timeline.
"""

from __future__ import annotations

import json

import pytest

from repro.apps.registry import make_application
from repro.experiments.configs import paper_config, scaled
from repro.sim.engine import SimulationEngine

CELLS = {
    "Radix@C13": ("C13", "Radix", {"num_keys": 1024}, 50_000.0),
    "LU@C8": ("C8", "LU", {"order": 32, "block": 8}, 20_000.0),
}
_RUNS: dict = {}


def _cell(name):
    if name not in _RUNS:
        config, app, kwargs, every = CELLS[name]
        spec = scaled(paper_config(config))
        run = make_application(
            app, num_procs=spec.total_processors, seed=0, **kwargs
        ).run()
        _RUNS[name] = (spec, run, every)
    return _RUNS[name]


def _simulate(name, fastpath):
    spec, run, every = _cell(name)
    engine = SimulationEngine(
        spec, run, fastpath=fastpath, profile=True, sample_every=every
    )
    calls = []
    batch = engine.backend.access_batch
    engine.backend.access_batch = lambda *a: calls.append(a) or batch(*a)
    result = engine.execute()
    record = {
        "total_cycles": result.total_cycles,
        "per_process_cycles": result.per_process_cycles,
        "barrier_wait_cycles": result.barrier_wait_cycles,
        "e_instr_cycles": result.e_instr_cycles,
        "stats": result.stats.as_dict(),
        "profile": result.profile.to_obj(),
        "timeline": result.timeline.to_obj(),
    }
    return json.dumps(record, sort_keys=True), len(calls)


_SCALAR: dict = {}


def _scalar(name):
    if name not in _SCALAR:
        _SCALAR[name] = _simulate(name, fastpath=False)[0]
    return _SCALAR[name]


@pytest.mark.parametrize("cell", sorted(CELLS))
@pytest.mark.parametrize("min_batch", [1, 3, 8, 64])
@pytest.mark.parametrize("cap", [0, 1, 10**9])
def test_dispatch_settings_do_not_move_results(monkeypatch, cell, min_batch, cap):
    monkeypatch.setattr(SimulationEngine, "MIN_BATCH", min_batch)
    monkeypatch.setattr(SimulationEngine, "BACKOFF_CAP", cap)
    got, _ = _simulate(cell, fastpath=True)
    assert got == _scalar(cell)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_backoff_changes_dispatch(monkeypatch, cell):
    """The knob is live: a back-off offers fewer batches than none."""
    monkeypatch.setattr(SimulationEngine, "BACKOFF_CAP", 0)
    _, without = _simulate(cell, fastpath=True)
    monkeypatch.setattr(SimulationEngine, "BACKOFF_CAP", 256)
    _, with_backoff = _simulate(cell, fastpath=True)
    assert 0 < with_backoff < without
