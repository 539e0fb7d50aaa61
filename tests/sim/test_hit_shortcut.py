"""The per-reference hit shortcut and the cache residency index.

``ComposedBackend.access`` settles pure-local hits itself -- read hits
in the issuing L1, and write hits that pass the shape's batch-path rule
-- and sends everything else down the full per-shape path.  These
properties drive one back-end through ``access`` and a twin through the
full path only (``_access_impl``), one reference at a time, on random
traces heavy in sharing and writes, and require the two to stay equal
after every step: completion time, statistics, every cache's tags,
LRU stamps and dirty bits, and the directory's holders and owners.

The second group checks that a cache's ``index`` (line -> flat slot)
always equals the mapping its tag array implies, whatever sequence of
fills, lookups, invalidations, clears and batch touches produced it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.platform import PlatformSpec
from repro.sim.backends.composed import ComposedBackend
from repro.sim.cache import SetAssociativeCache
from repro.sim.latencies import NetworkKind
from repro.topology.canned import deepen_spec

KB = 1024

#: Tiny caches (8 lines) over a 48-line pool: hits, conflict evictions,
#: peer copies and directory ownership changes all happen constantly.
SPECS = [
    PlatformSpec(name="hs-smp", n=4, N=1, cache_bytes=512, memory_bytes=64 * KB),
    PlatformSpec(
        name="hs-smp-l2", n=4, N=1, cache_bytes=512, memory_bytes=64 * KB,
        l2_bytes=2 * KB,
    ),
    PlatformSpec(
        name="hs-cow", n=1, N=4, cache_bytes=512, memory_bytes=64 * KB,
        network=NetworkKind.ATM_155,
    ),
    PlatformSpec(
        name="hs-cow-l2", n=1, N=4, cache_bytes=512, memory_bytes=64 * KB,
        network=NetworkKind.ETHERNET_100, l2_bytes=2 * KB,
    ),
    PlatformSpec(
        name="hs-clump", n=2, N=2, cache_bytes=512, memory_bytes=64 * KB,
        network=NetworkKind.ETHERNET_100,
    ),
    deepen_spec(
        PlatformSpec(
            name="hs-flat8", n=2, N=4, cache_bytes=512, memory_bytes=64 * KB,
            network=NetworkKind.ETHERNET_100,
        ),
        rack_size=2,
    ),
]

LINES = 48
#: Half the references go to a few hot lines every process shares.
HOT = 8

steps = st.lists(
    st.tuples(
        st.integers(0, 63),  # process (taken modulo the platform's P)
        st.one_of(st.integers(0, HOT - 1), st.integers(0, LINES - 1)),
        st.booleans(),
        st.integers(0, 3),  # compute cycles before the reference
    ),
    min_size=10,
    max_size=250,
)


def _seeded_trace(seed: int, n: int = 300):
    rng = np.random.default_rng(seed)
    lines = np.where(
        rng.random(n) < 0.5, rng.integers(0, HOT, n), rng.integers(0, LINES, n)
    )
    return list(
        zip(
            rng.integers(0, 64, n).tolist(),
            lines.tolist(),
            (rng.random(n) < 0.5).tolist(),
            rng.integers(0, 4, n).tolist(),
        )
    )


def _backend(spec: PlatformSpec) -> ComposedBackend:
    # Blocks homed round-robin over the machines, so every machine is
    # home to some of the pool and remote to the rest.
    home = (np.arange(LINES) // 4 % spec.N).astype(np.int64)
    return ComposedBackend(spec, home)


def _caches(backend: ComposedBackend) -> list[SetAssociativeCache]:
    out = list(backend._l1)
    if getattr(backend, "l2", None) is not None:
        out.append(backend.l2)
    out.extend(getattr(backend, "l2s", None) or ())
    return out


def _state(backend: ComposedBackend):
    caches = [
        (c._tags.tolist(), c._stamps.tolist(), c._dirty.tolist(), c._tick)
        for c in _caches(backend)
    ]
    directory = None
    if backend.fabric is not None:
        d = backend.protocol.directory
        directory = (
            {b: sorted(h) for b, h in d._holders.items()},
            dict(d._owner),
        )
    return (
        backend.stats.as_dict(),
        caches,
        directory,
        backend.resource_busy_cycles(),
        backend.resource_requests(),
    )


def _drive(spec: PlatformSpec, trace) -> int:
    """Step ``access`` and the full path in lockstep; return how many
    references the shortcut settled."""
    fast, full = _backend(spec), _backend(spec)
    slow_calls = []
    impl = fast._access_impl
    fast._access_impl = lambda *a: slow_calls.append(a) or impl(*a)
    P = spec.total_processors
    clock = [0.0] * P
    for raw_proc, line, is_write, work in trace:
        p = raw_proc % P
        now = clock[p] + work + 1.0
        t_fast = fast.access(p, line, is_write, now)
        t_full = full._access_impl(p, line, is_write, now)
        assert t_fast == t_full
        assert type(t_fast) is float
        assert _state(fast) == _state(full)
        clock[p] = t_fast
    return len(trace) - len(slow_calls)


@pytest.mark.parametrize("spec", SPECS, ids=[s.name for s in SPECS])
@settings(max_examples=60, deadline=None)
@given(trace=steps)
def test_shortcut_matches_full_path(spec, trace):
    _drive(spec, trace)


@pytest.mark.parametrize("spec", SPECS, ids=[s.name for s in SPECS])
@pytest.mark.parametrize("seed", range(6))
def test_shortcut_matches_full_path_seeded(spec, seed):
    """Long fixed traces, so every spec sees many upgrades, peer
    copies and ownership changes on every run."""
    _drive(spec, _seeded_trace(seed))


@pytest.mark.parametrize("spec", SPECS, ids=[s.name for s in SPECS])
def test_shortcut_engages(spec):
    """Guard against a shortcut that silently never fires: on a
    write-heavy trace with locality, both read and write hits are
    settled without the full path (writes only where no L2 exists)."""
    rng = np.random.default_rng(7)
    P = spec.total_processors
    trace = [
        (p, p * 6 + int(rng.integers(0, 6)), bool(rng.random() < 0.4), 1)
        for _ in range(150)
        for p in range(P)
    ]
    settled = _drive(spec, trace)
    assert settled > len(trace) // 3

    fast = _backend(spec)
    fast.access(0, 5, True, 1.0)  # miss: the line arrives dirty and owned
    called = []
    impl = fast._access_impl
    fast._access_impl = lambda *a: called.append(a) or impl(*a)
    fast.access(0, 5, True, 10.0)
    has_l2 = fast.l2 is not None if fast.fabric is None else fast.l2s is not None
    assert bool(called) == has_l2


# ----------------------------------------------------------------------
# residency index
# ----------------------------------------------------------------------
def _index_from_tags(cache: SetAssociativeCache) -> dict[int, int]:
    return {
        tag: pos for pos, tag in enumerate(cache._flat_tags.tolist()) if tag >= 0
    }


#: Twice as many lines as the largest cache holds: fills evict often.
lines = st.integers(0, 15)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("fill"), lines, st.booleans()),
        st.tuples(st.just("lookup"), lines, st.booleans()),
        st.tuples(st.just("invalidate"), lines, st.just(False)),
        st.tuples(st.just("touch"), lines, st.booleans()),
        st.tuples(st.just("clear"), st.just(0), st.just(False)),
    ),
    min_size=5,
    max_size=200,
)


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(1, 8),
    ways=st.integers(1, 4),
    sequence=ops,
)
def test_index_matches_tags(capacity, ways, sequence):
    cache = SetAssociativeCache(capacity, ways=ways)
    for op, line, flag in sequence:
        if op == "fill":
            cache.fill(line, dirty=flag)
        elif op == "lookup":
            cache.lookup(line, touch=flag)
        elif op == "invalidate":
            cache.invalidate(line)
        elif op == "touch":
            # a batch touch over the lines resident in line's set
            lines = np.array([line, line + cache.num_sets], dtype=np.int64)
            resident, slots = cache.residency(lines)
            cache.touch_positions(slots[resident], dirty=np.full(int(resident.sum()), flag))
        else:
            cache.clear()
        assert cache.index == _index_from_tags(cache)
        assert cache.resident_lines == len(cache.index)
        for ln, pos in cache.index.items():
            assert cache._slot(ln) == pos
            assert cache.contains(ln)
