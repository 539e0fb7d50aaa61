"""Prepare once, score many: the fast path is the evaluation, bit for bit.

``evaluate_hetero`` is ``prepare_hetero`` (fold the tree, price each
machine) followed by ``PreparedPlatform.costs`` (the share-dependent
barrier coupling).  The memory-aware descent scores its moves on one
prepared platform instead of re-evaluating from scratch, so two
properties carry the whole optimisation:

* a prepared score equals ``evaluate_hetero(...).e_instr_cycles``
  bitwise, for any mixed platform, share and model kwargs;
* ``memory_aware`` returns exactly the weights of the same descent
  scored through ``evaluate_hetero`` (the reference below).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.locality import StackDistanceModel
from repro.scheduling import (
    HeteroPlatform,
    WorkShare,
    barrier_free_cycles,
    evaluate_hetero,
    memory_aware,
    prepare_hetero,
    round_robin,
    speed_proportional,
)
from repro.scheduling.mix import MachineVariant
from repro.sim.latencies import NetworkKind
from repro.topology.canned import interconnect_for
from repro.topology.ir import ClusterNode



@st.composite
def variants(draw):
    # 2 MB memories page to disk: together with wide SMPs on a slow bus
    # they make some draws saturate (c~ = inf).
    memory_mb = draw(st.sampled_from([2, 8, 32, 64]))
    return MachineVariant(
        processors=draw(st.integers(min_value=1, max_value=4)),
        cache_kb=draw(st.sampled_from([64, 256, 512])),
        memory_mb=memory_mb,
        speed=draw(st.sampled_from([0.5, 1.0, 1.5, 2.0])),
        # Above every (peer-)cache aggregate, below every memory it joins.
        l2_kb=draw(st.sampled_from([None, 4096])) if memory_mb > 4 else None,
    )


@st.composite
def mixed_platforms(draw):
    first = draw(variants())
    second = draw(variants().filter(lambda v: v.node() != first.node()))
    count_first = draw(st.integers(min_value=1, max_value=3))
    count_second = draw(st.integers(min_value=1, max_value=3))
    network = draw(st.sampled_from(list(NetworkKind)))
    tree = ClusterNode(
        children=(first.node(),) * count_first + (second.node(),) * count_second,
        interconnect=interconnect_for(network),
    )
    return HeteroPlatform("mix", tree)


#: Around the paper's Table 2 fits (alpha 1.14-1.73, beta 85-1223).  In
#: open mode alpha below ~1.6 saturates nearly every random mix, so
#: lighter tails keep both feasible and saturating draws common.
workloads = st.builds(
    StackDistanceModel,
    alpha=st.floats(min_value=1.6, max_value=3.0),
    beta=st.floats(min_value=10.0, max_value=500.0),
)
gammas = st.floats(min_value=0.05, max_value=0.8)
model_kwargs = st.fixed_dictionaries(
    {
        "remote_rate_adjustment": st.sampled_from([0.0, 0.124, 0.3]),
        "include_peer_cache": st.booleans(),
        "remote_cached_fraction": st.sampled_from([0.0, 0.25]),
        "cache_capacity_factor": st.sampled_from([0.5, 1.0]),
        "sharing_fraction": st.sampled_from([0.0, 0.01]),
        "sharing_fresh_fraction": st.sampled_from([0.5, 1.0]),
        "contention_boost": st.sampled_from([1.0, 1.5]),
    }
)
weight = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)

_REFINE_STEP = 2.0
_REFINE_STOP = 1.002


def reference_memory_aware(platform, locality, gamma, **kwargs):
    """The descent scored through ``evaluate_hetero``, one full model
    evaluation per start and move."""

    def normalized(weights):
        top = max(weights)
        return WorkShare(tuple(w / top for w in weights), policy="memory-aware")

    tilde = barrier_free_cycles(platform, locality, gamma, **kwargs)
    if not all(math.isfinite(c) for c in tilde):
        return WorkShare(speed_proportional(platform).weights, policy="memory-aware")
    if len(set(zip(tilde, platform.speeds))) == 1:
        return WorkShare.even(platform.total_processors, policy="memory-aware")

    def cost(weights):
        share = normalized(weights)
        return evaluate_hetero(platform, locality, gamma, share, **kwargs).e_instr_cycles

    starts = [
        list(round_robin(platform).weights),
        list(speed_proportional(platform).weights),
        [1.0 / c for c in tilde],
    ]
    weights, best = min(((w, cost(w)) for w in starts), key=lambda pair: pair[1])
    groups = {}
    for index, key in enumerate(zip(tilde, platform.speeds)):
        groups.setdefault(key, []).append(index)
    step = _REFINE_STEP
    while step > _REFINE_STOP and math.isfinite(best):
        improved = False
        for members in groups.values():
            for factor in (step, 1.0 / step):
                trial = list(weights)
                for index in members:
                    trial[index] *= factor
                trial_cost = cost(trial)
                if trial_cost < best:
                    weights, best, improved = trial, trial_cost, True
        if not improved:
            step = math.sqrt(step)
    return normalized(weights)


class TestScoreBitIdentity:
    @given(platform=mixed_platforms(), loc=workloads, gamma=gammas,
           kwargs=model_kwargs, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_score_equals_evaluate_hetero(self, platform, loc, gamma, kwargs, data):
        weights = tuple(
            data.draw(st.lists(weight, min_size=platform.total_processors,
                               max_size=platform.total_processors))
        )
        prepared = prepare_hetero(platform, loc, gamma, **kwargs)
        estimate = evaluate_hetero(platform, loc, gamma, WorkShare(weights), **kwargs)
        score = prepared.score(weights)
        assert score == estimate.e_instr_cycles or (
            math.isnan(score) and math.isnan(estimate.e_instr_cycles)
        )
        assert math.isinf(score) == prepared.saturated
        assert prepared.tilde == barrier_free_cycles(platform, loc, gamma, **kwargs)

    def test_saturating_platform_scores_infinite_like_evaluate(self):
        """A 4-way SMP pair paging to disk over 10 Mb Ethernet under a
        poor-locality workload saturates: both paths say inf."""
        slow = MachineVariant(4, 4, 1, 1.0).node()
        fast = MachineVariant(4, 4, 1, 2.0).node()
        tree = ClusterNode(children=(slow, fast),
                           interconnect=interconnect_for(NetworkKind.ETHERNET_10))
        platform = HeteroPlatform("saturating", tree)
        loc = StackDistanceModel(alpha=1.3, beta=1e4)
        prepared = prepare_hetero(platform, loc, 0.8)
        assert prepared.saturated
        weights = (1.0,) * 4 + (0.5,) * 4
        estimate = evaluate_hetero(platform, loc, 0.8, WorkShare(weights))
        assert prepared.score(weights) == estimate.e_instr_cycles == math.inf
        assert memory_aware(platform, loc, 0.8).weights == speed_proportional(
            platform
        ).weights


class TestDescentMatchesReference:
    @given(platform=mixed_platforms(), loc=workloads, gamma=gammas,
           kwargs=model_kwargs)
    @settings(max_examples=100, deadline=None)
    def test_memory_aware_weights_equal_reference(self, platform, loc, gamma, kwargs):
        got = memory_aware(platform, loc, gamma, **kwargs)
        want = reference_memory_aware(platform, loc, gamma, **kwargs)
        assert got.weights == want.weights
        assert got.policy == want.policy == "memory-aware"


class TestPrepareMemo:
    def test_bounded_and_reused_across_policy_and_evaluation(self):
        from repro.scheduling.evaluate import _PREPARED_MEMO_SIZE
        from repro.workloads.params import PAPER_LU

        assert prepare_hetero.cache_info().maxsize == _PREPARED_MEMO_SIZE
        slow = MachineVariant(1, 512, 32, 1.0).node()
        fast = MachineVariant(1, 64, 32, 2.0).node()
        tree = ClusterNode(children=(slow, fast, fast),
                           interconnect=interconnect_for(NetworkKind.ETHERNET_10))
        platform = HeteroPlatform("memo", tree)
        prepare_hetero.cache_clear()
        share = memory_aware(platform, PAPER_LU.locality, PAPER_LU.gamma)
        evaluate_hetero(platform, PAPER_LU.locality, PAPER_LU.gamma, share)
        info = prepare_hetero.cache_info()
        assert (info.misses, info.hits) == (1, 1)
