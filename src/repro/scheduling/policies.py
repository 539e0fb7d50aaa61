"""Placement policies: platform (+ workload) -> :class:`WorkShare`.

Three policies, in increasing order of model awareness:

* ``round-robin`` -- the paper's even split; ignores heterogeneity.
* ``speed`` -- weights proportional to relative CPU speed; right when
  the workload never leaves the cache, wrong as soon as memory behavior
  differs across machines (a fast CPU behind a small cache stalls).
* ``memory-aware`` -- weights equalize each process's *weighted* cost
  ``w[p] * c[p]`` through the analytical model (Silva et al.,
  arXiv:1302.5679 argue for exactly this kind of hierarchy-aware
  placement).  Because the share-independent part ``c~[p]`` dominates,
  a couple of fixed-point sweeps over the barrier coupling converge to
  machine precision.

All policies normalize weights by their maximum, so on a homogeneous
platform every policy returns exactly ``(1.0, ..., 1.0)`` -- the even
share -- keeping the homogeneous reduction bit-identical.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

from repro.core.locality import StackDistanceModel
from repro.scheduling.evaluate import HeteroEstimate, evaluate_hetero, prepare_hetero
from repro.scheduling.platform import HeteroPlatform
from repro.scheduling.shares import WorkShare

__all__ = [
    "POLICIES",
    "round_robin",
    "speed_proportional",
    "memory_aware",
    "resolve_policy",
    "compare_policies",
]

_REFINE_STEP = 2.0  #: initial multiplicative step of the share descent
_REFINE_STOP = 1.002  #: stop once the step shrinks below this factor


def _normalized(weights: list[float], policy: str) -> WorkShare:
    top = max(weights)
    return WorkShare(tuple(w / top for w in weights), policy=policy)


def round_robin(
    platform: HeteroPlatform,
    locality: StackDistanceModel | None = None,
    gamma: float | None = None,
    **model_kwargs,
) -> WorkShare:
    """The paper's even split: every process gets the same slice."""
    return WorkShare.even(platform.total_processors, policy="round-robin")


def speed_proportional(
    platform: HeteroPlatform,
    locality: StackDistanceModel | None = None,
    gamma: float | None = None,
    **model_kwargs,
) -> WorkShare:
    """Weights proportional to relative CPU speed, blind to memory."""
    return _normalized(list(platform.speeds), "speed")


def memory_aware(
    platform: HeteroPlatform,
    locality: StackDistanceModel,
    gamma: float,
    **model_kwargs,
) -> WorkShare:
    """Minimize modeled E(Instr) over work shares, hierarchy-aware.

    Candidate starts are the even split, the speed split and the
    equal-arrival split ``w[p] = 1/c~[p]`` (every process reaches the
    barrier at the same expected time); the best is refined by a
    monotone multiplicative descent, one weight per *group* of
    identical processes.  The platform is folded once
    (:func:`~repro.scheduling.evaluate.prepare_hetero`) and every start
    and move is scored on it, bit-identically to :func:`evaluate_hetero`
    on the normalized share.  The even and speed splits are among the
    starts, so memory-aware never loses to round-robin or
    speed-proportional on any input -- by construction, not by luck.
    When the model saturates (infinite ``c~``) relative memory costs
    carry no signal and the speed split is returned as-is.
    """
    prepared = prepare_hetero(platform, locality, gamma, **model_kwargs)
    tilde = prepared.tilde
    if prepared.saturated:
        return WorkShare(speed_proportional(platform).weights, policy="memory-aware")
    if len(set(zip(tilde, platform.speeds))) == 1:
        # Homogeneous in the model's eyes: the even split is the answer
        # (and keeps the bit-identical homogeneous reduction).
        return WorkShare.even(platform.total_processors, policy="memory-aware")

    def cost(weights: list[float]) -> float:
        # Score the share _normalized() would build, without building it.
        top = max(weights)
        return prepared.score([w / top for w in weights])

    starts = [
        list(round_robin(platform).weights),
        list(speed_proportional(platform).weights),
        [1.0 / c for c in tilde],
    ]
    weights, best = min(((w, cost(w)) for w in starts), key=lambda pair: pair[1])

    # Processes on identical machines are symmetric: one knob per group.
    groups: dict[tuple[float, float], list[int]] = {}
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
    return _normalized(weights, "memory-aware")


POLICIES: Mapping[str, Callable[..., WorkShare]] = {
    "round-robin": round_robin,
    "speed": speed_proportional,
    "memory-aware": memory_aware,
}


def resolve_policy(name: str) -> Callable[..., WorkShare]:
    if name not in POLICIES:
        known = ", ".join(sorted(POLICIES))
        raise ValueError(f"unknown scheduling policy {name!r}; known policies: {known}")
    return POLICIES[name]


def compare_policies(
    platform: HeteroPlatform,
    locality: StackDistanceModel,
    gamma: float,
    policies: tuple[str, ...] | None = None,
    **model_kwargs,
) -> dict[str, HeteroEstimate]:
    """Evaluate each named policy on one platform/workload pair."""
    names = tuple(POLICIES) if policies is None else policies
    out: dict[str, HeteroEstimate] = {}
    for name in names:
        share = resolve_policy(name)(platform, locality, gamma, **model_kwargs)
        out[name] = evaluate_hetero(platform, locality, gamma, share, **model_kwargs)
    return out
