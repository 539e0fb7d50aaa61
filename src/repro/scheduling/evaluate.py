"""Heterogeneous E(Instr): the paper's Eq. 4 with unequal processes.

The homogeneous model folds the whole cluster into one memory
hierarchy, prices an instruction at ``1 + gamma * T`` cycles and
divides by ``n * N``.  Here each *machine* keeps its own hierarchy
(:func:`repro.topology.build.leaf_hierarchies`) and each *process* gets
its own cost:

* ``T_nb[p]`` -- the barrier-free AMAT of p's machine (``barrier_scale=0``),
* ``c~[p] = 1/speed[p] + gamma * T_nb[p]`` -- p's cycles per
  instruction between barriers (the 1/S term of Eq. 4 with S = speed),
* barrier arrival rates ``lambda[p] = 1 / (phi[p] * c~[p])`` where
  ``phi[p]`` is p's work fraction -- a process arrives late in
  proportion to how much work it got and how slowly it runs it,
* per-process barrier terms from the generalized order statistic
  :func:`repro.core.contention.generalized_barrier_terms` (which
  reduces to the paper's ``H_P - 1`` when all rates are equal),
* ``E(Instr) = max_p(w[p] * c[p]) / sum(w)`` -- the straggler's wall
  time per total instruction.

On a homogeneous tree with even shares every expression collapses
bit-for-bit to :func:`repro.core.execution.evaluate` with
``mode="open"``: the reduction is property-tested, not approximate
(see docs/SCHEDULING.md for the expression-shape bookkeeping).

The evaluation runs in two steps.  :func:`prepare_hetero` computes the
share-independent ``T_nb`` and ``c~`` once per (platform, workload,
model kwargs); :meth:`PreparedPlatform.score` then prices one work
share.  :func:`evaluate_hetero` is both steps plus the per-process
breakdown, so a search that scores many shares on one platform (the
memory-aware policy) folds the tree once and gets the same bits.

Only ``mode="open"`` is supported: the throttled fixed point folds the
barrier term inside its bisection, so per-process barrier terms cannot
be grafted on afterwards without changing the homogeneous answer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Literal

from repro.core.amat import average_memory_access_time
from repro.core.contention import generalized_barrier_terms
from repro.core.locality import StackDistanceModel
from repro.scheduling.platform import HeteroPlatform
from repro.scheduling.shares import WorkShare

__all__ = [
    "ProcessEstimate",
    "HeteroEstimate",
    "PreparedPlatform",
    "prepare_hetero",
    "barrier_free_cycles",
    "evaluate_hetero",
]


@dataclass(frozen=True)
class ProcessEstimate:
    """One process's cost under a given work share."""

    process: int
    machine: int  #: leaf index of the hosting machine
    speed: float
    weight: float
    fraction: float  #: normalized work share
    amat_cycles: float  #: T including this process's barrier wait
    barrier_term: float  #: expected barrier wait, in memory-reference units
    cycles_per_instruction: float  #: 1/speed + gamma * amat_cycles

    def as_dict(self) -> dict:
        return {
            "process": self.process,
            "machine": self.machine,
            "speed": self.speed,
            "weight": self.weight,
            "fraction": self.fraction,
            "amat_cycles": self.amat_cycles,
            "barrier_term": self.barrier_term,
            "cycles_per_instruction": self.cycles_per_instruction,
        }


@dataclass(frozen=True)
class HeteroEstimate:
    """Model output for one (platform, workload, share) triple."""

    platform_name: str
    policy: str
    e_instr_cycles: float
    e_instr_seconds: float
    total_processors: int
    cpu_hz: float
    gamma: float
    processes: tuple[ProcessEstimate, ...]

    @property
    def feasible(self) -> bool:
        """False when some machine's modeled queue saturates."""
        return math.isfinite(self.e_instr_seconds)

    @property
    def bottleneck(self) -> ProcessEstimate:
        """The straggler: the process whose weighted cost sets E(Instr)."""
        return max(self.processes, key=lambda p: p.weight * p.cycles_per_instruction)

    def speedup_over(self, other: "HeteroEstimate") -> float:
        return other.e_instr_seconds / self.e_instr_seconds

    def as_dict(self) -> dict:
        return {
            "platform": self.platform_name,
            "policy": self.policy,
            "e_instr_cycles": self.e_instr_cycles,
            "e_instr_seconds": self.e_instr_seconds,
            "total_processors": self.total_processors,
            "cpu_hz": self.cpu_hz,
            "gamma": self.gamma,
            "feasible": self.feasible,
            "processes": [p.as_dict() for p in self.processes],
        }

    def describe(self) -> str:
        lines = [
            f"{self.platform_name} under {self.policy}: "
            f"E(Instr) = {self.e_instr_seconds:.3e} s/instruction "
            f"({self.e_instr_cycles:.3f} cycles over {self.total_processors} processes)"
        ]
        for p in self.processes:
            lines.append(
                f"  p{p.process} on machine {p.machine} (speed {p.speed:g}): "
                f"share {p.fraction:.3f}, c = {p.cycles_per_instruction:.3f} cycles/instr, "
                f"barrier {p.barrier_term:.3f}"
            )
        if self.feasible:
            b = self.bottleneck
            lines.append(f"  bottleneck: p{b.process} on machine {b.machine}")
        else:
            lines.append("  infeasible: a modeled queue saturates at this load")
        return "\n".join(lines)


@dataclass(frozen=True)
class PreparedPlatform:
    """The share-independent half of :func:`evaluate_hetero`.

    Per-process barrier-free AMAT ``T_nb``, speed, hosting machine and
    ``c~ = 1/speed + gamma * T_nb`` for one (platform, workload, model
    kwargs) triple, folded once by :func:`prepare_hetero`.  Scoring a
    work share (:meth:`score`, :meth:`costs`) then touches only the
    barrier coupling, which is what makes a share search cheap.
    """

    gamma: float
    t_nb: tuple[float, ...]
    speeds: tuple[float, ...]
    machine_of: tuple[int, ...]
    tilde: tuple[float, ...]
    saturated: bool  #: some machine's modeled queue saturates (``c~ = inf``)

    def costs(self, weights) -> tuple[float, float, list, list, list]:
        """``(E(Instr) cycles, total weight, barrier, T, c)`` for ``weights``.

        ``weights`` are per-process, in rank order.  The expressions keep
        ``evaluate()``'s shapes so the homogeneous reduction is bitwise.
        """
        gamma = self.gamma
        total_weight = math.fsum(weights)
        if self.saturated:
            return math.inf, total_weight, [0.0] * len(weights), list(self.t_nb), list(self.tilde)
        # Arrival rate of p at the barrier, per unit of total work: the
        # exponential-phase model behind the paper's H_P order statistic,
        # with the mean interval stretched by p's share and slowness.
        rates = [1.0 / ((w / total_weight) * c) for w, c in zip(weights, self.tilde)]
        groups: dict[float, int] = {}
        for rate in rates:
            groups[rate] = groups.get(rate, 0) + 1
        terms = generalized_barrier_terms(tuple(groups), tuple(groups.values()))
        term_of = dict(zip(groups, terms))
        barrier = [term_of[rate] for rate in rates]
        # T_nb + b/gamma matches (base + sum) + barrier_scale*term/gamma
        # because b == 1.0*term.
        amat_total = [t + b / gamma for t, b in zip(self.t_nb, barrier)]
        cycles_pp = [1.0 / s + gamma * t for s, t in zip(self.speeds, amat_total)]
        e_cycles = max(w * c for w, c in zip(weights, cycles_pp)) / total_weight
        return e_cycles, total_weight, barrier, amat_total, cycles_pp

    def score(self, weights) -> float:
        """Modeled E(Instr) in cycles -- ``evaluate_hetero``'s, bit for bit."""
        return self.costs(weights)[0]


#: Prepared platforms kept by :func:`prepare_hetero`'s memo: enough for a
#: policy comparison on a few platforms, small enough to bound memory.
_PREPARED_MEMO_SIZE = 16


@functools.lru_cache(maxsize=_PREPARED_MEMO_SIZE)
def prepare_hetero(
    platform: HeteroPlatform,
    locality: StackDistanceModel,
    gamma: float,
    *,
    remote_rate_adjustment: float = 0.0,
    include_peer_cache: bool = False,
    remote_cached_fraction: float = 0.0,
    cache_capacity_factor: float = 1.0,
    on_saturation: Literal["raise", "inf"] = "inf",
    sharing_fraction: float = 0.0,
    sharing_fresh_fraction: float = 1.0,
    contention_boost: float = 1.0,
) -> PreparedPlatform:
    """Fold the tree and price every machine once (no work share yet).

    Memoized on its (hashable, frozen) arguments in a small LRU, so a
    placement search and the evaluation of the share it returns fold
    the same platform once.
    """
    # Barrier-free AMAT per machine, memoized over identical hierarchies.
    amats: dict = {}
    t_nb: list[float] = []
    speeds: list[float] = []
    machine_of: list[int] = []
    hierarchies = platform.hierarchies(
        include_peer_cache=include_peer_cache,
        remote_cached_fraction=remote_cached_fraction,
        cache_capacity_factor=cache_capacity_factor,
    )
    for index, (leaf, hierarchy) in enumerate(zip(platform.machines, hierarchies)):
        if hierarchy not in amats:
            amats[hierarchy] = average_memory_access_time(
                hierarchy,
                locality,
                gamma,
                remote_rate_adjustment=remote_rate_adjustment,
                barrier_scale=0.0,
                on_saturation=on_saturation,
                mode="open",
                sharing_fraction=sharing_fraction,
                sharing_fresh_fraction=sharing_fresh_fraction,
                contention_boost=contention_boost,
            )
        t_nb.extend([amats[hierarchy].total_cycles] * leaf.processors)
        speeds.extend([leaf.speed] * leaf.processors)
        machine_of.extend([index] * leaf.processors)
    tilde = tuple(1.0 / s + gamma * t for s, t in zip(speeds, t_nb))
    return PreparedPlatform(
        gamma=gamma,
        t_nb=tuple(t_nb),
        speeds=tuple(speeds),
        machine_of=tuple(machine_of),
        tilde=tilde,
        saturated=not all(math.isfinite(c) for c in tilde),
    )


def barrier_free_cycles(
    platform: HeteroPlatform,
    locality: StackDistanceModel,
    gamma: float,
    **model_kwargs,
) -> tuple[float, ...]:
    """Per-process ``c~[p] = 1/speed + gamma * T_nb``, in rank order.

    This is the share-independent part of a process's cost -- the
    quantity the memory-aware policy equalizes (a process's M/D/1 level
    rates depend on how fast it *issues* references, not on how many
    instructions it was handed, so shares never feed back into ``c~``).
    ``model_kwargs`` are :func:`prepare_hetero`'s.
    """
    return prepare_hetero(platform, locality, gamma, **model_kwargs).tilde


def evaluate_hetero(
    platform: HeteroPlatform,
    locality: StackDistanceModel,
    gamma: float,
    share: WorkShare | None = None,
    *,
    mode: Literal["open"] = "open",
    **model_kwargs,
) -> HeteroEstimate:
    """Predict E(Instr) for a work share on a (possibly mixed) platform.

    With ``share=None`` the paper's even split is used; on a
    homogeneous tree that path is bit-identical to
    ``evaluate(spec, ..., mode="open")``.  ``model_kwargs`` are
    :func:`prepare_hetero`'s.
    """
    if mode != "open":
        raise ValueError(
            f"heterogeneous evaluation supports mode='open' only, got {mode!r}: the "
            "throttled/mva fixed points fold the barrier inside their iteration, which "
            "cannot be split per process without changing the homogeneous answer "
            "(docs/SCHEDULING.md)"
        )
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must be in (0, 1], got {gamma!r}")
    num = platform.total_processors
    if share is None:
        share = WorkShare.even(num, policy="even")
    if share.num_processes != num:
        raise ValueError(
            f"work share has {share.num_processes} weights but platform "
            f"{platform.name!r} runs {num} processes"
        )

    prepared = prepare_hetero(platform, locality, gamma, **model_kwargs)
    weights = share.weights
    e_cycles, total_weight, barrier, amat_total, cycles_pp = prepared.costs(weights)
    processes = tuple(
        ProcessEstimate(
            process=p,
            machine=prepared.machine_of[p],
            speed=prepared.speeds[p],
            weight=weights[p],
            fraction=weights[p] / total_weight,
            amat_cycles=amat_total[p],
            barrier_term=barrier[p],
            cycles_per_instruction=cycles_pp[p],
        )
        for p in range(num)
    )
    return HeteroEstimate(
        platform_name=platform.name,
        policy=share.policy,
        e_instr_cycles=e_cycles,
        e_instr_seconds=e_cycles / platform.cpu_hz,
        total_processors=num,
        cpu_hz=platform.cpu_hz,
        gamma=gamma,
        processes=processes,
    )
