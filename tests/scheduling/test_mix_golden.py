"""Golden machine-mix rankings and candidate sequences.

``mix_golden.json`` was captured from the code before the mix search
was made fast (prepare/score split, order-statistic memo, enumeration
pruning).  Those changes must not move a single ranking, price or
E(Instr) bit.  Never regenerate the fixture to make a failure pass: a
mismatch means the optimisation changed results.
"""

import hashlib
import json
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest

from repro.cost.catalog import DEFAULT_CATALOG
from repro.cost.configspace import CandidateSpace
from repro.cost.model import hetero_cluster_cost
from repro.scheduling import design_mix, enumerate_mixed_configurations
from repro.scheduling.mix import variants_from_space
from repro.sim.latencies import NetworkKind
from repro.topology.canned import interconnect_for
from repro.topology.ir import ClusterNode
from repro.workloads.params import (
    PAPER_EDGE,
    PAPER_FFT,
    PAPER_LU,
    PAPER_RADIX,
    PAPER_TPCC,
)

GOLDEN = json.loads((Path(__file__).parent / "mix_golden.json").read_text())
WORKLOADS = {w.name: w for w in (PAPER_FFT, PAPER_LU, PAPER_RADIX, PAPER_EDGE, PAPER_TPCC)}


def _rows(candidates):
    return [[c.name, c.cost] for c in candidates]


@pytest.mark.parametrize("key", sorted(GOLDEN["design_mix_top5"]))
def test_design_mix_top5_unchanged(key):
    name, budget = key.split("/")
    workload = WORKLOADS[name]
    top = design_mix(
        workload.locality, workload.gamma, float(budget),
        top=5, remote_rate_adjustment=0.124,
    )
    got = [[m.name, m.cost, repr(m.e_instr_seconds)] for m in top]
    assert got == GOLDEN["design_mix_top5"][key]


def test_enumeration_at_4000_unchanged():
    assert _rows(enumerate_mixed_configurations(4000)) == GOLDEN["enumerate_4000"]


def test_enumeration_at_12000_unchanged():
    rows = _rows(enumerate_mixed_configurations(12000))
    pinned = GOLDEN["enumerate_12000"]
    assert len(rows) == pinned["count"]
    assert rows[:3] == pinned["first"] and rows[-3:] == pinned["last"]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == pinned["sha256"]


def test_price_rises_strictly_with_machine_count():
    """The pruning premise: on the default market one more machine of
    either variant always costs more, on every network."""
    space = CandidateSpace()
    variants = variants_from_space(space)
    for first, second in combinations(variants, 2):
        for network in space.networks:
            def price(a, b):
                return hetero_cluster_cost(
                    DEFAULT_CATALOG,
                    ClusterNode(
                        children=(first.node(),) * a + (second.node(),) * b,
                        interconnect=interconnect_for(network),
                    ),
                )

            top = space.mix_max_machines
            for a in range(1, top):
                for b in range(1, top - a):
                    assert price(a, b + 1) > price(a, b)
                    assert price(a + 1, b) > price(a, b)


def _reference_enumeration(budget, catalog, space):
    """Every count pair priced, nothing pruned: the unoptimised loop."""
    for first, second in combinations(variants_from_space(space), 2):
        for count_first in range(1, space.mix_max_machines):
            for count_second in range(1, space.mix_max_machines + 1 - count_first):
                for network in space.networks:
                    full = ClusterNode(
                        children=(first.node(),) * count_first
                        + (second.node(),) * count_second,
                        interconnect=interconnect_for(network),
                    )
                    if full.is_homogeneous:
                        continue
                    price = hetero_cluster_cost(catalog, full)
                    if price <= budget:
                        yield [
                            f"{count_first}x[{first.label}] + "
                            f"{count_second}x[{second.label}], {network.value}",
                            price,
                        ]


@pytest.mark.parametrize("premium", [DEFAULT_CATALOG.speed_premium_per_unit, 4000.0])
@pytest.mark.parametrize("budget", [3000.0, 6000.0, 9000.0])
def test_pruned_enumeration_matches_unpruned(premium, budget):
    """Also on a market where a half-speed machine has a negative price
    (a 4000 premium per unit of speed), so adding one makes a mix
    cheaper: there pruning must switch itself off."""
    catalog = replace(DEFAULT_CATALOG, speed_premium_per_unit=premium)
    space = CandidateSpace(
        processor_counts=(1,),
        cache_kb_options=(256, 512),
        memory_mb_options=(32,),
        networks=(NetworkKind.ETHERNET_10, NetworkKind.ATM_155),
        machine_speeds=(0.5, 1.0, 2.0),
        mix_max_machines=5,
    )
    got = _rows(enumerate_mixed_configurations(budget, catalog, space))
    assert got == list(_reference_enumeration(budget, catalog, space))
