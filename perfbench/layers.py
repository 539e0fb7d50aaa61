"""Per-layer tracing from outside the program.

The traced run times calls into each module's public entry points by
wrapping them from the benchmark's own files; the program itself carries
no spans.  :func:`install` replaces every reference a ``repro`` or
``perfbench`` module holds to a wrapped function (``from x import f``
copies included) and returns an :class:`Installation` whose
:meth:`~Installation.restore` puts every original back.

Each wrapped call is a span.  A layer's self time is its spans'
duration minus the part covered by wrapped callees, so the self times
of all layers plus the operations' own unwrapped time add up to the
traced wall time exactly.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

#: Marks wrapper functions so a test can prove none is left behind.
WRAPPED = "__perfbench_wrapped__"

_LANE_CODES = {"serial": 0, "tensor": 1, "pool": 2}


@dataclass
class _Layer:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


class Tracer:
    """Aggregated spans and counters of one traced run."""

    def __init__(self) -> None:
        self.layers: dict[str, _Layer] = defaultdict(_Layer)
        self.counts: dict[str, float] = defaultdict(float)
        self.lane: str | None = None
        self._children: list[float] = []  # callee time per open span
        self._emax_seen: set = set()
        self.op_s = 0.0  #: summed duration of the traced operations
        self.op_self_s = 0.0  #: their time outside every wrapped call

    def call(self, layer: str, fn, args, kwargs):
        self._children.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            child = self._children.pop()
            st = self.layers[layer]
            st.calls += 1
            st.total_s += dt
            st.self_s += dt - child
            if layer == "trace.fit.refit":
                st.durations.append(dt)
            if self._children:
                self._children[-1] += dt

    def operation(self, fn):
        """Run one benchmark operation as the root span."""
        self._emax_seen = set()  # repeats are counted within an operation
        self._children.append(0.0)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            dt = perf_counter() - t0
            self.op_s += dt
            self.op_self_s += dt - self._children.pop()

    # -- per-call hooks: counters measured where the work happens -------
    def on_batch(self, args, result) -> None:
        offered = len(args[2])
        consumed = int(result[0])
        self.counts["batch_offered"] += offered
        self.counts["batch_consumed"] += consumed
        self.counts["batch_empty"] += consumed == 0

    def on_app(self, args, result) -> None:
        self.counts["refs"] += result.total_references

    def on_grid(self, args, result) -> None:
        self.counts["cells"] += len(result)

    def on_compare(self, args, result) -> None:
        runner = args[0]
        self.lane = runner.last_grid_lane
        errors = [abs(r.modeled - r.simulated) / r.simulated for r in result]
        self.counts["grids"] += 1
        self.counts["model_err_pct"] += 100.0 * sum(errors) / len(errors)

    def on_emax(self, args, result) -> None:
        rates = args[0]
        counts = args[1] if len(args) > 1 else None
        key = (
            tuple(float(r) for r in rates),
            None if counts is None else tuple(int(c) for c in counts),
        )
        self.counts["emax_repeats"] += key in self._emax_seen
        self._emax_seen.add(key)

    def on_search(self, args, result) -> None:
        for outcome in result:
            self.counts["evaluations"] += outcome.stats.evaluated
            self.counts["candidates"] += outcome.stats.candidates
            self.counts["pruned"] += outcome.stats.pruned

    def on_ingest(self, args, result) -> None:
        self.counts["records"] += result.records
        self.counts["bytes"] += result.bytes_read

    # ------------------------------------------------------------------
    def metrics(self, untraced_s: float) -> dict[str, float]:
        """Every per-layer metric of :data:`perfbench.spec.PER_LAYER`."""
        L, c = self.layers, self.counts

        def self_s(layer: str) -> float:
            return L[layer].self_s if layer in L else 0.0

        def calls(layer: str) -> int:
            return L[layer].calls if layer in L else 0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        refits = L["trace.fit.refit"].durations if "trace.fit.refit" in L else []
        out = {
            "sim.backends.access_calls": calls("sim.backends.access"),
            "sim.backends.access_s": self_s("sim.backends.access"),
            "sim.backends.batch_calls": calls("sim.backends.batch"),
            "sim.backends.batch_s": self_s("sim.backends.batch"),
            "sim.backends.batch_offered": c["batch_offered"],
            "sim.backends.batch_consumed": c["batch_consumed"],
            "sim.backends.batch_yield": ratio(c["batch_consumed"], c["batch_offered"]),
            "sim.backends.batch_empty_ratio": ratio(
                c["batch_empty"], calls("sim.backends.batch")
            ),
            "sim.engine.execute_s": (
                L["sim.engine"].total_s if "sim.engine" in L else 0.0
            ),
            "sim.engine.self_s": self_s("sim.engine"),
            "sim.stacked.schedules_s": self_s("sim.stacked.schedules"),
            "sim.stacked.self_s": self_s("sim.stacked"),
            "sim.stacked.cells": c["cells"],
            "experiments.runner.self_s": self_s("experiments.runner"),
            "experiments.runner.lane": (
                _LANE_CODES[self.lane] if self.lane is not None else 0
            ),
            "experiments.runner.model_err_pct": ratio(
                c["model_err_pct"], c["grids"]
            ),
            "apps.run_s": self_s("apps"),
            "apps.refs": c["refs"],
            "trace.analysis.characterize_s": self_s("trace.analysis.characterize"),
            "trace.analysis.sharing_s": self_s("trace.analysis.sharing"),
            "core.contention.emax_calls": calls("core.contention.emax"),
            "core.contention.emax_repeat_ratio": ratio(
                c["emax_repeats"], calls("core.contention.emax")
            ),
            "core.contention.emax_s": self_s("core.contention.emax"),
            "topology.build.leaf_calls": calls("topology.build.leaf"),
            "topology.build.leaf_s": self_s("topology.build.leaf"),
            "scheduling.evaluate_calls": calls("scheduling.evaluate"),
            "scheduling.evaluate_s": self_s("scheduling.evaluate"),
            "scheduling.policies_s": self_s("scheduling.policies"),
            "scheduling.mix_s": self_s("scheduling.mix"),
            "cost.search.s": self_s("cost.search"),
            "cost.search.evaluations": c["evaluations"],
            "cost.search.pruning_ratio": ratio(c["pruned"], c["candidates"]),
            "core.batch_s": self_s("core.batch"),
            "core.evaluate_calls": calls("core.evaluate"),
            "core.evaluate_s": self_s("core.evaluate"),
            "trace.fit.update_s": self_s("trace.fit.update"),
            "trace.fit.refit_s": self_s("trace.fit.refit"),
            "trace.fit.refits": len(refits),
            "trace.fit.refit_ms_p50": (
                1000.0 * statistics.median(refits) if refits else 0.0
            ),
            "trace.fit.refits_per_record": ratio(len(refits), c["records"]),
            "trace.streamdist.update_s": self_s("trace.streamdist"),
            "trace.store.write_s": self_s("trace.store.write"),
            "trace.store.read_s": self_s("trace.store.read"),
            "trace.store.import_s": self_s("trace.store.import"),
            "trace.store.bytes": c["bytes"],
            "trace.ingest.self_s": self_s("trace.ingest"),
            "traced_wall_s": self.op_s,
            "unattributed_s": self.op_self_s,
            "trace_overhead_pct": 100.0 * (ratio(self.op_s, untraced_s) - 1.0),
        }
        return {k: float(v) for k, v in out.items()}


def _targets():
    """(owner, attribute, layer, hook name) for every wrapped entry point.

    Backends are wrapped on the concrete class the simulator builds:
    the engine takes the batched path only when
    ``type(backend).access_batch`` differs from the base class's, which
    a wrapper on the concrete class preserves.
    """
    import repro.apps.base as apps_base
    import repro.core.batch as core_batch
    import repro.core.contention as contention
    import repro.core.execution as execution
    import repro.cost.search as search
    import repro.experiments.runner as runner
    import repro.scheduling.evaluate as sched_evaluate
    import repro.scheduling.mix as sched_mix
    import repro.scheduling.policies as policies
    import repro.sim.engine as engine
    import repro.sim.stacked as stacked
    import repro.topology.build as build
    import repro.trace.analysis as analysis
    import repro.trace.fit as fit
    import repro.trace.ingest as ingest
    import repro.trace.store as store
    import repro.trace.streamdist as streamdist
    from repro.apps import registry as _apps  # noqa: F401  (loads every app)
    from repro.sim.backends.composed import ComposedBackend

    out = [
        (ComposedBackend, "access", "sim.backends.access", None),
        (ComposedBackend, "access_batch", "sim.backends.batch", "on_batch"),
        (engine.SimulationEngine, "execute", "sim.engine", None),
        (stacked, "simulate_grid", "sim.stacked", "on_grid"),
        (stacked, "stacked_schedules", "sim.stacked.schedules", None),
        (runner.ExperimentRunner, "compare", "experiments.runner", "on_compare"),
        (analysis, "analyze_trace", "trace.analysis.characterize", None),
        (analysis, "measure_sharing", "trace.analysis.sharing", None),
        (contention, "expected_max_exponential", "core.contention.emax", "on_emax"),
        (build, "leaf_hierarchies", "topology.build.leaf", None),
        (sched_evaluate, "evaluate_hetero", "scheduling.evaluate", None),
        (sched_mix, "design_mix", "scheduling.mix", None),
        (search.DesignSearch, "run", "cost.search", "on_search"),
        (core_batch, "e_instr_seconds_batch", "core.batch", None),
        (core_batch, "e_instr_lower_bounds", "core.batch", None),
        (execution, "evaluate", "core.evaluate", None),
        (fit.IncrementalFit, "update", "trace.fit.update", None),
        (fit.IncrementalFit, "_fit_now", "trace.fit.refit", None),
        (streamdist.StreamingStackDistance, "update", "trace.streamdist", None),
        (store.TraceStoreWriter, "append", "trace.store.write", None),
        (store.TraceStoreWriter, "close", "trace.store.write", None),
        (store.TraceStoreReader, "chunks", "trace.store.read", None),
        (store, "import_address_text", "trace.store.import", None),
        (ingest, "ingest", "trace.ingest", "on_ingest"),
    ]
    out += [
        (policies, fn.__name__, "scheduling.policies", None)
        for fn in policies.POLICIES.values()
    ]
    stack = list(apps_base.SpmdApplication.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if "run" in vars(cls):
            out.append((cls, "run", "apps", "on_app"))
    return out


def _wrap(tracer: Tracer, layer: str, fn, hook_name: str | None, generator: bool):
    hook = getattr(tracer, hook_name) if hook_name else None
    if generator:
        def wrapper(*args, **kwargs):
            it = tracer.call(layer, fn, args, kwargs)
            while True:
                try:
                    item = tracer.call(layer, next, (it,), {})
                except StopIteration:
                    return
                yield item
    elif hook is None:
        def wrapper(*args, **kwargs):
            return tracer.call(layer, fn, args, kwargs)
    else:
        def wrapper(*args, **kwargs):
            result = tracer.call(layer, fn, args, kwargs)
            hook(args, result)
            return result
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
    wrapper.__doc__ = fn.__doc__
    setattr(wrapper, WRAPPED, True)
    return wrapper


class Installation:
    """Wrappers in place; :meth:`restore` undoes every replacement."""

    def __init__(self) -> None:
        self.replaced: list[tuple[object, str, object]] = []  # (owner, key, original)

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def replace(self, owner, key, original, wrapper) -> None:
        self._set(owner, key, wrapper)
        self.replaced.append((owner, key, original))

    def restore(self) -> None:
        while self.replaced:
            owner, key, original = self.replaced.pop()
            self._set(owner, key, original)


def _modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith(("repro.", "perfbench")))
    ]


def install(tracer: Tracer) -> Installation:
    """Wrap every target; module-level functions are replaced wherever a
    ``repro``/``perfbench`` module or the policy table refers to them."""
    import inspect

    import repro.scheduling.policies as policies

    inst = Installation()
    try:
        for owner, attr, layer, hook in _targets():
            original = vars(owner)[attr]
            wrapper = _wrap(
                tracer, layer, original, hook, inspect.isgeneratorfunction(original)
            )
            if isinstance(owner, type):
                inst.replace(owner, attr, original, wrapper)
                continue
            for module in _modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        inst.replace(module, key, original, wrapper)
            for key, value in list(policies.POLICIES.items()):
                if value is original:
                    inst.replace(policies.POLICIES, key, original, wrapper)
    except BaseException:
        inst.restore()
        raise
    return inst


def leftover_wrappers() -> list[str]:
    """Every wrapper still reachable from a module, class or the policy
    table (empty after a clean :meth:`Installation.restore`)."""
    import repro.scheduling.policies as policies

    found = []
    for module in _modules():
        for key, value in vars(module).items():
            if getattr(value, WRAPPED, False):
                found.append(f"{module.__name__}.{key}")
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if getattr(member, WRAPPED, False):
                        found.append(f"{module.__name__}.{key}.{attr}")
    found += [k for k, v in policies.POLICIES.items() if getattr(v, WRAPPED, False)]
    return sorted(set(found))

