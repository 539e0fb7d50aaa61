"""End-to-end ingestion: raw trace -> registered workload -> CLI parity.

The acceptance contract (docs/TRACES.md): a registered workload behaves
exactly like a built-in everywhere -- `predict`, `design` and
`simulate` answer identically whether the parameters arrive via the
registry or as explicit --alpha/--beta/--gamma.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.obs.metrics import MetricsRegistry
from repro.trace.ingest import ingest, resolve_source
from repro.trace.stackdist import stack_distances
from repro.trace.store import TraceStoreWriter
from repro.workloads.fitting import fit_from_distances
from repro.workloads.registry import load_registry


def _make_container(path, n=30_000, footprint=500, seed=0, chunk_records=4096):
    rng = np.random.default_rng(seed)
    addrs = (rng.zipf(1.4, size=n) - 1) % footprint
    with TraceStoreWriter(path, chunk_records=chunk_records) as w:
        w.append(addrs, work=3)
    return addrs


@pytest.fixture()
def ingested(tmp_path):
    container = tmp_path / "app.rtc"
    addrs = _make_container(container)
    result = ingest(container, name="app", workload_dir=tmp_path / "wl")
    return addrs, result, tmp_path / "wl"


class TestIngest:
    def test_params_match_inmemory_fit(self, ingested):
        addrs, result, _ = ingested
        reference = fit_from_distances(stack_distances(addrs))
        # chunked streaming is bit-identical to the in-memory fit
        assert result.fit.alpha == reference.alpha
        assert result.fit.beta == reference.beta
        assert result.fit.rmse == reference.rmse
        assert result.params.gamma == pytest.approx(0.25)  # work=3/ref

    def test_one_refit_per_chunk(self, tmp_path, monkeypatch):
        """The final result and params reuse the last chunk's fit: an
        N-chunk ingest solves exactly N times, with unchanged output."""
        from repro.trace.fit import IncrementalFit

        container = tmp_path / "c.rtc"
        addrs = _make_container(container, n=12_000, chunk_records=1000)
        calls = []
        fit_now = IncrementalFit._fit_now
        monkeypatch.setattr(
            IncrementalFit, "_fit_now", lambda self: calls.append(1) or fit_now(self)
        )
        result = ingest(container, name="c", workload_dir=tmp_path / "wl")
        assert result.stream.chunks == 12
        assert len(calls) == result.stream.chunks
        reference = fit_from_distances(stack_distances(addrs))
        assert result.fit.alpha == reference.alpha
        assert result.fit.beta == reference.beta
        assert result.fit.rmse == reference.rmse
        assert result.params.alpha == reference.alpha
        assert result.params.beta == reference.beta
        assert result.params.max_distance == reference.max_distance

    def test_registers_a_loadable_workload(self, ingested):
        _, result, wl_dir = ingested
        registry = load_registry(wl_dir)
        assert "app" in registry
        wl = registry["app"]
        assert wl.params.alpha == result.params.alpha
        assert wl.records == result.records
        assert wl.container is not None
        assert not result.torn_tail

    def test_metrics_are_counted(self, tmp_path):
        container = tmp_path / "m.rtc"
        _make_container(container, n=10_000)
        registry = MetricsRegistry()
        result = ingest(
            container, name="m", workload_dir=tmp_path / "wl",
            metrics_registry=registry,
        )
        assert registry.get("trace_ingest_records_total").value == 10_000
        assert registry.get("trace_ingest_chunks_total").value > 0
        assert result.records == 10_000

    def test_directory_source_concatenates(self, tmp_path):
        d = tmp_path / "traces"
        d.mkdir()
        _make_container(d / "a.rtc", n=5000, seed=1)
        _make_container(d / "b.rtc", n=5000, seed=2)
        name, containers = resolve_source(d)
        assert name == "traces"
        assert [c.name for c in containers] == ["a.rtc", "b.rtc"]
        result = ingest(d, workload_dir=tmp_path / "wl")
        assert result.records == 10_000

    def test_text_source_imported_then_ingested(self, tmp_path):
        src = tmp_path / "tiny.trace"
        src.write_text(
            "\n".join(str(a) for a in np.arange(2000) % 97), encoding="utf-8"
        )
        result = ingest(
            src, workload_dir=tmp_path / "wl", gamma=0.3, chunk_records=256
        )
        assert result.name == "tiny"
        assert result.records == 2000
        assert result.params.gamma == 0.3
        assert result.containers[0].suffix == ".rtc"

    def test_unknown_suffix_rejected(self, tmp_path):
        bad = tmp_path / "t.xyz"
        bad.write_text("1\n2\n")
        with pytest.raises(ValueError, match="suffix"):
            ingest(bad, workload_dir=tmp_path / "wl")


class TestCliParity:
    """A streamed-in workload answers identically to the in-memory lane.

    "ref" is registered from `analyze_addresses` (whole trace in RAM);
    "app" comes from `repro trace ingest` (streamed).  Bit-identical
    fitting means the CLI answers must match byte for byte -- including
    `max_distance`, which bare --alpha/--beta/--gamma flags cannot
    carry.
    """

    def _ingest_both(self, tmp_path):
        import dataclasses

        from repro.trace.analysis import analyze_addresses
        from repro.workloads.registry import RegisteredWorkload, save_workload

        container = tmp_path / "app.rtc"
        addrs = _make_container(container)
        wl_dir = str(tmp_path / "wl")
        assert main(["trace", "ingest", str(container), "--name", "app",
                     "--workload-dir", wl_dir]) == 0
        ch = analyze_addresses(addrs, gamma=0.25, name="ref")
        save_workload(wl_dir, RegisteredWorkload(
            params=dataclasses.replace(ch.params, name="ref"),
            source="in-memory reference lane",
        ))
        return wl_dir

    def _parity(self, tmp_path, capsys, argv):
        wl_dir = self._ingest_both(tmp_path)
        capsys.readouterr()
        assert main([*argv, "--workload", "app",
                     "--workload-dir", wl_dir]) == 0
        streamed = capsys.readouterr().out
        assert main([*argv, "--workload", "ref",
                     "--workload-dir", wl_dir]) == 0
        in_memory = capsys.readouterr().out
        assert (streamed.replace("app", "ref").splitlines()
                == in_memory.splitlines())

    def test_predict_parity(self, tmp_path, capsys):
        self._parity(tmp_path, capsys, ["predict"])

    def test_design_parity(self, tmp_path, capsys):
        self._parity(tmp_path, capsys, ["design", "--budget", "200000"])

    def test_simulate_replays_the_container(self, tmp_path, capsys):
        wl_dir = self._ingest_both(tmp_path)
        capsys.readouterr()
        assert main(["simulate", "--app", "app", "--workload-dir", wl_dir,
                     "--procs", "2"]) == 0
        out = capsys.readouterr().out
        assert "app" in out

    def test_trace_list_shows_the_workload(self, tmp_path, capsys):
        wl_dir = self._ingest_both(tmp_path)
        capsys.readouterr()
        assert main(["trace", "list", "--workload-dir", wl_dir]) == 0
        out = capsys.readouterr().out
        assert "app" in out and "alpha=" in out

    def test_trace_info_reports_header(self, tmp_path, capsys):
        container = tmp_path / "app.rtc"
        _make_container(container)
        capsys.readouterr()
        assert main(["trace", "info", str(container)]) == 0
        out = capsys.readouterr().out
        assert "repro-trace-store/1" in out
        assert "30,000" in out
