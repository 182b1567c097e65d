"""Integration tests for the experiment runners and figure drivers.

These run at a very small scale (shapes are asserted at bench scale in
benchmarks/); here we only check the plumbing: memoisation, override
handling, table rendering, and the qualitative Table I content.
"""

import json

import pytest

from repro.errors import ConfigError
from repro.experiments import figures, runner
from repro.experiments.parallel import run_matrix_parallel
from repro.jobs import JobsConfig
from repro.obs.report import build_run_report
from repro.obs.slo import SloPolicy
from repro.obs.timeline import TimelineConfig
from repro.obs.trace import TraceRecorder
from repro.sim.replay import ReplayConfig

SCALE = 0.02

#: Spec fields (plus an optional recorder) that take a run out of the
#: memo: each call must replay and hand back fresh per-run state.
FRESH = {
    "timeline": dict(replay=ReplayConfig(timeline=TimelineConfig(window=1.0))),
    "spans": dict(replay=ReplayConfig(spans=True)),
    "slo": dict(replay=ReplayConfig(slo=SloPolicy())),
    "jobs": dict(replay=ReplayConfig(jobs=JobsConfig())),
    "recorder": {},
    "tenants": dict(tenants=runner.Tenants(copies=1)),
    "nodes": dict(nodes=1),
}


def _report_bytes(result):
    return json.dumps(build_run_report(result, clock=lambda: 0.0), sort_keys=True)


@pytest.fixture(autouse=True)
def fresh_cache():
    runner.clear_run_cache()
    yield
    runner.clear_run_cache()


class TestRunner:
    def test_run_single_returns_result(self):
        r = runner.execute(runner.RunSpec("web-vm", "Native", scale=SCALE))
        assert r.trace_name == "web-vm" and r.scheme_name == "Native"

    def test_memoisation_returns_same_object(self):
        a = runner.execute(runner.RunSpec("web-vm", "Native", scale=SCALE))
        b = runner.execute(runner.RunSpec("web-vm", "Native", scale=SCALE))
        assert a is b

    def test_overrides_change_the_key(self):
        a = runner.execute(runner.RunSpec(
            "web-vm", "Full-Dedupe", scale=SCALE,
        ))
        b = runner.execute(runner.RunSpec(
            "web-vm", "Full-Dedupe", {"index_fraction": 0.2}, scale=SCALE,
        ))
        assert a is not b

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigError):
            runner.execute(runner.RunSpec("nope", "Native", scale=SCALE))
        with pytest.raises(ConfigError):
            runner.execute(runner.RunSpec("web-vm", "nope", scale=SCALE))

    def test_run_matrix_covers_all_pairs(self):
        m = runner.run_matrix(["web-vm"], ["Native", "POD"], scale=SCALE)
        assert set(m) == {("web-vm", "Native"), ("web-vm", "POD")}

    @pytest.mark.parametrize("case", ["plain", "parallel"] + sorted(FRESH))
    def test_memo_scope(self, case):
        """Plain single-trace specs are memoised (also when the parallel
        runner computed them); anything carrying per-run state replays."""
        if case == "parallel":
            out = run_matrix_parallel(
                ["homes"], ["Native"], scale=SCALE, max_workers=2
            )
            spec = runner.RunSpec("homes", "Native", scale=SCALE)
            assert runner.execute(spec) is out[("homes", "Native")]
            return
        spec = runner.RunSpec("web-vm", "POD", scale=SCALE, **FRESH.get(case, {}))
        calls = [
            runner.execute(spec, recorder=TraceRecorder())
            if case == "recorder" else runner.execute(spec)
            for _ in range(2)
        ]
        if case == "plain":
            assert calls[0] is calls[1]
        else:
            assert calls[0] is not calls[1]
            assert _report_bytes(calls[0]) == _report_bytes(calls[1])

    def test_trace_memoised_across_schemes(self):
        runner.execute(runner.RunSpec("web-vm", "Native", scale=SCALE))
        runner.execute(runner.RunSpec("web-vm", "POD", scale=SCALE))
        spec = __import__("repro.traces.synthetic", fromlist=["WEB_VM"]).WEB_VM
        assert len(runner._trace_cache) == 1

    def test_scheme_config_overrides(self):
        cfg = runner.scheme_config_for(
            __import__("repro.traces.synthetic", fromlist=["WEB_VM"]).WEB_VM,
            scale=SCALE,
            select_threshold=5,
        )
        assert cfg.select_threshold == 5


class TestFigureDrivers:
    def test_table1_matches_paper_flags(self):
        rows, text = figures.table1_features()
        by_name = {r["scheme"]: r for r in rows}
        # Table I of the paper
        assert by_name["POD"]["capacity_saving"] is True
        assert by_name["POD"]["small_writes_elimination"] is True
        assert by_name["POD"]["cache_partitioning"] == "dynamic/adaptive"
        assert by_name["iDedup"]["small_writes_elimination"] is False
        assert by_name["I/O-Dedup"]["capacity_saving"] is False
        assert "Table I" in text

    def test_table2_renders(self):
        rows, text = figures.table2_characteristics(scale=SCALE)
        assert len(rows) == 3 and "Table II" in text

    def test_fig1_has_all_buckets(self):
        data, text = figures.fig1_redundancy_by_size(scale=SCALE)
        for name, rows in data.items():
            assert [r.bucket_kb for r in rows] == [4, 8, 16, 32, 64]

    def test_fig2_io_exceeds_capacity(self):
        rows, _ = figures.fig2_io_vs_capacity(scale=SCALE)
        for r in rows:
            assert r["io_redundancy_pct"] >= r["capacity_redundancy_pct"]

    def test_fig3_sweep_rows(self):
        rows, text = figures.fig3_partition_sweep(
            trace_name="web-vm", fractions=(0.3, 0.7), scale=SCALE
        )
        assert [r["index_fraction"] for r in rows] == [0.3, 0.7]
        assert "Fig. 3" in text

    def test_fig8_normalized_to_native(self):
        data, _ = figures.fig8_overall_response(scale=SCALE)
        for trace, vals in data.items():
            assert vals["Native"] == pytest.approx(100.0)

    def test_fig9_has_both_directions(self):
        data, text = figures.fig9_read_write_split(scale=SCALE)
        assert set(data) == {"read", "write"}
        assert "Fig. 9a" in text and "Fig. 9b" in text

    def test_fig10_capacity_normalized(self):
        data, _ = figures.fig10_capacity(scale=SCALE)
        for vals in data.values():
            assert vals["Native"] == pytest.approx(100.0)
            assert vals["Full-Dedupe"] <= 100.0

    def test_fig11_percentages_bounded(self):
        data, _ = figures.fig11_write_reduction(scale=SCALE)
        for vals in data.values():
            for v in vals.values():
                assert 0.0 <= v <= 100.0

    def test_nvram_overhead_positive(self):
        data, text = figures.nvram_overhead(scale=SCALE)
        assert all(v >= 0 for v in data.values())
        assert "NVRAM" in text
