"""Cross-checks between figure data and the underlying replays.

The figure drivers aggregate the run matrix; these tests verify the
aggregation itself (normalisation arithmetic, row/percentage
consistency) against independently fetched results.
"""

import pytest

from repro.experiments import figures, runner

SCALE = 0.02


@pytest.fixture(scope="module", autouse=True)
def fresh_cache():
    runner.clear_run_cache()
    yield
    runner.clear_run_cache()


class TestFig8Arithmetic:
    def test_normalisation_matches_raw_means(self):
        data, _ = figures.fig8_overall_response(scale=SCALE)
        for trace, by_scheme in data.items():
            native = runner.execute(runner.RunSpec(
                trace, "Native", scale=SCALE,
            ))
            native_mean = native.metrics.overall_summary().mean
            for scheme, normalized in by_scheme.items():
                raw = runner.execute(runner.RunSpec(
                    trace, scheme, scale=SCALE,
                ))
                expected = raw.metrics.overall_summary().mean / native_mean * 100.0
                assert normalized == pytest.approx(expected)


class TestFig10Arithmetic:
    def test_capacity_normalisation(self):
        data, _ = figures.fig10_capacity(scale=SCALE)
        for trace, by_scheme in data.items():
            native = runner.execute(runner.RunSpec(
                trace, "Native", scale=SCALE,
            ))
            for scheme, normalized in by_scheme.items():
                raw = runner.execute(runner.RunSpec(
                    trace, scheme, scale=SCALE,
                ))
                expected = raw.capacity_blocks / native.capacity_blocks * 100.0
                assert normalized == pytest.approx(expected)


class TestFig11Consistency:
    def test_percentages_match_results(self):
        data, _ = figures.fig11_write_reduction(scale=SCALE)
        for trace, by_scheme in data.items():
            for scheme, pct in by_scheme.items():
                raw = runner.execute(runner.RunSpec(
                    trace, scheme, scale=SCALE,
                ))
                assert pct == pytest.approx(raw.removed_write_pct)

    def test_removed_bounded_by_writes(self):
        data, _ = figures.fig11_write_reduction(scale=SCALE)
        for by_scheme in data.values():
            for pct in by_scheme.values():
                assert 0.0 <= pct <= 100.0


class TestFig1Totals:
    def test_bucket_totals_equal_measured_writes(self):
        from repro.traces.synthetic import paper_traces

        data, _ = figures.fig1_redundancy_by_size(scale=SCALE)
        for trace_name, rows in data.items():
            trace = runner.get_trace(paper_traces()[trace_name], scale=SCALE)
            writes = sum(1 for r in trace.measured_records if r.is_write)
            assert sum(r.total for r in rows) == writes
            for r in rows:
                assert r.fully_redundant + r.partially_redundant <= r.total


class TestFig2Bounds:
    def test_percentages_partition_write_blocks(self):
        rows, _ = figures.fig2_io_vs_capacity(scale=SCALE)
        for r in rows:
            assert 0.0 <= r["same_location_pct"]
            assert 0.0 <= r["different_location_pct"]
            assert r["io_redundancy_pct"] <= 100.0
            assert r["io_redundancy_pct"] == pytest.approx(
                r["same_location_pct"] + r["different_location_pct"]
            )
