"""The HTML dashboard: reports, telemetry, coverage — one static page."""

import os

import pytest

from repro.analysis.experiments import run_variant
from repro.errors import ConfigError
from repro.obs import CoverageStats, RunReport, render_dashboard
from repro.sim.config import tiny_machine

from tests.analysis.test_stream_tier import _wl

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

TELEMETRY = {
    "workers": 2,
    "wall_clock_s": 0.5,
    "spans": [
        {"label": "tmm/lp", "status": "run",
         "start_s": 0.0, "end_s": 0.4, "wall_s": 0.4},
        {"label": "tmm/ep", "status": "hit",
         "start_s": 0.4, "end_s": 0.41, "wall_s": 0.01},
    ],
    "cache": {"hits": 1, "misses": 1, "stores": 1, "corrupt": 0,
              "hit_rate": 0.5},
    "summary": {"jobs": 2, "hits": 1, "runs": 1, "workers": 2,
                "wall_clock_s": 0.5, "busy_s": 0.41,
                "utilization": 0.41,
                "cache": {"hit_rate": 0.5}},
}


@pytest.fixture(scope="module")
def obs_report():
    """A sampled machine-path run: its manifest carries the interval
    series the dashboard draws as sparklines."""
    config = tiny_machine()
    result = run_variant(
        _wl(), config, "lp", num_threads=2, obs_interval=500.0,
    )
    return RunReport.from_result(result, config, wall_clock_s=0.2)


class TestRenderDashboard:
    def test_is_a_self_contained_document(self, obs_report):
        page = render_dashboard([obs_report])
        assert page.startswith("<!DOCTYPE html>")
        assert page.endswith("</html>")
        assert "<script" not in page  # static: renders anywhere
        assert "http" not in page.split("</style>")[1]  # no external assets

    def test_report_card_content(self, obs_report):
        page = render_dashboard([obs_report])
        assert "tmm/lp" in page
        assert "exec cycles" in page
        # Interval sparklines made it in as inline SVG.
        assert "<polyline" in page
        assert "ops.core0" in page

    def test_telemetry_section(self, obs_report):
        page = render_dashboard([obs_report], telemetry=TELEMETRY)
        assert "Harness telemetry" in page
        assert "job timeline" in page
        assert "span-hit" in page and "span-run" in page
        assert "cache hit rate" in page

    def test_telemetry_only_page(self):
        page = render_dashboard([], telemetry=TELEMETRY)
        assert "Harness telemetry" in page
        assert "Runs" not in page

    def test_comparison_table_for_multiple_reports(self, obs_report):
        other = RunReport.from_dict(obs_report.to_dict())
        other.variant = "ep"
        page = render_dashboard([obs_report, other])
        assert "Metric comparison" in page
        assert "tmm/ep" in page

    def test_nothing_to_render_rejected(self):
        with pytest.raises(ConfigError):
            render_dashboard([])

    def test_labels_are_escaped(self, obs_report):
        hostile = RunReport.from_dict(obs_report.to_dict())
        hostile.variant = "<script>alert(1)</script>"
        page = render_dashboard([hostile])
        assert "<script>alert(1)</script>" not in page
        assert "&lt;script&gt;" in page


def coverage_docs():
    """Handcrafted coverage documents (no run-dependent fields), shared
    by the panel tests and the committed golden page."""
    lp = CoverageStats(label="tmm/lp")
    lp.add_point(3, 8, bound=10, exhaustive=True, wall_s=0.5)
    lp.add_point(14, 19, bound=19, exhaustive=False, wall_s=1.0)
    broken = CoverageStats(label="tmm/ep_nofence")
    broken.add_point(5, 32, images_diverged=15, bound=32, exhaustive=True,
                     counterexamples=1, shrink_steps=4, wall_s=0.25)
    litmus = CoverageStats(label="adr", kind="litmus")
    litmus.add_point(2, 3, bound=3, exhaustive=True)
    return [lp.to_dict(), broken.to_dict(), litmus.to_dict()]


class TestCoveragePanel:
    def test_coverage_only_page(self):
        page = render_dashboard([], coverage=coverage_docs())
        assert "Verification coverage" in page
        assert "Harness telemetry" not in page
        assert "Runs" not in page

    def test_epoch_strip_colors_by_frontier(self):
        page = render_dashboard([], coverage=coverage_docs())
        assert "epoch-ex" in page  # exhaustive epochs
        assert "epoch-sm" in page  # the sampled 14-event epoch
        assert "3ev" in page and "14ev" in page

    def test_grid_splits_labels_and_marks_divergence(self):
        page = render_dashboard([], coverage=coverage_docs())
        assert "<th>lp</th>" in page
        assert "<th>ep_nofence</th>" in page
        assert "<th>litmus</th>" in page  # slash-less label gets kind col
        assert "cov-bad" in page and "&#x2717;" in page

    def test_tiles_aggregate_across_docs(self):
        page = render_dashboard([], coverage=coverage_docs())
        assert "images checked" in page
        assert "62" in page  # 8 + 19 + 32 + 3
        assert "images/sec" in page

    def test_doc_without_epochs_gets_placeholder(self):
        empty = CoverageStats(label="w/v")
        empty.add_point(0, 0, crashed=False)
        page = render_dashboard([], coverage=[empty.to_dict()])
        assert "no crashed points yet" in page

    def test_coverage_composes_with_telemetry_and_reports(self, obs_report):
        page = render_dashboard(
            [obs_report], telemetry=TELEMETRY, coverage=coverage_docs()
        )
        assert "Harness telemetry" in page
        assert "Verification coverage" in page
        assert "Runs" in page

    def test_hostile_labels_are_escaped(self):
        doc = CoverageStats(label="<b>x</b>/<i>y</i>")
        doc.add_point(1, 1, bound=1)
        page = render_dashboard([], coverage=[doc.to_dict()])
        assert "<b>x</b>" not in page
        assert "&lt;b&gt;x&lt;/b&gt;" in page


class TestEdgeCases:
    def test_empty_telemetry_renders(self):
        page = render_dashboard(
            [], telemetry={"workers": 1, "wall_clock_s": 0.0,
                           "spans": [], "cache": None}
        )
        assert "Harness telemetry" in page
        assert "no spans recorded" in page

    def test_single_job_telemetry_renders(self):
        telemetry = {
            "workers": 1,
            "wall_clock_s": 0.4,
            "spans": [{"label": "tmm/lp", "status": "run",
                       "start_s": 0.0, "end_s": 0.4, "wall_s": 0.4}],
            "cache": None,
            "summary": {"jobs": 1, "hits": 0, "runs": 1, "workers": 1,
                        "wall_clock_s": 0.4, "busy_s": 0.4,
                        "utilization": 1.0},
        }
        page = render_dashboard([], telemetry=telemetry)
        assert "tmm/lp" in page
        assert "span-run" in page


class TestGoldenDashboard:
    """The dashboard must be byte-deterministic: identical inputs give
    identical bytes (CI artifacts diff cleanly across reruns).

    Regenerate the committed page after an intentional layout change::

        PYTHONPATH=src:. python -c "
        from repro.obs import render_dashboard
        from tests.obs.test_dashboard import TELEMETRY, coverage_docs
        open('tests/obs/golden/dashboard.golden.html', 'w').write(
            render_dashboard([], telemetry=TELEMETRY,
                             coverage=coverage_docs()))"
    """

    def test_render_is_deterministic(self):
        a = render_dashboard([], telemetry=TELEMETRY,
                             coverage=coverage_docs())
        b = render_dashboard([], telemetry=TELEMETRY,
                             coverage=coverage_docs())
        assert a == b

    def test_matches_committed_golden_bytes(self):
        page = render_dashboard([], telemetry=TELEMETRY,
                                coverage=coverage_docs())
        with open(os.path.join(GOLDEN, "dashboard.golden.html")) as fh:
            assert page == fh.read()


class TestReportObsFields:
    def test_round_trip_preserves_derived_surface(
        self, obs_report, tmp_path
    ):
        path = tmp_path / "obs.report.json"
        obs_report.save(str(path))
        loaded = RunReport.load(str(path))
        assert loaded == obs_report
        assert loaded.intervals == obs_report.intervals

    def test_plain_reports_omit_nothing_silently(self):
        config = tiny_machine()
        result = run_variant(_wl(), config, "lp", num_threads=2)
        report = RunReport.from_result(result, config, wall_clock_s=0.1)
        assert report.intervals is None
