"""RunReport manifests: building, round-tripping, rendering."""

import dataclasses
import json

import pytest

from repro.analysis.experiments import run_variant
from repro.analysis.runner import code_version
from repro.errors import ConfigError
from repro.obs import RunReport, render_reports
from repro.obs.report import REPORT_SCHEMA_VERSION, config_hash
from repro.sim.config import tiny_machine
from repro.workloads import get_workload

from tests.obs.conftest import TINY_PARAMS


@pytest.fixture(scope="module")
def lp_report():
    config = tiny_machine()
    result = run_variant(
        get_workload("tmm")(**TINY_PARAMS),
        config,
        "lp",
        num_threads=2,
    )
    return RunReport.from_result(
        result, config, wall_clock_s=1.25, workload_params=dict(TINY_PARAMS)
    )


class TestManifest:
    def test_identity_fields(self, lp_report):
        assert lp_report.workload == "tmm"
        assert lp_report.variant == "lp"
        assert lp_report.num_threads == 2
        assert lp_report.timing == "detailed"
        assert lp_report.seed == tiny_machine().schedule_seed
        assert lp_report.code_version == code_version()
        assert lp_report.config_hash == config_hash(tiny_machine())
        assert lp_report.wall_clock_s == 1.25
        assert lp_report.schema == REPORT_SCHEMA_VERSION

    def test_metrics_cover_summary_and_breakdowns(self, lp_report):
        assert "exec_cycles" in lp_report.metrics
        assert "verified" in lp_report.metrics
        assert "total_writes" in lp_report.metrics
        assert all(
            isinstance(v, float) for v in lp_report.metrics.values()
        )

    def test_config_hash_tracks_config(self):
        a = config_hash(tiny_machine())
        b = config_hash(tiny_machine().with_timing("functional"))
        assert a != b


class TestRoundTrip:
    def test_save_load(self, lp_report, tmp_path):
        path = tmp_path / "run.report.json"
        lp_report.save(str(path))
        assert RunReport.load(str(path)) == lp_report

    def test_save_is_sorted_json(self, lp_report, tmp_path):
        path = tmp_path / "run.report.json"
        lp_report.save(str(path))
        data = json.loads(path.read_text())
        assert list(data) == sorted(data)

    def test_load_rejects_wrong_schema(self, lp_report, tmp_path):
        path = tmp_path / "bad.json"
        data = lp_report.to_dict()
        data["schema"] = REPORT_SCHEMA_VERSION + 1
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError):
            RunReport.load(str(path))

    def test_load_rejects_schema_2_reports(self, lp_report, tmp_path):
        # Schema 2 manifests carried three more fields; such a file
        # fails on its schema, not on an unknown field.
        path = tmp_path / "old.json"
        data = lp_report.to_dict()
        data["schema"] = 2
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="unsupported RunReport schema 2"):
            RunReport.load(str(path))

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json{")
        with pytest.raises(ConfigError):
            RunReport.load(str(path))
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            RunReport.load(str(path))
        path.write_text(json.dumps({"schema": REPORT_SCHEMA_VERSION}))
        with pytest.raises(ConfigError):
            RunReport.load(str(path))


class TestRendering:
    def test_single_report_table(self, lp_report):
        text = render_reports([lp_report])
        assert "exec_cycles" in text
        assert "tmm/lp" in text
        assert lp_report.config_hash in text

    def test_comparison_normalizes_to_first(self, lp_report):
        other = RunReport.from_dict(lp_report.to_dict())
        other.variant = "ep"
        other.metrics = dict(other.metrics)
        other.metrics["exec_cycles"] = lp_report.metrics["exec_cycles"] * 2
        text = render_reports([lp_report, other])
        assert "(x1.000)" in text
        assert "(x2.000)" in text

    def test_markdown_format(self, lp_report):
        text = render_reports([lp_report], fmt="md")
        assert text.count("|") > 10
        assert "| --- |" in text.replace("| --- | --- |", "| --- |")

    def test_missing_metric_renders_dash(self, lp_report):
        other = RunReport.from_dict(lp_report.to_dict())
        other.metrics = {"exec_cycles": 1.0}
        text = render_reports([lp_report, other])
        assert "-" in text

    def test_rejects_empty_and_unknown_format(self, lp_report):
        with pytest.raises(ConfigError):
            render_reports([])
        with pytest.raises(ConfigError):
            render_reports([lp_report], fmt="html")


class TestObsDerivationRows:
    """A report carries no derivation path, so the manifest table has
    no ``obs path``/``obs fallback`` rows, sampled or not, alone or in
    a comparison.  These ids once covered those rows."""

    @pytest.fixture(scope="class")
    def sampled_report(self):
        config = tiny_machine()
        result = run_variant(
            get_workload("tmm")(**TINY_PARAMS),
            config,
            "lp",
            num_threads=2,
            obs_interval=500.0,
        )
        return RunReport.from_result(
            result, config, wall_clock_s=1.25,
            workload_params=dict(TINY_PARAMS),
        )

    def test_plain_reports_have_no_obs_rows(self, lp_report):
        text = render_reports([lp_report])
        assert "obs path" not in text
        assert "obs fallback" not in text

    def test_stream_report_shows_obs_path(self, lp_report, sampled_report):
        # Sampling adds a series to the report, not a manifest row: the
        # sampled run renders exactly the plain run's table.
        assert sampled_report.intervals is not None
        assert render_reports([sampled_report]) == render_reports(
            [lp_report]
        )

    def test_fallback_reason_surfaces_across_comparison(
        self, lp_report, sampled_report
    ):
        ep = RunReport.from_dict(lp_report.to_dict())
        ep.variant = "ep"
        text = render_reports([lp_report, sampled_report, ep])
        assert "tmm/ep" in text
        assert "obs path" not in text
        assert "obs fallback" not in text

    def test_obs_fields_round_trip(self, sampled_report, tmp_path):
        path = tmp_path / "r.json"
        sampled_report.save(str(path))
        doc = json.loads(path.read_text())
        assert set(doc) == {f.name for f in dataclasses.fields(RunReport)}
        loaded = RunReport.load(str(path))
        assert loaded == sampled_report
        assert loaded.intervals == sampled_report.intervals
