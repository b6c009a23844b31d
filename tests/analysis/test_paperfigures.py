"""Tests for the one-command reproduction facade."""

import os

import pytest

from repro.analysis.runner import Job
from repro.errors import ConfigError
from repro.analysis.paperfigures import reproduce

#: The smoke report as ``repro reproduce --scale smoke --out`` writes
#: it, taken from the code that ran the scheme and kernel tables as two
#: batches: running them as one must not change a byte.
SMOKE_GOLDEN = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "golden", "reproduce_smoke.md"
)


class TestReproduce:
    def test_smoke_report_structure(self):
        report = reproduce(scale="smoke")
        assert "TMM schemes" in report
        assert "Crash recovery" in report
        assert "Checksum accuracy" in report
        assert "True" in report  # recovery exactness row

    def test_smoke_runs_each_forward_point_once(self, monkeypatch):
        """tmm's base, lp and ep points feed both the scheme and the
        kernel table; each is simulated once, and the report equals
        the golden text."""
        ran = []
        run = Job.run

        def counting(job):
            ran.append((job.workload.name, job.variant))
            return run(job)

        monkeypatch.setattr(Job, "run", counting)
        report = reproduce(scale="smoke")
        assert sorted(ran) == sorted(
            ("tmm", v) for v in ("base", "lp", "ep", "wal")
        )
        with open(SMOKE_GOLDEN) as fh:
            assert report + "\n" == fh.read()

    def test_unknown_scale(self):
        with pytest.raises(ConfigError):
            reproduce(scale="galactic")

    def test_cli_integration(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "report.md"
        rc = main(["reproduce", "--scale", "smoke", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert "reproduction report" in out.read_text()
