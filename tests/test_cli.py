"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.sim.model import model_names


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "tmm"])
        assert args.variant == "lp"
        assert args.machine == "scaled"
        assert args.threads == 2

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "linpack"])

    def test_crash_requires_at_op(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["crash", "tmm"])

    def test_sweep_engine_flag_defaults(self):
        args = build_parser().parse_args(["sweep", "checksum", "tmm"])
        assert args.jobs == 1
        assert args.no_cache is False
        assert args.cache_dir is None

    def test_sweep_engine_flags_parse(self):
        args = build_parser().parse_args(
            ["sweep", "latency", "tmm", "--jobs", "4", "--no-cache",
             "--cache-dir", "/tmp/c"]
        )
        assert args.jobs == 4
        assert args.no_cache is True
        assert args.cache_dir == "/tmp/c"

    def test_obs_interval_defaults_off(self):
        for argv in (
            ["run", "tmm"],
            ["compare", "tmm"],
            ["sweep", "checksum", "tmm"],
            ["reproduce"],
        ):
            assert build_parser().parse_args(argv).obs_interval is None

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "tmm"])
        assert args.command == "trace"
        assert args.variant == "lp"
        assert args.out is None

    def test_report_requires_a_file(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report"])
        args = build_parser().parse_args(["report", "a.json", "b.json"])
        assert args.reports == ["a.json", "b.json"]
        assert args.md is False


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "tmm" in out and "modular" in out and "scaled" in out

    def test_run(self, capsys):
        rc = main(["run", "tmm", "--threads", "2", "-p", "n=16", "-p", "bsize=8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "exec_cycles" in out
        assert "verified" in out

    def test_compare(self, capsys):
        rc = main(
            ["compare", "tmm", "--variants", "base,lp", "--threads", "2",
             "-p", "n=16"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "base" in out and "lp" in out

    @pytest.mark.parametrize("model", model_names())
    def test_crash_recovers(self, capsys, model):
        # pre_adr has no persist tracker: the one image needs none.
        rc = main(
            ["crash", "tmm", "--at-op", "2000", "--threads", "2", "-p", "n=16",
             "--model", model]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "output exact" in out

    def test_sweep_checksum(self, capsys):
        rc = main(["sweep", "checksum", "tmm", "--threads", "2", "-p", "n=16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "adler32" in out

    def test_idempotence_command(self, capsys):
        rc = main(["idempotence", "conv2d", "--threads", "1",
                   "-p", "n=12", "-p", "row_block=2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "idempotent" in out

    def test_sweep_cleaner(self, capsys):
        rc = main(["sweep", "cleaner", "tmm", "--threads", "2", "-p", "n=16"])
        assert rc == 0
        assert "period" in capsys.readouterr().out

    def test_sweep_cached_rerun_hits(self, capsys, tmp_path):
        argv = ["sweep", "checksum", "tmm", "--threads", "2", "-p", "n=16",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "[cache: 0/" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        # every point served from the on-disk cache, identical table
        hits = second[second.index("[cache: "):]
        lookups = hits.split("/")[1].split(" ")[0]
        assert f"[cache: {lookups}/{lookups} hits" in second
        assert first.split("[cache")[0] == second.split("[cache")[0]

    def test_sweep_no_cache_skips_cache(self, capsys, tmp_path):
        rc = main(["sweep", "checksum", "tmm", "--threads", "2", "-p", "n=16",
                   "--no-cache", "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert "[cache:" not in capsys.readouterr().out
        assert not list(tmp_path.iterdir())

    def test_bad_param_format(self):
        with pytest.raises(SystemExit):
            main(["run", "tmm", "-p", "nonsense"])

    def test_param_types(self):
        from repro.cli import _parse_params

        params = _parse_params(["n=48", "granularity=ii", "eager_checksum=true"])
        assert params == {
            "n": 48,
            "granularity": "ii",
            "eager_checksum": True,
        }


class TestObservability:
    TINY = ["--machine", "tiny", "--threads", "2",
            "-p", "n=8", "-p", "bsize=4", "-p", "kk_tiles=1"]

    def test_run_obs_out_writes_series(self, capsys, tmp_path):
        out = tmp_path / "series.json"
        rc = main(["run", "tmm", *self.TINY,
                   "--obs-interval", "500", "--obs-out", str(out)])
        assert rc == 0
        import json

        series = json.loads(out.read_text())
        assert series["interval"] == 500.0
        assert series["num_buckets"] > 0
        assert series["columns"]

    def test_run_obs_out_csv(self, tmp_path):
        out = tmp_path / "series.csv"
        rc = main(["run", "tmm", *self.TINY,
                   "--obs-interval", "500", "--obs-out", str(out)])
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("bucket,start_cycle,")

    def test_obs_out_without_interval_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "tmm", *self.TINY,
                  "--obs-out", str(tmp_path / "x.json")])

    def test_trace_writes_chrome_trace(self, capsys, tmp_path):
        out = tmp_path / "lp.trace.json"
        rc = main(["trace", "tmm", *self.TINY, "--out", str(out)])
        assert rc == 0
        assert "ui.perfetto.dev" in capsys.readouterr().out
        import json

        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert len(events) > 0
        for ev in events:
            assert {"ph", "pid", "tid"} <= set(ev)
            if ev["ph"] != "M":
                assert "ts" in ev

    def test_report_compares_saved_runs(self, capsys, tmp_path):
        paths = []
        for variant in ("lp", "ep"):
            path = tmp_path / f"{variant}.report.json"
            assert main(["run", "tmm", *self.TINY, "--variant", variant,
                         "--report-out", str(path)]) == 0
            paths.append(str(path))
        capsys.readouterr()
        assert main(["report", *paths]) == 0
        out = capsys.readouterr().out
        assert "tmm/lp" in out and "tmm/ep" in out
        assert "exec_cycles" in out
        assert "(x1.000)" in out

    def test_report_markdown(self, capsys, tmp_path):
        path = tmp_path / "lp.report.json"
        assert main(["run", "tmm", *self.TINY,
                     "--report-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["report", str(path), "--md"]) == 0
        assert "| --- |" in capsys.readouterr().out


class TestProfiling:
    TINY = TestObservability.TINY

    def test_heatmap_parser_defaults(self):
        args = build_parser().parse_args(["heatmap", "tmm"])
        assert args.variant == "lp"
        assert args.base_variant == "base"
        assert args.top == 10
        assert args.out is None

    def test_flame_parser_defaults(self):
        args = build_parser().parse_args(["flame", "tmm"])
        assert args.variant == "lp"
        assert args.top == 15
        assert args.out is None

    def test_regress_parser_defaults(self):
        args = build_parser().parse_args(["regress"])
        assert args.baselines == "benchmarks/baselines"
        assert args.update_baselines is False
        assert args.mistime is None
        assert args.cases is None

    def test_heatmap_renders_amplification_and_writes_json(
        self, capsys, tmp_path
    ):
        out = tmp_path / "heat.json"
        rc = main(["heatmap", "tmm", *self.TINY,
                   "--cleaner-period", "500", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "write heatmap" in text
        assert "amp vs base" in text
        import json

        doc = json.loads(out.read_text())
        assert doc["total_writes"] == sum(
            sum(by_cause.values()) for by_cause in doc["lines"].values()
        )
        assert doc["regions"]

    def test_heatmap_csv_export(self, capsys, tmp_path):
        out = tmp_path / "heat.csv"
        rc = main(["heatmap", "tmm", *self.TINY, "--variant", "ep",
                   "--base-variant", "none", "--out", str(out)])
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header == "line,region,writes,stores,flushes"
        assert "amp vs base" not in capsys.readouterr().out

    def test_flame_writes_collapsed_stacks(self, capsys, tmp_path):
        out = tmp_path / "lp.collapsed"
        rc = main(["flame", "tmm", *self.TINY, "--out", str(out)])
        assert rc == 0
        assert "Stall attribution" in capsys.readouterr().out
        for line in out.read_text().splitlines():
            frames, weight = line.rsplit(" ", 1)
            assert int(weight) > 0
            assert frames.startswith("tmm/lp;")


class TestSmokeMode:
    """REPRO_SMOKE=1 must make the obs commands runnable bare."""

    def run_smoke(self, monkeypatch, argv):
        monkeypatch.setenv("REPRO_SMOKE", "1")
        return main(argv)

    def test_trace_smoke(self, monkeypatch, tmp_path, capsys):
        out = tmp_path / "t.trace.json"
        rc = self.run_smoke(
            monkeypatch, ["trace", "tmm", "--out", str(out)]
        )
        assert rc == 0
        assert out.exists()

    def test_heatmap_smoke(self, monkeypatch, capsys):
        rc = self.run_smoke(monkeypatch, ["heatmap", "tmm"])
        assert rc == 0
        assert "write heatmap" in capsys.readouterr().out

    def test_flame_smoke(self, monkeypatch, tmp_path, capsys):
        out = tmp_path / "f.collapsed"
        rc = self.run_smoke(
            monkeypatch, ["flame", "tmm", "--out", str(out)]
        )
        assert rc == 0
        assert out.exists()

    def test_smoke_params_yield_to_explicit_ones(self, monkeypatch):
        from repro.cli import _smoke_adjust

        monkeypatch.setenv("REPRO_SMOKE", "1")
        args = build_parser().parse_args(["heatmap", "tmm", "-p", "n=12"])
        _smoke_adjust(args)
        assert args.machine == "tiny"
        # Last -p wins in _parse_params, so the user's n=12 overrides
        # the smoke preset's n=8.
        from repro.cli import _parse_params

        assert _parse_params(args.param)["n"] == 12


class TestCrashcheck:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["crashcheck"])
        assert args.workload == "tmm"
        assert args.machine == "tiny"
        assert args.exhaustive is False
        assert args.nightly is False
        assert args.jobs == 1

    def test_parser_accepts_acceptance_invocation(self):
        args = build_parser().parse_args(
            ["crashcheck", "--workload", "tmm", "--exhaustive"]
        )
        assert args.workload == "tmm"
        assert args.exhaustive is True

    def test_tiny_preset_listed(self, capsys):
        assert main(["list"]) == 0
        assert "tiny" in capsys.readouterr().out

    def test_sound_variant_passes(self, capsys):
        rc = main(
            ["crashcheck", "--workload", "tmm", "--variants", "ep",
             "--points", "2", "--max-flush-points", "4", "--max-events", "8",
             "--samples", "4", "--no-cache"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "crash-state check" in out
        assert "pass" in out

    def test_broken_variant_reported_but_expected(self, capsys):
        rc = main(
            ["crashcheck", "--workload", "tmm",
             "--variants", "ep,ep_nofence", "--points", "0",
             "--max-flush-points", "12", "--max-events", "8",
             "--samples", "4", "--no-cache"]
        )
        # ep passes and ep_nofence is flagged: both expected -> exit 0.
        assert rc == 0
        out = capsys.readouterr().out
        assert "counterexample" in out
        assert "recovery failed on image" in out

    def test_missed_bug_fails_exit_code(self, capsys):
        # An empty crash grid can't produce a counterexample: the
        # checker must treat an unflagged broken variant as a failure.
        rc = main(
            ["crashcheck", "--workload", "tmm", "--variants", "ep_nofence",
             "--points", "0", "--max-flush-points", "0", "--max-events", "6",
             "--samples", "4", "--no-cache"]
        )
        assert rc == 1
        assert "MISSED BUG" in capsys.readouterr().out


class TestModelFlag:
    def test_defaults_to_adr_everywhere(self):
        for argv in (
            ["run", "tmm"],
            ["compare", "tmm"],
            ["sweep", "checksum", "tmm"],
            ["crashcheck"],
        ):
            assert build_parser().parse_args(argv).model == "adr"

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "tmm", "--model", "bogus"])

    def test_run_under_eadr(self, capsys):
        rc = main(["run", "tmm", "--threads", "2", "-p", "n=16",
                   "--model", "eadr"])
        assert rc == 0
        assert "verified" in capsys.readouterr().out

    def test_crashcheck_refuses_non_enumerable_model(self, capsys):
        """Satellite: the bare non-ADR error is now a clear message
        listing the enumeration-capable models, not a traceback."""
        rc = main(
            ["crashcheck", "--workload", "tmm", "--model", "pre_adr",
             "--no-cache"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "'pre_adr'" in err
        assert "Models that support `repro crashcheck`" in err
        for name in ("adr", "eadr", "strict", "epoch"):
            assert name in err

    def test_crashcheck_excludes_fence_bug_variants_under_eadr(self, capsys):
        """Broken variants encode flush/fence-discipline bugs; under a
        store-durable model they are genuinely sound, so the default
        campaign must not expect them to be flagged."""
        rc = main(
            ["crashcheck", "--workload", "tmm", "--model", "eadr",
             "--points", "1", "--max-flush-points", "2", "--max-events", "8",
             "--samples", "4", "--no-cache"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ep_nofence" not in out
        assert "MISSED BUG" not in out

    def test_crashcheck_runs_under_eadr(self, capsys):
        rc = main(
            ["crashcheck", "--workload", "tmm", "--variants", "lp",
             "--model", "eadr", "--points", "2", "--max-flush-points", "2",
             "--max-events", "8", "--samples", "4", "--no-cache"]
        )
        assert rc == 0
        assert "pass" in capsys.readouterr().out


class TestLitmus:
    SMALL = ["--limit", "8", "--max-ops", "2", "--threads", "1"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["litmus"])
        assert args.models is None
        assert args.threads == 2
        assert args.max_ops == 4
        assert args.vars == 2
        assert args.limit == 48
        assert args.as_sound is False
        assert args.out is None
        assert args.replay is None

    def test_sound_and_broken_expectations(self, capsys):
        rc = main(["litmus", "--models", "adr,eadr_nofence", *self.SMALL])
        assert rc == 0
        out = capsys.readouterr().out
        assert "litmus corpus" in out
        assert "divergence" in out  # the broken model's expected verdict

    def test_unknown_model_fails_fast(self, capsys):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="bogus"):
            main(["litmus", "--models", "bogus", *self.SMALL])

    def test_as_sound_flags_the_broken_model(self, capsys, tmp_path):
        rc = main(["litmus", "--models", "eadr_nofence", "--as-sound",
                   "--out", str(tmp_path), *self.SMALL])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        reports = sorted(tmp_path.glob("litmus-eadr_nofence-div*.json"))
        assert reports

    def test_replay_round_trips(self, capsys, tmp_path):
        assert main(["litmus", "--models", "eadr_nofence", "--as-sound",
                     "--out", str(tmp_path), *self.SMALL]) == 1
        report = sorted(tmp_path.glob("*.json"))[0]
        capsys.readouterr()
        rc = main(["litmus", "--replay", str(report)])
        assert rc == 0  # still diverges: the report is faithful
        assert "still diverges" in capsys.readouterr().out


class TestStreamTierCLI:
    """``repro run`` has one execution path.  These ids once covered
    its tier flag; they now pin that the flag is gone and that a run,
    observed or not, prints no tier or derivation lines."""

    TINY = TestObservability.TINY

    def test_tier_flag_defaults_to_machine(self):
        args = build_parser().parse_args(["run", "tmm"])
        assert not hasattr(args, "tier")

    def test_unknown_tier_rejected(self):
        for tier in ("gpu", "stream", "machine"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", "tmm", "--tier", tier])

    def test_stream_tier_run_reports_path(self, capsys, tmp_path):
        out = tmp_path / "lp.report.json"
        rc = main(["run", "tmm", *self.TINY,
                   "--obs-interval", "500", "--report-out", str(out)])
        assert rc == 0
        assert "[observability:" not in capsys.readouterr().out
        import json

        doc = json.loads(out.read_text())
        assert doc["intervals"]["interval"] == 500.0
        assert "heatmap" not in doc

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stream_tier_fallback_is_reported(self, capsys):
        # A cleaner point once forced a fallback; now it is an ordinary
        # observed run with nothing to report or warn about.
        rc = main(["run", "tmm", *self.TINY,
                   "--obs-interval", "500", "--cleaner-period", "200"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fell back" not in out
        assert "[observability:" not in out
        # ... and the cleaner ran: lp alone writes nothing back here.
        (writes,) = [
            line.split()[1] for line in out.splitlines()
            if line.startswith("nvmm_writes ")
        ]
        assert int(writes) > 0


class TestDashboardCLI:
    TINY = TestObservability.TINY

    def test_parser_defaults(self):
        args = build_parser().parse_args(["dashboard", "a.json", "j.jsonl"])
        assert args.inputs == ["a.json", "j.jsonl"]
        assert args.out == "dashboard.html"

    def _report(self, tmp_path, variant="lp"):
        path = tmp_path / f"{variant}.report.json"
        assert main(["run", "tmm", *self.TINY, "--variant", variant,
                     "--obs-interval", "500",
                     "--report-out", str(path)]) == 0
        return str(path)

    def test_renders_reports_to_html(self, capsys, tmp_path):
        paths = [self._report(tmp_path, v) for v in ("lp", "ep")]
        out = tmp_path / "dash.html"
        capsys.readouterr()
        assert main(["dashboard", *paths, "-o", str(out)]) == 0
        page = out.read_text()
        assert page.startswith("<!DOCTYPE html>")
        assert "tmm/lp" in page and "tmm/ep" in page
        assert "Metric comparison" in page
        assert str(out) in capsys.readouterr().out

    def test_accepts_sweep_telemetry(self, capsys, tmp_path):
        report = self._report(tmp_path)
        journal = tmp_path / "sweep.jsonl"
        assert main(["sweep", "checksum", "tmm", "--threads", "2",
                     "-p", "n=16", "--no-cache",
                     "--journal", str(journal)]) == 0
        out = tmp_path / "dash.html"
        capsys.readouterr()
        assert main(["dashboard", report, str(journal),
                     "-o", str(out)]) == 0
        assert "telemetry" in capsys.readouterr().out
        page = out.read_text()
        assert "Harness telemetry" in page
        assert "job timeline" in page
        assert "tmm/lp" in page

    def test_nothing_to_render_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["dashboard", "-o", str(tmp_path / "d.html")])

    def test_malformed_telemetry_fails(self, tmp_path):
        report = self._report(tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("[1, 2]\n")
        with pytest.raises(SystemExit, match="no journal events"):
            main(["dashboard", report, str(bad)])

    def test_sweep_prints_harness_summary(self, capsys, tmp_path):
        assert main(["sweep", "checksum", "tmm", "--threads", "2",
                     "-p", "n=16", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[harness:" in out
        assert "worker(s)" in out


class TestCoverageAndWatchCLI:
    CC = ["crashcheck", "--workload", "tmm", "--variants", "ep",
          "--points", "2", "--max-flush-points", "4", "--max-events", "8",
          "--samples", "4", "--no-cache"]

    def test_parser_defaults(self):
        cc = build_parser().parse_args(["crashcheck"])
        assert cc.journal is None
        assert cc.progress is False
        lit = build_parser().parse_args(["litmus"])
        assert lit.journal is None
        sweep = build_parser().parse_args(["sweep", "checksum", "tmm"])
        assert sweep.journal is None
        watch = build_parser().parse_args(["watch", "j.jsonl"])
        assert watch.journal == "j.jsonl"
        assert watch.out == "dashboard.html"
        assert watch.once is False
        assert watch.interval == 0.5

    def test_progress_ticks_go_to_stderr(self, capsys):
        assert main([*self.CC, "--progress"]) == 0
        captured = capsys.readouterr()
        assert "[coverage]" in captured.err
        assert "images (events=" in captured.err

    def test_journal_vs_printed_coverage(self, capsys, tmp_path):
        from repro.obs import journal_summary, read_journal

        argv = [a for a in self.CC if a != "--no-cache"]
        argv += ["--cache-dir", str(tmp_path / "cache")]
        folds = []
        # The result cache serves the second run: no worker checks the
        # variant, yet its journal must carry the same points.
        for run, hits in (("cold", 0), ("warm", 1)):
            journal_path = tmp_path / f"{run}.jsonl"
            assert main([*argv, "--journal", str(journal_path)]) == 0
            out = capsys.readouterr().out
            assert f"[cache: {hits}/1 hits" in out
            folded = journal_summary(read_journal(str(journal_path)))
            (doc,) = folded["coverage"]
            assert doc["label"] == "tmm/ep"
            assert doc["images_checked"] > 0
            assert doc["epochs"]
            # The [coverage] line crashcheck prints comes from the
            # report; the journal fold must agree with it.
            assert (
                f"[coverage] tmm/ep: {doc['images_checked']} images over "
                f"{doc['points']} points"
            ) in out
            assert f"{doc['images_diverged']} diverged" in out
            assert folded["telemetry"]["summary"]["jobs"] == 1
            assert folded["telemetry"]["summary"]["hits"] == hits
            folds.append(folded["coverage"])
        assert folds[1] == folds[0]

    def test_journal_does_not_change_results(self, capsys, tmp_path):
        assert main(list(self.CC)) == 0
        plain = capsys.readouterr().out
        assert main([*self.CC, "--journal",
                     str(tmp_path / "j.jsonl")]) == 0
        journaled = capsys.readouterr().out
        # Identical verdict table; only wall-clock-derived rate lines
        # below it may differ between runs.
        assert plain.split("[coverage]")[0] == (
            journaled.split("[coverage]")[0]
        )

    def test_litmus_journal_coverage(self, capsys, tmp_path):
        from repro.obs import journal_summary, read_journal

        journal_path = tmp_path / "lit.jsonl"
        assert main(["litmus", "--models", "adr", "--limit", "8",
                     "--max-ops", "2", "--threads", "1",
                     "--journal", str(journal_path)]) == 0
        out = capsys.readouterr().out
        (doc,) = journal_summary(read_journal(str(journal_path)))["coverage"]
        assert doc["label"] == "adr"
        assert doc["kind"] == "litmus"
        assert doc["images_checked"] > 0
        assert f"[coverage] adr: {doc['images_checked']} images" in out

    def test_dashboard_renders_coverage_files(self, capsys, tmp_path):
        journal_path = tmp_path / "cc.jsonl"
        assert main([*self.CC, "--journal", str(journal_path)]) == 0
        out = tmp_path / "dash.html"
        capsys.readouterr()
        assert main(["dashboard", str(journal_path), "-o", str(out)]) == 0
        assert "1 coverage doc(s)" in capsys.readouterr().out
        page = out.read_text()
        assert "Verification coverage" in page
        assert "tmm" in page

    def test_watch_once_renders_journal(self, capsys, tmp_path):
        journal_path = tmp_path / "cc.jsonl"
        assert main([*self.CC, "--journal", str(journal_path)]) == 0
        out = tmp_path / "dash.html"
        capsys.readouterr()
        assert main(["watch", str(journal_path), "--once",
                     "-o", str(out)]) == 0
        assert "[watch:" in capsys.readouterr().out
        page = out.read_text()
        assert "Verification coverage" in page

    def test_watch_polls_and_rerenders_on_growth(self, capsys, tmp_path):
        import threading
        import time as _time

        from repro.obs import TelemetryJournal

        journal_path = tmp_path / "live.jsonl"
        out = tmp_path / "dash.html"
        journal = TelemetryJournal(path=str(journal_path))
        journal.emit("campaign_point", label="tmm/lp", num_events=2,
                     images_checked=4, bound=4, exhaustive=True,
                     crashed=True)

        def append_later():
            _time.sleep(0.15)
            journal.emit("campaign_point", label="tmm/lp", num_events=2,
                         images_checked=6, bound=8, exhaustive=True,
                         crashed=True)

        writer = threading.Thread(target=append_later)
        writer.start()
        try:
            assert main(["watch", str(journal_path), "-o", str(out),
                         "--interval", "0.05", "--max-seconds", "0.6"]) == 0
        finally:
            writer.join()
        outputs = capsys.readouterr().out
        assert "[watch: 1 event(s)" in outputs  # initial snapshot
        assert "[watch: 2 event(s)" in outputs  # re-render on growth
        assert "10 images" in out.read_text()

    def test_watch_empty_journal_renders_placeholder(self, capsys, tmp_path):
        out = tmp_path / "dash.html"
        assert main(["watch", str(tmp_path / "none.jsonl"), "--once",
                     "-o", str(out)]) == 0
        assert "waiting for journal events" in out.read_text()

    def test_malformed_coverage_file_fails(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('"just a string"\n')
        with pytest.raises(SystemExit):
            main(["dashboard", str(bad), "-o", str(tmp_path / "d.html")])
