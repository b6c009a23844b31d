"""Tests for the streaming telemetry journal (repro.obs.journal).

The journal's contract is narrow but load-bearing: every emit is one
complete JSONL line, readers never consume a torn tail, a fold over
any prefix is a consistent coverage document, and the final fold
reconciles exactly with the campaign's own report.  The journal must
also stay *out* of the result path: a journaled crashcheck job shares
its cache key with a silent one.
"""

import json
import os
import time

import pytest

from repro.analysis.runner import (
    CrashCheckJob,
    Job,
    collect_telemetry,
    run_jobs,
)
from repro.obs.journal import (
    JOURNAL_FORMAT_VERSION,
    TelemetryJournal,
    describe_event,
    journal_summary,
    read_journal,
    tail_journal,
    watch_once,
)
from repro.sim.config import tiny_machine
from repro.sim.crash import CrashPlan
from repro.verify import EnumerationPlan, check_variant, plan_to_dict
from repro.verify.litmus import check_model, generate_programs
from repro.workloads import get_workload

PLAN = EnumerationPlan(max_exhaustive_events=12, samples=16, seed=0)


def small_tmm():
    return get_workload("tmm")(n=8, bsize=4, kk_tiles=1)


class TestEmitAndRead:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = TelemetryJournal(path=path)
        journal.emit("campaign_point", label="w/v", images_checked=4)
        journal.emit("counterexample", description="boom")
        events = read_journal(path)
        assert [e["kind"] for e in events] == [
            "campaign_point", "counterexample",
        ]
        assert [e["seq"] for e in events] == [0, 1]
        assert all(e["v"] == JOURNAL_FORMAT_VERSION for e in events)
        assert events == journal.events

    def test_each_event_is_one_line(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = TelemetryJournal(path=path)
        for i in range(5):
            journal.emit("batch", jobs=i)
        with open(path) as fh:
            lines = fh.readlines()
        assert len(lines) == 5
        assert all(line.endswith("\n") for line in lines)
        assert all(isinstance(json.loads(line), dict) for line in lines)

    def test_memory_only_journal_writes_nothing(self, tmp_path):
        journal = TelemetryJournal(path=None)
        journal.emit("batch", jobs=1)
        assert journal.events[0]["jobs"] == 1
        assert list(tmp_path.iterdir()) == []

    def test_missing_file_reads_empty(self, tmp_path):
        events, offset = tail_journal(str(tmp_path / "absent.jsonl"))
        assert events == []
        assert offset == 0
        assert read_journal(str(tmp_path / "absent.jsonl")) == []

    def test_empty_file_reads_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_journal(str(path)) == []


class TestTornTolerance:
    def test_torn_final_line_is_left_for_next_poll(self, tmp_path):
        path = tmp_path / "j.jsonl"
        whole = json.dumps({"kind": "batch", "jobs": 1}) + "\n"
        torn = '{"kind": "batch", "jo'
        path.write_text(whole + torn)
        events, offset = tail_journal(str(path))
        assert [e["kind"] for e in events] == ["batch"]
        assert offset == len(whole.encode())
        # Writer finishes the line: the next poll picks it up.
        path.write_text(whole + '{"kind": "batch", "jobs": 2}\n')
        events, offset = tail_journal(str(path), offset)
        assert [e["jobs"] for e in events] == [2]
        assert offset == os.path.getsize(path)

    def test_garbage_complete_line_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            '{"kind": "batch", "jobs": 1}\n'
            "not json at all\n"
            '["a", "list"]\n'
            '{"kind": "batch", "jobs": 2}\n'
        )
        events = read_journal(str(path))
        assert [e["jobs"] for e in events] == [1, 2]

    def test_offset_resumes_without_rereading(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = TelemetryJournal(path=path)
        journal.emit("batch", jobs=1)
        events, offset = tail_journal(path)
        assert len(events) == 1
        journal.emit("batch", jobs=2)
        events, offset = tail_journal(path, offset)
        assert [e["jobs"] for e in events] == [2]
        events, offset = tail_journal(path, offset)
        assert events == []


class TestDescribeEvent:
    def test_known_kinds_have_lines(self):
        assert "images" in describe_event(
            {"kind": "campaign_point", "label": "w/v", "images_checked": 3,
             "num_events": 2, "exhaustive": True, "wall_s": 0.1}
        )
        assert "DIVERGED" in describe_event(
            {"kind": "campaign_point", "label": "w/v", "images_checked": 3,
             "num_events": 2, "exhaustive": True, "images_diverged": 1}
        )
        assert "boom" in describe_event(
            {"kind": "counterexample", "description": "boom"}
        )
        assert "litmus" in describe_event(
            {"kind": "litmus_program", "model": "adr", "program": "p",
             "images": 2, "num_events": 1, "divergent": False}
        )
        assert describe_event({"kind": "job_span", "label": "a",
                               "status": "run", "wall_s": 1.0})
        assert describe_event({"kind": "batch", "jobs": 2, "hits": 1,
                               "wall_clock_s": 3.0})

    def test_unknown_kind_is_silent(self):
        assert describe_event({"kind": "mystery"}) is None

    def test_progress_ticks_go_to_stream(self, tmp_path):
        import io as _io

        sink = _io.StringIO()
        journal = TelemetryJournal(progress=True, stream=sink)
        journal.emit("counterexample", description="boom")
        journal.emit("mystery")
        assert "boom" in sink.getvalue()
        assert "mystery" not in sink.getvalue()


class TestJournalSummary:
    def test_empty_fold(self):
        summary = journal_summary([])
        assert summary == {
            "telemetry": None,
            "coverage": [],
            "counterexamples": [],
            "events": 0,
        }

    def test_fold_builds_telemetry_and_coverage(self):
        journal = TelemetryJournal()
        journal.emit("job_span", workers=2, label="a", status="run",
                     start_s=0.0, end_s=1.0, wall_s=1.0)
        journal.emit("job_span", workers=2, label="b", status="hit",
                     start_s=0.0, end_s=0.1, wall_s=0.1)
        journal.emit("batch", workers=2, jobs=2, hits=1, wall_clock_s=1.5,
                     cache={"hits": 1, "misses": 1})
        journal.emit("campaign_point", label="w/v", num_events=3,
                     images_checked=8, images_diverged=1, bound=10,
                     exhaustive=True, crashed=True, wall_s=0.5,
                     counterexamples=1, shrink_steps=2)
        journal.emit("counterexample", label="w/v", description="boom")
        summary = journal_summary(journal.events)
        assert summary["events"] == 5
        telemetry = summary["telemetry"]
        assert telemetry["workers"] == 2
        assert len(telemetry["spans"]) == 2
        assert telemetry["cache"] == {"hits": 1, "misses": 1}
        (cov,) = summary["coverage"]
        assert cov["label"] == "w/v"
        assert cov["images_checked"] == 8
        assert cov["images_diverged"] == 1
        assert cov["counterexamples"] == 1
        assert cov["shrink_steps"] == 2
        assert cov["epochs"] == [
            {"num_events": 3, "points": 1, "images_checked": 8,
             "images_diverged": 1, "bound": 10, "exhaustive": True}
        ]
        assert summary["counterexamples"] == ["boom"]

    def test_prefix_fold_is_consistent(self):
        journal = TelemetryJournal()
        for i in range(4):
            journal.emit("campaign_point", label="w/v", num_events=2,
                         images_checked=3, bound=4, exhaustive=True,
                         crashed=True)
        for n in range(1, 5):
            (cov,) = journal_summary(journal.events[:n])["coverage"]
            assert cov["points"] == n
            assert cov["images_checked"] == 3 * n
            assert cov["enumeration_bound"] == 4 * n


class TestCheckerJournaling:
    def test_crashcheck_journal_reconciles_with_report(self, tmp_path):
        path = str(tmp_path / "cc.jsonl")
        journal = TelemetryJournal(path=path)
        report = check_variant(
            small_tmm(), tiny_machine(), "lp",
            [CrashPlan(at_op=200), CrashPlan(at_op=400)],
            PLAN, journal=journal,
        )
        folded = journal_summary(read_journal(path))
        (from_journal,) = folded["coverage"]
        from_report = report.coverage().to_dict()
        # wall_s is rounded per event line; everything else is exact.
        for doc in (from_journal, from_report):
            doc.pop("wall_s")
            doc.pop("images_per_sec")
        assert from_journal == from_report

    def test_counterexample_events_are_journaled(self, tmp_path):
        path = str(tmp_path / "cc.jsonl")
        journal = TelemetryJournal(path=path)
        report = check_variant(
            small_tmm(), tiny_machine(), "ep_nofence",
            [CrashPlan(at_flush=10)], PLAN, journal=journal,
        )
        assert not report.ok
        events = read_journal(path)
        cexs = [e for e in events if e["kind"] == "counterexample"]
        assert len(cexs) == len(report.counterexamples)
        assert all("recovery failed" in e["description"] for e in cexs)
        folded = journal_summary(events)
        assert folded["counterexamples"]

    def test_litmus_journal_reconciles_with_verdict(self, tmp_path):
        path = str(tmp_path / "lit.jsonl")
        journal = TelemetryJournal(path=path)
        verdict = check_model(
            "epoch", generate_programs(limit=12), journal=journal
        )
        folded = journal_summary(read_journal(path))
        (from_journal,) = folded["coverage"]
        from_verdict = verdict.coverage().to_dict()
        # The verdict carries corpus wall clock; the journal does not.
        for doc in (from_journal, from_verdict):
            doc.pop("wall_s")
            doc.pop("images_per_sec")
        assert from_journal == from_verdict


class TestHarnessJournaling:
    def test_run_jobs_streams_spans_and_batch(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        jobs = [
            Job(small_tmm(), tiny_machine(), variant, num_threads=2)
            for variant in ("lp", "ep")
        ]
        run_jobs(jobs, journal=TelemetryJournal(path=path))
        events = read_journal(path)
        spans = [e for e in events if e["kind"] == "job_span"]
        batches = [e for e in events if e["kind"] == "batch"]
        assert len(spans) == 2
        assert {s["label"] for s in spans} == {"tmm/lp", "tmm/ep"}
        assert len(batches) == 1
        assert batches[0]["jobs"] == 2
        folded = journal_summary(events)
        assert len(folded["telemetry"]["spans"]) == 2

    def test_multi_batch_fold_counts_each_batch_once(self):
        """Each ``batch`` event carries its own batch's wall clock, so a
        fold over several batches adds every batch exactly once and
        utilization stays a fraction of the pool's capacity."""
        jobs = [
            Job(small_tmm(), tiny_machine(), variant, num_threads=2)
            for variant in ("base", "lp", "ep")
        ]
        elapsed = []
        with collect_telemetry() as journal:
            for job in jobs:
                start = time.time()
                run_jobs([job])
                elapsed.append(time.time() - start)
        batches = [e for e in journal.events if e["kind"] == "batch"]
        assert [b["jobs"] for b in batches] == [1, 1, 1]
        for batch, outer in zip(batches, elapsed):
            assert batch["wall_clock_s"] <= outer + 1e-6
        telemetry = journal_summary(journal.events)["telemetry"]
        wall = telemetry["wall_clock_s"]
        assert wall == pytest.approx(sum(b["wall_clock_s"] for b in batches))
        assert wall <= sum(elapsed) + 1e-6
        busy = sum(span["wall_s"] for span in telemetry["spans"])
        utilization = telemetry["summary"]["utilization"]
        assert utilization == pytest.approx(
            busy / (telemetry["workers"] * wall), abs=1e-4
        )
        assert 0 < utilization <= 1.0


class TestCacheKeyIsolation:
    def test_journal_fields_do_not_change_cache_key(self):
        plans = (plan_to_dict(CrashPlan(at_op=100)),)
        silent = CrashCheckJob(small_tmm(), tiny_machine(), "lp", plans)
        journaled = CrashCheckJob(
            small_tmm(), tiny_machine(), "lp", plans,
            journal_path="/tmp/anything.jsonl", progress=True,
        )
        assert silent.cache_key() == journaled.cache_key()

    def test_key_still_discriminates_real_fields(self):
        plans = (plan_to_dict(CrashPlan(at_op=100)),)
        a = CrashCheckJob(small_tmm(), tiny_machine(), "lp", plans)
        b = CrashCheckJob(small_tmm(), tiny_machine(), "ep", plans)
        assert a.cache_key() != b.cache_key()


class TestWatchOnce:
    def test_placeholder_before_any_renderable_event(self, tmp_path):
        journal_path = str(tmp_path / "j.jsonl")
        out = str(tmp_path / "dash.html")
        assert watch_once(journal_path, out) == 0
        assert "waiting for journal events" in open(out).read()

    def test_renders_coverage_mid_stream(self, tmp_path):
        journal_path = str(tmp_path / "j.jsonl")
        out = str(tmp_path / "dash.html")
        journal = TelemetryJournal(path=journal_path)
        journal.emit("campaign_point", label="tmm/lp", num_events=3,
                     images_checked=8, bound=10, exhaustive=True,
                     crashed=True)
        assert watch_once(journal_path, out) == 1
        page = open(out).read()
        assert "Verification coverage" in page
        assert "tmm/lp" in page
        assert not os.path.exists(out + ".tmp")

    def test_watcher_tracks_an_appending_writer(self, tmp_path):
        """A watcher polling an actively-appended journal renders a
        consistent snapshot at every step, torn tail included."""
        journal_path = str(tmp_path / "j.jsonl")
        out = str(tmp_path / "dash.html")
        journal = TelemetryJournal(path=journal_path)

        journal.emit("campaign_point", label="tmm/lp", num_events=2,
                     images_checked=4, bound=4, exhaustive=True,
                     crashed=True)
        assert watch_once(journal_path, out) == 1
        assert "4</td>" in open(out).read() or "4" in open(out).read()

        # Writer appends one complete event and one torn half-line.
        journal.emit("campaign_point", label="tmm/lp", num_events=2,
                     images_checked=6, bound=8, exhaustive=True,
                     crashed=True)
        with open(journal_path, "a") as fh:
            fh.write('{"kind": "campaign_point", "images_che')
        assert watch_once(journal_path, out) == 2
        page = open(out).read()
        assert "10 images" in page  # 4 + 6, torn line excluded

        # Writer finishes the torn line; the next render includes it.
        with open(journal_path, "a") as fh:
            fh.write(
                'cked": 5, "label": "tmm/lp", "num_events": 2, '
                '"bound": 8, "exhaustive": true, "crashed": true}\n'
            )
        assert watch_once(journal_path, out) == 3
        assert "15 images" in open(out).read()

    def test_renders_are_byte_deterministic(self, tmp_path):
        journal_path = str(tmp_path / "j.jsonl")
        journal = TelemetryJournal(path=journal_path)
        journal.emit("campaign_point", label="w/v", num_events=1,
                     images_checked=2, bound=2, exhaustive=True,
                     crashed=True)
        out_a = str(tmp_path / "a.html")
        out_b = str(tmp_path / "b.html")
        watch_once(journal_path, out_a)
        watch_once(journal_path, out_b)
        assert open(out_a, "rb").read() == open(out_b, "rb").read()
