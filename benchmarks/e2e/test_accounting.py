"""How the benchmark counts failures and judges one run against another.

Run with ``python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import layers

layers.use_checkout_src()

import compare  # noqa: E402  (needs the checkout's src on the path)
import suite  # noqa: E402


def test_failures_are_counted_not_raised():
    """``repro crashcheck --workload log --variants lp`` diverges on one
    image at crash@op=28 (a known defect).  With the campaign grid of
    ``repro crashcheck``'s defaults the benchmark must count exactly that
    image as failed, count a sound scheme posing as broken as an
    unflagged broken scheme, count a campaign that raises, and finish."""
    log = suite.seeded("log", suite.CRASHCHECK_PARAMS["log"], 0)
    cases = [(log, "lp", False), (log, "ep", True), (log, "no_such_scheme", False)]
    outcome = suite.crashcheck_unit(
        cases, seed=0, op_points=8, max_flush_points=32
    )()

    lp, ep = outcome.reports
    assert lp.images_diverged == 1
    assert [c.crash for c in lp.counterexamples] == [{"at_op": 28}]
    assert ep.ok
    assert outcome.failed == 1 + 1 + 1
    assert outcome.attempted == lp.images_checked + ep.images_checked + 1 + 1
    assert any("crash@op=28" in f for f in outcome.failures)
    assert any("log/ep: broken scheme not flagged" in f for f in outcome.failures)
    assert any("no_such_scheme" in f for f in outcome.failures)


def test_report_tables_are_read_by_column():
    from repro.analysis.reporting import format_table

    text = "\n\n".join([
        format_table(["crash at op", "crashed", "exact"],
                     [[5000, True, True], [40000, True, False]], title="Crash"),
        format_table(["engine", "missed"], [["modular", 0]], title="Accuracy"),
    ])
    assert suite.table_rows(text, "exact") == ["True", "False"]
    assert suite.table_rows(text, "missed") == ["0"]
    assert suite.table_rows(text, "absent") == []


def test_verdicts_apply_direction_bound_and_spread():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.verdict(steady, [1.30, 1.31, 1.29], True, 0.1)[0] == "worse"
    assert compare.verdict(steady, [1.05, 1.06, 1.04], True, 0.1)[0] == "same"
    noisy = [0.6, 1.0, 1.5, 0.7, 1.4]
    assert compare.verdict(noisy, [1.1, 0.65, 1.45], True, 0.1)[0] == "unresolved"
    # A gain needs 9 of 10 seed-matched pairs, not only a better median.
    ref = [1.0 + 0.01 * i for i in range(10)]
    faster = [r * 0.8 for r in ref]
    pairs = list(zip(ref, faster))
    assert compare.verdict(ref, faster, True, 0.1)[0] == "same"
    assert compare.verdict(ref, faster, True, 0.1, pairs)[0] == "better"
    assert compare.verdict(ref, faster, False, 0.1, pairs)[0] == "worse"
