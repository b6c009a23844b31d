"""Command-line interface: run paper experiments without writing code.

Examples::

    python -m repro list
    python -m repro run tmm --variant lp --threads 4 -p n=48 -p bsize=8
    python -m repro compare tmm --variants base,lp,ep --threads 4
    python -m repro crash tmm --at-op 20000 --threads 2 -p n=24
    python -m repro sweep checksum tmm --threads 4

Machine presets: ``scaled`` (default; Table II shrunk to Python-scale
problems), ``paper`` (Table II verbatim) and ``real`` (Table III DRAM
system).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

from repro.analysis.crashlab import run_crashcheck_campaign
from repro.analysis.experiments import compare_variants, run_variant
from repro.analysis.reporting import format_table
from repro.analysis.runner import ResultCache
from repro.analysis import sweep as sweeps
from repro.core.checksum import available_engines
from repro.schemes import get_scheme, scheme_names
from repro.sim.config import (
    MachineConfig,
    paper_machine,
    real_system_machine,
    scaled_machine,
    tiny_machine,
)
from repro.sim.crash import CrashPlan
from repro.sim.model import (
    DEFAULT_MODEL,
    enumerable_model_names,
    get_model,
    model_names,
)
from repro.sim.timing import TIMING_MODELS
from repro.workloads import available_workloads, get_workload

_PRESETS = {
    "scaled": scaled_machine,
    "paper": paper_machine,
    "real": real_system_machine,
    "tiny": tiny_machine,
}

#: Problem sizes small enough for exhaustive crash-state enumeration.
#: ``repro crashcheck`` applies these per-workload defaults when the
#: user gives no ``-p`` overrides; performance commands never use them.
_CRASHCHECK_PARAMS: Dict[str, Dict[str, object]] = {
    "tmm": {"n": 8, "bsize": 4, "kk_tiles": 1},
    "fft": {"n": 16},
    "gauss": {"n": 8, "row_block": 4},
    "cholesky": {"n": 8, "col_block": 4},
    "conv2d": {"n": 8, "row_block": 2},
    "log": {"records": 6, "width": 2, "wb_batch": 2},
    "hashmap": {"capacity": 8, "ops": 6, "keys": 3, "wb_batch": 2},
}


#: Tiny problem sizes the smoke mode applies (same crashcheck-friendly
#: sizes as above; CI's smoke jobs stay fast without per-job -p lists).
_SMOKE_PARAMS = _CRASHCHECK_PARAMS


def _smoke() -> bool:
    """Whether ``REPRO_SMOKE=1`` (the benchmarks' smoke convention)."""
    return os.environ.get("REPRO_SMOKE") == "1"


def _smoke_adjust(args) -> None:
    """Resolve the machine preset, honouring ``REPRO_SMOKE``.

    Observability commands (trace/heatmap/flame) leave their
    ``--machine`` default unset so smoke runs drop to the tiny preset
    and tiny problem sizes; an explicit ``--machine`` or ``-p`` always
    wins (user params come last, and ``_parse_params`` is last-wins).
    """
    if not _smoke():
        if args.machine is None:
            args.machine = "scaled"
        return
    if args.machine is None:
        args.machine = "tiny"
    smoke = [
        f"{key}={value}"
        for key, value in _SMOKE_PARAMS.get(args.workload, {}).items()
    ]
    args.param = smoke + (args.param or [])


def _parse_params(pairs: Optional[List[str]]) -> Dict[str, object]:
    """-p key=value pairs; ints stay ints, known literals convert."""
    params: Dict[str, object] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"bad -p argument {pair!r}; expected key=value")
        key, raw = pair.split("=", 1)
        value: object
        if raw.lower() in ("true", "false"):
            value = raw.lower() == "true"
        else:
            try:
                value = int(raw)
            except ValueError:
                value = raw
        params[key] = value
    return params


def _machine(args) -> MachineConfig:
    cfg = _PRESETS[args.machine](num_cores=max(args.threads + 1, 2))
    timing = getattr(args, "timing", None)
    if timing is not None and timing != cfg.timing:
        cfg = cfg.with_timing(timing)
    model = getattr(args, "model", DEFAULT_MODEL)
    if model != DEFAULT_MODEL:
        cfg = cfg.with_model(model)
    return cfg


def _workload(args):
    return get_workload(args.workload)(**_parse_params(args.param))


def _cache(args) -> Optional[ResultCache]:
    """The on-disk result cache the engine flags selected (or None)."""
    if getattr(args, "no_cache", False):
        return None
    return ResultCache(root=getattr(args, "cache_dir", None))


def _cmd_list(args) -> int:
    rows = []
    for name in available_workloads():
        cls = get_workload(name)
        rows.append([name, ", ".join(cls.variants)])
    print(format_table(["workload", "variants"], rows, title="Workloads"))
    print()
    # Workload x scheme support grid.  "crashcheck" marks cells that
    # `repro crashcheck` covers: sound schemes must pass on every
    # reachable image; deliberately broken ones must be flagged with a
    # counterexample.
    grid = []
    for name in available_workloads():
        cls = get_workload(name)
        for scheme_name in scheme_names():
            scheme = get_scheme(scheme_name)
            if scheme_name in cls.variants:
                supported = "yes"
            elif scheme_name in cls.broken_variants:
                supported = "broken (fault model)"
            else:
                continue
            checkable = scheme.sound or scheme_name in cls.broken_variants
            grid.append(
                [
                    name,
                    scheme_name,
                    supported,
                    "crashcheck" if checkable else "-",
                ]
            )
    print(
        format_table(
            ["workload", "scheme", "support", "crash testing"],
            grid,
            title="Persistency schemes per workload",
        )
    )
    print()
    model_rows = []
    for model_name in model_names():
        model = get_model(model_name)
        model_rows.append(
            [
                model_name + (" (default)" if model_name == DEFAULT_MODEL else ""),
                "yes" if model.enumerable else "-",
                model.summary,
            ]
        )
    print(
        format_table(
            ["model", "crashcheck", "summary"],
            model_rows,
            title="Persistency models",
        )
    )
    print()
    print(
        format_table(
            ["engine"], [[e] for e in available_engines()],
            title="Checksum engines",
        )
    )
    print()
    print(
        format_table(
            ["preset"], [[p] for p in sorted(_PRESETS)],
            title="Machine presets",
        )
    )
    return 0


def _observed_run(args, config, observers=(), variant=None, **kwargs):
    """One run of the command's point — its workload, ``--variant``
    (or ``variant``), threads, engine and cleaner — with ``observers``
    on the probe bus; ``kwargs`` go to ``run_variant``."""
    return run_variant(
        _workload(args),
        config,
        variant or args.variant,
        num_threads=args.threads,
        engine=args.engine,
        cleaner_period=args.cleaner_period,
        observers=observers,
        **kwargs,
    )


def _write_out(path: str, doc, csv=None) -> None:
    """Write ``doc`` as sorted, indented JSON — or, for a ``.csv``
    path, the text ``csv()`` returns."""
    with open(path, "w") as fh:
        if csv is not None and path.endswith(".csv"):
            fh.write(csv())
        else:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _write_report(args, result, config, wall_clock_s: float = 0.0) -> None:
    """Save the run's RunReport to ``--report-out``, when given."""
    if not args.report_out:
        return
    from repro.obs import RunReport

    RunReport.from_result(
        result,
        config,
        engine=args.engine,
        wall_clock_s=wall_clock_s,
        workload_params=_parse_params(args.param),
    ).save(args.report_out)
    print(f"[run report saved to {args.report_out}]")


def _cmd_run(args) -> int:
    if args.obs_out and args.obs_interval is None:
        # A usage error, so it is refused before anything is simulated.
        print("repro run: error: --obs-out requires --obs-interval",
              file=sys.stderr)
        raise SystemExit(2)
    config = _machine(args)
    started = time.perf_counter()
    result = _observed_run(
        args, config, drain=args.drain, obs_interval=args.obs_interval
    )
    wall_clock_s = time.perf_counter() - started
    rows = [[k, v] for k, v in sorted(result.summary_dict().items())]
    print(
        format_table(
            ["metric", "value"], rows,
            title=f"{args.workload}+{args.variant} ({args.threads} threads)",
        )
    )
    if args.obs_out:
        from repro.obs import IntervalSampler

        sampler = IntervalSampler(args.obs_interval)
        _write_out(args.obs_out, result.intervals,
                   csv=lambda: sampler.csv(result.intervals))
        print(f"\n[interval series saved to {args.obs_out}]")
    _write_report(args, result, config, wall_clock_s)
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import TraceRecorder, write_chrome_trace
    from repro.obs.report import config_hash

    _smoke_adjust(args)
    config = _machine(args)
    recorder = TraceRecorder()
    result = _observed_run(args, config, [recorder])
    out = args.out or f"{args.workload}-{args.variant}.trace.json"
    count = write_chrome_trace(
        recorder,
        out,
        label=f"{args.workload}/{args.variant}",
        metadata={
            "workload": args.workload,
            "variant": args.variant,
            "threads": args.threads,
            "timing": config.timing,
            "config_hash": config_hash(config),
        },
    )
    print(
        f"{args.workload}/{args.variant}: {len(recorder)} probe events "
        f"-> {count} trace events -> {out}"
    )
    print("open in ui.perfetto.dev or chrome://tracing")
    _write_report(args, result, config)
    return 0


def _cmd_heatmap(args) -> int:
    """Per-line / per-region NVMM write heatmap (repro.obs.profile)."""
    from repro.obs import WriteHeatmap, render_heatmap

    _smoke_adjust(args)
    config = _machine(args)
    heatmap = WriteHeatmap()
    _observed_run(args, config, [heatmap])
    base = None
    if args.base_variant and args.base_variant != "none":
        base = WriteHeatmap()
        _observed_run(args, config, [base], variant=args.base_variant)
    print(
        render_heatmap(
            heatmap, base=base, top=args.top,
            title=f"{args.workload}/{args.variant}: write heatmap",
        )
    )
    if args.out:
        _write_out(args.out, heatmap.to_dict(), csv=heatmap.csv)
        print(f"\n[heatmap saved to {args.out}]")
    return 0


def _cmd_flame(args) -> int:
    """Stall flamegraph: provenance x cause in collapsed-stack format."""
    from repro.obs import StallFlame, render_flame

    _smoke_adjust(args)
    config = _machine(args)
    flame = StallFlame(root=f"{args.workload}/{args.variant}")
    _observed_run(args, config, [flame], provenance=True)
    print(render_flame(flame, top=args.top))
    if flame.total_stall_cycles == 0 and config.timing == "functional":
        print(
            "\n(the functional timing model never stalls; rerun with "
            "--timing detailed for a populated flamegraph)"
        )
    out = args.out or f"{args.workload}-{args.variant}.collapsed"
    with open(out, "w") as fh:
        fh.write(flame.collapsed())
    print(
        f"\n[collapsed stacks saved to {out} — drag into "
        "speedscope.app or feed to flamegraph.pl/inferno]"
    )
    return 0


def _cmd_regress(args) -> int:
    """Regression sentinel: fresh runs vs committed perf baselines."""
    from repro.obs.baseline import (
        DEFAULT_SUITE,
        BaselineStore,
        RegressionReport,
        compare_case,
        measure_case,
    )

    store = BaselineStore(args.baselines)
    cache = _cache(args)
    wanted = set(args.cases.split(",")) if args.cases else None

    if args.update_baselines:
        cases = [
            c for c in DEFAULT_SUITE
            if wanted is None or c.case_id in wanted
        ]
        if not cases:
            raise SystemExit(f"no baseline cases match {args.cases!r}")
        for case in cases:
            baseline = measure_case(case, n_jobs=args.jobs, cache=cache)
            path = store.save(baseline)
            print(f"[baseline written: {path}]")
        return 0

    case_ids = [
        cid for cid in store.case_ids()
        if wanted is None or cid in wanted
    ]
    if not case_ids:
        raise SystemExit(
            f"no baselines under {store.root!r}"
            + (f" matching {args.cases!r}" if wanted else "")
            + "; measure them first with --update-baselines"
        )
    report = RegressionReport()
    for case_id in case_ids:
        report.verdicts.extend(
            compare_case(
                store.load(case_id),
                n_jobs=args.jobs,
                cache=cache,
                mistime=args.mistime,
            )
        )
    print(report.render())
    if cache is not None and cache.stats.lookups:
        print(f"\n[cache: {cache.stats.summary()} ({cache.root})]")
    return 0 if report.ok else 1


def _cmd_report(args) -> int:
    from repro.obs import RunReport, render_reports

    reports = [RunReport.load(path) for path in args.reports]
    print(render_reports(reports, fmt="md" if args.md else "text"))
    return 0


def _cmd_dashboard(args) -> int:
    """Render RunReports + folded telemetry journals as one HTML page."""
    from repro.obs import RunReport, journal_summary, read_journal, render_dashboard

    reports = []
    events = []
    for path in args.inputs:
        if not path.endswith(".jsonl"):
            reports.append(RunReport.load(path))
            continue
        found = read_journal(path)
        if not found:
            raise SystemExit(f"{path!r} holds no journal events")
        events.extend(found)
    folded = journal_summary(events)
    telemetry, coverage = folded["telemetry"], folded["coverage"]
    if not reports and telemetry is None and not coverage:
        raise SystemExit(
            "dashboard needs report files and/or journals with "
            "run_jobs or campaign events"
        )
    html = render_dashboard(
        reports, telemetry=telemetry, coverage=coverage or None
    )
    with open(args.out, "w") as fh:
        fh.write(html)
    print(
        f"[dashboard: {len(reports)} report(s)"
        + (", telemetry" if telemetry is not None else "")
        + (
            f", {len(coverage)} coverage doc(s)" if coverage else ""
        )
        + f" -> {args.out}]"
    )
    return 0


def _cmd_watch(args) -> int:
    """Tail a telemetry journal; re-render the dashboard on change.

    The journal may still be written to (crashcheck/litmus/sweep with
    ``--journal``): reads are torn-line tolerant, and each render is a
    consistent snapshot of the events so far.  ``--once`` renders a
    single snapshot; otherwise the watcher polls until ``--max-seconds``
    elapses or it is interrupted.
    """
    from repro.obs import watch_once

    def size() -> int:
        try:
            return os.path.getsize(args.journal)
        except OSError:
            return -1

    rendered = watch_once(args.journal, args.out)
    print(f"[watch: {rendered} event(s) -> {args.out}]")
    if args.once:
        return 0
    deadline = (
        time.monotonic() + args.max_seconds
        if args.max_seconds is not None
        else None
    )
    last = size()
    try:
        while deadline is None or time.monotonic() < deadline:
            time.sleep(args.interval)
            current = size()
            if current != last:
                last = current
                rendered = watch_once(args.journal, args.out)
                print(f"[watch: {rendered} event(s) -> {args.out}]")
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_compare(args) -> int:
    variants = args.variants.split(",")
    results = compare_variants(
        _workload(args),
        _machine(args),
        variants,
        num_threads=args.threads,
        engine=args.engine,
        drain=True,  # count residual dirty lines: fair at small scale
        n_jobs=args.jobs,
        cache=_cache(args),
    )
    base_name = variants[0]
    base = results[base_name]
    rows = []
    for name in variants:
        r = results[name]
        writes = (
            r.total_writes / base.total_writes
            if base.total_writes
            else float("inf")
        )
        rows.append(
            [
                name,
                round(r.exec_cycles / base.exec_cycles, 4),
                round(writes, 4),
                round(r.l2_miss_rate, 3),
            ]
        )
    print(
        format_table(
            ["variant", f"exec (vs {base_name})", "writes", "L2MR"],
            rows,
            title=f"{args.workload}: variant comparison",
        )
    )
    return 0


def _cmd_crash(args) -> int:
    # Imported here: the verify package stays out of CLI start-up.
    from repro.verify.checker import check_crash_point

    # One image, recovered on a full machine: the table reports its
    # modelled recovery cycles.
    point = check_crash_point(
        _workload(args),
        _machine(args),
        "lp",
        CrashPlan(at_op=args.at_op),
        plan=None,
        num_threads=args.threads,
        engine=args.engine,
        cleaner_period=args.cleaner_period,
        replay=False,
    )
    rows = [
        ["crashed", point.crashed],
        ["writes before crash", point.writes_before_crash],
        ["recovery ops", point.recovery_ops],
        ["recovery cycles", round(point.recovery_cycles)],
        ["output exact", point.ok],
    ]
    print(
        format_table(
            ["metric", "value"], rows,
            title=f"{args.workload}+LP crash at op {args.at_op}",
        )
    )
    return 0 if point.ok else 1


def _cmd_crashcheck(args) -> int:
    """Crash-state enumeration checker (see docs/crash_testing.md).

    Exit code 0 when every checked variant behaves as expected: sound
    variants pass on every reachable image, and deliberately broken
    variants (``Workload.broken_variants``) are flagged with a
    counterexample.  Anything else exits 1.
    """
    cls = get_workload(args.workload)
    params = {
        **_CRASHCHECK_PARAMS.get(args.workload, {}),
        **_parse_params(args.param),
    }
    workload = cls(**params)
    config = _machine(args)
    active_model = get_model(config.model)
    if not active_model.enumerable:
        print(
            f"error: crash-state enumeration is not available under the "
            f"{active_model.name!r} persistency model "
            f"({active_model.summary}).\n"
            f"Models that support `repro crashcheck`: "
            f"{', '.join(enumerable_model_names())}.",
            file=sys.stderr,
        )
        return 2
    if args.variants:
        variants = args.variants.split(",")
    else:
        # Only schemes with a persist protocol are worth checking:
        # ``base`` (and any other scheme declared unsound by design)
        # makes no durability promise, so "recovers from any crash"
        # would be a vacuous expectation.
        variants = [
            v for v in cls.variants if get_scheme(v).sound
        ]
        # Broken variants encode flush/fence-discipline bugs; under a
        # model whose stores are durable at once (eADR, strict) they
        # are genuinely sound, so "must be flagged" would be a false
        # expectation — leave them out of the default list there.
        if not active_model.persist_on_store:
            variants += list(cls.broken_variants)
    broken = (
        set()
        if active_model.persist_on_store
        else set(cls.broken_variants)
    )

    op_points, max_flush, max_events, samples = (
        args.points,
        args.max_flush_points,
        args.max_events,
        args.samples,
    )
    if args.exhaustive:
        # Push the exhaustive frontier up (2^14 images worst case per
        # point); points with even more reorderable events — e.g. WAL
        # log-write bursts of 17+ independent lines — stay sampled, or
        # checking a single point would take minutes.
        max_events = max(max_events, 14)
    if args.nightly:
        op_points = max(op_points, 32)
        max_flush = None  # every persist boundary
        max_events = max(max_events, 16)
        samples = max(samples, 256)

    cache = _cache(args)
    from repro.analysis.runner import collect_telemetry

    # Harness job spans go to the same journal the workers append their
    # per-point coverage ticks to.
    with collect_telemetry(args.journal):
        reports = run_crashcheck_campaign(
            workload,
            config,
            variants,
            op_points=op_points,
            max_flush_points=max_flush,
            max_exhaustive_events=max_events,
            samples=samples,
            seed=args.seed,
            num_threads=args.threads,
            engine=args.engine,
            cleaner_period=args.cleaner_period,
            n_jobs=args.jobs,
            cache=cache,
            journal_path=args.journal,
            progress=args.progress,
        )

    rows = []
    ok_overall = True
    for variant, report in reports.items():
        crashed_points = sum(1 for p in report.points if p.crashed)
        multi = sum(1 for p in report.points if p.images_checked > 1)
        exhaustive = all(p.exhaustive for p in report.points)
        if variant in broken:
            expected = "counterexample" if not report.ok else "MISSED BUG"
            ok_overall &= not report.ok
        else:
            expected = "pass" if report.ok else "FAIL"
            ok_overall &= report.ok
        rows.append(
            [
                variant,
                len(report.points),
                crashed_points,
                report.images_checked,
                multi,
                report.max_events,
                "yes" if exhaustive else "sampled",
                len(report.counterexamples),
                expected,
            ]
        )
    print(
        format_table(
            [
                "variant",
                "points",
                "crashed",
                "images",
                "multi-image",
                "max events",
                "exhaustive",
                "cex",
                "verdict",
            ],
            rows,
            title=f"{args.workload}: crash-state check",
        )
    )
    print()
    for report in reports.values():
        print(f"  [coverage] {report.coverage().summary()}")
    for variant, report in reports.items():
        for cex in report.counterexamples[:3]:
            print(f"\n  {cex.describe()}")
        extra = len(report.counterexamples) - 3
        if extra > 0:
            print(f"  ... and {extra} more for {variant}")
    if args.cex_out:
        os.makedirs(args.cex_out, exist_ok=True)
        dumped = 0
        for variant, report in reports.items():
            for idx, cex in enumerate(report.counterexamples):
                path = os.path.join(
                    args.cex_out,
                    f"{args.workload}-{variant}-cex{idx:03d}.json",
                )
                _write_out(path, cex.to_dict())
                dumped += 1
        if dumped:
            print(f"\n[{dumped} counterexample(s) written to {args.cex_out}]")
    if cache is not None and cache.stats.lookups:
        print(f"\n[cache: {cache.stats.summary()} ({cache.root})]")
    return 0 if ok_overall else 1


def _cmd_litmus(args) -> int:
    """Cross-check the crash-state enumerator against each persistency
    model's declarative spec on a generated litmus corpus.

    Exit code 0 when every checked model behaves as expected: sound
    models produce exactly the spec's allowed image set on every
    program, and deliberately broken models (``broken=True`` in the
    registry) are flagged with at least one divergence.  ``--as-sound``
    drops the broken-model expectation inversion — every divergence
    then fails the run, which is how CI proves the harness actually
    catches the broken model (the command must exit 1).
    """
    from repro.verify.litmus import (
        DivergenceReport,
        check_model,
        generate_programs,
        replay_divergence,
    )

    if args.replay:
        with open(args.replay) as fh:
            report = DivergenceReport.from_dict(json.load(fh))
        result = replay_divergence(report)
        print(f"model:   {report.model} (spec: {report.spec})")
        print(f"program: {result.program.pretty()}")
        print(f"spec allows {len(result.spec_set)} image(s), "
              f"enumerator produced {len(result.run.sim_images)}")
        for key in result.missing:
            print(f"  missing from enumerator: {key}")
        for key in result.extra:
            print(f"  forbidden by spec:       {key}")
        print("verdict: " + ("still diverges" if not result.ok else "agrees"))
        return 0 if not result.ok else 1

    if args.models:
        models = args.models.split(",")
    else:
        models = enumerable_model_names()
    for name in models:
        get_model(name)  # fail fast on typos, before minutes of work

    programs = generate_programs(
        threads=args.threads,
        max_ops=args.max_ops,
        num_vars=args.vars,
        limit=args.limit,
    )
    print(
        f"litmus corpus: {len(programs)} programs "
        f"({args.threads} threads x <= {args.max_ops} ops, "
        f"{args.vars} vars)"
    )

    journal = None
    if args.journal:
        from repro.obs import TelemetryJournal

        journal = TelemetryJournal(path=args.journal)

    rows = []
    ok_overall = True
    all_reports = []
    coverages = []
    for name in models:
        verdict = check_model(name, programs, journal=journal)
        coverages.append(verdict.coverage())
        broken = verdict.broken and not args.as_sound
        if broken:
            expected = "divergence" if verdict.ok else "MISSED BUG"
            model_ok = verdict.ok
        else:
            model_ok = verdict.divergent == 0
            expected = "pass" if model_ok else "FAIL"
        ok_overall &= model_ok
        rows.append(
            [
                name,
                get_model(name).spec,
                verdict.programs_checked,
                verdict.divergent,
                "yes" if verdict.broken else "no",
                expected,
            ]
        )
        all_reports.extend(verdict.reports)
    print(
        format_table(
            ["model", "spec", "programs", "divergent", "broken", "verdict"],
            rows,
            title="persistency-model litmus cross-check",
        )
    )
    print()
    for cov in coverages:
        print(f"  [coverage] {cov.summary()}")
    for report in all_reports[:3]:
        shrunk = report.shrunk
        print(
            f"\n  {report.model}: {shrunk['name']} -> "
            f"missing={len(report.missing)} extra={len(report.extra)}"
        )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for idx, report in enumerate(all_reports):
            path = os.path.join(
                args.out, f"litmus-{report.model}-div{idx:03d}.json"
            )
            _write_out(path, report.to_dict())
        if all_reports:
            print(
                f"\n[{len(all_reports)} divergence report(s) written "
                f"to {args.out}]"
            )
    return 0 if ok_overall else 1


def _cmd_idempotence(args) -> int:
    from repro.core.idempotence import classify_workload
    from repro.sim.machine import Machine

    report = classify_workload(
        _workload(args),
        Machine(_machine(args)),
        num_threads=args.threads,
        engine=args.engine,
    )
    summary = report.summary()
    rows = [[k, v] for k, v in summary.items()]
    print(
        format_table(
            ["metric", "value"], rows,
            title=f"{args.workload}: LP-region idempotence (section III-E)",
        )
    )
    if report.all_idempotent:
        print("\nall regions idempotent: recovery = re-run mismatched regions")
    else:
        sample = report.violating_regions[0]
        print(
            f"\nregions overwrite live-ins (e.g. {sample.label}: "
            f"{len(sample.overwritten_live_ins)} locations): recovery "
            "needs frontier/replay machinery"
        )
    return 0


def _cmd_reproduce(args) -> int:
    from repro.analysis.paperfigures import reproduce

    report = reproduce(scale=args.scale, n_jobs=args.jobs)
    print(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report + "\n")
        print(f"\n[report saved to {args.out}]")
    return 0


def _cmd_sweep(args) -> int:
    from repro.analysis.runner import collect_telemetry

    wl = _workload(args)
    cfg = _machine(args)
    cache = _cache(args)
    engine_opts = dict(n_jobs=args.jobs, cache=cache)
    with collect_telemetry(args.journal) as journal:
        return _run_sweep(args, wl, cfg, cache, engine_opts, journal)


def _run_sweep(args, wl, cfg, cache, engine_opts, journal) -> int:
    if args.kind == "checksum":
        out = sweeps.sweep_checksum(
            wl, cfg, available_engines(), num_threads=args.threads,
            **engine_opts,
        )
        rows = [
            [name, round(r.exec_cycles), r.nvmm_writes]
            for name, r in out.items()
        ]
        headers = ["engine", "exec cycles", "writes"]
    elif args.kind == "latency":
        points = [(120.0, 300.0), (210.0, 450.0), (300.0, 600.0)]
        out = sweeps.sweep_nvmm_latency(
            wl, cfg, points, variants=("base", "lp"),
            num_threads=args.threads, **engine_opts,
        )
        rows = [
            [
                f"{int(r / 2)}ns/{int(w / 2)}ns",
                round(res["lp"].exec_cycles / res["base"].exec_cycles, 4),
            ]
            for (r, w), res in out.items()
        ]
        headers = ["(read/write)", "LP exec vs base"]
    elif args.kind == "threads":
        counts = [1, 2, 4, 8]
        out = sweeps.sweep_threads(
            wl, cfg, counts, variants=("base", "lp"), **engine_opts
        )
        rows = [
            [
                p,
                round(res["base"].exec_cycles),
                round(res["lp"].exec_cycles),
            ]
            for p, res in out.items()
        ]
        headers = ["threads", "base cycles", "LP cycles"]
    else:  # cleaner
        periods = [1000.0, 10000.0, 100000.0, None]
        out = sweeps.sweep_cleaner_period(
            wl, cfg, periods, num_threads=args.threads, **engine_opts
        )
        rows = [
            [
                "none" if p is None else int(p),
                res.nvmm_writes,
                res.cleaner_writes,
            ]
            for p, res in out.items()
        ]
        headers = ["period (cycles)", "writes", "cleaner writes"]
    print(format_table(headers, rows, title=f"{args.workload}: {args.kind} sweep"))
    if cache is not None and cache.stats.lookups:
        print(f"\n[cache: {cache.stats.summary()} ({cache.root})]")
    from repro.obs import journal_summary

    harness = journal_summary(journal.events)["telemetry"]["summary"]
    print(
        f"[harness: {harness['jobs']} jobs ({harness['hits']} cache hits, "
        f"{harness['runs']} runs) on {harness['workers']} worker(s) in "
        f"{harness['wall_clock_s']:.2f}s, "
        f"{100.0 * harness['utilization']:.0f}% utilized]"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree.

    Each flag that several subcommands take is defined once, by one of
    the builders below, and a default that differs by subcommand (such
    as ``--machine``'s) is a builder argument.  Shared argparse parents
    would not do: they share their Action objects, so a per-subcommand
    default set on one leaks into every subcommand built from it.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lazy Persistency (ISCA 2018) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, engines, presets")

    def machine_flags(
        p,
        machine_default,
        machine_help=None,
        param_help="workload parameter (repeatable), e.g. -p n=48",
    ):
        # machine_default=None marks smoke-aware commands: REPRO_SMOKE=1
        # then selects the tiny preset (see _smoke_adjust).
        p.add_argument("--threads", type=int, default=2)
        p.add_argument(
            "--machine", choices=sorted(_PRESETS), default=machine_default,
            help=machine_help,
        )
        p.add_argument("--engine", default="modular")
        p.add_argument(
            "--timing", choices=sorted(TIMING_MODELS), default="detailed",
            help="timing model (default: detailed — paper-faithful "
            "latencies; functional is the fast +1-cycle model for "
            "semantics-only runs)",
        )
        p.add_argument(
            "--model", choices=model_names(), default=DEFAULT_MODEL,
            help="persistency model (default: adr — the paper's "
            "platform; eadr puts the caches in the persistence domain, "
            "strict writes every store through, epoch orders but never "
            "commits, pre_adr is the pcommit-era completion-timed "
            "platform; eadr_nofence is deliberately broken for harness "
            "validation)",
        )
        p.add_argument(
            "-p", "--param", action="append", metavar="KEY=VALUE",
            help=param_help,
        )

    def point(p, machine_default="scaled"):
        p.add_argument("workload", choices=available_workloads())
        machine_flags(p, machine_default)

    def cleaner_flag(p):
        p.add_argument(
            "--cleaner-period", type=float, default=None, metavar="CYCLES",
            help="write back every dirty line each CYCLES cycles "
            "(default: no periodic cleaner)",
        )

    def single_run(p, machine_default=None):
        # run, trace, heatmap and flame: one observed run of a point.
        point(p, machine_default)
        p.add_argument("--variant", default="lp", choices=scheme_names())
        cleaner_flag(p)

    def report_out_flag(p):
        p.add_argument(
            "--report-out", default=None, metavar="FILE",
            help="write a RunReport manifest (JSON) for `repro report`",
        )

    def journal_flag(p):
        p.add_argument(
            "--journal", default=None, metavar="FILE",
            help="append telemetry events to this JSONL journal while "
            "the command runs (tail it with `repro watch`, render it "
            "with `repro dashboard`); does not affect results or cache "
            "keys",
        )

    def jobs_flag(p):
        p.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="run experiment points on N parallel processes",
        )

    def engine_flags(p):
        jobs_flag(p)
        p.add_argument(
            "--no-cache", action="store_true",
            help="skip the on-disk result cache (always re-simulate)",
        )
        p.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="result cache location (default: $REPRO_CACHE_DIR or "
            "~/.cache/repro-lazy-persistency)",
        )

    p_run = sub.add_parser("run", help="run one variant and print metrics")
    single_run(p_run, machine_default="scaled")
    p_run.add_argument("--drain", action="store_true")
    p_run.add_argument(
        "--obs-interval", type=float, default=None, metavar="CYCLES",
        help="sample the run into a CYCLES-wide interval time series "
        "(stalls, writes, queue depth per window)",
    )
    p_run.add_argument(
        "--obs-out", default=None, metavar="FILE",
        help="write the interval series here (.csv for CSV, else JSON; "
        "needs --obs-interval)",
    )
    report_out_flag(p_run)

    p_trace = sub.add_parser(
        "trace", help="record a run and export a Perfetto/Chrome trace"
    )
    single_run(p_trace)
    p_trace.add_argument(
        "--out", default=None, metavar="FILE",
        help="trace output path (default: <workload>-<variant>.trace.json)",
    )
    report_out_flag(p_trace)

    p_heatmap = sub.add_parser(
        "heatmap",
        help="per-line/per-region NVMM write heatmap (wear + coalescing)",
    )
    single_run(p_heatmap)
    p_heatmap.add_argument(
        "--base-variant", default="base", metavar="VARIANT",
        help="non-persistent reference for per-region write "
        "amplification (default: base; 'none' disables the second run)",
    )
    p_heatmap.add_argument(
        "--top", type=int, default=10, metavar="K",
        help="hot lines to list (default 10)",
    )
    p_heatmap.add_argument(
        "--out", default=None, metavar="FILE",
        help="export the full heatmap (.csv for per-line CSV, else JSON)",
    )

    p_flame = sub.add_parser(
        "flame",
        help="stall flamegraph: provenance x cause, collapsed-stack "
        "output for speedscope/inferno",
    )
    single_run(p_flame)
    p_flame.add_argument(
        "--top", type=int, default=15, metavar="K",
        help="stacks to list in the text table (default 15)",
    )
    p_flame.add_argument(
        "--out", default=None, metavar="FILE",
        help="collapsed-stack output path "
        "(default: <workload>-<variant>.collapsed)",
    )

    p_regress = sub.add_parser(
        "regress",
        help="compare fresh runs against committed perf baselines; "
        "exits 1 on out-of-band slowdowns or write growth",
    )
    p_regress.add_argument(
        "--baselines", default="benchmarks/baselines", metavar="DIR",
        help="baseline store directory (default: benchmarks/baselines)",
    )
    p_regress.add_argument(
        "--update-baselines", action="store_true",
        help="re-measure and rewrite the baselines instead of gating "
        "(the ratchet: commit the diff)",
    )
    p_regress.add_argument(
        "--cases", default=None, metavar="ID,ID,...",
        help="restrict to these case ids (default: every baseline "
        "on disk, or the full suite with --update-baselines)",
    )
    p_regress.add_argument(
        "--mistime", type=float, default=None, metavar="FACTOR",
        help="scale core issue latencies on the fresh side (injected-"
        "slowdown proof that the gate trips; CI uses 1.2)",
    )
    engine_flags(p_regress)

    p_report = sub.add_parser(
        "report", help="render RunReport manifests as a comparison table"
    )
    p_report.add_argument(
        "reports", nargs="+", metavar="REPORT.json",
        help="RunReport files (from run/trace --report-out)",
    )
    p_report.add_argument(
        "--md", action="store_true", help="emit a markdown table"
    )

    p_dash = sub.add_parser(
        "dashboard",
        help="render RunReports + telemetry journals as a self-contained "
        "HTML dashboard (sparklines, job timeline, verification "
        "coverage)",
    )
    p_dash.add_argument(
        "inputs", nargs="*", metavar="REPORT.json|JOURNAL.jsonl",
        help="RunReport files (from run/trace --report-out) and "
        "telemetry journals (*.jsonl, from --journal), folded together "
        "in argument order",
    )
    p_dash.add_argument(
        "-o", "--out", default="dashboard.html", metavar="FILE",
        help="output HTML path (default: dashboard.html)",
    )

    p_watch = sub.add_parser(
        "watch",
        help="tail a telemetry journal (crashcheck/litmus/sweep "
        "--journal) and re-render the live dashboard HTML on change",
    )
    p_watch.add_argument(
        "journal", metavar="JOURNAL.jsonl",
        help="append-only journal file being written by a running "
        "campaign (may not exist yet)",
    )
    p_watch.add_argument(
        "-o", "--out", default="dashboard.html", metavar="FILE",
        help="output HTML path, rewritten atomically on every change "
        "(default: dashboard.html)",
    )
    p_watch.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="poll interval (default 0.5)",
    )
    p_watch.add_argument(
        "--once", action="store_true",
        help="render one snapshot and exit instead of tailing",
    )
    p_watch.add_argument(
        "--max-seconds", type=float, default=None, metavar="S",
        help="stop tailing after S seconds (default: until ^C)",
    )

    p_cmp = sub.add_parser("compare", help="compare variants (normalized)")
    point(p_cmp)
    engine_flags(p_cmp)
    p_cmp.add_argument("--variants", default="base,lp,ep")

    p_crash = sub.add_parser("crash", help="crash an LP run and recover")
    point(p_crash)
    p_crash.add_argument("--at-op", type=int, required=True)
    cleaner_flag(p_crash)

    p_cc = sub.add_parser(
        "crashcheck",
        help="check recovery against every reachable post-crash image",
    )
    p_cc.add_argument(
        "--workload", choices=available_workloads(), default="tmm",
        help="workload to check (default: tmm)",
    )
    machine_flags(
        p_cc,
        machine_default="tiny",
        machine_help="machine preset (default: tiny — small caches keep "
        "the reachable-image space enumerable)",
        param_help="workload parameter (repeatable); defaults to a small "
        "crashcheck-friendly problem size",
    )
    p_cc.add_argument(
        "--variants", default=None,
        help="comma-separated variants (default: all non-base variants "
        "plus deliberately broken ones)",
    )
    p_cc.add_argument(
        "--points", type=int, default=8, metavar="N",
        help="evenly spaced at-op crash points (default 8)",
    )
    p_cc.add_argument(
        "--max-flush-points", type=int, default=32, metavar="N",
        help="cap on flush-boundary crash points (default 32)",
    )
    p_cc.add_argument(
        "--max-events", type=int, default=12, metavar="N",
        help="exhaustive enumeration frontier: points with more "
        "reorderable events than this are sampled (default 12)",
    )
    p_cc.add_argument(
        "--samples", type=int, default=64, metavar="N",
        help="sampled images per crash point above the frontier",
    )
    p_cc.add_argument("--seed", type=int, default=0)
    p_cc.add_argument(
        "--exhaustive", action="store_true",
        help="enumerate every reachable image at every crash point",
    )
    p_cc.add_argument(
        "--nightly", action="store_true",
        help="deep sweep: every flush boundary, dense op grid, more "
        "samples",
    )
    p_cc.add_argument(
        "--cex-out", default=None, metavar="DIR",
        help="dump every counterexample as JSON into DIR (created if "
        "missing); the nightly workflow uploads this as an artifact",
    )
    cleaner_flag(p_cc)
    journal_flag(p_cc)
    p_cc.add_argument(
        "--progress", action="store_true",
        help="print per-crash-point coverage ticks to stderr as they "
        "complete (off by default; independent of --journal)",
    )
    engine_flags(p_cc)

    p_litmus = sub.add_parser(
        "litmus",
        help="cross-check the crash-state enumerator against each "
        "persistency model's declarative spec on generated litmus "
        "programs",
    )
    p_litmus.add_argument(
        "--models", default=None, metavar="M,M,...",
        help="comma-separated persistency models (default: every "
        "enumerable model, including deliberately broken variants)",
    )
    p_litmus.add_argument(
        "--threads", type=int, default=2,
        help="threads per generated program (default 2)",
    )
    p_litmus.add_argument(
        "--max-ops", type=int, default=4, metavar="N",
        help="ops per generated thread (default 4)",
    )
    p_litmus.add_argument(
        "--vars", type=int, default=2, metavar="N",
        help="variables (one cache line each, max 4; default 2)",
    )
    p_litmus.add_argument(
        "--limit", type=int, default=48, metavar="N",
        help="corpus size: curated classics plus an evenly-strided "
        "slice of the systematic program space (default 48)",
    )
    p_litmus.add_argument(
        "--as-sound", action="store_true",
        help="hold broken models to the sound-model expectation (any "
        "divergence exits 1) — CI uses this to prove the harness "
        "flags them",
    )
    p_litmus.add_argument(
        "--out", default=None, metavar="DIR",
        help="dump shrunk divergence reports as JSON into DIR",
    )
    p_litmus.add_argument(
        "--replay", default=None, metavar="FILE",
        help="replay one divergence-report JSON and re-judge it "
        "(exit 0 if it still diverges)",
    )
    journal_flag(p_litmus)

    p_sweep = sub.add_parser("sweep", help="parameter sweeps")
    p_sweep.add_argument(
        "kind", choices=["checksum", "latency", "threads", "cleaner"]
    )
    point(p_sweep)
    engine_flags(p_sweep)
    journal_flag(p_sweep)

    p_idem = sub.add_parser(
        "idempotence", help="classify a workload's LP regions (III-E)"
    )
    point(p_idem)

    p_rep = sub.add_parser(
        "reproduce", help="compact end-to-end paper reproduction report"
    )
    p_rep.add_argument("--scale", choices=["smoke", "quick"], default="quick")
    p_rep.add_argument("--out", default=None, help="also write report here")
    jobs_flag(p_rep)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "trace": _cmd_trace,
        "heatmap": _cmd_heatmap,
        "flame": _cmd_flame,
        "regress": _cmd_regress,
        "report": _cmd_report,
        "dashboard": _cmd_dashboard,
        "watch": _cmd_watch,
        "compare": _cmd_compare,
        "crash": _cmd_crash,
        "crashcheck": _cmd_crashcheck,
        "litmus": _cmd_litmus,
        "sweep": _cmd_sweep,
        "idempotence": _cmd_idempotence,
        "reproduce": _cmd_reproduce,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
