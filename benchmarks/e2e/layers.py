"""Where a benchmark run's host time goes, measured from outside ``repro``.

Three instruments, none of which touches ``src/``:

* :data:`LAYERS` maps every module under ``src/repro`` to one of the
  simulator's layers.
* :class:`StackSampler` is a SIGPROF stack sampler.  Each sample is
  charged to the innermost frame that belongs to ``repro``, so time
  spent in numpy and builtins lands on the repro function that called
  them.  It costs one signal per timer tick.  cProfile is not used
  because it charges a cost to every Python call, and that cost is
  far from uniform across layers.
* :class:`Probe` installs temporary wrappers around the layers' public
  calls for one ``with`` block.  It records spans, keyed by name and
  parent span, and counts modelled work.  It removes every wrapper on
  exit, so untraced repeats run unmodified code.
"""

from __future__ import annotations

import functools
import os
import signal
import sys
import time
import weakref
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Layer -> the modules it owns.  ``pkg.*`` means the package and every
#: module under it; any other entry is one exact module.  The table must
#: map each module under ``src/repro`` to exactly one layer (the tests
#: check this), so a new module needs a decision here.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "workloads": ("repro.workloads.*",),
    "schemes": ("repro.schemes.*",),
    "core": ("repro.core.*",),
    "harness": ("repro.analysis.*", "repro.cli", "repro.__main__"),
    "obs": ("repro.obs.*", "repro.sim.trace"),
    "sim.machine": ("repro.sim", "repro.sim.machine"),
    "sim.core": (
        "repro.sim.core",
        "repro.sim.isa",
        "repro.sim.valuestore",
        "repro.sim.address",
    ),
    "sim.timing": (
        "repro.sim.timing",
        "repro.sim.events",
        "repro.sim.ledger",
        "repro.sim.stats",
    ),
    "sim.cache": ("repro.sim.cache", "repro.sim.coherence"),
    "sim.nvmm": (
        "repro.sim.nvmm",
        "repro.sim.persist",
        "repro.sim.queues",
        "repro.sim.model",
        "repro.sim.cleaner",
    ),
    "sim.config": ("repro.sim.config",),
    "sim.opstream": ("repro.sim.opstream",),
    "sim.crash": ("repro.sim.crash",),
    "verify.enumerate": ("repro.verify.enumerate", "repro.verify.graph"),
    "verify.checker": (
        "repro.verify",
        "repro.verify.checker",
        "repro.verify.litmus",
    ),
    "other": ("repro", "repro.errors"),
}

#: Spans that absorb their callees: a wrapped call made inside one of
#: these records no span of its own (its time stays in the parent), so
#: span times never count the same second twice.
LEAF_SPANS = frozenset(
    {
        "workloads.bind",
        "workloads.verify",
        "sim.machine.run",
        "sim.machine.drain",
        "verify.plan",
        "verify.run_to_crash",
        "verify.enumerate",
        "verify.rebuild",
        "verify.rebind",
        "verify.recover",
        "verify.check",
        "verify.shrink",
    }
)


def use_checkout_src() -> None:
    """Make ``import repro`` load this checkout's ``src/repro``.

    Raises ``FileNotFoundError`` when the checkout has no source tree,
    so the benchmark fails instead of importing some other copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no repro source tree at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def layers_of(module: str) -> List[str]:
    """Every layer whose table entry covers the dotted ``module`` name."""
    found = []
    for layer, entries in LAYERS.items():
        for entry in entries:
            if entry.endswith(".*"):
                package = entry[:-2]
                hit = module == package or module.startswith(package + ".")
            else:
                hit = module == entry
            if hit:
                found.append(layer)
                break
    return found


def module_of(path: str, package_dir: str) -> Optional[str]:
    """Dotted module name of a source file under ``package_dir`` (the
    ``repro`` package directory), or None for files outside it."""
    rel = os.path.relpath(path, package_dir)
    if rel.startswith(os.pardir) or not rel.endswith(".py"):
        return None
    parts = ["repro"] + rel[: -len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def package_dir() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


class StackSampler:
    """Self time per layer from SIGPROF stack samples.

    ``ITIMER_PROF`` counts process CPU time, so an idle wait is never
    sampled; the benchmark runs one CPU-bound thread, where CPU time
    and wall time agree.  The sampler accumulates over every ``with``
    block it is used in.
    """

    def __init__(self, interval: float = 0.004) -> None:
        self.interval = interval
        self.samples: Counter = Counter()
        self._root = package_dir()
        #: co_filename -> layer, or "" for files outside repro.
        self._layer_by_file: Dict[str, str] = {}
        self._previous = None

    def _layer_of_file(self, filename: str) -> str:
        module = module_of(os.path.abspath(filename), self._root)
        found = layers_of(module) if module is not None else []
        layer = found[0] if found else ""
        self._layer_by_file[filename] = layer
        return layer

    def _on_signal(self, signum, frame) -> None:
        cache = self._layer_by_file
        layer = ""
        while frame is not None:
            filename = frame.f_code.co_filename
            layer = cache.get(filename)
            if layer is None:
                layer = self._layer_of_file(filename)
            if layer:
                break
            frame = frame.f_back
        self.samples[layer or "other"] += 1

    def __enter__(self) -> "StackSampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)


def _stats_snapshot(stats) -> Tuple[float, int, Dict[str, int], float, int]:
    return (
        stats.exec_cycles,
        stats.nvmm_reads,
        dict(stats.writes_by_cause),
        sum(stats.ledger.stall_cycles.values()),
        sum(stats.hazard_totals().values()),
    )


class Probe:
    """Spans and modelled-work counts from temporary wrappers.

    ``spans`` maps ``(name, parent)`` to ``[calls, seconds]``; ``counts``
    holds the work the wrapped calls did (simulated ops, cycles, NVMM
    reads and writes by cause, stall cycles, hazards, recovery runs,
    harness jobs).  Both accumulate over every ``with`` block.
    """

    def __init__(self) -> None:
        self.spans: Dict[Tuple[str, Optional[str]], List[float]] = {}
        self.counts: Counter = Counter()
        self._stack: List[str] = []
        self._post_crash: "weakref.WeakSet" = weakref.WeakSet()
        self._undo: List[Callable[[], None]] = []
        self._wrappers: Dict[int, Tuple[object, object]] = {}

    # -- span bookkeeping ----------------------------------------------------

    def _timed(self, name: str, fn, *args, **kwargs):
        stack = self._stack
        if stack and stack[-1] in LEAF_SPANS:
            return fn(*args, **kwargs)
        parent = stack[-1] if stack else None
        stack.append(name)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            entry = self.spans.setdefault((name, parent), [0, 0.0])
            entry[0] += 1
            entry[1] += elapsed

    def span_seconds(self, name: str) -> float:
        return sum(s for (n, _), (_, s) in self.spans.items() if n == name)

    # -- wrapper installation ------------------------------------------------

    def _patch_attr(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, wrapper)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _wrap_function(self, module_name: str, attr: str, make) -> None:
        """Replace a module function in every loaded repro module that
        binds it (callers that did ``from module import name`` hold
        their own reference).  Modules not loaded yet are skipped."""
        module = sys.modules.get(module_name)
        if module is None:
            return
        original = getattr(module, attr)
        wrapper = functools.wraps(original)(make(original))
        self._wrappers[id(wrapper)] = (wrapper, original)
        for loaded in _repro_modules():
            for name, value in list(vars(loaded).items()):
                if value is original:
                    self._patch_attr(loaded, name, wrapper)

    def __enter__(self) -> "Probe":
        from repro.analysis.runner import CrashCheckJob, Job
        from repro.sim.machine import Machine
        from repro.workloads.base import BoundWorkload, Workload

        probe = self

        def run(original):
            def wrapper(machine, *args, **kwargs):
                before = _stats_snapshot(machine.stats)
                post = machine in probe._post_crash
                name = "verify.recover" if post else "sim.machine.run"
                result = probe._timed(name, original, machine, *args, **kwargs)
                probe._count(machine.stats, before)
                probe.counts["sim.ops"] += result.ops_executed
                if post:
                    probe.counts["verify.recover_runs"] += 1
                    probe.counts["verify.recover_ops"] += result.ops_executed
                return result

            return wrapper

        def drain(original):
            def wrapper(machine):
                before = _stats_snapshot(machine.stats)
                written = probe._timed("sim.machine.drain", original, machine)
                probe._count(machine.stats, before)
                return written

            return wrapper

        def rebuild(original):
            def wrapper(machine, *args, **kwargs):
                post = probe._timed(
                    "verify.rebuild", original, machine, *args, **kwargs
                )
                probe._post_crash.add(post)
                return post

            return wrapper

        def bind(original):
            def wrapper(workload, *args, **kwargs):
                create = kwargs.get("create", args[3] if len(args) > 3 else True)
                name = "workloads.bind" if create else "verify.rebind"
                return probe._timed(name, original, workload, *args, **kwargs)

            return wrapper

        def verify(original):
            def wrapper(bound, *args, **kwargs):
                checking = "verify.point" in probe._stack
                name = "verify.check" if checking else "workloads.verify"
                return probe._timed(name, original, bound, *args, **kwargs)

            return wrapper

        def span(name):
            def make(original):
                def wrapper(*args, **kwargs):
                    return probe._timed(name, original, *args, **kwargs)

                return wrapper

            return make

        def run_jobs(original):
            def wrapper(jobs, *args, **kwargs):
                probe.counts["harness.jobs"] += len(jobs)
                return probe._timed(
                    "harness.run_jobs", original, jobs, *args, **kwargs
                )

            return wrapper

        methods = [
            (Machine, "run", run),
            (Machine, "drain", drain),
            (Machine, "after_crash_with_image", rebuild),
            (Job, "run", span("harness.job")),
            (CrashCheckJob, "run", span("harness.job")),
        ]
        methods += [(cls, "bind", bind) for cls in _subclasses(Workload)]
        methods += [
            (cls, "verify", verify)
            for cls in [BoundWorkload] + _subclasses(BoundWorkload)
        ]
        try:
            for cls, attr, make in methods:
                if attr in cls.__dict__:
                    self._patch_attr(cls, attr, make(cls.__dict__[attr]))
            for module_name, attr, make in (
                ("repro.analysis.runner", "run_jobs", run_jobs),
                ("repro.analysis.crashlab", "crash_plans_for", span("verify.plan")),
                ("repro.verify.checker", "check_crash_point", span("verify.point")),
                ("repro.verify.checker", "minimize_failure", span("verify.shrink")),
                ("repro.sim.crash", "run_to_crash_space",
                 span("verify.run_to_crash")),
                ("repro.verify.enumerate", "enumerate_images",
                 span("verify.enumerate")),
            ):
                self._wrap_function(module_name, attr, make)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()
        # Modules imported while the wrappers were live may have bound a
        # wrapper by name; hand them the original back.
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                pair = self._wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, name, pair[1])
        self._wrappers.clear()
        self._stack.clear()

    def _count(self, stats, before) -> None:
        cycles, reads, writes, stalls, hazards = before
        now = _stats_snapshot(stats)
        counts = self.counts
        counts["sim.cycles"] += now[0] - cycles
        counts["sim.nvmm.reads"] += now[1] - reads
        for cause, n in now[2].items():
            counts[f"sim.nvmm.writes_{cause}"] += n - writes.get(cause, 0)
        counts["sim.timing.stall_cycles"] += now[3] - stalls
        counts["sim.timing.hazards"] += now[4] - hazards


def _repro_modules():
    """Every loaded module of the repro package."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            yield module


def _subclasses(cls) -> list:
    """Every class below ``cls``, each once."""
    out: Dict[type, None] = {}
    for sub in cls.__subclasses__():
        out[sub] = None
        out.update(dict.fromkeys(_subclasses(sub)))
    return list(out)
