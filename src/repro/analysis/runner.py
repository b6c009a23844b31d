"""Parallel experiment engine with an on-disk result cache.

Every paper figure is a fan-out of independent ``run_variant`` points:
each point is a pure function of (workload spec, machine config,
variant, threads, engine, cleaner period), so the engine can

* distribute points over a ``multiprocessing`` pool (``n_jobs > 1``)
  with spawn-safe job descriptors and ordered result collection, and
* memoize each point on disk under a content-addressed key, so
  re-running a sweep after an unrelated edit is a cache hit instead of
  a re-simulation.

The cache key hashes the full job description plus a digest of the
simulator-relevant source tree (:func:`code_version`), so editing
``repro/sim`` or a workload invalidates stale entries automatically
while editing benchmarks, docs, or the CLI does not.

Usage::

    jobs = [Job(workload, config, v) for v in ("base", "lp", "ep")]
    results = run_jobs(jobs, n_jobs=4, cache=ResultCache())

``n_jobs=1`` is the serial fallback: jobs run in-process, in order,
with no pool — bit-for-bit the same results as the parallel path.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import os
import random
import tempfile
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.experiments import ExperimentResult, run_variant
from repro.errors import ConfigError
from repro.sim.config import MachineConfig
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.journal import TelemetryJournal

#: Bumped whenever the cache record layout changes.
CACHE_FORMAT_VERSION = 1

#: Subpackages of ``repro`` whose source feeds :func:`code_version`.
#: The CLI, reporting, and benchmark drivers are deliberately absent:
#: editing them cannot change a simulation's outcome, so sweeps stay
#: cached across such edits.
_VERSIONED_SUBTREES = (
    "sim",
    "core",
    "schemes",
    "workloads",
    "verify",
    "analysis/experiments.py",
)

_code_version_memo: Optional[str] = None


def code_version() -> str:
    """Digest of the simulator-relevant source files.

    Any edit under ``repro/sim``, ``repro/core``, ``repro/workloads``,
    or to ``run_variant`` itself changes this digest and therefore
    every cache key; results produced by older code can never be
    served for newer code.
    """
    global _code_version_memo
    if _code_version_memo is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        for sub in _VERSIONED_SUBTREES:
            path = os.path.join(root, sub)
            if os.path.isfile(path):
                files = [path]
            else:
                files = sorted(
                    os.path.join(dirpath, name)
                    for dirpath, _, names in os.walk(path)
                    for name in names
                    if name.endswith(".py")
                )
            for fname in files:
                digest.update(os.path.relpath(fname, root).encode())
                with open(fname, "rb") as fh:
                    digest.update(fh.read())
        _code_version_memo = digest.hexdigest()
    return _code_version_memo


def workload_spec(workload: Workload) -> Dict[str, object]:
    """Canonical description of a workload instance.

    Workloads hold only scalar problem parameters (sizes, seeds, mode
    strings), so their ``vars()`` is a complete, JSON-safe spec.
    """
    spec: Dict[str, object] = {"__class__": type(workload).__qualname__,
                               "__name__": workload.name}
    for key, value in sorted(vars(workload).items()):
        if not isinstance(value, (int, float, str, bool, type(None))):
            raise ConfigError(
                f"workload {workload.name!r} attribute {key!r} is not a "
                f"scalar ({type(value).__name__}); cannot build a stable "
                "cache key"
            )
        spec[key] = value
    return spec


def workload_from_spec(spec: Dict[str, object]) -> Workload:
    """Rebuild a workload instance from a :func:`workload_spec` dict.

    The spec records every instance attribute, including derived ones
    (e.g. a tile count computed from ``n`` and ``bsize``), so only the
    keys naming actual constructor parameters are passed back; the
    constructor re-derives the rest.  This is how the regression
    sentinel re-runs exactly the workload a committed baseline
    measured (:mod:`repro.obs.baseline`).
    """
    import inspect

    from repro.workloads import get_workload

    name = spec.get("__name__")
    if not isinstance(name, str):
        raise ConfigError(f"workload spec lacks a __name__: {spec!r}")
    cls = get_workload(name)
    accepted = set(inspect.signature(cls.__init__).parameters) - {"self"}
    kwargs = {
        key: value
        for key, value in spec.items()
        if not key.startswith("__") and key in accepted
    }
    workload = cls(**kwargs)
    rebuilt = workload_spec(workload)
    if rebuilt != spec:
        raise ConfigError(
            f"workload spec round-trip mismatch for {name!r}: "
            f"stored {spec!r}, rebuilt {rebuilt!r} — the workload's "
            "parameters have changed incompatibly"
        )
    return workload


@dataclass(frozen=True)
class Job:
    """Spawn-safe descriptor of one ``run_variant`` point.

    Carries only picklable state (the workload's scalar parameters,
    the frozen config dataclasses, strings and numbers), so it crosses
    a ``spawn`` process boundary unchanged.
    """

    workload: Workload
    config: MachineConfig
    variant: str
    num_threads: int = 8
    engine: str = "modular"
    cleaner_period: Optional[float] = None
    verify: bool = True
    drain: bool = False
    #: Interval-sampling window in cycles (``None`` = no observability).
    #: Part of the cache key when set, so sampled results live under
    #: distinct keys and can never be served to (or poison) plain runs.
    obs_interval: Optional[float] = None
    #: Provenance tagging (free Phase frame ops for stall attribution).
    #: Same keying discipline as ``obs_interval``: in the key only when
    #: on, so untagged jobs keep their pre-provenance keys.
    provenance: bool = False

    def cache_key(self) -> str:
        """Content-addressed identity of this job's result."""
        payload = {
            "workload": workload_spec(self.workload),
            "config": self.config.cache_key(),
            "variant": self.variant,
            "num_threads": self.num_threads,
            "engine": self.engine,
            "cleaner_period": self.cleaner_period,
            "verify": self.verify,
            "drain": self.drain,
            "code": code_version(),
            "format": CACHE_FORMAT_VERSION,
        }
        # Only present when sampling, so every pre-observability key
        # (and any plain run's key) is byte-identical to before.
        if self.obs_interval is not None:
            payload["obs_interval"] = self.obs_interval
        if self.provenance:
            payload["provenance"] = True
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()

    def run(self) -> ExperimentResult:
        """Execute the point (no cache), with deterministic seeding.

        The simulator draws randomness only from seeds inside the job
        description (workload seed, ``schedule_seed``), but the global
        RNGs are reseeded from the cache key anyway so any future
        stray ``random``/``numpy`` call stays reproducible per job.
        """
        seed = int(self.cache_key()[:16], 16)
        random.seed(seed)
        try:
            import numpy as np

            np.random.seed(seed % (2**32))
        except ImportError:  # pragma: no cover - numpy is a hard dep
            pass
        return run_variant(
            self.workload,
            self.config,
            self.variant,
            num_threads=self.num_threads,
            engine=self.engine,
            cleaner_period=self.cleaner_period,
            verify=self.verify,
            drain=self.drain,
            obs_interval=self.obs_interval,
            provenance=self.provenance,
        )


@dataclass(frozen=True)
class CrashCheckJob:
    """Spawn-safe descriptor of one crash-state checking campaign:
    one (workload, variant) checked across a set of crash plans.

    Same engine protocol as :class:`Job` — ``cache_key()`` + ``run()``
    — so ``run_jobs`` fans crashcheck campaigns over the pool and the
    on-disk cache exactly like experiment points (pass
    ``decode=CrashCheckReport.from_dict`` when a cache is used).
    """

    workload: Workload
    config: MachineConfig
    variant: str
    #: Crash triggers in ``repro.verify.plan_to_dict`` form (JSON-safe
    #: and spawn-safe; rebuilt into CrashPlans inside the worker).
    crash_plans: Tuple[Dict[str, float], ...]
    max_exhaustive_events: int = 12
    samples: int = 64
    seed: int = 0
    num_threads: int = 2
    engine: str = "modular"
    cleaner_period: Optional[float] = None
    #: Per-image recovery on replay machines (exact and much faster;
    #: False restores full-machine recovery runs for benchmarking).
    replay: bool = True
    #: Streaming-observability plumbing: an append-only JSONL journal
    #: the worker writes ``campaign_point`` events to, and/or stderr
    #: progress ticks.  Neither changes the campaign's outcome, so
    #: neither appears in ``cache_key()`` — a journaled run and a
    #: silent run share one cache entry.
    journal_path: Optional[str] = None
    progress: bool = False

    def cache_key(self) -> str:
        """Content-addressed identity of this campaign's report.

        The timing model is part of ``config.cache_key()``, so routing
        a campaign through ``FastFunctional`` never reuses detailed
        results (the reachable spaces differ under multicore
        interleaving).
        """
        payload = json.dumps(
            {
                "kind": "crashcheck",
                "workload": workload_spec(self.workload),
                "config": self.config.cache_key(),
                "variant": self.variant,
                "crash_plans": list(self.crash_plans),
                "max_exhaustive_events": self.max_exhaustive_events,
                "samples": self.samples,
                "seed": self.seed,
                "num_threads": self.num_threads,
                "engine": self.engine,
                "cleaner_period": self.cleaner_period,
                "replay": self.replay,
                "code": code_version(),
                "format": CACHE_FORMAT_VERSION,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def run(self):
        """Execute the campaign (no cache); returns a CrashCheckReport."""
        from repro.verify import (
            EnumerationPlan,
            check_variant,
            plan_from_dict,
        )

        seed = int(self.cache_key()[:16], 16)
        random.seed(seed)
        try:
            import numpy as np

            np.random.seed(seed % (2**32))
        except ImportError:  # pragma: no cover - numpy is a hard dep
            pass
        journal = None
        if self.journal_path is not None or self.progress:
            # Imported lazily: silent campaigns never load the obs
            # package inside pool workers.
            from repro.obs.journal import TelemetryJournal

            journal = TelemetryJournal(
                path=self.journal_path, progress=self.progress
            )
        return check_variant(
            self.workload,
            self.config,
            self.variant,
            [plan_from_dict(d) for d in self.crash_plans],
            EnumerationPlan(
                max_exhaustive_events=self.max_exhaustive_events,
                samples=self.samples,
                seed=self.seed,
            ),
            num_threads=self.num_threads,
            engine=self.engine,
            cleaner_period=self.cleaner_period,
            replay=self.replay,
            journal=journal,
        )


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-lazy-persistency``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-lazy-persistency")


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot (journal batch events, CLI summaries)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "hit_rate": round(self.hit_rate(), 4),
        }

    def summary(self) -> str:
        """One-line human summary: ``3/7 hits (42.9%)``."""
        return (
            f"{self.hits}/{self.lookups} hits "
            f"({100.0 * self.hit_rate():.1f}%)"
        )


#: Ambient journal installed by :func:`collect_telemetry` — lets the
#: CLI collect spans across call chains (sweeps, compares) whose
#: intermediate layers do not thread a journal argument.
_ACTIVE_JOURNAL: Optional["TelemetryJournal"] = None


@contextlib.contextmanager
def collect_telemetry(
    journal: Optional[str] = None,
) -> Iterator["TelemetryJournal"]:
    """Journal every :func:`run_jobs` call in the block.

    Installs and yields a :class:`repro.obs.journal.TelemetryJournal`
    that appends to the file ``journal``, or is kept in memory when no
    path is given.  ``journal_summary(journal.events)`` folds what the
    block ran into a :class:`repro.obs.journal.RunTelemetry` document.
    """
    global _ACTIVE_JOURNAL
    # Imported lazily: importing the runner never loads repro.obs.
    from repro.obs.journal import TelemetryJournal

    sink = TelemetryJournal(path=journal)
    previous = _ACTIVE_JOURNAL
    _ACTIVE_JOURNAL = sink
    try:
        yield sink
    finally:
        _ACTIVE_JOURNAL = previous


class ResultCache:
    """Content-addressed on-disk store of :class:`ExperimentResult`.

    One JSON file per result, named by the job's cache key and fanned
    into 256 two-hex-digit subdirectories.  Writes are atomic (temp
    file + rename), so a crashed or concurrent writer can at worst
    leave a stale temp file, never a torn record.  Unreadable or
    malformed entries are treated as misses and deleted — the engine
    falls back to re-running the job.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_cache_dir()
        self.stats = CacheStats()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def get(self, key: str, decode=None) -> Optional[ExperimentResult]:
        """The cached result for ``key``, or None on miss/corruption.

        ``decode`` rebuilds the result object from its stored dict;
        the default is :meth:`ExperimentResult.from_dict`.  Crashcheck
        campaigns pass ``CrashCheckReport.from_dict``.  A record that
        the decoder rejects counts as corruption (miss + delete), so a
        key collision across record kinds can never serve the wrong
        type.
        """
        if decode is None:
            decode = ExperimentResult.from_dict
        path = self._path(key)
        try:
            with open(path, "r") as fh:
                record = json.load(fh)
            if record["format"] != CACHE_FORMAT_VERSION or record["key"] != key:
                raise ValueError("cache record does not match its key")
            result = decode(record["result"])
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (ValueError, KeyError, TypeError, OSError):
            self.stats.misses += 1
            self.stats.corrupt += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return result

    def put(self, key: str, result: ExperimentResult) -> None:
        """Atomically persist ``result`` under ``key``."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        record = {
            "format": CACHE_FORMAT_VERSION,
            "key": key,
            "result": result.to_dict(),
        }
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(record, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1

    # -- binary sidecar blobs (recorded op streams) ----------------------

    def _blob_path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".npz")

    def get_blob(self, key: str):
        """The cached op stream for ``key``, or None on miss/corruption.

        Same contract as :meth:`get`, for the ``.npz`` sidecar blobs
        :func:`cached_op_stream` stores next to the JSON records: any
        unreadable, malformed, or format-mismatched blob counts as a
        corrupt miss and is deleted.
        """
        from repro.sim.opstream import load_stream

        path = self._blob_path(key)
        try:
            stream = load_stream(path)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except ValueError:
            self.stats.misses += 1
            self.stats.corrupt += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return stream

    def put_blob(self, key: str, stream) -> None:
        """Atomically persist an op stream under ``key``."""
        from repro.sim.opstream import save_stream

        path = self._blob_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".npz"
        )
        os.close(fd)
        try:
            save_stream(stream, tmp)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1

    def clear(self) -> int:
        """Delete every cached entry (records and stream blobs);
        returns how many were removed."""
        removed = 0
        if not os.path.isdir(self.root):
            return removed
        for dirpath, _, names in os.walk(self.root):
            for name in names:
                if name.endswith(".json") or name.endswith(".npz"):
                    os.remove(os.path.join(dirpath, name))
                    removed += 1
        return removed


def stream_cache_key(
    workload: Workload,
    config: MachineConfig,
    variant: str,
    num_threads: int,
    engine: str,
) -> str:
    """Content-addressed identity of one forward point's op stream.

    Same keying discipline as :meth:`Job.cache_key`: the full point
    description plus :func:`code_version`, so editing the simulator or
    a workload invalidates every stale stream, plus the stream format
    version so layout changes can never misparse old blobs.
    """
    from repro.sim.opstream import STREAM_FORMAT_VERSION

    payload = {
        "kind": "opstream",
        "workload": workload_spec(workload),
        "config": config.cache_key(),
        "variant": variant,
        "num_threads": num_threads,
        "engine": engine,
        "code": code_version(),
        "format": CACHE_FORMAT_VERSION,
        "stream_format": STREAM_FORMAT_VERSION,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def cached_op_stream(
    workload: Workload,
    config: MachineConfig,
    variant: str,
    num_threads: int = 8,
    engine: str = "modular",
    cache: Optional[ResultCache] = None,
):
    """The recorded op stream for one forward point: load it from the
    cache, or record it once (one ordinary replay run) and store it.

    Returns a :class:`repro.sim.opstream.OpStream`;
    :meth:`~repro.sim.opstream.OpStream.decode` yields its
    ``(core_id, op)`` pairs.  Streams are only valid for
    value-deterministic forward runs — workloads advertising
    ``stream_safe = False`` are refused — and only encode the
    trigger-free replay schedule.
    """
    from repro.sim.machine import Machine
    from repro.sim.opstream import record_stream

    if not workload.stream_safe:
        raise ConfigError(
            f"workload {workload.name!r} declares stream_safe=False; "
            "its forward runs cannot be replayed from a recorded stream"
        )
    key = stream_cache_key(workload, config, variant, num_threads, engine)
    if cache is not None:
        stream = cache.get_blob(key)
        if stream is not None:
            return stream
    machine = Machine(config, _replay=True)
    bound = workload.bind(machine, num_threads=num_threads, engine=engine)
    stream, _ = record_stream(machine, bound.threads(variant))
    if cache is not None:
        cache.put_blob(key, stream)
    return stream


def _job_label(job: object) -> str:
    """Human span label for any ``cache_key()``/``run()`` job."""
    workload = getattr(job, "workload", None)
    name = getattr(workload, "name", None) or type(job).__name__
    variant = getattr(job, "variant", None)
    return f"{name}/{variant}" if variant else str(name)


def _execute_indexed(
    payload: Tuple[int, Job]
) -> Tuple[int, ExperimentResult, float, float]:
    """Pool worker: run one job, tagged with its submission index and
    its start/end wall-clock timestamps (``time.time()``, comparable
    across processes on one host)."""
    index, job = payload
    start = time.time()
    result = job.run()
    return index, result, start, time.time()


def run_jobs(
    jobs: Sequence[Job],
    n_jobs: int = 1,
    cache: Optional[ResultCache] = None,
    mp_context: str = "spawn",
    decode=None,
    journal: Optional["TelemetryJournal"] = None,
) -> List[ExperimentResult]:
    """Run experiment points, in parallel, through the result cache.

    Results come back in submission order regardless of completion
    order.  ``cache=None`` disables the on-disk cache entirely;
    ``n_jobs=1`` runs serially in-process (identical results, no pool).
    Duplicate jobs in one batch are simulated once.

    Any job type implementing the ``cache_key()``/``run()`` protocol
    works (:class:`Job`, :class:`CrashCheckJob`); its result must offer
    ``to_dict()`` when a cache is used, and ``decode`` must be the
    matching ``from_dict`` (defaults to ExperimentResult's).

    ``journal`` (or an ambient :func:`collect_telemetry` journal)
    receives one ``job_span`` event per job — cache hits included —
    and one ``batch`` event with this batch's counts, worker count,
    wall clock and a cache-stats snapshot.
    """
    if n_jobs < 1:
        raise ConfigError(f"n_jobs must be >= 1, got {n_jobs}")
    if journal is None:
        journal = _ACTIVE_JOURNAL
    batch_start = time.time()
    if journal is not None and journal.epoch is None:
        journal.epoch = batch_start
    workers = 1
    hits = 0

    def emit_span(job, status: str, start: float, end: float) -> None:
        # Offsets from the journal's first batch put every batch's
        # spans (and pool workers' spans) on one timeline.
        journal.emit(
            "job_span",
            workers=workers,
            label=_job_label(job),
            status=status,
            start_s=round(start - journal.epoch, 6),
            end_s=round(end - journal.epoch, 6),
            wall_s=round(end - start, 6),
        )

    results: List[Optional[ExperimentResult]] = [None] * len(jobs)

    # Cache probe; collect misses, collapsing duplicate keys.
    pending: Dict[str, List[int]] = {}
    pending_jobs: List[Job] = []
    for index, job in enumerate(jobs):
        key = job.cache_key()
        if cache is not None and key not in pending:
            probe_start = time.time()
            hit = cache.get(key, decode=decode)
            if hit is not None:
                results[index] = hit
                hits += 1
                if journal is not None:
                    emit_span(job, "hit", probe_start, time.time())
                continue
        if key in pending:
            pending[key].append(index)
        else:
            pending[key] = [index]
            pending_jobs.append(job)

    # Run the misses.
    if pending_jobs:
        if n_jobs == 1 or len(pending_jobs) == 1:
            finished = []
            for i, job in enumerate(pending_jobs):
                start = time.time()
                result = job.run()
                finished.append((i, result, start, time.time()))
        else:
            ctx = multiprocessing.get_context(mp_context)
            workers = min(n_jobs, len(pending_jobs))
            with ctx.Pool(processes=workers) as pool:
                finished = list(
                    pool.imap_unordered(
                        _execute_indexed, enumerate(pending_jobs)
                    )
                )
        keys = list(pending)
        for pending_index, result, start, end in finished:
            key = keys[pending_index]
            if cache is not None:
                cache.put(key, result)
            if journal is not None:
                emit_span(pending_jobs[pending_index], "run", start, end)
            for index in pending[key]:
                results[index] = result

    if journal is not None:
        journal.emit(
            "batch",
            jobs=hits + len(pending_jobs),
            hits=hits,
            runs=len(pending_jobs),
            workers=workers,
            wall_clock_s=round(time.time() - batch_start, 6),
            cache=cache.stats.to_dict() if cache is not None else None,
        )

    return [r for r in results if r is not None]


def run_variant_cached(
    workload: Workload,
    config: MachineConfig,
    variant: str,
    cache: Optional[ResultCache] = None,
    **kwargs,
) -> ExperimentResult:
    """One-point convenience wrapper: ``run_variant`` through the cache."""
    (result,) = run_jobs(
        [Job(workload, config, variant, **kwargs)], n_jobs=1, cache=cache
    )
    return result
