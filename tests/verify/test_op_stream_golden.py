"""Op-stream golden: per-core digests of every workload's retired ops.

The cases are every registry workload x variant (broken ones included)
x 1 and 2 threads, at the ``repro crashcheck`` sizes and at the
``repro regress`` suite sizes, plus tmm's granularity x checksum_org x
repair x eager_checksum grid at a size with two kk passes, so that
incremental repair has an earlier pass to start from.  Each case
records two runs: the forward run, and the recovery for the variant
that crashed, after a crash at half the forward run's ops.  An entry
holds one sha256 per core of that core's retired op sequence.  The
hash covers a canonical encoding (op type, address, ``float.hex`` of
values, labels), not ``repr``, so numpy-scalar reprs and the Python
version cannot move it.

A refactor of the workload layer must leave every entry unchanged.
Regenerate only in a change meant to move op streams, and list the
moved keys in CHANGES.md::

    PYTHONPATH=src python -c "from tests.verify.test_op_stream_golden \\
        import write_golden; write_golden()"
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from typing import Dict, Iterator, List, Tuple

from repro.sim.config import tiny_machine
from repro.sim.isa import Compute, Load, Phase, RegionMark, Store
from repro.sim.machine import Machine
from repro.workloads.registry import available_workloads, get_workload

GOLDEN = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "golden", "op_streams.json"
)

#: Problem sizes per suite: ``repro crashcheck``'s defaults and the
#: ``repro regress`` suite's, copied so that resizing either command
#: does not move this golden.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "crashcheck": {
        "tmm": {"n": 8, "bsize": 4, "kk_tiles": 1},
        "fft": {"n": 16},
        "gauss": {"n": 8, "row_block": 4},
        "cholesky": {"n": 8, "col_block": 4},
        "conv2d": {"n": 8, "row_block": 2},
        "log": {"records": 6, "width": 2, "wb_batch": 2},
        "hashmap": {"capacity": 8, "ops": 6, "keys": 3, "wb_batch": 2},
    },
    "regress": {
        "tmm": {"n": 24, "bsize": 8, "kk_tiles": 2},
        "fft": {"n": 128},
        "gauss": {"n": 24, "row_block": 4},
        "cholesky": {"n": 24, "col_block": 4},
        "conv2d": {"n": 16, "row_block": 2},
        "log": {"records": 32, "width": 4, "wb_batch": 8},
        "hashmap": {"capacity": 16, "ops": 64, "keys": 4, "wb_batch": 8},
    },
}

THREADS = (1, 2)

#: tmm's secondary design space (the default point is a registry case),
#: at a size with two kk passes.
TMM_GRID_SIZE = {"n": 8, "bsize": 4}
TMM_GRID = [
    dict(
        granularity=gran,
        checksum_org=org,
        repair=repair,
        eager_checksum=eager,
    )
    for gran, org, repair, eager in itertools.product(
        ("jj", "ii", "kk"),
        ("table", "embedded"),
        ("scratch", "incremental"),
        (False, True),
    )
    if (org == "table" or gran == "ii")
    and (gran, org, repair, eager) != ("ii", "table", "scratch", False)
]


def _encode(op) -> str:
    """One op as canonical text: its type, then its fields."""
    kind = type(op).__name__
    if type(op) is Load:
        return f"{kind} {op.addr}"
    if type(op) is Store:
        return f"{kind} {op.addr} {float(op.value).hex()}"
    if type(op) is Compute:
        return f"{kind} {float(op.flops).hex()} {op.kind}"
    if type(op) is RegionMark or type(op) is Phase:
        return f"{kind} {op.label}"
    addr = getattr(op, "addr", None)
    return kind if addr is None else f"{kind} {addr}"


def _recorded(gen, sink: List[str]) -> Iterator:
    """Forward ``gen`` unchanged, appending each retired op to ``sink``."""
    result = None
    while True:
        try:
            op = gen.send(result)
        except StopIteration:
            return
        sink.append(_encode(op))
        result = yield op


def _run(machine: Machine, threads, **triggers) -> Tuple[List[str], int]:
    """Run ``threads``; return per-core sha256 digests and ops run."""
    sinks: List[List[str]] = [[] for _ in threads]
    result = machine.run(
        [_recorded(gen, sink) for gen, sink in zip(threads, sinks)],
        **triggers,
    )
    digests = [
        hashlib.sha256("\n".join(sink).encode()).hexdigest() for sink in sinks
    ]
    return digests, result.ops_executed


def _case_digests(spec, variant: str, num_threads: int) -> Dict[str, List[str]]:
    config = tiny_machine()
    machine = Machine(config, _replay=True)
    bound = spec.bind(machine, num_threads=num_threads)
    forward, ops = _run(machine, bound.threads(variant))

    machine = Machine(config)
    bound = spec.bind(machine, num_threads=num_threads)
    machine.run(bound.threads(variant), crash_at_op=ops // 2)
    post = machine.after_crash_with_image(machine.mem.persistent, replay=True)
    rebound = spec.bind(post, num_threads=num_threads, create=False)
    recovery, _ = _run(post, rebound.recovery_threads(variant))
    return {"forward": forward, "recovery": recovery}


def _cases() -> Iterator[Tuple[str, object, str, int]]:
    """(key prefix, workload spec, variant, threads) of every case."""
    points = [
        (f"{suite}/{name}", name, params)
        for suite, sizes in SIZES.items()
        for name, params in sizes.items()
    ]
    for point in TMM_GRID:
        label = ",".join(f"{k}={v}" for k, v in point.items())
        points.append((f"grid/tmm[{label}]", "tmm", {**TMM_GRID_SIZE, **point}))
    for prefix, name, params in points:
        cls = get_workload(name)
        for variant in cls.variants + cls.broken_variants:
            for t in THREADS:
                yield f"{prefix}/{variant}/t{t}", cls(**params), variant, t


def compute_golden() -> Dict[str, List[str]]:
    golden: Dict[str, List[str]] = {}
    for prefix, spec, variant, t in _cases():
        for run, digests in _case_digests(spec, variant, t).items():
            golden[f"{prefix}/{run}"] = digests
    return golden


def write_golden(path: str = GOLDEN) -> None:
    with open(path, "w") as fh:
        json.dump(compute_golden(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def test_op_streams_match_golden():
    for sizes in SIZES.values():
        assert sorted(sizes) == available_workloads()
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = compute_golden()
    assert sorted(got) == sorted(want)
    moved = sorted(key for key in want if got[key] != want[key])
    assert moved == [], f"{len(moved)} op streams moved: {moved[:10]}"
