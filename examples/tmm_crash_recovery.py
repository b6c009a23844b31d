#!/usr/bin/env python
"""Tiled matrix multiplication with crash + Figure 9 recovery.

Runs the paper's flagship workload (Figure 8's LP-instrumented TMM)
with 4 worker threads, injects a power failure mid-run, then drives
the reverse-scan recovery of Figure 9 and verifies the final product
is bit-exact against numpy.

Run:  python examples/tmm_crash_recovery.py [crash_op]
"""

import sys

from repro import CrashPlan, Machine, run_with_crash, scaled_machine
from repro.workloads.tmm import TiledMatMul


def main() -> None:
    crash_at = int(sys.argv[1]) if len(sys.argv) > 1 else 60_000
    threads = 4

    wl = TiledMatMul(n=48, bsize=8)
    machine = Machine(scaled_machine(num_cores=threads + 1))
    bound = wl.bind(machine, num_threads=threads)

    print(f"running tmm+LP (n=48, bsize=8, {threads} threads), "
          f"crash at op {crash_at} ...")
    result, post = run_with_crash(
        machine, bound.threads("lp"), CrashPlan(at_op=crash_at)
    )
    if not result.crashed:
        print("workload finished before the crash point; nothing to recover")
        assert bound.verify()
        return

    committed = bound.lp.table.committed_keys()
    print(f"crash: {result.ops_executed} ops executed, "
          f"{result.nvmm_writes} NVMM writes, "
          f"{len(committed)} region checksums persisted")

    # recovery runs on the post-crash machine: cold caches, NVMM image
    rebound = wl.bind(post, num_threads=threads, create=False)
    marks = []
    post.on_mark = lambda mark, cid, clock: marks.append(mark.label)
    rres = post.run(rebound.recovery_threads("lp"))

    repairs = [m for m in marks if "repair" in m]
    print(f"recovery: {rres.ops_executed} ops, "
          f"{rres.exec_cycles:.0f} cycles, {len(repairs)} blocks repaired")
    for label in repairs[:8]:
        print(f"  {label}")

    ok = rebound.verify()
    print(f"final c == a @ b (exact)? {ok}")
    assert ok
    print("OK")


if __name__ == "__main__":
    main()
