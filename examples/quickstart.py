#!/usr/bin/env python
"""Quickstart: Lazy Persistency in ~60 lines.

Builds a small NVMM machine, runs a loop kernel protected by an LP
region checksum (the paper's Figure 1 pattern), crashes it mid-run,
shows how the checksum detects the persistency failure, and recovers
by recomputation.

Run:  python examples/quickstart.py
"""

from repro import CrashPlan, Machine, run_with_crash, scaled_machine
from repro.core.lazy import LPRuntime
from repro.core.eager import persist_region
from repro.sim.isa import Compute, Store


def main() -> None:
    machine = Machine(scaled_machine(num_cores=2))

    # persistent arrays C and D, as in Figure 1
    n = 64
    c = machine.alloc("C", n)
    d = machine.alloc("D", n)
    lp = LPRuntime(machine, "cktab", dims=(1,), engine="modular")

    def kernel():
        """for i: C[i] = foo(i); D[i] = bar(i); CkSum(C[i], D[i])"""
        ck = lp.begin_region()
        for i in range(n):
            foo, bar = float(3 * i + 1), float(7 * i - 2)
            yield Compute(2)
            yield Store(c.addr(i), foo)
            yield Store(d.addr(i), bar)
            yield ck.update(foo)
            yield ck.update(bar)
        yield from lp.commit(ck, 0)

    # -- crash mid-run: everything still in the caches is lost ---------
    result, post = run_with_crash(machine, [kernel()], CrashPlan(at_op=150))
    print(f"crashed after {result.ops_executed} ops, "
          f"{result.nvmm_writes} lines had reached NVMM")

    # -- detection: replay the checksum over what actually persisted ---
    # (values in the order the kernel updated the checksum: C[i], D[i])
    survived = []
    for ca, da in zip(c.element_addrs(), d.element_addrs()):
        survived.append(post.arch_value(ca))
        survived.append(post.arch_value(da))
    consistent = lp.table.matches(survived, 0)
    print(f"region consistent after crash? {consistent}")
    assert not consistent, "the crash must be detectable"

    # -- recovery: recompute with Eager Persistency (Figure 1, right) --
    def recovery():
        ck = lp.begin_region()
        addrs = []
        for i in range(n):
            foo, bar = float(3 * i + 1), float(7 * i - 2)
            yield Compute(2)
            yield Store(c.addr(i), foo)
            yield Store(d.addr(i), bar)
            ck.update(foo)  # folded in registers; the Compute above
            ck.update(bar)  # already charged this iteration
            addrs += [c.addr(i), d.addr(i)]
        yield from persist_region(addrs)
        yield from lp.commit_slot(lp.table.slot_addr(0), ck.value, eager=True)

    post.run([recovery()])

    final_c = [post.persistent_value(a) for a in c.element_addrs()]
    print(f"recovered: C[0..4] = {final_c[:5]}")
    assert final_c == [float(3 * i + 1) for i in range(n)]
    print("OK: output durable and exact after crash + recovery")


if __name__ == "__main__":
    main()
