"""Ablation (section II-A): the ADR platform assumption.

The paper's Eager Persistency costs assume ADR — a store is durable
once the memory controller accepts it.  On the pre-ADR platforms the
paper contrasts (where pcommit-style draining is needed), every fence
additionally waits out the NVMM device write, making Eager Persistency
substantially more expensive while Lazy Persistency — which issues no
fences at all — is untouched.  This ablation quantifies that gap.
"""

from repro.analysis.experiments import compare_variants
from repro.analysis.reporting import format_table
from repro.workloads.tmm import TiledMatMul

from bench_common import NUM_THREADS, engine_opts, machine_config, record


def run_adr_ablation():
    out = {}
    for adr in (True, False):
        cfg = machine_config().with_model("adr" if adr else "pre_adr")
        out[adr] = compare_variants(
            TiledMatMul(n=96, bsize=8, kk_tiles=2),
            cfg,
            ["base", "lp", "ep", "wal"],
            num_threads=NUM_THREADS,
            **engine_opts(),
        )
    return out


def test_ablation_adr(benchmark):
    results = benchmark.pedantic(run_adr_ablation, rounds=1, iterations=1)
    rows = []
    norm = {}
    for adr in (True, False):
        base = results[adr]["base"]
        for scheme in ("lp", "ep", "wal"):
            norm[(adr, scheme)] = (
                results[adr][scheme].exec_cycles / base.exec_cycles
            )
        rows.append(
            [
                "ADR" if adr else "pre-ADR (pcommit)",
                round(norm[(adr, "lp")], 3),
                round(norm[(adr, "ep")], 3),
                round(norm[(adr, "wal")], 3),
            ]
        )
    record(
        "ablation_adr",
        format_table(
            ["platform", "LP exec", "EP exec", "WAL exec"],
            rows,
            title="Ablation: Eager Persistency cost with and without ADR",
        ),
    )
    # LP issues no fences: unaffected by the persistence-domain boundary
    assert abs(norm[(False, "lp")] - norm[(True, "lp")]) < 0.02
    # fence-heavy schemes get more expensive without ADR
    assert norm[(False, "wal")] > norm[(True, "wal")] * 1.1
    assert norm[(False, "ep")] > norm[(True, "ep")] * 1.1
