"""repro — reproduction of "Lazy Persistency" (ISCA 2018).

Three layers:

* :mod:`repro.sim` — the substrate: a multicore cache-hierarchy / NVMM
  simulator standing in for the paper's gem5 testbed.
* :mod:`repro.core` — the contribution: the Lazy Persistency runtime
  (checksummed regions over natural cache evictions) plus the Eager
  Persistency baselines it is compared against (EagerRecompute, WAL).
* :mod:`repro.workloads` — the paper's five kernels (TMM, Cholesky,
  2D-conv, Gauss, FFT) in base / LP / EP / WAL variants with recovery.

Quickstart::

    from repro import scaled_machine, Machine
    from repro.workloads import get_workload

    wl = get_workload("tmm")(n=32, bsize=8)
    machine = Machine(scaled_machine(num_cores=2))
    bound = wl.bind(machine, num_threads=1)
    result = machine.run(bound.threads("lp"))
    assert bound.verify()
    print(result.exec_cycles, result.nvmm_writes)
"""

from repro.errors import (
    AddressError,
    ConfigError,
    RecoveryError,
    ReproError,
    SimulationError,
    WorkloadError,
)
from repro.sim import (
    CacheConfig,
    CoreConfig,
    CrashPlan,
    Machine,
    MachineConfig,
    MachineStats,
    NVMMConfig,
    RunResult,
    paper_machine,
    real_system_machine,
    run_with_crash,
    scaled_machine,
)

__version__ = "1.0.0"

__all__ = [
    "AddressError",
    "ConfigError",
    "RecoveryError",
    "ReproError",
    "SimulationError",
    "WorkloadError",
    "CacheConfig",
    "CoreConfig",
    "CrashPlan",
    "Machine",
    "MachineConfig",
    "MachineStats",
    "NVMMConfig",
    "RunResult",
    "paper_machine",
    "real_system_machine",
    "run_with_crash",
    "scaled_machine",
    "__version__",
]
