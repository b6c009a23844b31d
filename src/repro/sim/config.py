"""Machine configuration for the simulator.

The defaults mirror Table II of the paper (gem5 machine) and Table III
(real AMD system), plus a ``scaled_machine`` preset whose cache sizes are
shrunk in proportion to the scaled-down problem sizes a pure-Python
simulator can drive.  Every experiment knob the paper sweeps (NVMM
latencies, L2 size, core count, checksum kind) is a field here or a
benchmark parameter.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

from repro.errors import ConfigError
from repro.sim.model import DEFAULT_MODEL, PERSISTENCY_MODELS

#: Cache line size in bytes.  Fixed at 64B throughout the paper.
LINE_BYTES = 64

#: Size of one array element in bytes (we model 64-bit values).
ELEMENT_BYTES = 8

#: Elements per cache line.
ELEMS_PER_LINE = LINE_BYTES // ELEMENT_BYTES


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    ways: int
    hit_cycles: float
    line_bytes: int = LINE_BYTES

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0:
            raise ConfigError("cache size and associativity must be positive")
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ConfigError(
                f"cache of {self.size_bytes}B is not divisible into "
                f"{self.ways}-way sets of {self.line_bytes}B lines"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class NVMMConfig:
    """NVMM device and memory-controller parameters.

    Latencies follow Table II: 150ns read / 300ns write at a 2GHz core
    clock (300 / 600 cycles).  ``write_service_cycles`` models internal
    bank parallelism: the per-write occupancy of the device write pipe,
    which is what bounds sustained write bandwidth (a full 600-cycle
    occupancy per write would make even the non-persistent baseline
    write-bound, which the paper's machine is not).
    """

    read_cycles: float = 300.0
    write_cycles: float = 600.0
    write_service_cycles: float = 20.0
    read_service_cycles: float = 10.0
    write_queue_depth: int = 64
    read_queue_depth: int = 32

    def __post_init__(self) -> None:
        if self.read_cycles < 0 or self.write_cycles < 0:
            raise ConfigError("NVMM latencies must be non-negative")
        if self.write_queue_depth <= 0 or self.read_queue_depth <= 0:
            raise ConfigError("MC queue depths must be positive")


@dataclass(frozen=True)
class CoreConfig:
    """Per-core pipeline cost model.

    The paper's cores are 4-wide out-of-order (ROB 196, LSQ 48).  We use
    an in-order engine with throughput-style issue costs for hits and
    bounded asynchronous structures (store buffer, flush queue, MSHRs)
    whose backpressure produces the structural-hazard behaviour of
    Table VI.  See DESIGN.md section 4.
    """

    issue_width: int = 4
    #: Cycles charged per arithmetic op (1 / issue_width by default).
    compute_cpi: float = 0.25
    #: Issue cost of a load/store that hits in the L1 (two ports, pipelined).
    l1_hit_issue_cycles: float = 0.5
    #: Cycles to drain one store-buffer entry into an L1-resident line.
    store_drain_cycles: float = 1.0
    #: Issue cost of clflushopt / clwb (completion is asynchronous).
    flush_issue_cycles: float = 1.0
    mshr_entries: int = 8
    store_buffer_entries: int = 48
    flush_queue_entries: int = 8
    #: In-flight slots representing scheduler/FU capacity; compute ops that
    #: issue while this many async ops are outstanding count an FUI hazard.
    fu_pressure_threshold: int = 4

    def __post_init__(self) -> None:
        if self.issue_width <= 0:
            raise ConfigError("issue width must be positive")
        if self.mshr_entries <= 0 or self.store_buffer_entries <= 0:
            raise ConfigError("MSHR and store buffer must have entries")


@dataclass(frozen=True)
class MachineConfig:
    """Full machine: cores + cache hierarchy + NVMM."""

    num_cores: int = 9
    core: CoreConfig = field(default_factory=CoreConfig)
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 8, hit_cycles=2.0)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(512 * 1024, 8, hit_cycles=11.0)
    )
    nvmm: NVMMConfig = field(default_factory=NVMMConfig)
    #: Penalty for a cache-to-cache transfer / upgrade (directory round trip).
    coherence_cycles: float = 11.0
    #: Cycles for a flushed line to travel from the caches into the MC's
    #: ADR-protected write queue (L2 access + interconnect).  This is the
    #: latency a following sfence must wait out per in-flight clflushopt,
    #: and the dominant per-flush cost of Eager Persistency.
    flush_transit_cycles: float = 40.0
    #: Address-space size in bytes (flat, line-aligned allocations).
    memory_bytes: int = 1 << 30
    #: Scheduling jitter in cycles: cores within this window of the
    #: minimum clock may be picked in a (seeded) random order.  0 means
    #: strict min-clock scheduling.  Used to stress recovery and
    #: coherence under many interleavings; timing runs keep it at 0.
    schedule_jitter: float = 0.0
    schedule_seed: int = 0
    #: Timing model (see :mod:`repro.sim.timing`): ``"detailed"`` is
    #: the Table II machine every performance figure uses;
    #: ``"functional"`` is the zero-latency round-robin model crash
    #: -state campaigns run on.  Part of :meth:`cache_key`, so results
    #: from different models never alias in the experiment cache.
    timing: str = "detailed"
    #: Persistency model (see :mod:`repro.sim.model`): who owns the
    #: persistence domain and what flush/fence mean.  ``"adr"`` is the
    #: paper's platform and the default every pre-existing artifact ran
    #: under; :meth:`cache_key` omits the field at its default so those
    #: artifacts stay byte-identical.
    model: str = DEFAULT_MODEL

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ConfigError("need at least one core")
        if self.l1.line_bytes != self.l2.line_bytes:
            raise ConfigError("L1 and L2 must share a line size")
        if self.timing not in ("detailed", "functional"):
            raise ConfigError(
                f"unknown timing model {self.timing!r}; "
                "expected 'detailed' or 'functional'"
            )
        if self.model not in PERSISTENCY_MODELS:
            raise ConfigError(
                f"unknown persistency model {self.model!r}; "
                f"available: {', '.join(PERSISTENCY_MODELS)}"
            )

    def with_l2_size(self, size_bytes: int) -> "MachineConfig":
        """Return a copy with a different L2 capacity (Fig 15a sweep)."""
        return replace(self, l2=replace(self.l2, size_bytes=size_bytes))

    def with_nvmm_latency(
        self, read_cycles: float, write_cycles: float
    ) -> "MachineConfig":
        """Return a copy with different NVMM latencies (Fig 14a sweep).

        Device service (bank occupancy) rates scale with the cell
        latencies: a slower NVMM drains its write queue more slowly,
        which is what turns higher write latency into flush/fence
        backpressure for Eager Persistency (the Figure 14a trend).
        """
        scale_w = write_cycles / self.nvmm.write_cycles
        scale_r = read_cycles / self.nvmm.read_cycles
        return replace(
            self,
            nvmm=replace(
                self.nvmm,
                read_cycles=read_cycles,
                write_cycles=write_cycles,
                write_service_cycles=self.nvmm.write_service_cycles * scale_w,
                read_service_cycles=self.nvmm.read_service_cycles * scale_r,
            ),
        )

    def with_cores(self, num_cores: int) -> "MachineConfig":
        """Return a copy with a different core count (Fig 14b sweep)."""
        return replace(self, num_cores=num_cores)

    def with_timing(self, timing: str) -> "MachineConfig":
        """Return a copy running under a different timing model."""
        return replace(self, timing=timing)

    def with_model(self, model: str) -> "MachineConfig":
        """Return a copy running under a different persistency model."""
        return replace(self, model=model)

    def cache_key(self) -> str:
        """Canonical serialization of every timing-relevant field.

        Two configs that simulate identically produce the same string,
        and any field change produces a different one — this is the
        config component of the experiment result cache's content hash
        (see :mod:`repro.analysis.runner`).  Keys are sorted and floats
        rendered by ``repr`` so the encoding is stable across processes
        and Python versions.

        ``model`` is omitted at its default ("adr") so every artifact
        hashed before the model axis existed keeps its key — the same
        omit-when-default discipline the runner applies to
        ``obs_interval`` and ``provenance``.
        """
        payload = asdict(self)
        if payload["model"] == DEFAULT_MODEL:
            del payload["model"]
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def paper_machine(num_cores: int = 9) -> MachineConfig:
    """The Table II gem5 machine: 64KB L1, 512KB shared L2, NVMM 150/300ns."""
    return MachineConfig(num_cores=num_cores)


def scaled_machine(num_cores: int = 9) -> MachineConfig:
    """Table II scaled for Python-sized problems.

    Problem sizes in this reproduction are ~16x smaller per dimension
    than the paper's (e.g. TMM 96x96 vs 1024x1024), so cache capacities
    are scaled to keep the working-set-to-cache ratio in the same
    regime: the output matrix must overflow the L2 between outer-loop
    passes, and a handful of tiles must fit in the L1.
    """
    return MachineConfig(
        num_cores=num_cores,
        l1=CacheConfig(4 * 1024, 8, hit_cycles=2.0),
        l2=CacheConfig(48 * 1024, 8, hit_cycles=11.0),
    )


def tiny_machine(num_cores: int = 4) -> MachineConfig:
    """A deliberately small machine for crash-state enumeration.

    Crashcheck campaigns re-run recovery once per reachable NVMM image,
    so they want the smallest machine that still exercises the full
    stack: few cores, caches small enough that evictions and dirty
    lines actually occur at toy problem sizes, and the standard NVMM
    timing.  Not a performance preset — timing experiments use the
    scaled/paper machines.
    """
    return MachineConfig(
        num_cores=num_cores,
        l1=CacheConfig(1 * 1024, 2, hit_cycles=2.0),
        l2=CacheConfig(4 * 1024, 4, hit_cycles=11.0),
    )


def real_system_machine(num_cores: int = 9) -> MachineConfig:
    """The Table III AMD Opteron DRAM machine (Table VII experiment).

    DRAM-like latencies, a large last-level cache, and no persistency
    concern: Table VII only measures the instruction overhead of the
    checksum computation, so this preset makes memory cheap and caches
    big relative to the scaled working sets.
    """
    return MachineConfig(
        num_cores=num_cores,
        l1=CacheConfig(8 * 1024, 8, hit_cycles=2.0),
        l2=CacheConfig(128 * 1024, 8, hit_cycles=11.0),
        nvmm=NVMMConfig(
            read_cycles=120.0,
            write_cycles=120.0,
            write_service_cycles=16.0,
            read_service_cycles=16.0,
        ),
    )
