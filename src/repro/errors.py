"""Exception hierarchy for the repro package.

Every error raised by this package derives from :class:`ReproError` so
callers can catch package failures with a single except clause while
letting programming errors (TypeError, etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """A machine or experiment configuration is invalid."""


class AddressError(ReproError):
    """An address is out of range, unaligned, or unallocated."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent internal state."""


class RecoveryError(ReproError):
    """Recovery could not restore a consistent persistent state."""


class WorkloadError(ReproError):
    """A workload was mis-parameterised or produced inconsistent output."""
