"""Per-region running checksum (the paper's ResetCheckSum /
UpdateCheckSum / GetCheckSum of Figure 8).

A :class:`RegionChecksum` lives in registers during normal execution —
only its committed value ever touches memory — so an update costs just
the engine's arithmetic, which is the whole point of Lazy Persistency's
near-zero overhead.
"""

from __future__ import annotations

from repro.sim.isa import Compute
from repro.core.checksum import ChecksumEngine


class RegionChecksum:
    """Running checksum for one LP region."""

    def __init__(self, engine: ChecksumEngine) -> None:
        self.engine = engine
        self._state = engine.reset()
        self.updates = 0
        #: The one op that charges an update's arithmetic: ops are
        #: frozen, so every update of the region yields this object.
        self._op = Compute(engine.flops_per_update)

    def update(self, value: float) -> Compute:
        """UpdateCheckSum(value): fold a value in and return the
        ``Compute`` op that charges the engine's arithmetic.

        Forward code writes ``yield ck.update(v)``; recovery-side folds,
        which charge the whole fold as one op, drop it.
        """
        self._state = self.engine.update(self._state, value)
        self.updates += 1
        return self._op

    @property
    def value(self) -> int:
        """GetCheckSum(): the committable checksum."""
        return self.engine.finalize(self._state)
