"""Composable persistency schemes (the variant axis, reified).

``repro.schemes`` is the single source of truth for variant names and
their persist protocols.  Workloads that declare their durable regions
once (:class:`~repro.schemes.compose.RegionDecl` plans driven by
:class:`~repro.workloads.regional.RegionWorkload`) inherit every
registered scheme — base, LP, EP, WAL, write-behind — plus a generic,
scheme-owned crash recovery.  See docs/workloads.md.
"""

from repro.schemes.compose import (
    RegionContext,
    RegionDecl,
    SchemeState,
    WriteBehindJournal,
    validate_plans,
)
from repro.schemes.registry import (
    SCHEME_BASE,
    SCHEME_EP,
    SCHEME_EP_NOFENCE,
    SCHEME_LP,
    SCHEME_WAL,
    SCHEME_WB_NOJOURNAL,
    SCHEME_WRITE_BEHIND,
    PersistencyScheme,
    broken_scheme_names,
    composable_scheme_names,
    get_scheme,
    scheme_names,
    sound_scheme_names,
)

__all__ = [
    "SCHEME_BASE",
    "SCHEME_EP",
    "SCHEME_EP_NOFENCE",
    "SCHEME_LP",
    "SCHEME_WAL",
    "SCHEME_WB_NOJOURNAL",
    "SCHEME_WRITE_BEHIND",
    "PersistencyScheme",
    "RegionContext",
    "RegionDecl",
    "SchemeState",
    "WriteBehindJournal",
    "broken_scheme_names",
    "composable_scheme_names",
    "get_scheme",
    "scheme_names",
    "sound_scheme_names",
    "validate_plans",
]
