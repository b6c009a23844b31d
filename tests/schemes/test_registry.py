"""The scheme registry is the single source of truth for the variant
axis: names, soundness metadata, and the constants every other layer
(workloads, CLI, crashcheck routing) imports from it.
"""

import pytest

from repro.errors import WorkloadError
from repro.schemes import (
    SCHEME_BASE,
    SCHEME_EP,
    SCHEME_EP_NOFENCE,
    SCHEME_LP,
    SCHEME_WAL,
    SCHEME_WB_NOJOURNAL,
    SCHEME_WRITE_BEHIND,
    broken_scheme_names,
    composable_scheme_names,
    get_scheme,
    scheme_names,
    sound_scheme_names,
)


class TestNames:
    def test_every_scheme_registered(self):
        assert scheme_names() == [
            "base",
            "ep",
            "ep_nofence",
            "lp",
            "wal",
            "wb_nojournal",
            "write_behind",
        ]

    def test_sound_schemes(self):
        assert sound_scheme_names() == ["ep", "lp", "wal", "write_behind"]

    def test_broken_schemes(self):
        assert broken_scheme_names() == ["ep_nofence", "wb_nojournal"]

    def test_composable_schemes_exclude_native_ep_nofence(self):
        assert "ep_nofence" not in composable_scheme_names()
        assert "base" in composable_scheme_names()
        assert "write_behind" in composable_scheme_names()

    def test_unknown_scheme(self):
        with pytest.raises(WorkloadError):
            get_scheme("clwb_magic")

    def test_lookup_is_consistent_with_metadata(self):
        for name in scheme_names():
            scheme = get_scheme(name)
            assert scheme.name == name
            assert scheme.summary
            # Sound and broken are mutually exclusive verdicts.
            assert not (scheme.sound and scheme.broken)


class TestVariantConstants:
    def test_workload_layer_reuses_scheme_constants(self):
        # Every workload names its variants by the registry's names:
        # sound-or-base ones it sweeps, broken ones it only crashchecks.
        from repro.workloads import available_workloads, get_workload

        for name in available_workloads():
            cls = get_workload(name)
            assert set(cls.variants) <= set(scheme_names()), name
            assert not set(cls.variants) & set(broken_scheme_names()), name
            assert set(cls.broken_variants) <= set(broken_scheme_names()), name

    def test_tmm_reuses_scheme_constants(self):
        from repro.workloads.tmm import TiledMatMul

        assert TiledMatMul.variants == (
            SCHEME_BASE,
            SCHEME_LP,
            SCHEME_EP,
            SCHEME_WAL,
        )
        assert TiledMatMul.broken_variants == (SCHEME_EP_NOFENCE,)

    def test_scheme_strings_are_the_cli_variant_values(self):
        assert SCHEME_BASE == "base"
        assert SCHEME_LP == "lp"
        assert SCHEME_EP == "ep"
        assert SCHEME_WAL == "wal"
        assert SCHEME_WRITE_BEHIND == "write_behind"
        assert SCHEME_EP_NOFENCE == "ep_nofence"
        assert SCHEME_WB_NOJOURNAL == "wb_nojournal"


class TestNativeOnlySchemes:
    def test_ep_nofence_refuses_composition(self):
        scheme = get_scheme("ep_nofence")
        assert not scheme.composable
        with pytest.raises(WorkloadError):
            scheme.forward_threads(host=None)
        with pytest.raises(WorkloadError):
            scheme.recovery_threads(host=None)
