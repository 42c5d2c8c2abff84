"""Tests for FarmerConfig validation and derivations."""

import pytest

from repro.core.config import DEFAULT_ATTRIBUTES, PATHLESS_ATTRIBUTES, FarmerConfig
from repro.errors import ConfigError


class TestDefaults:
    def test_paper_defaults(self):
        cfg = FarmerConfig()
        assert cfg.weight_p == 0.7
        assert cfg.max_strength == 0.4
        assert cfg.path_method == "ipa"
        assert cfg.attributes == DEFAULT_ATTRIBUTES

    def test_pathless_set_has_file_id(self):
        assert "file" in PATHLESS_ATTRIBUTES
        assert "path" not in PATHLESS_ATTRIBUTES


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"weight_p": -0.1},
            {"weight_p": 1.1},
            {"max_strength": 2.0},
            {"window": 0},
            {"lda_decrement": 1.5},
            {"weight_schedule": "exp"},
            {"attributes": ()},
            {"attributes": ("user", "nope")},
            {"path_method": "xyz"},
            {"path_mode": "xyz"},
            {"sv_policy": "random"},
            {"merge_cap": 0},
            {"successor_capacity": 0},
            {"correlator_capacity": 0},
            {"prefetch_k": -1},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            FarmerConfig(**kwargs)

    @pytest.mark.parametrize("knob", ["sim_cache_capacity", "shared_sim_cache"])
    def test_similarity_cache_knobs_are_gone(self, knob):
        """Rank stamps are the only Function-1 reuse; the cache knobs
        are not accepted."""
        with pytest.raises(TypeError):
            FarmerConfig(**{knob: 0})

    def test_accepts_boundaries(self):
        FarmerConfig(weight_p=0.0)
        FarmerConfig(weight_p=1.0)
        FarmerConfig(max_strength=0.0)
        FarmerConfig(prefetch_k=0)


class TestDerivations:
    def test_with_revalidates(self):
        cfg = FarmerConfig()
        assert cfg.with_(weight_p=0.5).weight_p == 0.5
        with pytest.raises(ConfigError):
            cfg.with_(weight_p=5.0)

    def test_with_preserves_other_fields(self):
        cfg = FarmerConfig(window=7)
        assert cfg.with_(weight_p=0.1).window == 7

    def test_as_nexus_reduction(self):
        """§7: p=0 and no filtering reduces FARMER to Nexus."""
        nexus_like = FarmerConfig().as_nexus()
        assert nexus_like.weight_p == 0.0
        assert nexus_like.max_strength == 0.0

    def test_frozen(self):
        with pytest.raises(AttributeError):
            FarmerConfig().weight_p = 0.5
