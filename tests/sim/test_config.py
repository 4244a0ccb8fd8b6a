"""Tests of the machine presets and config validation."""

import pytest

from repro import CacheConfig, arm1176jzf_s, intel_i7_4790, tiny_arm, tiny_intel
from repro.errors import ConfigError


class TestCacheConfig:
    def test_scaled_divides(self):
        assert CacheConfig(32 * 1024, 8).scaled(16).size == 2048

    def test_scaled_floor(self):
        tiny = CacheConfig(4096, 8).scaled(1000)
        assert tiny.size == 8 * 64 * 2  # two sets minimum

    def test_scale_one_identity(self):
        base = CacheConfig(32 * 1024, 8)
        assert base.scaled(1) == base


class TestIntelPreset:
    def test_paper_geometry(self):
        config = intel_i7_4790()
        assert config.l1d.size == 32 * 1024
        assert config.l2.size == 256 * 1024
        assert config.l3.size == 8 * 1024 * 1024

    def test_pstate_range(self):
        config = intel_i7_4790()
        assert config.pstates.lowest == 8
        assert config.pstates.highest == 36

    def test_scale_shrinks_everything(self):
        full = intel_i7_4790()
        scaled = intel_i7_4790(scale=8)
        assert scaled.l1d.size == full.l1d.size // 8
        assert scaled.l3.size == full.l3.size // 8

    def test_invalid_scale(self):
        with pytest.raises(ConfigError):
            intel_i7_4790(scale=0)

    def test_name_reflects_scale(self):
        assert "s16" in intel_i7_4790(scale=16).name
        assert "s" not in intel_i7_4790().name.split("4790")[1]

    def test_with_pstate_range(self):
        narrowed = intel_i7_4790().with_pstate_range(12, 24)
        assert narrowed.pstates.lowest == 12
        assert narrowed.pstates.highest == 24


class TestArmPreset:
    def test_no_l2_l3_with_tcm(self):
        config = arm1176jzf_s()
        assert config.l2 is None and config.l3 is None
        assert config.tcm is not None
        assert config.tcm.size == 32 * 1024

    def test_in_order_timing(self):
        timing = arm1176jzf_s().timing
        assert timing.mlp == 1
        assert timing.load_issue == 1.0

    def test_scaled_tcm(self):
        assert arm1176jzf_s(scale=4).tcm.size == 8 * 1024

    def test_l3_requires_l2(self):
        import dataclasses
        config = intel_i7_4790()
        with pytest.raises(ConfigError):
            dataclasses.replace(config, l2=None)
        # ... and L2 with L3: a machine has L1D only, or L1D, L2 and L3.
        with pytest.raises(ConfigError):
            dataclasses.replace(config, l3=None)

    def test_tiny_presets_buildable(self):
        from repro import Machine
        Machine(tiny_intel())
        Machine(tiny_arm())
