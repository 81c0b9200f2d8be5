"""Unit tests for the SCC configuration."""

import pytest

from repro.hw.config import CLOCK_PRESETS, SCCConfig, config_for_preset


class TestDefaults:
    def test_standard_preset_clocks(self):
        cfg = SCCConfig()
        assert cfg.core_freq_hz == 533_000_000
        assert cfg.mesh_freq_hz == 800_000_000
        assert cfg.dram_freq_hz == 800_000_000

    def test_derived_counts(self):
        cfg = SCCConfig()
        assert cfg.num_tiles == 24
        assert cfg.num_cores == 48
        assert cfg.doubles_per_line == 4
        assert cfg.mpb_payload_bytes == 8192 - 192

    def test_erratum_enabled_by_default(self):
        assert SCCConfig().erratum_enabled

    def test_clock_objects(self):
        cfg = SCCConfig()
        assert cfg.core_clock().ps_per_cycle == 1876
        assert cfg.mesh_clock().ps_per_cycle == 1250


class TestValidation:
    def test_bad_topology_rejected(self):
        with pytest.raises(ValueError):
            SCCConfig(topology="mesh:0x4")

    def test_bad_line_size_rejected(self):
        with pytest.raises(ValueError):
            SCCConfig(l1_line_bytes=12)

    def test_flag_region_must_fit(self):
        with pytest.raises(ValueError):
            SCCConfig(mpb_bytes_per_core=128, mpb_flag_bytes=192)

    def test_mpb_must_be_line_aligned(self):
        with pytest.raises(ValueError):
            SCCConfig(mpb_bytes_per_core=8200)

    def test_bad_frequency_rejected(self):
        with pytest.raises(ValueError):
            SCCConfig(core_freq_hz=0)


class TestCopy:
    def test_copy_overrides(self):
        base = SCCConfig()
        variant = base.copy(erratum_enabled=False)
        assert not variant.erratum_enabled
        assert base.erratum_enabled
        assert variant.core_freq_hz == base.core_freq_hz

    def test_copy_validates(self):
        with pytest.raises(ValueError):
            SCCConfig().copy(topology="mesh:6x-1")


class TestPresets:
    def test_all_presets_build(self):
        for name in CLOCK_PRESETS:
            cfg = config_for_preset(name)
            assert cfg.num_cores == 48

    def test_preset_800(self):
        cfg = config_for_preset("800_800_800")
        assert cfg.core_freq_hz == 800_000_000

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            config_for_preset("9000_9000_9000")

    def test_preset_with_override(self):
        cfg = config_for_preset("533_800_800", erratum_enabled=False)
        assert not cfg.erratum_enabled


class TestValidationMessages:
    """Every rejection names the offending field and the constraint."""

    def test_nonpositive_mesh_cols_message(self):
        with pytest.raises(ValueError,
                           match="malformed topology spec 'mesh:0x4'"):
            SCCConfig(topology="mesh:0x4")

    def test_nonpositive_mesh_rows_message(self):
        with pytest.raises(ValueError,
                           match="malformed topology spec 'mesh:6x-3'"):
            SCCConfig(topology="mesh:6x-3")

    def test_nonpositive_cores_per_tile_message(self):
        with pytest.raises(ValueError,
                           match="'mesh:6x4x0': dimensions must be positive"):
            SCCConfig(topology="mesh:6x4x0")

    def test_non_string_topology_message(self):
        with pytest.raises(ValueError, match="topology spec string"):
            SCCConfig(topology=None)

    def test_flag_region_not_line_multiple(self):
        # 100 B is not a multiple of the 32 B cache-line/flag granularity.
        with pytest.raises(ValueError,
                           match="cache-line/flag granularity"):
            SCCConfig(mpb_flag_bytes=100)

    def test_flag_region_must_be_positive(self):
        with pytest.raises(ValueError,
                           match="mpb_flag_bytes must be positive"):
            SCCConfig(mpb_flag_bytes=0)

    def test_flag_region_must_fit_in_mpb(self):
        with pytest.raises(ValueError, match="larger than its flag region"):
            SCCConfig(mpb_bytes_per_core=192, mpb_flag_bytes=192)

    def test_line_bytes_must_hold_whole_doubles(self):
        with pytest.raises(ValueError, match="l1_line_bytes"):
            SCCConfig(l1_line_bytes=12)

    def test_frequency_message_names_field(self):
        with pytest.raises(ValueError, match="mesh_freq_hz must be positive"):
            SCCConfig(mesh_freq_hz=-1)


class TestRankCount:
    def test_valid_counts_accepted(self):
        cfg = SCCConfig()
        for cores in (1, 2, 47, 48):
            cfg.check_rank_count(cores)  # must not raise

    def test_zero_cores_rejected(self):
        with pytest.raises(ValueError, match="core count must be positive"):
            SCCConfig().check_rank_count(0)

    def test_negative_cores_rejected(self):
        with pytest.raises(ValueError, match="core count must be positive"):
            SCCConfig().check_rank_count(-4)

    def test_count_exceeding_mesh_rejected(self):
        with pytest.raises(ValueError, match="'mesh:6x4' has only 48"):
            SCCConfig().check_rank_count(49)

    def test_limit_follows_topology(self):
        small = SCCConfig(topology="mesh:2x2")
        small.check_rank_count(8)
        with pytest.raises(ValueError, match="'mesh:2x2' has only 8"):
            small.check_rank_count(9)

    def test_limit_follows_topology_spec(self):
        cluster = SCCConfig(topology="cluster:2x24")
        cluster.check_rank_count(48)
        with pytest.raises(ValueError, match="'cluster:2x24' has only 48"):
            cluster.check_rank_count(49)
