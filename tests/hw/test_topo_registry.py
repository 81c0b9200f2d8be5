"""The topology registry: spec parsing, caching, config/timing plumbing."""

import pytest

from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.hw.topo import (
    available_topologies,
    get_topology,
    register_topology,
)
from repro.hw.topology import Topology


class TestSpecParsing:
    def test_default_chip(self):
        topo = get_topology("mesh:6x4")
        assert (topo.cols, topo.rows, topo.cores_per_tile) == (6, 4, 2)
        assert topo.num_cores == 48
        assert not topo.torus and topo.chips == 1

    def test_cores_per_tile_suffix(self):
        topo = get_topology("mesh:4x4x4")
        assert topo.cores_per_tile == 4
        assert topo.num_cores == 64

    def test_torus_family(self):
        topo = get_topology("torus:6x4")
        assert topo.torus
        assert topo.hops(0, 10) == 1  # wraps where the mesh takes 5

    def test_cluster_factoring(self):
        topo = get_topology("cluster:2x24")
        assert (topo.cols, topo.rows) == (4, 3)
        assert topo.chips == 2
        assert topo.num_cores == 48

    def test_cluster_of_full_chips(self):
        topo = get_topology("cluster:2x48")
        assert (topo.cols, topo.rows) == (6, 4)
        assert topo.num_cores == 96

    def test_mc_option(self):
        topo = get_topology("mesh:8x8+mc=0.0;7.7")
        assert topo.mc_routers() == [(0, 0), (7, 7)]

    def test_weight_option(self):
        topo = get_topology("mesh:6x4+w=2.0-3.0:4")
        assert topo.link_weights == (((2, 0), (3, 0), 4),)

    @pytest.mark.parametrize("spec", [
        "mesh:6",              # missing rows
        "mesh:6x4x2x2",        # too many dims
        "mesh:ax4",            # non-numeric
        "mesh:0x4",            # zero dim
        "mesh:6x4+mc=",        # empty option value
        "mesh:6x4+w=0.0-2.0:3",   # non-adjacent link
        "mesh:6x4+zz=1",       # unknown option
        "cluster:2x24x2",      # cluster takes exactly two fields
        "cluster:2x23",        # odd cores per chip
    ])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError, match="malformed topology spec"):
            get_topology(spec)

    def test_unknown_family_lists_known(self):
        with pytest.raises(KeyError, match="unknown topology family"):
            get_topology("hypercube:4")

    def test_builtin_families_listed(self):
        assert {"mesh", "torus", "cluster"} <= set(available_topologies())


class TestRegistry:
    def test_instances_are_cached(self):
        assert get_topology("mesh:5x5") is get_topology("mesh:5x5")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_topology("mesh", lambda body: Topology())

    def test_replace_allows_override(self):
        from repro.hw import topo

        marker = Topology(cols=2, rows=2)
        register_topology("_test_family", lambda body: marker)
        try:
            register_topology("_test_family", lambda body: marker,
                              replace=True)
            assert get_topology("_test_family:anything") is marker
        finally:
            topo._FACTORIES.pop("_test_family", None)
            get_topology.cache_clear()


class TestConfigPlumbing:
    def test_default_key_matches_mesh_fields(self):
        assert SCCConfig().topology == "mesh:6x4"

    def test_spec_overrides_key(self):
        cfg = SCCConfig(topology="cluster:2x24")
        assert cfg.topology == "cluster:2x24"
        assert cfg.num_cores == 48
        assert cfg.num_tiles == 24

    def test_resolved_topology_default_is_registry_instance(self):
        cfg = SCCConfig()
        assert cfg.resolved_topology() is get_topology("mesh:6x4")

    def test_machine_uses_config_topology(self):
        machine = Machine(SCCConfig(topology="mesh:4x4"))
        assert machine.topology is get_topology("mesh:4x4")
        assert machine.topology.num_cores == 32

    def test_default_topology_equals_registry_default(self):
        assert Topology() == get_topology("mesh:6x4")

    def test_bad_spec_fails_validate(self):
        with pytest.raises(ValueError):
            SCCConfig(topology="mesh:0x4").validate()

    def test_negative_inter_chip_costs_rejected(self):
        with pytest.raises(ValueError):
            SCCConfig(inter_chip_access_mesh_cycles=-1).validate()
        with pytest.raises(ValueError):
            SCCConfig(inter_chip_line_mesh_cycles=-1).validate()


class TestInterChipTiming:
    def test_cross_chip_access_costs_more(self):
        machine = Machine(SCCConfig(topology="cluster:2x24"))
        model = machine.latency
        same = model.mpb_access(0, 2)      # neighbouring tiles, chip 0
        cross = model.mpb_access(0, 24)    # gateway to gateway, chip 1
        assert cross > same
        # Gateway-to-gateway is zero mesh hops, like a same-tile access,
        # so the difference is exactly the round-trip board surcharge.
        cfg = machine.config
        assert cross - model.mpb_access(0, 1) == model.mesh_cycles(
            2 * cfg.inter_chip_access_mesh_cycles)

    def test_single_chip_pays_no_surcharge(self):
        base = Machine(SCCConfig())
        spec = Machine(SCCConfig(topology="mesh:6x4"))
        for a, b in ((0, 0), (0, 2), (0, 47), (13, 29)):
            assert base.latency.mpb_access(a, b) == \
                spec.latency.mpb_access(a, b)

    def test_cross_chip_bulk_transfer_scales_with_lines(self):
        machine = Machine(SCCConfig(topology="cluster:2x24"))
        model = machine.latency
        one_line = model.mpb_write_bytes(0, 24, 32)
        two_lines = model.mpb_write_bytes(0, 24, 64)
        local_one = model.mpb_write_bytes(0, 2, 32)
        local_two = model.mpb_write_bytes(0, 2, 64)
        # Each extra line pays the per-line board-crossing cost on top of
        # the local per-line cost.
        assert (two_lines - one_line) > (local_two - local_one)
