"""Bound protocol programs are a function of the configuration alone.

:func:`repro.hw.protocol.bind` keeps a program in the
:class:`~repro.hw.timing.SharedTables` of its configuration, so every
machine (and cost model, and replay) on an equal configuration gets the
same program object, and equidistant channels share one; a
mutated-then-invalidated configuration and the other erratum level get
their own.  Rows name operands by role and carry no machine object and
no core, which is what makes the sharing sound.  A
machine allocates an MPB's bytes only when a run touches them, while
every observer still sees all of the chip's MPBs; its cores, too, are
built when first used.
"""

import numpy as np
import pytest

from repro.analysis.races import RaceDetector
from repro.analysis.sanitizer import Sanitizer
from repro.core.mpb_allreduce import (CONSUME_BEGIN, CONSUME_END, COPY_FROM,
                                      PRODUCE, REDUCE_FROM, VERIFY_READ)
from repro.core.ops import SUM
from repro.core.registry import make_communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.hw.protocol import PROGRAM_LIMIT, bind
from repro.hw.timing import LatencyModel, pair_classes, shared_tables
from repro.obs.export import mpb_counters
from repro.rcce.api import (ACK_REJECT, BARRIER_COLLECT, BARRIER_RELEASE,
                            BARRIER_WORKER, RECV_CHUNK, REJECT_CHUNK,
                            SEND_CHUNK)
from repro.rcce.transfer import get_bytes, put_bytes
from repro.rckmpi.channel import RECV_PACKET, SEND_PACKET

ALL_TABLES = (SEND_CHUNK, RECV_CHUNK, REJECT_CHUNK, ACK_REJECT,
              BARRIER_WORKER, BARRIER_COLLECT, BARRIER_RELEASE,
              PRODUCE, CONSUME_BEGIN, REDUCE_FROM, COPY_FROM, CONSUME_END,
              VERIFY_READ, SEND_PACKET, RECV_PACKET)

#: What an RCCE send of 5000 B from core 0 to core 13 binds (owners of
#: the channel's buffer, sent, ready and nack).
SIDE = dict(table=SEND_CHUNK, owners=(0, 13, 0, 0), nbytes=5000,
            chunk=SCCConfig().mpb_payload_bytes, call=2400)


@pytest.fixture(autouse=True)
def cold_tables():
    """Start every test from empty tables: the process's earlier tests
    share the default configuration's."""
    shared_tables.cache_clear()


def send_program(machine: Machine) -> tuple:
    return bind(machine.cores[0], **SIDE)


def allreduce(machine: Machine, stack: str, cores: int = 4) -> None:
    comm = make_communicator(machine, stack)
    data = [np.arange(40.0) + rank for rank in range(cores)]

    def program(env):
        return (yield from comm.allreduce(env, data[env.rank], SUM))

    machine.run_spmd(program, ranks=list(range(cores)))


class TestSharing:
    def test_equal_configs_share_one_program(self):
        a, b = Machine(SCCConfig()), Machine(SCCConfig())
        assert a.latency.shared is b.latency.shared
        assert send_program(a) is send_program(b)

    def test_a_second_machine_binds_nothing_new(self):
        config = SCCConfig()
        allreduce(Machine(config), "lightweight_balanced")
        shared = Machine(config).latency.shared
        programs, index = shared.programs[True], shared.index[True]
        before, indexed = dict(programs), dict(index)
        assert before and len(indexed) > len(before)
        allreduce(Machine(config.copy()), "lightweight_balanced")
        assert programs.keys() == before.keys()
        assert all(programs[key] is before[key] for key in before)
        assert index == indexed

    def test_equidistant_pairs_share_one_program(self):
        machine = Machine(SCCConfig())
        # Cores 0 -> 2 and 2 -> 4 are one tile apart on the 6x4 mesh.
        near = bind(machine.cores[0], SEND_CHUNK, (0, 2, 0, 0), 552)
        assert bind(machine.cores[2], SEND_CHUNK, (2, 4, 2, 2), 552) is near
        assert bind(machine.cores[0], SEND_CHUNK, (0, 47, 0, 0), 552) \
            is not near

    def test_mutated_and_invalidated_config_gets_its_own(self):
        a, b = Machine(SCCConfig()), Machine(SCCConfig())
        shared = send_program(a)
        b.config.put_line_core_cycles += 3
        b.latency.invalidate()
        assert b.latency.shared is not a.latency.shared
        mutated = send_program(b)
        assert mutated is not shared
        assert mutated[1] != shared[1]
        assert send_program(a) is shared

    def test_other_erratum_level_gets_its_own(self):
        machine = Machine(SCCConfig())
        buggy = send_program(machine)
        machine.config.erratum_enabled = False     # what the injector does
        fixed = send_program(machine)
        assert fixed is not buggy
        assert (buggy[0], fixed[0]) == (True, False)
        assert Machine(SCCConfig(erratum_enabled=False)).latency.shared \
            is not machine.latency.shared
        machine.config.erratum_enabled = True
        assert send_program(machine) is buggy

    def test_a_full_table_starts_over(self):
        machine = Machine(SCCConfig())
        shared = machine.latency.shared
        for nbytes in range(PROGRAM_LIMIT):
            bind(machine.cores[0], SEND_CHUNK, (0, 1, 0, 0), nbytes)
        assert len(shared.index[True]) == len(shared.programs[True]) \
            == PROGRAM_LIMIT
        kept = send_program(machine)
        assert len(shared.index[True]) == len(shared.programs[True]) == 1
        assert send_program(machine) is kept

    def test_reference_model_keeps_nothing(self):
        machine = Machine(SCCConfig())
        machine.latency = LatencyModel(machine.config, machine.topology,
                                       cache=False)
        assert machine.latency.shared is None
        first, second = send_program(machine), send_program(machine)
        assert first is not second
        assert first == second == send_program(Machine(SCCConfig()))


@pytest.mark.parametrize("spec", ["mesh:6x4", "torus:6x4", "cluster:2x24",
                                  "mesh:6x4+w=0.0-1.0:5;2.1-3.1:3"])
def test_pair_classes_price_alike(spec):
    """What a program is keyed by: two core pairs of one class have every
    latency :func:`bind` prices from equal, at both erratum levels."""
    topology = SCCConfig(topology=spec).resolved_topology()
    classes = pair_classes(topology)
    for erratum in (True, False):
        model = LatencyModel(SCCConfig(topology=spec,
                                       erratum_enabled=erratum),
                             topology, cache=False)
        seen = {}
        for a in range(topology.num_cores):
            for b in range(topology.num_cores):
                prices = (model.mpb_access(a, b), model.flag_write(a, b),
                          model.flag_notify(a, b),
                          model.mpb_write_bytes(a, b, 100),
                          model.mpb_read_bytes(a, b, 100),
                          model.mpb_stream_read(a, b, 100),
                          model.mpb_stream_write(a, b, 100))
                assert seen.setdefault(classes[a, b], prices) == prices
        assert len(seen) < topology.num_cores


#: Types a bound row may hold.
ROW_TYPES = (bool, int, str, slice, type(None))


def assert_plain(program: tuple) -> None:
    level, rows = program
    assert type(level) is bool
    for row in rows:
        for item in row:
            assert type(item) in ROW_TYPES, (row, item)
            assert not type(item).__module__.startswith(
                ("repro.hw", "repro.sim")), (row, item)
            if type(item) is slice:
                assert all(type(end) is int
                           for end in (item.start, item.stop)), (row, item)
        assert row[1] is None or 0 <= row[1] <= 3, row   # a role


@pytest.mark.parametrize("contention", [False, True])
def test_bound_rows_hold_no_machine_object(contention):
    config = SCCConfig(model_mpb_contention=contention,
                       rckmpi_call_cycles=6501)           # a table of its own
    machine = Machine(config)
    for table in ALL_TABLES:
        for nbytes, chunk in ((0, 0), (100, 0), (5000, 4000)):
            assert_plain(bind(machine.cores[1], table, (0, 1, 0, 0), nbytes,
                              chunk))
    for stack in ("blocking", "ircce", "lightweight_balanced", "rckmpi",
                  "mpb"):
        allreduce(Machine(config.copy()), stack)
    programs = machine.latency.shared.programs[True]
    assert len(programs) > len(ALL_TABLES)
    for program in programs.values():
        assert_plain(program)


class TestFirstTouch:
    def test_fresh_machine_allocates_no_mpb_bytes(self):
        machine = Machine(SCCConfig())
        assert len(machine.mpbs) == 48
        assert all(mpb._data is None for mpb in machine.mpbs)

    def test_cores_are_built_when_first_indexed(self):
        machine = Machine(SCCConfig())
        assert len(machine.cores) == 48
        assert machine.cores._cores == [None] * 48
        assert machine.cores[-1] is machine.cores[47]
        assert machine.cores[47].core_id == 47
        assert [core.core_id for core in machine.cores] == list(range(48))
        with pytest.raises(IndexError):
            machine.cores[48]

    def test_a_run_allocates_what_it_touches(self):
        machine = Machine(SCCConfig())
        allreduce(machine, "blocking", cores=2)
        touched = {mpb.core_id for mpb in machine.mpbs
                   if mpb._data is not None}
        assert touched == {0, 1}

    def test_untouched_bytes_read_as_zero(self):
        mpb = Machine(SCCConfig()).mpbs[47]
        assert not mpb.read(mpb.payload_offset, 64).any()
        assert mpb.data.size == mpb.size and not mpb.data.any()

    def test_reset_mpbs_sees_every_core(self):
        machine = Machine(SCCConfig())
        for mpb in machine.mpbs:
            mpb.write(mpb.payload_offset, np.full(8, 7, dtype=np.uint8))
            mpb.alloc(64)
        machine.reset_mpbs()
        for mpb in machine.mpbs:
            assert not mpb.read(mpb.payload_offset, 8).any()
            assert mpb.free_bytes == mpb.payload_bytes

    def test_mpb_counters_see_every_core(self):
        machine = Machine(SCCConfig())
        allreduce(machine, "blocking", cores=2)
        counters = mpb_counters(machine)
        assert [row["core"] for row in counters] == list(range(48))
        assert counters[0]["writes"] > 0
        assert all(row["writes"] == row["reads"] == 0
                   for row in counters[2:])

    def test_sanitizer_sees_an_untouched_mpb(self):
        machine = Machine(SCCConfig())
        san = Sanitizer().install(machine)
        region = machine.mpbs[47].alloc(64)

        def program(env):
            if env.rank == 0:   # core 46 reads a slot nobody wrote
                yield from get_bytes(env, region, 64)
            else:
                yield from env.sleep(1)

        machine.run_spmd(program, ranks=[46, 47])
        assert {(d.rule, d.owner) for d in san.diagnostics} == {
            ("uninit-read", 47)}

    def test_race_detector_sees_an_untouched_mpb(self):
        machine = Machine(SCCConfig())
        races = RaceDetector().install(machine)
        region = machine.mpbs[47].alloc(64)
        payload = np.ones(64, dtype=np.uint8)

        def program(env):
            # Both write core 47's slot with nothing ordering them.
            yield from put_bytes(env, region, payload)

        machine.run_spmd(program, ranks=[46, 47])
        assert {(d.rule, d.owner) for d in races.diagnostics} == {
            ("race-mpb-ww", 47)}
