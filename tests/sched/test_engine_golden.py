"""Golden bit-identity: the schedule executor == the seed's hand-written
generators, in virtual time.

Until PR 14 every algorithm existed twice — a native generator under
``repro.core`` and a schedule builder — and this file compared the two
live.  The generators are gone; what they charged is pinned in
``engine_golden.json``, recorded on the last commit that had them
(9c88d7a, ``algo=<native name>``) by running this file as a script
*before* the deletion.  Each pin is the kernel's event count, rank 0's
latency in ps, and a digest of every rank's ``(latency, exit)`` ps, so
a change that only moves a non-root rank still fails.  Four tiers:

* the full variant matrix at small rank counts (p = 2 and 5, covering
  the power-of-two and odd/general tree paths) on all six stacks;
* every collective kind x stack at the paper-scale rank counts
  p = 47 and 48, rotating which algorithm variant is exercised so the
  whole repertoire is also covered at large p;
* the prefix scan on every stack at p in {2, 5, 47, 48};
* ``scatter``/``gather``/``scatterv``/``gatherv``/``exscan`` (schedules
  with no selectable algorithm) at p in {2, 5, 47, 48} for two roots,
  with uneven counts that include empty blocks.

Regenerate (only meaningful on a commit whose timing is the reference):
``PYTHONPATH=src python tests/sched/test_engine_golden.py``.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.bench.runner import measure_collective, program_for
from repro.core.ops import SUM
from repro.core.registry import make_communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine

#: The Fig.-9 stacks; ``rckmpi`` last so the at-scale rotation below
#: keeps exercising the variants it always did on the first five.
STACKS = ("blocking", "ircce", "lightweight", "lightweight_balanced",
          "mpb", "rckmpi")

#: (kind, algorithm, per-rank doubles) — sizes pick each algorithm's
#: natural regime (>= 64 doubles is "long" under the 512-byte rule).
VARIANTS = (
    ("allreduce", "rsag", 70),
    ("allreduce", "reduce_bcast", 20),
    ("allreduce", "recursive_doubling", 20),
    ("allreduce", "recursive_halving", 70),
    ("reduce", "binomial", 20),
    ("reduce", "rsg", 70),
    ("bcast", "binomial", 20),
    ("bcast", "scatter_allgather", 70),
    ("allgather", "ring", 20),
    ("allgather", "bruck", 20),
    ("reduce_scatter", "ring", 40),
    ("alltoall", "pairwise", 8),
)

VARIANTS_BY_KIND = {}
for kind, name, size in VARIANTS:
    VARIANTS_BY_KIND.setdefault(kind, []).append((name, size))

ROOTED_CORES = (2, 5, 47, 48)
ROOTED_N = 70

PINS_PATH = pathlib.Path(__file__).with_name("engine_golden.json")
PINS = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}


def _pin(machine, values):
    """``[events, rank 0's first mark in ps, digest of every rank's
    marks]`` (the first mark is the latency, for the rooted runs the
    time the scatter returned)."""
    digest = hashlib.sha256(repr(values).encode()).hexdigest()[:16]
    return [machine.sim.events_processed, int(values[0][0]), digest]


def _inputs(cores, size):
    rng = np.random.default_rng(20120901)
    return [rng.normal(size=size) for _ in range(cores)]


def collective_pin(kind, stack, size, cores, algo):
    machine = Machine(SCCConfig())
    comm = make_communicator(machine, stack)
    measured = program_for(kind, comm, _inputs(cores, size), SUM, algo)

    def program(env):
        latency = yield from measured(env)
        return latency, env.now

    run = machine.run_spmd(program, ranks=list(range(cores)))
    return _pin(machine, run.values)


def scan_pin(stack, cores, algo, size=20):
    machine = Machine(SCCConfig())
    comm = make_communicator(machine, stack)
    inputs = _inputs(cores, size)

    def program(env):
        yield from comm.barrier(env)
        start = env.now
        result = yield from comm.scan(env, inputs[env.rank], algo=algo)
        assert np.allclose(result, np.sum(inputs[:env.rank + 1], axis=0))
        return env.now - start, env.now

    run = machine.run_spmd(program, ranks=list(range(cores)))
    return _pin(machine, run.values)


def rooted_counts(cores):
    """Uneven per-vrank counts, empty blocks included."""
    return [(7 * i + 3) % 5 for i in range(cores)]


def rooted_pin(stack, cores, root):
    """scatter, gather, scatterv, gatherv and exscan back to back; every
    rank reports ``env.now`` after each (payloads are checked too)."""
    machine = Machine(SCCConfig())
    comm = make_communicator(machine, stack)
    data = np.arange(ROOTED_N, dtype=np.float64)
    counts = rooted_counts(cores)
    datav = np.arange(sum(counts), dtype=np.float64) + 0.5
    inputs = _inputs(cores, 20)

    def program(env):
        marks = []
        is_root = env.rank == root
        vrank = (env.rank - root) % env.size
        yield from comm.barrier(env)
        buf = data.copy() if is_root else np.empty(ROOTED_N)
        block = yield from comm.scatter(env, buf, root)
        marks.append(env.now)
        part = comm.partition(ROOTED_N, env.size)
        assert np.array_equal(block, data[part.slice_of(vrank)])
        full = yield from comm.gather(env, block, ROOTED_N, root)
        marks.append(env.now)
        assert np.array_equal(full, data) if is_root else full is None
        bufv = datav.copy() if is_root else np.empty(datav.size)
        blockv = yield from comm.scatterv(env, bufv, counts, root)
        marks.append(env.now)
        lo = sum(counts[:vrank])
        assert np.array_equal(blockv, datav[lo:lo + counts[vrank]])
        fullv = yield from comm.gatherv(env, blockv, counts, root)
        marks.append(env.now)
        assert np.array_equal(fullv, datav) if is_root else fullv is None
        prefix = yield from comm.exscan(env, inputs[env.rank])
        marks.append(env.now)
        if env.rank == 0:
            assert prefix is None
        else:
            assert np.allclose(prefix, np.sum(inputs[:env.rank], axis=0))
        return marks

    run = machine.run_spmd(program, ranks=list(range(cores)))
    return _pin(machine, run.values)


def rooted_roots(cores):
    return (0, min(3, cores - 1))


def assert_pinned(key, got):
    assert got == PINS[key], (
        f"{key}: [events, rank-0 ps, all-ranks digest] is {got}, the "
        f"native generators charged {PINS[key]}")


def variant_key(kind, algo, size, cores, stack):
    return f"{kind}:{algo}/n{size}/p{cores}/{stack}"


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("cores", [2, 5])
@pytest.mark.parametrize("kind,algo,size", VARIANTS)
def test_variant_matrix_small_p(kind, algo, size, cores, stack):
    assert_pinned(variant_key(kind, algo, size, cores, stack),
                  collective_pin(kind, stack, size, cores, algo))


def at_scale_variant(kind, stack):
    variants = VARIANTS_BY_KIND[kind]
    return variants[STACKS.index(stack) % len(variants)]


@pytest.mark.parametrize("cores", [47, 48])
@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("kind", sorted(VARIANTS_BY_KIND))
def test_every_kind_and_stack_at_scale(kind, stack, cores):
    algo, size = at_scale_variant(kind, stack)
    assert_pinned(variant_key(kind, algo, size, cores, stack),
                  collective_pin(kind, stack, size, cores, algo))


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("cores", [2, 5, 47, 48])
def test_scan_bit_identity(stack, cores):
    assert_pinned(f"scan:recursive_doubling/n20/p{cores}/{stack}",
                  scan_pin(stack, cores, "recursive_doubling"))


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("cores", ROOTED_CORES)
def test_rooted_and_exscan_bit_identity(stack, cores):
    for root in rooted_roots(cores):
        assert_pinned(f"rooted/p{cores}/root{root}/{stack}",
                      rooted_pin(stack, cores, root))


@pytest.mark.parametrize("kind,algo,size", VARIANTS)
def test_sched_prefix_is_only_a_spelling(kind, algo, size):
    # ``sched:<name>`` stays accepted (the selection table and
    # benchmarks/perf spell it that way) but selects no code path.
    for stack in ("blocking", "lightweight_balanced"):
        assert_pinned(variant_key(kind, algo, size, 5, stack),
                      collective_pin(kind, stack, size, 5, f"sched:{algo}"))


@pytest.mark.parametrize("kind,short,long", [
    ("allreduce", 20, 70),
    ("bcast", 20, 70),
    ("reduce", 20, 70),
])
def test_default_selection_unchanged(kind, short, long):
    # algo=None must keep the seed's 512-byte threshold rule: the
    # explicit names reproduce it exactly on either side.
    from repro.sched.builders import DEFAULT_ALGOS

    short_name, long_name = DEFAULT_ALGOS[kind]
    for stack in ("blocking", "lightweight_balanced"):
        assert measure_collective(kind, stack, short, cores=5) == \
            measure_collective(kind, stack, short, cores=5,
                               algo=short_name)
        assert measure_collective(kind, stack, long, cores=5) == \
            measure_collective(kind, stack, long, cores=5,
                               algo=long_name)


def test_unknown_algorithms_rejected():
    # One KeyError, from Communicator.resolve, for either spelling: it
    # names the kind, the offending value and what is known.
    for prefix in ("", "sched:"):
        with pytest.raises(KeyError) as err:
            measure_collective("allgather", "blocking", 8, cores=2,
                               algo=prefix + "hypercube")
        message = str(err.value)
        assert f"unknown allgather algorithm '{prefix}hypercube'" in message
        assert "known: bruck, ring, synthesized" in message
        assert "hier/g<G>" in message and "mpb" not in message
        with pytest.raises(KeyError, match="known: .*rsag, mpb"):
            measure_collective("allreduce", "blocking", 8, cores=2,
                               algo=prefix + "hypercube")
        # The MPB-direct algorithm exists for Allreduce only.
        with pytest.raises(KeyError, match="unknown bcast algorithm"):
            measure_collective("bcast", "mpb", 70, cores=2,
                               algo=prefix + "mpb")
        # Malformed or misplaced grammar names are unknown like any other.
        for kind, algo in (("allreduce", "hier/gx"),
                           ("allgather", "hier/g2"),
                           ("alltoall", "synth/pipeline_c4"),
                           ("bcast", "synth/ring+c2")):
            with pytest.raises(KeyError,
                               match=f"unknown {kind} algorithm"):
                measure_collective(kind, "lightweight", 8, cores=4,
                                   algo=prefix + algo)


@pytest.mark.parametrize("prefix", ["", "sched:"])
def test_hier_name_runs_on_a_single_chip(prefix):
    # hier/g<G> is only *offered* (tuned stack, tune) on multi-chip
    # topologies, but an explicit name is a valid schedule anywhere.
    machine = Machine(SCCConfig())
    comm = make_communicator(machine, "lightweight_balanced")
    assert comm.resolve("allreduce", 8, 16, 128, prefix + "hier/g2") == \
        "hier/g2"
    assert measure_collective("allreduce", "lightweight_balanced", 16,
                              cores=8, algo=prefix + "hier/g2") > 0


def all_pins():
    pins = {}
    for kind, algo, size in VARIANTS:
        for cores in (2, 5):
            for stack in STACKS:
                pins[variant_key(kind, algo, size, cores, stack)] = \
                    collective_pin(kind, stack, size, cores, algo)
    for kind in sorted(VARIANTS_BY_KIND):
        for stack in STACKS:
            algo, size = at_scale_variant(kind, stack)
            for cores in (47, 48):
                pins[variant_key(kind, algo, size, cores, stack)] = \
                    collective_pin(kind, stack, size, cores, algo)
    for stack in STACKS:
        for cores in (2, 5, 47, 48):
            pins[f"scan:recursive_doubling/n20/p{cores}/{stack}"] = \
                scan_pin(stack, cores, "recursive_doubling")
        for cores in ROOTED_CORES:
            for root in rooted_roots(cores):
                pins[f"rooted/p{cores}/root{root}/{stack}"] = \
                    rooted_pin(stack, cores, root)
    return pins


if __name__ == "__main__":  # regenerate: PYTHONPATH=src python <this file>
    PINS_PATH.write_text(json.dumps(all_pins(), indent=1, sort_keys=True)
                         + "\n")
    print(f"wrote {PINS_PATH}")
