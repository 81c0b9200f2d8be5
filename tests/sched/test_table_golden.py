"""Golden byte-identity of every shipped schedule's step table.

``table_golden.json`` was recorded on c71335d — the last commit on which
tree, hierarchical and scan phases were built as step objects and
encoded — by running this file as a script *before* the object form was
deleted.  Each pin covers one ``(family, p)`` slice of a verifier grid:
the schedule count and one sha256 over every schedule's label,
``table.rows.tobytes()``, ``table.bufs``, ``buffers`` and sorted
``meta``.  A builder that moves one column of one row fails its slice.

Regenerate (only meaningful on a commit whose tables are the reference):
``PYTHONPATH=src python tests/sched/test_table_golden.py``.
"""

import hashlib
import json
import pathlib

import pytest

from repro.core.blocks import balanced_partition, standard_partition
from repro.hw.topo import get_topology
from repro.sched.builders import FIXED_KINDS, SCHEDULED_KINDS, all_schedules
from repro.sched.hier import HIER_KINDS, build_hier_schedule
from repro.sched.synth import synth_repertoire

GOLDEN = pathlib.Path(__file__).with_name("table_golden.json")

#: The grids of ``verify_repertoire``, ``verify_synth_repertoire`` and
#: ``verify_hier_repertoire`` (repro.analysis.schedverify).
HAND_PS = (1, 2, 3, 4, 5, 7, 8, 48)
HAND_SIZES = (1, 2, 8, 70)
SYNTH_PS = (2, 3, 5, 8, 48)
HIER_SPECS = ("mesh:4x4", "cluster:2x24")
HIER_SIZES = (1, 8, 70)


def _hand(p):
    for n in HAND_SIZES:
        for partitioner in (standard_partition, balanced_partition):
            part = partitioner(n, p)
            for root in (0,) if p == 1 else (0, p - 1):
                yield from all_schedules(
                    p, n, part=part, root=root,
                    kinds=SCHEDULED_KINDS + FIXED_KINDS)


def _hier(spec):
    p = get_topology(spec).num_cores
    for groups in (2, 3, 4):
        if groups > p // 2:
            continue
        for n in HIER_SIZES:
            for kind in HIER_KINDS:
                for root in (0,) if kind == "allreduce" else (0, p - 1):
                    yield build_hier_schedule(kind, f"hier/g{groups}", p, n,
                                              root=root)


SLICES = {
    **{f"hand/p{p}": (_hand, p) for p in HAND_PS},
    **{f"synth/p{p}": (lambda p: synth_repertoire(ps=(p,)), p)
       for p in SYNTH_PS},
    **{f"hier/{spec}": (_hier, spec) for spec in HIER_SPECS},
}


def digest(scheds) -> dict:
    sha = hashlib.sha256()
    count = 0
    for sched in scheds:
        table = sched.table
        assert table.rows.dtype == "int64" and table.rows.flags.c_contiguous
        sha.update(repr((sched.label, sched.p, sched.n, table.bufs,
                         tuple(sched.buffers.items()),
                         sorted(sched.meta.items()))).encode())
        sha.update(table.rows.tobytes())
        count += 1
    return {"schedules": count, "sha256": sha.hexdigest()}


@pytest.mark.parametrize("name", sorted(SLICES))
def test_tables_match_the_recorded_parent(name):
    make, arg = SLICES[name]
    assert digest(make(arg)) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: digest(make(arg)) for name, (make, arg) in SLICES.items()},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
