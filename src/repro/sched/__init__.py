"""Schedule-IR collective engine.

One algorithm repertoire, expressed as data (:mod:`repro.sched.ir`:
one int64 step table per schedule, read whole or row by row),
built by pure functions (:mod:`repro.sched.builders`), executed by a
single lowering engine on every point-to-point stack
(:mod:`repro.sched.engine`), priced by an analytic cost model
(:mod:`repro.sched.cost`), auto-selected per problem size
(:mod:`repro.sched.select`), and widened beyond the hand repertoire by
the chunked/pipelined synthesizer (:mod:`repro.sched.chunking`,
:mod:`repro.sched.synth`).
"""

from repro.sched.builders import (
    BUILDERS,
    DEFAULT_ALGOS,
    SCHEDULED_KINDS,
    all_schedules,
    build_schedule,
    builder_names,
    known_algorithm,
)
from repro.sched.chunking import (
    PIPELINE_BUILDERS,
    chunk_bounds,
    chunk_schedule,
    chunk_table,
)
from repro.sched.engine import run_schedule, schedule_for
from repro.sched.ir import Schedule, StepRow, StepTable
from repro.sched.synth import (
    build_synth_schedule,
    candidate_names,
    synthesize,
)

__all__ = [
    "BUILDERS",
    "DEFAULT_ALGOS",
    "PIPELINE_BUILDERS",
    "SCHEDULED_KINDS",
    "Schedule",
    "StepRow",
    "StepTable",
    "all_schedules",
    "build_schedule",
    "build_synth_schedule",
    "builder_names",
    "candidate_names",
    "chunk_bounds",
    "chunk_schedule",
    "chunk_table",
    "known_algorithm",
    "run_schedule",
    "schedule_for",
    "synthesize",
]
