"""Schedule-IR collective engine.

One algorithm repertoire, expressed as data (:mod:`repro.sched.ir`:
per-rank step objects and an interconvertible columnar step table),
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
from repro.sched.ir import (
    COMM_STEPS,
    CopyBlock,
    Exchange,
    Interval,
    Recv,
    ReduceRecv,
    Rotate,
    Schedule,
    Send,
    Step,
    StepTable,
)
from repro.sched.synth import (
    build_synth_schedule,
    candidate_names,
    synthesize,
)

__all__ = [
    "BUILDERS",
    "COMM_STEPS",
    "CopyBlock",
    "DEFAULT_ALGOS",
    "Exchange",
    "Interval",
    "PIPELINE_BUILDERS",
    "Recv",
    "ReduceRecv",
    "Rotate",
    "SCHEDULED_KINDS",
    "Schedule",
    "Send",
    "Step",
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
