"""Every ``repro.*`` subpackage imports first, in a fresh interpreter.

``import repro.sched`` used to fail unless ``repro.core`` happened to be
imported before it (``sched.builders -> core.blocks -> core -> core.comm
-> sched.engine -> sched.builders``); a test process that has already
imported half the tree cannot see such a cycle, so each import runs in
its own subprocess.
"""

import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
FIRST_IMPORTS = sorted(
    info.name for info in pkgutil.iter_modules(repro.__path__, "repro.")
    if info.ispkg) + ["repro.sched.ir", "repro.cli"]


@pytest.mark.parametrize("module", FIRST_IMPORTS)
def test_imports_first_in_a_fresh_interpreter(module):
    done = subprocess.run([sys.executable, "-c", f"import {module}"],
                          env=ENV, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_cli_import_does_not_load_scipy():
    code = ("import sys, repro.cli; "
            "sys.exit(any(m.startswith('scipy') for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], env=ENV).returncode == 0
