"""Every script under ``examples/`` runs to completion.

Each runs as its own process with ``PYTHONPATH`` pointing at this
checkout's ``src``, the way the README tells a reader to run them.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys

import pytest

from .processes import SOURCE_ROOT, STEP_TIMEOUT, _environment

EXAMPLES = sorted(
    glob.glob(os.path.join(os.path.dirname(SOURCE_ROOT), "examples", "*.py"))
)


def test_examples_are_found():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("script", EXAMPLES, ids=os.path.basename)
def test_example_exits_zero(script, tmp_path):
    result = subprocess.run(
        [sys.executable, script],
        cwd=tmp_path,
        env=_environment(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=STEP_TIMEOUT,
    )
    assert result.returncode == 0, result.stdout
