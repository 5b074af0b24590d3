"""The benchmark's own output checks, run as a test.

``benchmarks/run.py --trace 1`` runs the benchmark's command sequence once
in-process on a freshly generated workload.  It checks every CLI output
against the oracles in ``tests/oracles.py``, needs every polare function
that ``benchmarks/traced.py`` wraps to still exist where it looks, and
compares the traced counts with what the generator built.  A failed check
prints a ``FAILED`` line on stderr and makes ``"correct"`` false.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["census", "dense", "provenance"])
def test_benchmark_outputs_are_correct(workload):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
