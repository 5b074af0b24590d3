"""The golden commands under other Python interpreters.

polare is stdlib only and supports Python 3.10 and later, but what the
standard library accepts can differ between versions (``fromisoformat``
widened in 3.11, for one).  List interpreters in ``POLARE_TEST_PYTHONS``,
separated by ``os.pathsep``::

    POLARE_TEST_PYTHONS=/usr/bin/python3.10:/usr/bin/python3.13 python -m pytest tests/test_interpreters.py

Each runs every command of ``tests/test_golden.py`` as ``python -m polare``
in a fresh process, and the digests must equal ``GOLDEN``; each reads the
fixture logs, and the claim ids must equal ``CLAIM_IDS``.  The interpreters
need no pytest.  One that is not listed or not found is reported as
skipped.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
from pathlib import Path

import pytest

from .test_golden import CLAIM_IDS, FIXTURES, GOLDEN, fixture_commands, store_commands

SRC = Path(__file__).resolve().parent.parent / "src"
PYTHONS = [p for p in os.environ.get("POLARE_TEST_PYTHONS", "").split(os.pathsep) if p]


def run_polare(python: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    return subprocess.run([python, *argv], env=env, capture_output=True, timeout=120)


@pytest.fixture(params=PYTHONS or [None], ids=lambda p: p or "none-listed")
def python(request):
    if request.param is None:
        pytest.skip("POLARE_TEST_PYTHONS lists no interpreter")
    if not os.access(request.param, os.X_OK):
        pytest.skip(f"interpreter not found: {request.param}")
    return request.param


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_commands(python, case, tmp_path):
    if case == "singleton_person":
        commands = fixture_commands(tmp_path)
    else:
        commands = store_commands(str(FIXTURES / case), tmp_path)
    got = {}
    for label, argv, out_file in commands:
        proc = run_polare(python, "-m", "polare", *argv)
        digest = hashlib.sha256(b"exit %d\n" % proc.returncode + proc.stdout + b"\0")
        if out_file is not None:
            digest.update(out_file.read_bytes())
        got[label] = digest.hexdigest()
    assert got == GOLDEN[case]


def test_claim_ids(python):
    script = (
        "import sys\n"
        "from polare.claims import read_claims\n"
        "print('\\n'.join(c.id for p in sys.argv[1:] for c in read_claims(p)), end='')\n"
    )
    logs = [str(FIXTURES / store / "claims.jsonl") for store in ("clean_store", "overlap_store")]
    proc = run_polare(python, "-c", script, *logs)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == CLAIM_IDS
