"""Print a sha256 of every output of the benchmark's command sequence.

Generates the ``census``, ``dense`` and ``provenance`` workloads at seed 1
in a temporary directory, with the generator and the command sequence of
``benchmarks/run.py``, and runs each command in-process, plus
``validate --format json``, ``infer --no-overlap-required``,
``rewrite --from-singleton`` of the singleton output and ``query path`` on
the workload's path pair at the CLI default ``--max-depth``.  Each line is
``label sha256``: one for the exit code with the stdout of each command,
one for each ``--out`` file and one for each ``claims.jsonl`` it writes.

The commands run through the first ``polare`` on ``PYTHONPATH`` (this
checkout's ``src`` when there is none), so two checkouts write the same
outputs when the two listings are equal::

    PYTHONPATH=<a>/src python3 scripts/output_digests.py > a.txt
    PYTHONPATH=<b>/src python3 scripts/output_digests.py > b.txt
    diff a.txt b.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "benchmarks")]
sys.path.append(str(ROOT / "src"))

import polare  # noqa: E402
import run  # noqa: E402
from polare.cli import run_cli  # noqa: E402

WORKLOADS = ("census", "dense", "provenance")
SEED = 1


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def commands(bench) -> list:
    """(label, argv, --out file or None, store written or None): the
    benchmark's sequence, then the four commands it does not run."""
    cmds = bench.commands("digest")
    out = bench.ws / "digest_out"
    store = str(bench.store)
    singleton = next(out_file for label, _, out_file, _ in cmds if label == "rewrite")
    return cmds + [
        ("validate_json", ["validate", "--store", store, "--format", "json"], None, None),
        ("infer_open", ["infer", "--store", store, "--no-overlap-required",
                        "--out", str(out / "edges_open.jsonl")], out / "edges_open.jsonl", None),
        ("from_singleton", ["rewrite", "--from-singleton", "--in", str(singleton),
                            "--out", str(out / "back.nt")], out / "back.nt", None),
        ("query_path_default", ["query", "path", "--store", store, "--from", bench.w.path_pair[0],
                                "--to", bench.w.path_pair[1]], None, None),
    ]


def digest_lines(name: str, work: Path) -> list:
    bench = run.Bench(name, SEED)
    bench.ws = work
    bench.setup(1)
    lines = []
    for label, argv, out_file, written in commands(bench):
        bench.prepare(label, written)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run_cli(argv)
        tag = f"{name}.{label}"
        stdout = f"exit {code}\n{buf.getvalue()}".encode("utf-8")
        lines.append(f"{tag}.stdout {_sha(stdout)}")
        if out_file is not None:
            lines.append(f"{tag}.out {_sha(out_file.read_bytes())}")
        if written is not None:
            lines.append(f"{tag}.claims {_sha((written / 'claims.jsonl').read_bytes())}")
    return lines


def main() -> int:
    print(f"polare from {Path(polare.__file__).parent}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            for line in digest_lines(name, Path(tmp) / name):
                print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
