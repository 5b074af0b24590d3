"""Print a sha256 of every output of the benchmark's command sequence.

Generates the ``census``, ``dense`` and ``provenance`` workloads at seed 1
in a temporary directory, with the generator and the command sequence of
``benchmarks/run.py``, and runs each command in-process, plus
``validate --format json``, ``infer --no-overlap-required``,
``rewrite --from-singleton`` of the singleton output and ``query path`` on
the workload's path pair at the CLI default ``--max-depth``.  Each line is
``label sha256``: one for the exit code with the stdout of each command,
one for each ``--out`` file and one for each ``claims.jsonl`` it writes.

It then ingests a respelled copy of the workload's input log into a new
store: each claim's assertion lines reversed and its timestamp written
with ``Z``.  Replay parses such lines in full rather than hashing them as
they stand, yet they name the same claims, so the ``ingest_respelled``
digest must equal the ``ingest`` one; the script exits 1 when it does not.

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
import json
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


def respell(log: Path, out: Path) -> None:
    """Write the claims of ``log`` to ``out`` with each assertion's lines
    reversed and each UTC timestamp written with ``Z``."""
    lines = []
    for line in log.read_text(encoding="utf-8").split("\n"):
        if not line.strip():
            continue
        claim = json.loads(line)
        statements = claim["assertion"].split("\n")[:-1]
        claim["assertion"] = "".join(s + "\n" for s in reversed(statements))
        claim["timestamp"] = claim["timestamp"].replace("+00:00", "Z")
        lines.append(json.dumps(claim) + "\n")
    out.write_text("".join(lines), encoding="utf-8")


def _run(argv: list) -> tuple:
    """(exit code, stdout) of one in-process command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_cli(argv)
    return code, buf.getvalue()


def digest_lines(name: str, work: Path) -> list:
    bench = run.Bench(name, SEED)
    bench.ws = work
    bench.setup(1)
    lines = []
    for label, argv, out_file, written in commands(bench):
        bench.prepare(label, written)
        code, stdout = _run(argv)
        tag = f"{name}.{label}"
        shown = f"exit {code}\n{stdout}".encode("utf-8")
        lines.append(f"{tag}.stdout {_sha(shown)}")
        if out_file is not None:
            lines.append(f"{tag}.out {_sha(out_file.read_bytes())}")
        if written is not None:
            lines.append(f"{tag}.claims {_sha((written / 'claims.jsonl').read_bytes())}")
    respelled, store = work / "respelled.jsonl", work / "respelled_store"
    respell(bench.inp / "claims.jsonl", respelled)
    bench.prepare("ingest", store)
    _run(["ingest", "--claims", str(respelled), "--store", str(store)])
    lines.append(f"{name}.ingest_respelled.claims {_sha((store / 'claims.jsonl').read_bytes())}")
    return lines


def main() -> int:
    print(f"polare from {Path(polare.__file__).parent}", file=sys.stderr)
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            digests = dict(line.split(" ") for line in digest_lines(name, Path(tmp) / name))
            for label, digest in digests.items():
                print(label, digest)
            if digests[f"{name}.ingest_respelled.claims"] != digests[f"{name}.ingest.claims"]:
                print(f"{name}: the respelled ingest wrote another log", file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
