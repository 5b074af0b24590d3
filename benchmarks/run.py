"""Benchmark of the polare command line on seeded synthetic stores.

Run from the repository root:

    python3 benchmarks/run.py --workload census --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the harness times real CLI commands, each one a fresh
``python -m polare`` process started and awaited by this single process
(a closed loop with one client).  It repeats the command sequence in
rounds for ``--seconds`` (at least two rounds) and reports, per command,
the mean wall time from spawn to exit over the run.  With ``--trace 1``
it runs the sequence once through the CLI and once in this process under
spans (see ``traced.py``) and reports the per-layer metrics instead.

Outputs are checked outside the timed spans: against expectations derived
from the generator, against the oracles in ``tests/oracles.py``, and for
byte identity across rounds.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See ``MAP.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent

#: set-up repetitions before the first round and after each round; setup_s
#: is their median, spread over the run like the other samples
SETUPS = 3
STARTUPS = 5  # fresh `polare --help` processes behind cli.startup_s
DEADLINE_MARGIN = 120  # seconds past --seconds at which the current child is killed
MIN_ROUNDS = 2  # every output is compared across at least two repetitions
PATH_DEPTH = 3
NEIGHBORHOOD_DEPTH = 2

TIMED = ("ingest", "append", "validate", "validate_filtered", "infer", "export", "rewrite",
         "query_path", "query_neighborhood")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Bench:
    def __init__(self, name: str, seed: int):
        import workloads

        self.name = name
        self.seed = seed
        self.factory = workloads.WORKLOADS[name]
        self.ws = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.max_rss_kb = 0
        self.child = None
        self.expired = False
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        self.env = env

    # set-up -----------------------------------------------------------------

    def setup(self, times: int) -> list:
        """Generate and write the workload ``times`` times; returns the
        durations.  The last generation is kept."""
        durations = []
        for _ in range(times):
            target = self.ws / "input"
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            t0 = perf_counter()
            w = self.factory(self.seed)
            w.write(target)
            durations.append(perf_counter() - t0)
        self.w = w
        self.inp = target
        self.store = target / "store"
        self.log = (self.store / "claims.jsonl").read_bytes()
        return durations

    def expect(self) -> None:
        """Expected results and structural guards, before anything is timed."""
        w = self.w
        self.shape = w.shape()
        self.guard()
        self.violations = w.expected_violations()
        self.violations_filtered = w.expected_violations(w.accepted)
        self.edge_kinds = w.expected_edges()
        self.export = w.expected_export().encode("utf-8")
        self.singleton_lines = w.expected_singleton_lines()
        stored = set(w.store_lines)
        fresh = []
        for line in w.append_lines:
            if line not in stored and line not in fresh:
                fresh.append(line)
        self.appended_log = self.log + "".join(line + "\n" for line in fresh).encode("utf-8")
        self.edges = None
        self.oracle: dict = {}

    def guard(self) -> None:
        """The defining property of each workload, so a later edit to the
        generator cannot quietly shrink an adversarial shape away."""
        s = self.shape
        problems = []
        if self.name == "dense":
            if s["largest_post"] < 1200:
                problems.append(f"largest post holds {s['largest_post']} memberships, not 1200")
            if s["transactions"] < 160 or s["transaction_sizes"] != [4, 5, 6, 7]:
                problems.append(f"transactions {s['transactions']} of sizes {s['transaction_sizes']}")
            if s["cases"] < 40 or s["case_sizes"] != [4, 5, 6, 7]:
                problems.append(f"cases {s['cases']} of sizes {s['case_sizes']}")
        elif self.name == "provenance":
            if s["corroboration_share"] < 0.7:
                problems.append(f"corroboration share {s['corroboration_share']:.2f} < 0.7")
            if s["append_duplicate_share"] < 0.4:
                problems.append(f"append duplicate share {s['append_duplicate_share']:.2f} < 0.4")
            if s["claims"] < 2400:
                problems.append(f"{s['claims']} claims, not 2400")
        elif self.name == "census":
            if s["corroboration_share"] != 0:
                problems.append("census must have no corroboration")
        if problems:
            raise SystemExit(f"structural guard failed for {self.name}: {'; '.join(problems)}")

    # the command sequence ----------------------------------------------------

    def commands(self, tag: str) -> list:
        """(label, argv, output file or None, store written or None)."""
        w, inp, out = self.w, self.inp, self.ws / f"{tag}_out"
        out.mkdir(parents=True, exist_ok=True)
        store = str(self.store)
        return [
            ("ingest", ["ingest", "--claims", str(inp / "claims.jsonl"),
                        "--store", str(out / "ingest")], None, out / "ingest"),
            ("append", ["ingest", "--claims", str(inp / "append.jsonl"),
                        "--store", str(out / "append")], None, out / "append"),
            ("validate", ["validate", "--store", store], None, None),
            ("validate_filtered", ["validate", "--store", store,
                                   "--asserters", str(inp / "asserters.json")], None, None),
            ("infer", ["infer", "--store", store, "--out", str(out / "edges.jsonl")],
             out / "edges.jsonl", None),
            ("export", ["export", "--store", store, "--out", str(out / "export.nt")],
             out / "export.nt", None),
            ("rewrite", ["rewrite", "--to-singleton", "--in", str(out / "export.nt"),
                         "--out", str(out / "singleton.nt")], out / "singleton.nt", None),
            ("query_path", ["query", "path", "--store", store, "--from", w.path_pair[0],
                            "--to", w.path_pair[1], "--max-depth", str(PATH_DEPTH)], None, None),
            ("query_neighborhood", ["query", "neighborhood", "--store", store, "--agent", w.agent,
                                    "--depth", str(NEIGHBORHOOD_DEPTH)], None, None),
        ]

    def prepare(self, label: str, written) -> None:
        """Fresh stores for the two ingest commands, outside any timing."""
        if written is None:
            return
        shutil.rmtree(written, ignore_errors=True)
        source = self.inp / ("empty_store" if label == "ingest" else "store")
        shutil.copytree(source, written)

    def spawn(self, argv: list, stdout: Path) -> tuple:
        """Run one CLI process; (seconds, exit code), timed spawn to exit."""
        err = stdout.with_suffix(".err")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
        ]
        args = [sys.executable, "-m", "polare", *argv]
        t0 = perf_counter()
        self.child = os.posix_spawn(sys.executable, args, self.env, file_actions=actions)
        _, status, usage = os.wait4(self.child, 0)
        seconds = perf_counter() - t0
        self.child = None
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return seconds, os.waitstatus_to_exitcode(status)

    def on_term(self, *_) -> None:
        """Stop and reap the current child too when the harness is told to stop."""
        if self.child is not None:
            os.kill(self.child, signal.SIGKILL)
            os.waitpid(self.child, 0)
            self.child = None
        raise SystemExit(143)

    def on_alarm(self, *_) -> None:
        self.expired = True
        if self.child is not None:
            os.kill(self.child, signal.SIGKILL)

    # checks -------------------------------------------------------------------

    def record(self, label: str, problem) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            self.errors.append(f"{label}: {problem}")

    def check(self, label: str, code: int, stdout: bytes, out_file, written) -> str | None:
        """Compare one command's exit code and outputs with the expectations;
        a check that raises counts as a failure of the command."""
        if code == 2:
            return f"exit 2: {self.stderr_tail(label)}"
        try:
            return self.compare(label, code, stdout.decode("utf-8"), out_file, written)
        except Exception as e:  # malformed output of any kind fails the command
            return f"output could not be checked: {e!r}"

    def compare(self, label: str, code: int, text: str, out_file, written) -> str | None:
        import checks

        w = self.w
        if label == "ingest":
            return (checks.check_ingest(text, len(w.store_lines), 0)
                    or self.same_log(written, self.log))
        if label == "append":
            return (checks.check_ingest(text, w.append_new, w.append_duplicates)
                    or self.same_log(written, self.appended_log))
        if label in ("validate", "validate_filtered"):
            want = self.violations if label == "validate" else self.violations_filtered
            if code != checks.validate_exit(want):
                return f"exit {code}, expected {checks.validate_exit(want)}"
            return checks.check_validate(text, want)
        if code != 0:
            return f"exit {code}"
        if label == "infer":
            self.edges = checks.Edges(out_file.read_text(encoding="utf-8"))
            return checks.check_edges(self.edges, self.edge_kinds)
        if label == "export":
            return None if out_file.read_bytes() == self.export else "export differs from the store"
        if label == "rewrite":
            n = out_file.read_bytes().count(b"\n")
            return None if n == self.singleton_lines else f"{n} triples, expected {self.singleton_lines}"
        if self.edges is None:
            return "no infer output to check the query against"
        if label == "query_path":
            a, b = w.path_pair
            if label not in self.oracle:
                self.oracle[label] = checks.expected_paths(self.edges, a, b)
            return checks.check_paths(text, self.edges, a, b, self.oracle[label])
        if label == "query_neighborhood":
            if label not in self.oracle:
                self.oracle[label] = checks.expected_neighborhood(self.edges, w.agent)
            return None if text == self.oracle[label] else "neighborhood differs from the oracle"
        return f"unknown command {label}"

    @staticmethod
    def same_log(store, want: bytes) -> str | None:
        got = (store / "claims.jsonl").read_bytes()
        return None if got == want else "claims log differs from the expected log"

    def stderr_tail(self, label: str) -> str:
        err = self.ws / "cli_out" / f"{label}.err"
        return err.read_text(encoding="utf-8", errors="replace")[-300:] if err.exists() else ""

    @staticmethod
    def digest(stdout: bytes, out_file, written) -> tuple:
        """Hashes of stdout and of every file the command writes."""
        files = [f for f in (out_file, written and written / "claims.jsonl") if f is not None]
        return (_sha(stdout), *(_sha(f.read_bytes()) if f.exists() else "missing" for f in files))

    # runs ---------------------------------------------------------------------

    def cli_round(self, samples: dict, first: dict) -> None:
        """One pass over the command sequence in fresh processes."""
        for label, argv, out_file, written in self.commands("cli"):
            if self.expired:
                self.record(label, "deadline passed")
                return
            self.prepare(label, written)
            stdout = self.ws / "cli_out" / f"{label}.out"
            seconds, code = self.spawn(argv, stdout)
            data = stdout.read_bytes()
            samples.setdefault(label, []).append(seconds)
            if label not in first:
                problem = self.check(label, code, data, out_file, written)
                first[label] = (code, self.digest(data, out_file, written))
            else:
                same = first[label] == (code, self.digest(data, out_file, written))
                problem = None if same else "output differs from the first round"
            self.record(label, problem)

    def timed(self, seconds: float) -> dict:
        setups = self.setup(SETUPS)
        self.expect()
        self.spawn(["--help"], self.ws / "help.out")  # compile bytecode before timing
        samples: dict = {}
        first: dict = {}
        start = perf_counter()
        rounds = 0
        # a round starts only when one more of the mean length fits in --seconds
        while not self.expired and (
            rounds < MIN_ROUNDS or (perf_counter() - start) * (rounds + 1) / rounds <= seconds
        ):
            self.cli_round(samples, first)
            rounds += 1
            setups += self.setup(SETUPS)
        print(f"{self.name} seed {self.seed}: {rounds} round(s) in "
              f"{perf_counter() - start:.1f} s; samples: "
              + "; ".join(f"{k}_s " + " ".join(f"{t:.3f}" for t in v) for k, v in samples.items()))
        metrics = {"setup_s": statistics.median(setups)}
        for kind in TIMED:
            if kind in samples:
                metrics[kind + "_s"] = statistics.fmean(samples[kind])
        metrics["peak_rss_mb"] = self.max_rss_kb / 1024
        return metrics

    def traced(self) -> dict:
        import traced

        self.setup(1)
        self.expect()
        first: dict = {}
        self.cli_round({}, first)
        startup = [self.spawn(["--help"], self.ws / "help.out")[0] for _ in range(STARTUPS)]
        cmds = self.commands("traced")
        for label, _, _, written in cmds:
            self.prepare(label, written)
        tracer = traced.Tracer()
        saved = traced.install(tracer)
        t0 = perf_counter()
        try:
            results = traced.run_commands(tracer, [(label, argv) for label, argv, _, _ in cmds])
            graph = tracer.results.get(("cmd.validate", "mapping.assemble"))
            generated = traced.run_generators(tracer, graph) if graph is not None else {}
        finally:
            wall = perf_counter() - t0
            traced.uninstall(saved)
        for label, _, out_file, written in cmds:
            code, text = results[label]
            got = (code, self.digest(text.encode("utf-8"), out_file, written))
            problem = None if first.get(label) == got else f"in-process result {got} differs from the CLI"
            self.record("traced " + label, problem)
        try:
            metrics = traced.layer_metrics(tracer, wall, generated, len(self.log))
        except (KeyError, TypeError, AttributeError, ZeroDivisionError) as e:
            self.record("traced metrics", f"a traced result is missing: {e!r}")
            return {}
        metrics["cli.startup_s"] = statistics.median(startup)
        self.record("traced counts", self.check_counts(metrics))
        tracer.dump(ROOT / ".bench_out" / f"trace-{self.name}-{self.seed}.json")
        return metrics

    def check_counts(self, m: dict) -> str | None:
        """Counts the traced run reads from polare against the generator's."""
        w, s = self.w, self.shape
        want = {
            "claims.count": s["claims"],
            "claims.triples_asserted": s["triples_asserted"],
            "claims.triples_distinct": s["triples_distinct"],
            "store.appended": w.append_new,
            "store.duplicates": w.append_duplicates,
            "model.entities": s["entities"],
            "mapping.residue": w.residue,
            "model.dangling_refs": w.dangling,
        }
        for kind, n in self.edge_kinds.items():
            want["inference.edges." + kind] = n
        for code, n in self.violations.items():
            want["validation.violations." + code] = n
        wrong = {k: (m[k], v) for k, v in want.items() if m[k] != v}
        return f"got/expected {wrong}" if wrong else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("census", "dense", "provenance"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "polare" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: run from the repository root; no polare sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(HERE)]
    bench = Bench(args.workload, args.seed)
    signal.signal(signal.SIGALRM, bench.on_alarm)
    signal.signal(signal.SIGTERM, bench.on_term)
    signal.alarm(int(args.seconds) + DEADLINE_MARGIN)
    try:
        metrics = bench.traced() if args.trace else bench.timed(args.seconds)
    finally:
        signal.alarm(0)
        shutil.rmtree(bench.ws, ignore_errors=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if bench.failed:  # a failed run may lack some metrics; it reports them as 0
        metrics = {**dict.fromkeys(units, 0), **metrics}
    if sorted(units) != sorted(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2
    for line in bench.errors:
        print("FAILED " + line, file=sys.stderr)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
