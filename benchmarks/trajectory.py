"""Run the benchmark over several seeds and append one entry to the trajectory.

From the repository root:

    python3 benchmarks/trajectory.py --label seed --seeds 1 2 3 4 5 6 7 8 9 10

For each workload it makes one timed run per seed, one after another, and
one traced run on the first seed.  The entry records every value, each
metric's median and quartiles with their spread (interquartile distance
over the median), and the traced run's layer shares: the check of the
predictions in MAP.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
    lines = done.stdout.strip().splitlines()
    print(f"{workload} seed {seed} trace {trace}: {lines[0] if len(lines) > 1 else ''}", flush=True)
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(done.stderr, file=sys.stderr)
    return result


def summary(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def query_breakdown(path: Path) -> dict:
    """Inclusive time of each direct child of the query-path command span."""
    spans = json.loads(path.read_text(encoding="utf-8"))["spans"]
    roots = {s["id"] for s in spans if s["name"] == "cmd.query_path"}
    out: dict = {}
    for s in spans:
        if s["parent"] in roots:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    entry = {
        "label": args.label,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in ("census", "dense", "provenance"):
        results = [run(workload, seed, seconds, 0) for seed in args.seeds]
        metrics = {
            name: summary([r["metrics"][name]["value"] for r in results])
            for name in results[0]["metrics"]
        }
        traced = run(workload, args.seeds[0], seconds, 1)
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        self_total = sum(v for k, v in layer.items() if k.endswith(".self_s"))
        entry["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results + [traced]),
            "failed": sum(r["failed"] for r in results + [traced]),
            "end_to_end": metrics,
            "traced_seed": args.seeds[0],
            "per_layer": layer,
            "self_share": {
                k[: -len(".self_s")]: v / self_total for k, v in layer.items() if k.endswith(".self_s")
            },
            "query_path_children_s": query_breakdown(
                ROOT / ".bench_out" / f"trace-{workload}-{args.seeds[0]}.json"
            ),
        }
    out = HERE / "results" / "trajectory.json"
    trajectory = json.loads(out.read_text(encoding="utf-8")) if out.exists() else []
    trajectory.append(entry)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(trajectory, indent=1) + "\n", encoding="utf-8")
    for workload, w in entry["workloads"].items():
        worst = max(w["end_to_end"].items(), key=lambda kv: kv[1]["spread"])
        print(f"{workload}: failed {w['failed']}/{w['attempted']}, widest spread "
              f"{worst[0]} {worst[1]['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
