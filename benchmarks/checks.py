"""Checks of polare's outputs against expectations the harness derives itself.

Every function returns an error message, or None when the output is right.
Path and neighborhood results are checked against the brute-force oracles
in ``tests/oracles.py`` where they fit the time, and otherwise against an
exact path count and a step-by-step validity check.
"""

from __future__ import annotations

import json

from tests import oracles

from workloads import EDGE_KINDS, count_paths

ERROR_CODES = {"EXCLUSIVE_OCCUPANCY", "CONCEPT_DOMAIN", "CANDIDACY_POST", "POST_MEDIATION"}

#: the path oracle scans every candidate edge at each node it expands; above
#: this many (expansions x candidate edges) it would outlast the run
ORACLE_BUDGET = 20_000_000


def validate_exit(violations: dict) -> int:
    return 1 if any(violations[c] for c in ERROR_CODES) else 0


def check_validate(stdout: str, violations: dict) -> str | None:
    lines = stdout.splitlines()
    counts: dict = {}
    for line in lines[:-1]:
        code = (line.split(" ", 2) + [""])[1]
        counts[code] = counts.get(code, 0) + 1
    want = {code: n for code, n in violations.items() if n}
    total = sum(violations.values())
    verdict = "does not conform" if validate_exit(violations) else "conforms"
    tail = f"{verdict}: {total} violation(s)"
    if counts != want or not lines or lines[-1] != tail:
        return f"validate: got {counts} / {lines[-1:]} expected {want} / {tail!r}"
    return None


def check_ingest(stdout: str, new: int, duplicates: int) -> str | None:
    want = f"ingested {new} new claim(s), skipped {duplicates} duplicate(s)\n"
    return None if stdout == want else f"ingest: got {stdout!r} expected {want!r}"


class Edges:
    """The relation graph as written by ``polare infer``."""

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.edges = []
        for line in self.lines:
            d = json.loads(line)
            key = (d["a"], d["b"], d["kind"], d["detail"], tuple(d["evidence"]))
            self.edges.append({"key": key, "a": d["a"], "b": d["b"], "kind": d["kind"],
                               "directed": d["directed"], "line": line})
        self.by_key = {e["key"]: e for e in self.edges}
        self.touching: dict = {}
        for e in self.edges:
            self.touching.setdefault(e["a"], []).append(e)
            self.touching.setdefault(e["b"], []).append(e)

    def kinds(self) -> dict:
        counts = dict.fromkeys(EDGE_KINDS, 0)
        for e in self.edges:
            counts[e["kind"]] += 1
        return counts

    def neighbors(self, agent: str) -> set:
        return {e["b"] if e["a"] == agent else e["a"] for e in self.touching.get(agent, ())}

    def step(self, here: str) -> dict:
        """Next agent -> number of edges walkable to it from here."""
        out: dict = {}
        for e in self.touching.get(here, ()):
            if not e["directed"] or here == e["a"] or e["kind"] == "family":
                nxt = e["b"] if here == e["a"] else e["a"]
                out[nxt] = out.get(nxt, 0) + 1
        return out


def check_edges(edges: Edges, expected: dict) -> str | None:
    got = edges.kinds()
    return None if got == expected else f"infer: edges per kind {got} expected {expected}"


def _path_line(edges: Edges, source: str, target: str, steps) -> str:
    here = source
    out = []
    for key, forward in steps:
        e = edges.by_key[key]
        nxt = e["b"] if here == e["a"] else e["a"]
        out.append({"detail": key[3], "forward": forward, "from": here, "kind": key[2], "to": nxt})
        here = nxt
    path = {"length": len(out), "source": source, "steps": out, "target": target}
    return json.dumps(path, sort_keys=True, separators=(",", ":"))


def expected_paths(edges: Edges, source: str, target: str) -> str | None:
    """The exact output of a depth-3 path query, from the oracle; None when
    the oracle would not fit the time."""
    near_s, near_t = edges.neighbors(source), edges.neighbors(target)
    relevant = [
        e for e in edges.edges
        if source in (e["a"], e["b"]) or target in (e["a"], e["b"])
        or (e["a"] in near_s and e["b"] in near_t) or (e["b"] in near_s and e["a"] in near_t)
    ]
    _, expansions = count_paths(edges.step, source, target)
    if expansions * len(relevant) > ORACLE_BUDGET:
        return None
    paths = oracles.all_simple_paths(relevant, source, target, 3)
    return "".join(_path_line(edges, source, target, p) + "\n" for p in paths)


def check_paths(stdout: str, edges: Edges, source: str, target: str, oracle_text) -> str | None:
    if oracle_text is not None:
        return None if stdout == oracle_text else "query path: output differs from the oracle"
    lines = stdout.splitlines()
    want, _ = count_paths(edges.step, source, target)
    if len(lines) != want:
        return f"query path: {len(lines)} paths, expected {want}"
    pairs = {(e["a"], e["b"], e["kind"], e["key"][3], e["directed"]) for e in edges.edges}
    for line in lines:
        p = json.loads(line)
        seen = {source}
        here = source
        for step in p["steps"]:
            a, b, fwd, kind = step["from"], step["to"], step["forward"], step["kind"]
            ok = a == here and b not in seen and (
                (a, b, kind, step["detail"], True) in pairs and fwd
                or (b, a, kind, step["detail"], True) in pairs and not fwd and kind == "family"
                or (min(a, b), max(a, b), kind, step["detail"], False) in pairs and fwd
            )
            if not ok:
                return f"query path: invalid step {step}"
            seen.add(b)
            here = b
        if here != target or p["length"] != len(p["steps"]) or not 1 <= p["length"] <= 3:
            return f"query path: malformed path {line[:200]}"
    return None


def expected_neighborhood(edges: Edges, agent: str) -> str:
    """The exact output of a depth-2 neighborhood query, from the BFS oracle
    run on the edges within reach: those touching the agent or a neighbor."""
    near = {agent} | edges.neighbors(agent)
    relevant = [e for e in edges.edges if e["a"] in near or e["b"] in near]
    found = oracles.reachable_edges_bfs(relevant, agent, 2)
    return "".join(e["line"] + "\n" for e in edges.edges if e["key"] in found)
