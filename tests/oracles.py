"""Independent oracles the tests compare the library against.

Everything here is deliberately written from the contract, not from the
library: plain dicts and tuples in, brute force over days or exhaustive
enumeration out.  Frozen before the corresponding library behavior was
implemented; do not "fix" an oracle to make a test pass without a ledger
entry explaining why the oracle was wrong.
"""

from __future__ import annotations

import json
from datetime import date, timedelta

# Clamp for unbounded interval sides so day scans stay finite.
SCAN_MIN = date(2010, 1, 1)
SCAN_MAX = date(2030, 12, 31)


def day_range(start, end):
    """Closed run of days, unbounded sides clamped to the scan window."""
    lo = start if start is not None else SCAN_MIN
    hi = end if end is not None else SCAN_MAX
    d = lo
    while d <= hi:
        yield d
        d += timedelta(days=1)


def covers_day(start, end, d) -> bool:
    if start is not None and d < start:
        return False
    if end is not None and d > end:
        return False
    return True


def exclusive_occupancy_by_day_scan(posts: dict, memberships: list) -> set:
    """Violating (post id, frozenset of two membership ids) pairs.

    posts: post id -> {"exclusive": bool}
    memberships: list of dicts {"id", "person", "post", "start", "end"}
    Materializes the occupant set for every day an exclusive post is
    occupied and flags every pair of distinct persons sharing a day.
    """
    out = set()
    for post_id, post in posts.items():
        if not post["exclusive"]:
            continue
        ms = [m for m in memberships if m["post"] == post_id]
        occupants_by_day: dict = {}
        for m in ms:
            for d in day_range(m["start"], m["end"]):
                occupants_by_day.setdefault(d, []).append(m)
        for day_members in occupants_by_day.values():
            for i in range(len(day_members)):
                for j in range(i + 1, len(day_members)):
                    m1, m2 = day_members[i], day_members[j]
                    if m1["person"] != m2["person"]:
                        out.add((post_id, frozenset((m1["id"], m2["id"]))))
    return out


def duplicate_membership_by_day_scan(memberships: list) -> set:
    """(person, frozenset of two membership ids) for same-person same-post
    memberships sharing at least one day."""
    out = set()
    for i in range(len(memberships)):
        for j in range(i + 1, len(memberships)):
            m1, m2 = memberships[i], memberships[j]
            if m1["person"] != m2["person"] or m1["post"] != m2["post"]:
                continue
            for d in day_range(m1["start"], m1["end"]):
                if covers_day(m2["start"], m2["end"], d):
                    out.add((m1["person"], frozenset((m1["id"], m2["id"]))))
                    break
    return out


def co_membership_by_day_scan(memberships: list, require_overlap: bool) -> dict:
    """(org, frozenset of two membership ids) -> (frozenset of the two
    persons, span) for every pair of memberships of distinct persons in
    posts of the same organization.  With ``require_overlap`` only pairs
    sharing a day count, and span is their (first, last) shared day, with
    unbounded sides clamped to the scan window; otherwise span is None.

    memberships: dicts {"id", "person", "org", "start", "end"}.
    """
    out = {}
    for i in range(len(memberships)):
        for j in range(i + 1, len(memberships)):
            m1, m2 = memberships[i], memberships[j]
            if m1["org"] != m2["org"] or m1["person"] == m2["person"]:
                continue
            span = None
            if require_overlap:
                shared = [
                    d
                    for d in day_range(m1["start"], m1["end"])
                    if covers_day(m2["start"], m2["end"], d)
                ]
                if not shared:
                    continue
                span = (shared[0], shared[-1])
            key = (m1["org"], frozenset((m1["id"], m2["id"])))
            out[key] = (frozenset((m1["person"], m2["person"])), span)
    return out


def interval_contained(outer_start, outer_end, inner_start, inner_end) -> bool:
    """Is [inner] fully inside [outer]?  None means unbounded on that side."""
    if outer_start is not None:
        if inner_start is None or inner_start < outer_start:
            return False
    if outer_end is not None:
        if inner_end is None or inner_end > outer_end:
            return False
    return True


def affiliation_by_scan(memberships: list, person: str, d: date, wanted_class=None):
    """("none", None) | ("ok", org id) | ("ambiguous", sorted org ids).

    memberships: dicts {"person", "org", "org_class", "start", "end"}.
    """
    hits = [
        m
        for m in memberships
        if m["person"] == person
        and covers_day(m["start"], m["end"], d)
        and (wanted_class is None or m["org_class"] == wanted_class)
    ]
    if not hits:
        return ("none", None)
    if len(hits) > 1:
        return ("ambiguous", sorted({m["org"] for m in hits}))
    return ("ok", hits[0]["org"])


def pair_count(k: int) -> int:
    return k * (k - 1) // 2


def all_simple_paths(edges: list, source: str, target: str, max_depth: int) -> list:
    """Exhaustive enumeration of simple paths as ((edge key, forward), ...).

    edges: dicts {"key", "a", "b", "kind", "directed"}; traversal semantics
    restated from scratch: undirected edges go both ways, directed edges go
    a->b only, except family edges which also go b->a with forward=False.
    Sorted by (length, edge keys).
    """

    def moves(here):
        for e in edges:
            if not e["directed"]:
                if here == e["a"]:
                    yield (e, e["b"], True)
                elif here == e["b"]:
                    yield (e, e["a"], True)
            else:
                if here == e["a"]:
                    yield (e, e["b"], True)
                elif e["kind"] == "family" and here == e["b"]:
                    yield (e, e["a"], False)

    results = []

    def recurse(here, seen, trail):
        if len(trail) >= max_depth:
            return
        for e, nxt, forward in moves(here):
            if nxt in seen:
                continue
            step = (e["key"], forward)
            if nxt == target:
                results.append(tuple(trail + [step]))
            else:
                recurse(nxt, seen | {nxt}, trail + [step])

    recurse(source, {source}, [])
    return sorted(results, key=lambda p: (len(p), tuple(k for k, _ in p)))


def reachable_edges_bfs(edges: list, agent: str, depth: int) -> set:
    """Edge keys usable within the hop budget, frontier by frontier."""

    def moves(here):
        for e in edges:
            if not e["directed"]:
                if here in (e["a"], e["b"]):
                    yield (e, e["b"] if here == e["a"] else e["a"])
            else:
                if here == e["a"]:
                    yield (e, e["b"])
                elif e["kind"] == "family" and here == e["b"]:
                    yield (e, e["a"])

    found = set()
    seen = {agent}
    frontier = [agent]
    for _ in range(depth):
        nxt = []
        for here in frontier:
            for e, there in moves(here):
                found.add(e["key"])
                if there not in seen:
                    seen.add(there)
                    nxt.append(there)
        frontier = nxt
        if not frontier:
            break
    return found


def filter_claims_scan(claims: list, accepted: set) -> set:
    """Union of assertion lines over accepted asserters, by linear scan.

    claims: list of (asserter, iterable of hashable triple keys).
    """
    out = set()
    for asserter, assertion in claims:
        if asserter in accepted:
            out.update(assertion)
    return out


def first_writer_owner(claims: list) -> dict:
    """triple key -> index of the first claim that asserted it."""
    owner: dict = {}
    for i, (_, assertion) in enumerate(claims):
        for t in assertion:
            owner.setdefault(t, i)
    return owner


def json_line(obj: dict) -> str:
    """One JSON line as the CLI writes them: sorted keys, compact."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def edge_to_dict(edge) -> dict:
    """The JSON object of one relation edge, read off its attributes."""
    interval = None
    if edge.interval is not None:
        interval = {
            "start": edge.interval.start.isoformat() if edge.interval.start else None,
            "end": edge.interval.end.isoformat() if edge.interval.end else None,
        }
    return {
        "a": edge.a,
        "b": edge.b,
        "kind": edge.kind,
        "detail": edge.detail,
        "directed": edge.directed,
        "interval": interval,
        "evidence": list(edge.evidence),
    }


def path_to_dict(path) -> dict:
    """The JSON object of one path; each step walks from the agent the
    previous step reached to the edge's other endpoint."""
    steps = []
    here = path.source
    for step in path.steps:
        there = step.edge.b if here == step.edge.a else step.edge.a
        steps.append(
            {
                "from": here,
                "to": there,
                "kind": step.edge.kind,
                "detail": step.edge.detail,
                "forward": step.forward,
            }
        )
        here = there
    return {"source": path.source, "target": path.target, "length": len(path.steps),
            "steps": steps}
