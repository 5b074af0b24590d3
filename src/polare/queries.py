"""Path and neighborhood queries over a relation graph.

Paths are simple (no repeated agent) and depth-capped, because derived
relation graphs are dense: every transaction or case with k participants
contributes a k-clique, and unbounded enumeration explodes.  Directed edges
are walked forward only, except family edges, which may be walked against
their direction with the direction reported on the step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date
from typing import NamedTuple, Optional

from .errors import UnknownAgentError
from .inference import FAMILY, RelationEdge, RelationGraph, check_edge_kinds

MAX_DEPTH_CAP = 8


@dataclass(frozen=True)
class PathQuery:
    source: str
    target: str
    max_depth: int = 4
    kinds: Optional[frozenset] = None
    at_date: Optional[date] = None

    def __post_init__(self):
        if self.source == self.target:
            raise ValueError("path query endpoints must differ")
        if not 1 <= self.max_depth <= MAX_DEPTH_CAP:
            raise ValueError(f"max_depth must be in 1..{MAX_DEPTH_CAP}")
        object.__setattr__(self, "kinds", check_edge_kinds(self.kinds))


class PathStep(NamedTuple):
    """One traversed edge; ``forward`` is False only when a directed family
    edge was walked against its direction."""

    edge: RelationEdge
    forward: bool = True


@dataclass(frozen=True)
class Path:
    source: str
    target: str
    steps: tuple

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def length(self) -> int:
        return len(self.steps)

    def agents(self) -> list:
        """The visited agents, in walk order."""
        out = [self.source]
        here = self.source
        for step in self.steps:
            here = step.edge.other(here)
            out.append(here)
        return out


class _Hops(dict):
    """agent -> its walkable hops as (PathStep, next agent) pairs in edge-key
    order, under one query's kind and date filters; each agent's list is
    built on its first lookup."""

    def __init__(self, rg: RelationGraph, kinds, at_date):
        super().__init__()
        self.rg, self.kinds, self.at_date = rg, kinds, at_date

    def __missing__(self, here: str) -> list:
        kinds, at_date = self.kinds, self.at_date
        hops = self[here] = []
        for edge in self.rg.edges_touching(here):
            if (kinds is not None and edge.kind not in kinds) or not edge.in_effect(at_date):
                continue
            if here == edge.a:
                hops.append((PathStep(edge), edge.b))
            elif not edge.directed:
                hops.append((PathStep(edge), edge.a))
            elif edge.kind == FAMILY:
                hops.append((PathStep(edge, False), edge.a))
        return hops


def _check_known(rg: RelationGraph, agents, *ids) -> None:
    """``agents`` is the set of agents considered to exist; it defaults to
    the edge endpoints, but callers holding the full entity graph can pass
    its agent ids so edge-less agents query fine (and find nothing)."""
    known = set(rg.agents()) if agents is None else set(agents)
    for agent in ids:
        if agent not in known:
            raise UnknownAgentError(f"no agent {agent}")


def find_paths(rg: RelationGraph, q: PathQuery, agents=None) -> list:
    """Every simple path from source to target within the depth bound,
    sorted by (length, edge keys); see ``_check_known`` on ``agents``."""
    _check_known(rg, agents, q.source, q.target)
    hops = _Hops(rg, q.kinds, q.at_date)
    results = []
    steps: list = []
    visited = {q.source}

    def walk(here: str) -> None:
        for step, nxt in hops[here]:
            if nxt in visited:
                continue
            steps.append(step)
            if nxt == q.target:
                results.append(Path(q.source, q.target, tuple(steps)))
            elif len(steps) < q.max_depth:
                visited.add(nxt)
                walk(nxt)
                visited.discard(nxt)
            steps.pop()

    walk(q.source)
    # the walk emits paths in edge-key order, so a stable sort by length
    # leaves them in (length, edge keys) order
    results.sort(key=lambda p: p.length)
    return results


def neighborhood(
    rg: RelationGraph,
    agent: str,
    depth: int,
    kinds: Optional[frozenset] = None,
    at_date: Optional[date] = None,
    agents=None,
) -> RelationGraph:
    """Every edge reachable from the agent within the hop budget, as a
    relation graph of its own (breadth-first truncation).  An existing but
    edge-less agent yields an empty graph; see ``_check_known`` on
    ``agents``."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    _check_known(rg, agents, agent)
    hops = _Hops(rg, check_edge_kinds(kinds), at_date)
    out = RelationGraph()
    seen = {agent}
    frontier = [agent]
    for _ in range(depth):
        nxt = []
        for here in frontier:
            for step, there in hops[here]:
                out.add(step.edge)
                if there not in seen:
                    seen.add(there)
                    nxt.append(there)
        frontier = nxt
    return out


def path_to_dict(path: Path) -> dict:
    agents = path.agents()
    steps = []
    for i, step in enumerate(path.steps):
        steps.append(
            {
                "from": agents[i],
                "to": agents[i + 1],
                "kind": step.edge.kind,
                "detail": step.edge.detail,
                "forward": step.forward,
            }
        )
    return {"source": path.source, "target": path.target, "length": path.length, "steps": steps}


def paths_to_jsonl(paths) -> str:
    return "".join(
        json.dumps(path_to_dict(p), sort_keys=True, separators=(",", ":")) + "\n" for p in paths
    )
