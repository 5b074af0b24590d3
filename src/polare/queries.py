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
from typing import Optional

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


@dataclass(frozen=True)
class PathStep:
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

    def sort_key(self) -> tuple:
        return (self.length, tuple(s.edge.key for s in self.steps))


def _usable(edge: RelationEdge, here: str, q_kinds, at_date) -> Optional[tuple]:
    """(next agent, forward) when the edge can be walked from here."""
    if q_kinds is not None and edge.kind not in q_kinds:
        return None
    if not edge.in_effect(at_date):
        return None
    if not edge.directed:
        return (edge.other(here), True)
    if here == edge.a:
        return (edge.b, True)
    if edge.kind == FAMILY and here == edge.b:
        return (edge.a, False)
    return None


def find_paths(rg: RelationGraph, q: PathQuery, agents=None) -> list:
    """Every simple path from source to target within the depth bound,
    sorted by (length, edge keys).

    ``agents`` is the set of agents considered to exist; it defaults to the
    edge endpoints, but callers holding the full entity graph can pass its
    agent ids so edge-less agents query fine (and return no paths).
    """
    known = set(rg.agents()) if agents is None else set(agents)
    if q.source not in known:
        raise UnknownAgentError(f"no agent {q.source}")
    if q.target not in known:
        raise UnknownAgentError(f"no agent {q.target}")
    results = []
    steps: list = []
    visited = {q.source}

    def walk(here: str) -> None:
        if len(steps) >= q.max_depth:
            return
        for edge in rg.edges_touching(here):
            hop = _usable(edge, here, q.kinds, q.at_date)
            if hop is None:
                continue
            nxt, forward = hop
            if nxt in visited:
                continue
            steps.append(PathStep(edge, forward))
            if nxt == q.target:
                results.append(Path(q.source, q.target, tuple(steps)))
            else:
                visited.add(nxt)
                walk(nxt)
                visited.discard(nxt)
            steps.pop()

    walk(q.source)
    return sorted(results, key=Path.sort_key)


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
    edge-less agent yields an empty graph; see ``find_paths`` on ``agents``."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    known = set(rg.agents()) if agents is None else set(agents)
    if agent not in known:
        raise UnknownAgentError(f"no agent {agent}")
    kinds = check_edge_kinds(kinds)
    out = RelationGraph()
    dist = {agent: 0}
    frontier = [agent]
    hops = 0
    while frontier and hops < depth:
        nxt = []
        for here in frontier:
            for edge in rg.edges_touching(here):
                hop = _usable(edge, here, kinds, at_date)
                if hop is None:
                    continue
                there = hop[0]
                out.add(edge)
                if there not in dist:
                    dist[there] = hops + 1
                    nxt.append(there)
        frontier = nxt
        hops += 1
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
