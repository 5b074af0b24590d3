"""Path and neighborhood queries over a relation graph.

Paths are simple (no repeated agent) and depth-capped, because derived
relation graphs are dense: every transaction or case with k participants
contributes a k-clique, and unbounded enumeration explodes.  Directed edges
are walked forward only, except family edges, which may be walked against
their direction with the direction reported on the step.
"""

from __future__ import annotations

from datetime import date
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterator, NamedTuple, Optional

from .errors import UnknownAgentError
from .inference import FAMILY, RelationEdge, RelationGraph, check_edge_kinds
from .record import Record

MAX_DEPTH_CAP = 8


class PathQuery(Record):
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


class Path(NamedTuple):
    source: str
    target: str
    steps: tuple  # PathStep values

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
    """agent -> its walkable hops as ((edge, forward), next agent) pairs in
    edge-key order, under one query's kind and date filters; each agent's
    list is built on its first lookup."""

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
                hops.append(((edge, True), edge.b))
            elif not edge.directed:
                hops.append(((edge, True), edge.a))
            elif edge.kind == FAMILY:
                hops.append(((edge, False), edge.a))
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
    walked: list = []  # the (edge, forward) pairs from the source to here
    visited = {q.source}

    def walk(here: str) -> None:
        for move, nxt in hops[here]:
            if nxt in visited:
                continue
            walked.append(move)
            if nxt == q.target:
                results.append(Path(q.source, q.target, tuple(map(PathStep._make, walked))))
            elif len(walked) < q.max_depth:
                visited.add(nxt)
                walk(nxt)
                visited.discard(nxt)
            walked.pop()

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
            for (edge, _), there in hops[here]:
                out.add(edge)
                if there not in seen:
                    seen.add(there)
                    nxt.append(there)
        frontier = nxt
    return out


def _path_line(path: Path) -> str:
    """The path as one JSON line: the object ``json.dumps`` writes with
    sorted keys and compact separators, formatted directly."""
    agents = path.agents()
    steps = ",".join(
        f'{{"detail":{_json_str(edge.detail)},"forward":{"true" if forward else "false"},'
        f'"from":{_json_str(agents[i])},"kind":{_json_str(edge.kind)},'
        f'"to":{_json_str(agents[i + 1])}}}'
        for i, (edge, forward) in enumerate(path.steps)
    )
    return (
        f'{{"length":{path.length},"source":{_json_str(path.source)},"steps":[{steps}],'
        f'"target":{_json_str(path.target)}}}\n'
    )


def paths_to_jsonl(paths) -> Iterator[str]:
    """One JSON line per path, in the given order."""
    return map(_path_line, paths)
