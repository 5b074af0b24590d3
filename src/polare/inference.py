"""Derives the agent-to-agent relation graph implicit in the entity data.

Each generator turns one entity pattern into typed edges: family ties,
shared organizations, referrals, shared transactions, shared legal cases
and contested posts.  ``materialize`` unions the generators into a
deduplicated :class:`RelationGraph` with deterministic ordering.

Also hosts temporal affiliation resolution: which party was a person in on
a given date, and does that match what the voter rolls recorded.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict, namedtuple
from datetime import date
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, Iterator, Optional

from .errors import AmbiguousAffiliationError, InvariantError, UnknownAgentError
from .model import (
    Candidacy,
    DirectRel,
    EntityGraph,
    LegalCase,
    Membership,
    Organization,
    Post,
    Referral,
    TimeInterval,
    Transaction,
    Vote,
    check_entity_id,
    overlapping_pairs,
)
from .record import Record

FAMILY = "family"
CO_MEMBERSHIP = "co_membership"
REFERRAL = "referral"
CO_TRANSACTION = "co_transaction"
CO_CASE = "co_case"
CANDIDACY_POST = "candidacy_post"

ALL_KINDS = frozenset(
    (FAMILY, CO_MEMBERSHIP, REFERRAL, CO_TRANSACTION, CO_CASE, CANDIDACY_POST)
)


def check_edge_kinds(kinds) -> Optional[frozenset]:
    """``kinds`` as a frozenset, or None (every kind) when None; a kind
    outside :data:`ALL_KINDS` is a ``ValueError``."""
    if kinds is None:
        return None
    kinds = frozenset(kinds)
    unknown = kinds - ALL_KINDS
    if unknown:
        raise ValueError(f"unknown edge kinds: {sorted(unknown)}")
    return kinds


class RelationEdge(
    namedtuple("RelationEdge", "a b kind detail evidence interval directed")
):
    """One derived relation between two agents.

    Undirected edges are canonicalized to (min-id, max-id) so each relation
    is stored and compared exactly once.  The fields are in key order, so
    ``key`` is the first five of them.

    Calling the class checks every field.  The generators below build their
    edges with ``RelationEdge._make``, which checks nothing: each passes
    endpoint ids of checked entities that differ, a constant kind, sorted
    non-empty evidence and undirected endpoints already in canonical order.
    """

    __slots__ = ()

    def __new__(cls, a, b, kind, detail, evidence, interval=None, directed=False):
        check_entity_id(a, "RelationEdge.a")
        check_entity_id(b, "RelationEdge.b")
        if a == b:
            raise InvariantError("relation edge endpoints must differ")
        if kind not in ALL_KINDS:
            raise InvariantError(f"unknown edge kind {kind!r}")
        evidence = tuple(evidence)
        if not evidence:
            raise InvariantError("relation edge needs at least one evidence entity")
        if not isinstance(detail, str) or not all(isinstance(e, str) for e in evidence):
            raise InvariantError("relation edge detail and evidence must be strings")
        if interval is not None and not isinstance(interval, TimeInterval):
            raise InvariantError(f"relation edge interval: not a TimeInterval: {interval!r}")
        directed = bool(directed)
        if not directed and a > b:
            a, b = b, a
        evidence = tuple(sorted(evidence))
        return tuple.__new__(cls, (a, b, kind, detail, evidence, interval, directed))

    def _replace(self, **changes) -> "RelationEdge":
        """A copy with ``changes``, checked as a new edge is."""
        return RelationEdge(**{**self._asdict(), **changes})

    @property
    def key(self) -> tuple:
        return self[:5]

    def in_effect(self, d: Optional[date]) -> bool:
        if d is None or self.interval is None:
            return True
        return self.interval.in_effect(d)

    def other(self, agent: str) -> str:
        if agent == self.a:
            return self.b
        if agent == self.b:
            return self.a
        raise ValueError(f"{agent} is not an endpoint of this edge")


class RelationGraph:
    """Deduplicated set of relation edges with an adjacency index.

    Keys are unique within a graph, so edges sort by their key when sorted
    as tuples."""

    def __init__(self, edges: Iterable = ()):
        self._edges: dict = {}  # key -> RelationEdge
        self._adjacency: dict = defaultdict(list)  # agent -> [edge]
        for e in edges:
            self.add(e)

    def add(self, edge: RelationEdge) -> bool:
        key = edge[:5]
        if key in self._edges:
            return False
        self._edges[key] = edge
        self._adjacency[edge.a].append(edge)
        self._adjacency[edge.b].append(edge)
        return True

    def edges(self) -> list:
        return sorted(self._edges.values())

    def edges_touching(self, agent: str) -> list:
        return sorted(self._adjacency.get(agent, ()))

    def agents(self) -> list:
        return sorted(self._adjacency)

    def __len__(self) -> int:
        return len(self._edges)

    def __contains__(self, edge) -> bool:
        return isinstance(edge, RelationEdge) and edge.key in self._edges

    def __eq__(self, other) -> bool:
        if not isinstance(other, RelationGraph):
            return NotImplemented
        return set(self._edges) == set(other._edges)

    def __repr__(self) -> str:
        return f"RelationGraph({len(self._edges)} edges, {len(self._adjacency)} agents)"


# -- temporal affiliation ----------------------------------------------------


def affiliation_at(
    graph: EntityGraph,
    person: str,
    d: date,
    org_filter: Optional[str] = None,
) -> Optional[str]:
    """The organization the person belonged to on day d, or None.

    With ``org_filter`` only organizations carrying that classification
    concept count.  More than one membership in effect on d is refused as
    ambiguous rather than silently picking one.
    """
    if not graph.is_agent(person):
        raise UnknownAgentError(f"no person {person} in graph")
    hits = []
    for m in graph.of_type(Membership):
        if m.person != person:
            continue
        post = graph.get(m.post)
        if not isinstance(post, Post):
            continue
        if org_filter is not None:
            org = graph.get(post.organization)
            if not isinstance(org, Organization) or org.classification != org_filter:
                continue
        if m.interval.in_effect(d):
            hits.append((m, post.organization))
    if not hits:
        return None
    if len(hits) > 1:
        raise AmbiguousAffiliationError(person, d, sorted({org for _, org in hits}))
    return hits[0][1]


class VoterCheck(Record):
    """One vote whose recorded party disagrees with (or cannot be resolved
    against) the memberships in effect at the vote event's start date."""

    vote: str
    recorded: str
    inferred: Optional[str]
    reason: str  # mismatch | no-affiliation | ambiguous


def check_voter_consistency(
    graph: EntityGraph, party_classification: Optional[str] = None
) -> list:
    """Compare every vote's recorded party with the interval-derived one."""
    out = []
    for vote in graph.of_type(Vote):
        voter = graph.get(vote.voter)
        if voter is None:
            continue
        event = graph.get(vote.vote_event)
        if event is None:
            continue
        try:
            inferred = affiliation_at(graph, voter.person, event.start, party_classification)
        except UnknownAgentError:
            continue
        except AmbiguousAffiliationError:
            out.append(VoterCheck(vote.id, voter.party, None, "ambiguous"))
            continue
        if inferred is None:
            out.append(VoterCheck(vote.id, voter.party, None, "no-affiliation"))
        elif inferred != voter.party:
            out.append(VoterCheck(vote.id, voter.party, inferred, "mismatch"))
    return sorted(out, key=lambda c: c.vote)


# -- edge generators ---------------------------------------------------------

_edge = RelationEdge._make  # unchecked: see RelationEdge


def family_edges(graph: EntityGraph) -> list:
    """One edge per direct relation; directed unless the concept says the
    relation is symmetric."""
    out = []
    for rel in graph.of_type(DirectRel):
        concept = graph.find_concept(rel.relation)
        directed = concept is None or not concept.symmetric
        a, b = rel.subject, rel.object  # a DirectRel never relates a person to itself
        if not directed and a > b:
            a, b = b, a
        out.append(_edge((a, b, FAMILY, rel.relation, (rel.id,), rel.interval, directed)))
    return out


def co_membership_edges(graph: EntityGraph, require_overlap: bool = True) -> list:
    """Persons holding posts in the same organization, one edge per
    qualifying membership pair; with ``require_overlap`` the periods must
    share a day and the edge carries their intersection."""
    by_org: dict = {}
    for m in graph.of_type(Membership):
        post = graph.get(m.post)
        if not isinstance(post, Post):
            continue
        by_org.setdefault(post.organization, []).append(m)
    out = []
    for org, ms in sorted(by_org.items()):
        pairs = overlapping_pairs(ms) if require_overlap else itertools.combinations(ms, 2)
        for m1, m2 in pairs:
            a, b = m1.person, m2.person
            if a == b:
                continue
            if a > b:
                a, b = b, a
            evidence = (m1.id, m2.id) if m1.id < m2.id else (m2.id, m1.id)
            interval = m1.interval.intersection(m2.interval) if require_overlap else None
            out.append(_edge((a, b, CO_MEMBERSHIP, org, evidence, interval, False)))
    return out


def referral_edges(graph: EntityGraph) -> list:
    """Who placed whom: a directed edge per referral, detailed by post."""
    out = []
    for r in graph.of_type(Referral):  # a Referral never refers its referrer
        interval = TimeInterval(r.date, r.date) if r.date is not None else None
        out.append(_edge((r.referrer, r.referred, REFERRAL, r.post, (r.id,), interval, True)))
    return out


def _pair_edges(entity_id: str, participants, kind: str, interval) -> list:
    agents = sorted({p.agent for p in participants})
    evidence = (entity_id,)
    return [
        _edge((a, b, kind, entity_id, evidence, interval, False))
        for a, b in itertools.combinations(agents, 2)
    ]


def co_transaction_edges(graph: EntityGraph) -> list:
    """All pairs of distinct agents in one transaction; its date rides along
    as a one-day interval."""
    out = []
    for t in graph.of_type(Transaction):
        out.extend(
            _pair_edges(t.id, t.participants, CO_TRANSACTION, TimeInterval(t.date, t.date))
        )
    return out


def co_case_edges(graph: EntityGraph) -> list:
    """All pairs of distinct agents involved in one legal case, any roles."""
    out = []
    for c in graph.of_type(LegalCase):
        out.extend(_pair_edges(c.id, c.participants, CO_CASE, c.interval))
    return out


def candidacy_post_edges(graph: EntityGraph) -> list:
    """Candidate to the organization whose post is contested."""
    out = []
    for c in graph.of_type(Candidacy):
        post = graph.get(c.post)
        if not isinstance(post, Post):
            continue
        if c.person == post.organization:
            continue
        fields = (c.person, post.organization, CANDIDACY_POST, c.post, (c.id,), None, True)
        out.append(_edge(fields))
    return out


def materialize(graph: EntityGraph, require_overlap: bool = True) -> RelationGraph:
    """Union of every generator, deduplicated; ``require_overlap`` is passed
    to :func:`co_membership_edges`."""
    generators = (
        family_edges,
        functools.partial(co_membership_edges, require_overlap=require_overlap),
        referral_edges,
        co_transaction_edges,
        co_case_edges,
        candidacy_post_edges,
    )
    rg = RelationGraph()
    for generate in generators:
        for e in generate(graph):
            rg.add(e)
    return rg


# -- exports -----------------------------------------------------------------


# dates repeat: the census workload writes 24k interval bounds on 1.4k days
@functools.lru_cache(maxsize=4096)
def _json_date(d: Optional[date]) -> str:
    return "null" if d is None else '"' + d.isoformat() + '"'


def _edge_line(edge: RelationEdge) -> str:
    """The edge as one JSON line: the object ``json.dumps`` writes with
    sorted keys and compact separators, formatted directly."""
    a, b, kind, detail, evidence, interval, directed = edge
    if interval is None:
        span = "null"
    else:
        span = f'{{"end":{_json_date(interval.end)},"start":{_json_date(interval.start)}}}'
    return (
        f'{{"a":{_json_str(a)},"b":{_json_str(b)},"detail":{_json_str(detail)},'
        f'"directed":{"true" if directed else "false"},'
        f'"evidence":[{",".join(map(_json_str, evidence))}],"interval":{span},'
        f'"kind":{_json_str(kind)}}}\n'
    )


def edges_to_jsonl(rg: RelationGraph) -> Iterator[str]:
    """One JSON line per edge, in key order."""
    return map(_edge_line, rg.edges())
