"""Rewriting between reified memberships and singleton-property form.

In singleton form each membership disappears as a node and becomes a
one-off predicate: ``(person, p_m, post)`` plus a declaration
``(p_m, singletonPropertyOf, occupies)``, with the membership's dates
attached to ``p_m``.  The rewriting also emits the OWL bookkeeping that
linked-data tooling expects around such predicates (``owl:NamedIndividual``
and ``owl:ObjectProperty`` typings); ``from_singleton`` consumes that
bookkeeping again instead of treating it as data.
"""

from __future__ import annotations

from typing import Optional

from . import vocab
from .errors import AmbiguousSingletonError, OrphanSingletonError, ValueParseError
from .mapping import SubjectIndex, assemble_entities, interval_triples, triples_for_entity
from .model import EntityGraph, Membership
from .wire import TripleSet, id_for_term, iri, is_literal, term_for_id

SINGLETON_SUFFIX = "_sp"

_RDF_TYPE = iri(vocab.RDF_TYPE)
_NAMED_INDIVIDUAL = iri(vocab.OWL_NAMED_INDIVIDUAL)
_OBJECT_PROPERTY = iri(vocab.OWL_OBJECT_PROPERTY)
_MEMBERSHIP_TYPE = iri(vocab.ORG_MEMBERSHIP)
_OCCUPIES = iri(vocab.POL_OCCUPIES)
_SPO = iri(vocab.POL_SINGLETON_PROPERTY_OF)


def singleton_iri(membership_id: str) -> str:
    return membership_id + SINGLETON_SUFFIX


def to_singleton(graph: EntityGraph) -> TripleSet:
    """Emit the graph with every membership rewritten to singleton form.

    All other entities serialize exactly as ``emit_entities`` would, and
    unmapped input triples (``graph.residue``) are carried through.
    """
    ts = TripleSet()
    memberships = []
    for entity in graph.entities():
        if isinstance(entity, Membership):
            memberships.append(entity)
        else:
            ts.update(triples_for_entity(entity))
    for m in memberships:
        if m.id.startswith("_:"):
            raise ValueParseError(m.id, "a blank-node membership cannot become a predicate")
        p_m = iri(singleton_iri(m.id))
        person = term_for_id(m.person)
        ts.add((person, _RDF_TYPE, _NAMED_INDIVIDUAL))
        ts.add((person, p_m, term_for_id(m.post)))
        ts.add((p_m, _RDF_TYPE, _NAMED_INDIVIDUAL))
        ts.add((p_m, _RDF_TYPE, _OBJECT_PROPERTY))
        ts.add((p_m, _RDF_TYPE, _MEMBERSHIP_TYPE))
        ts.update(interval_triples(p_m, m.interval))
        ts.add((p_m, _SPO, _OCCUPIES))
    if memberships:
        ts.add((_OCCUPIES, _RDF_TYPE, _NAMED_INDIVIDUAL))
        ts.add((_OCCUPIES, _RDF_TYPE, _OBJECT_PROPERTY))
    ts.update(getattr(graph, "residue", ()))
    return ts


def from_singleton(ts: TripleSet, schemes=(), bindings: Optional[dict] = None) -> EntityGraph:
    """Assemble a graph from singleton form, materializing memberships.

    Every singleton property must be used in exactly one statement triple:
    none raises :class:`OrphanSingletonError`, several raise
    :class:`AmbiguousSingletonError`.  Singletons whose base is not the
    membership predicate are left untouched in the residue.
    """
    declarations: dict = {}
    for t in ts:
        if t[1] != _SPO:
            continue
        sid = id_for_term(t[0])
        if is_literal(t[2]):
            raise ValueParseError(sid, "singleton base must be an IRI")
        if sid in declarations and declarations[sid][0] != t[2]:
            raise AmbiguousSingletonError(sid, "declared with more than one base property")
        declarations[sid] = (t[2], t)

    # a statement uses a declared singleton property as its predicate
    statements: dict = {iri(sid): [] for sid in declarations}
    for t in ts:
        if t[1] in statements:
            statements[t[1]].append(t)

    index = SubjectIndex(ts)
    memberships = []
    occupies_seen = False
    for sid in sorted(declarations):
        base, decl = declarations[sid]
        uses = statements[iri(sid)]
        if not uses:
            raise OrphanSingletonError(sid, "singleton property never used in a statement")
        if len(uses) > 1:
            raise AmbiguousSingletonError(sid, f"singleton property used in {len(uses)} statements")
        if base != _OCCUPIES:
            continue
        occupies_seen = True
        person, _, post = statement = uses[0]
        if is_literal(post):
            raise ValueParseError(sid, "membership statement object must be an IRI or blank node")
        person_id = id_for_term(person)
        post_id = id_for_term(post)
        interval = index.take_interval(sid)
        # invert the deterministic minting rule so a full rewrite cycle is the
        # identity; foreign singleton names are kept as-is
        mid = sid[: -len(SINGLETON_SUFFIX)] if sid.endswith(SINGLETON_SUFFIX) else sid
        memberships.append(Membership(mid, person_id, post_id, interval))
        index.consumed.update((statement, decl, (person, _RDF_TYPE, _NAMED_INDIVIDUAL)))
        for term, t in index.values(sid, _RDF_TYPE):
            if term in (_NAMED_INDIVIDUAL, _OBJECT_PROPERTY, _MEMBERSHIP_TYPE):
                index.consumed.add(t)
    if occupies_seen:
        index.consumed.add((_OCCUPIES, _RDF_TYPE, _NAMED_INDIVIDUAL))
        index.consumed.add((_OCCUPIES, _RDF_TYPE, _OBJECT_PROPERTY))

    remaining = TripleSet(t for t in ts if t not in index.consumed)
    graph = assemble_entities(remaining, schemes, bindings)
    graph.add_all(memberships, allow_dangling=True)
    return graph
