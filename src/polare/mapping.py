"""Mapping between typed entities and their triple representation.

The field table in :mod:`polare.model` (``TYPE_SPECS``, derived from each
entity field's single ``wire(...)`` declaration) drives both directions, so
``assemble_entities`` and ``emit_entities`` stay exact inverses.  Unknown
vocabulary is never dropped: whatever ``assemble_entities`` cannot map ends
up in ``graph.residue``.
"""

from __future__ import annotations

from datetime import date
from decimal import Decimal, InvalidOperation
from typing import Optional

from . import vocab
from .errors import MissingFieldError, TypeConflictError, ValueParseError
from .model import (
    SPEC_BY_CLASS,
    TYPE_SPECS,
    EntityGraph,
    FieldSpec,
    Participation,
    TimeInterval,
    TransactionObject,
)
from .wire import (
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DECIMAL,
    XSD_STRING,
    Iri,
    Literal,
    Triple,
    TripleSet,
    id_for_term,
    term_for_id,
)

_RDF_TYPE = Iri(vocab.RDF_TYPE)


#: type-marker IRI -> (spec, transaction-object kind or None)
TYPE_MARKERS = {}
for _s in TYPE_SPECS:
    if _s.type_iri is not None:
        TYPE_MARKERS[_s.type_iri] = (_s, None)
TYPE_MARKERS[vocab.SCHEMA_PRODUCT] = (SPEC_BY_CLASS[TransactionObject], "product")
TYPE_MARKERS[vocab.SCHEMA_SERVICE] = (SPEC_BY_CLASS[TransactionObject], "service")


def _value_term(kind: str, value):
    if kind in ("ref", "concept"):
        return term_for_id(value)
    if kind == "string":
        return Literal(value)
    if kind == "date":
        return Literal(value.isoformat(), XSD_DATE)
    if kind == "decimal":
        return Literal(str(value), XSD_DECIMAL)
    if kind == "boolean":
        return Literal("true" if value else "false", XSD_BOOLEAN)
    raise AssertionError(kind)


def _term_value(kind: str, term, subject: str, attr: str):
    if kind in ("ref", "concept"):
        if isinstance(term, Literal):
            raise ValueParseError(subject, f"{attr}: expected an IRI or blank node, got a literal")
        return id_for_term(term)
    if not isinstance(term, Literal):
        raise ValueParseError(subject, f"{attr}: expected a literal")
    if kind == "string":
        if term.datatype != XSD_STRING:
            raise ValueParseError(subject, f"{attr}: expected a string literal, got {term.datatype}")
        return term.lexical
    if kind == "date":
        if term.datatype != XSD_DATE:
            raise ValueParseError(subject, f"{attr}: expected an {XSD_DATE} literal")
        try:
            return date.fromisoformat(term.lexical)
        except ValueError:
            raise ValueParseError(subject, f"{attr}: bad date literal {term.lexical!r}") from None
    if kind == "decimal":
        if term.datatype != XSD_DECIMAL:
            raise ValueParseError(subject, f"{attr}: expected an {XSD_DECIMAL} literal")
        try:
            return Decimal(term.lexical)
        except InvalidOperation:
            raise ValueParseError(subject, f"{attr}: bad decimal literal {term.lexical!r}") from None
    if kind == "boolean":
        if term.datatype != XSD_BOOLEAN or term.lexical not in ("true", "false"):
            raise ValueParseError(subject, f"{attr}: expected a boolean literal")
        return term.lexical == "true"
    raise AssertionError(kind)


def _participant_node_id(parent_id: str, index: int) -> str:
    if parent_id.startswith("_:"):
        return f"{parent_id}.p{index}"
    return f"{parent_id}/p{index}"


def interval_triples(subject, interval: Optional[TimeInterval]) -> list:
    """The start and end date triples of ``interval`` about the term
    ``subject``: none for an absent interval, none for an open bound."""
    if interval is None:
        return []
    bounds = ((vocab.SCHEMA_START_DATE, interval.start), (vocab.SCHEMA_END_DATE, interval.end))
    return [
        Triple(subject, Iri(pred), _value_term("date", d)) for pred, d in bounds if d is not None
    ]


def triples_for_entity(entity) -> list:
    """The exact triples ``emit_entities`` produces for one entity."""
    spec = SPEC_BY_CLASS[type(entity)]
    subj = term_for_id(entity.id)
    if spec.type_iri is not None:
        type_iri = spec.type_iri
    else:
        type_iri = vocab.SCHEMA_PRODUCT if entity.kind == "product" else vocab.SCHEMA_SERVICE
    out = [Triple(subj, _RDF_TYPE, Iri(type_iri))]
    for fld in spec.fields:
        value = getattr(entity, fld.attr)
        if fld.multi:
            for v in sorted(value):
                out.append(Triple(subj, Iri(fld.pred), _value_term(fld.kind, v)))
        elif fld.required or value != fld.default:
            if value is not None:
                out.append(Triple(subj, Iri(fld.pred), _value_term(fld.kind, value)))
    if spec.interval_attr is not None:
        out.extend(interval_triples(subj, getattr(entity, spec.interval_attr)))
    if spec.participants:
        for i, part in enumerate(entity.participants):
            node = term_for_id(_participant_node_id(entity.id, i))
            out.append(Triple(subj, Iri(vocab.POL_PARTICIPANT), node))
            out.append(Triple(node, Iri(vocab.POL_AGENT), term_for_id(part.agent)))
            out.append(Triple(node, Iri(vocab.POL_ROLE), term_for_id(part.role)))
    return out


def emit_entities(graph: EntityGraph) -> TripleSet:
    """Serialize every entity of the graph into the wire vocabulary."""
    ts = TripleSet()
    for entity in graph.entities():
        ts.update(triples_for_entity(entity))
    return ts


class SubjectIndex:
    """The triples of a set by subject id and predicate, recording which
    ones a reader has taken."""

    def __init__(self, ts: TripleSet):
        self.by_subject: dict = {}  # subject id -> pred iri -> [(term, triple)]
        self.consumed: set = set()
        for t in ts:
            sid = id_for_term(t.subject)
            self.by_subject.setdefault(sid, {}).setdefault(t.predicate.value, []).append(
                (t.object, t)
            )

    def values(self, sid: str, pred: str) -> list:
        return self.by_subject.get(sid, {}).get(pred, [])

    def take(self, sid: str, pred: str) -> list:
        pairs = self.values(sid, pred)
        for _, t in pairs:
            self.consumed.add(t)
        return [term for term, _ in pairs]

    def take_single(self, sid: str, fld: FieldSpec):
        terms = self.take(sid, fld.pred)
        if not terms:
            if fld.required:
                raise MissingFieldError(sid, f"missing mandatory field {fld.attr}")
            return fld.default
        if len(terms) > 1:
            raise ValueParseError(sid, f"{fld.attr}: {len(terms)} values for a single-valued field")
        return _term_value(fld.kind, terms[0], sid, fld.attr)

    def take_interval(self, sid: str) -> TimeInterval:
        starts = self.take(sid, vocab.SCHEMA_START_DATE)
        ends = self.take(sid, vocab.SCHEMA_END_DATE)
        if len(starts) > 1 or len(ends) > 1:
            raise ValueParseError(sid, "multiple start or end dates")
        start = _term_value("date", starts[0], sid, "interval.start") if starts else None
        end = _term_value("date", ends[0], sid, "interval.end") if ends else None
        return TimeInterval(start, end)

    def take_participants(self, sid: str) -> list:
        nodes = self.take(sid, vocab.POL_PARTICIPANT)
        if not nodes:
            raise MissingFieldError(sid, "missing mandatory field participants")
        parts = []
        for node in nodes:
            if isinstance(node, Literal):
                raise ValueParseError(sid, "participant must be an IRI or blank node")
            nid = id_for_term(node)
            agents = self.take(nid, vocab.POL_AGENT)
            roles = self.take(nid, vocab.POL_ROLE)
            if len(agents) != 1:
                raise ValueParseError(sid, f"participant {nid}: expected exactly one agent")
            if len(roles) != 1:
                raise ValueParseError(sid, f"participant {nid}: expected exactly one role")
            parts.append(
                Participation(
                    _term_value("ref", agents[0], nid, "agent"),
                    _term_value("concept", roles[0], nid, "role"),
                )
            )
        return parts


def assemble_entities(ts: TripleSet, schemes=(), bindings: Optional[dict] = None) -> EntityGraph:
    """Build the typed entity graph a triple set describes.

    Every subject carrying a recognized type marker becomes exactly one
    entity; triples that do not take part in any entity land in the returned
    graph's ``residue`` (never silently dropped).  References to ids not
    described in the data are kept as-is, linked-data style; use
    ``graph.dangling_refs()`` to see them.
    """
    graph = EntityGraph(schemes, bindings or {})
    asm = SubjectIndex(ts)

    typed: dict = {}
    for t in ts:
        if t.predicate.value != vocab.RDF_TYPE or not isinstance(t.object, Iri):
            continue
        marker = TYPE_MARKERS.get(t.object.value)
        if marker is None:
            continue
        sid = id_for_term(t.subject)
        spec, kind = marker
        if sid in typed:
            prev_spec, prev_kind, _ = typed[sid]
            if prev_spec is not spec:
                raise TypeConflictError(
                    sid, f"typed both {prev_spec.cls.__name__} and {spec.cls.__name__}"
                )
            if prev_kind != kind:
                raise TypeConflictError(sid, f"typed both {prev_kind} and {kind}")
            continue
        typed[sid] = (spec, kind, t)

    entities = []
    for sid in sorted(typed):
        spec, kind, type_triple = typed[sid]
        asm.consumed.add(type_triple)
        kwargs = {"id": sid}
        if spec.cls is TransactionObject:
            kwargs["kind"] = kind
        for fld in spec.fields:
            if fld.multi:
                terms = asm.take(sid, fld.pred)
                if fld.required and not terms:
                    raise MissingFieldError(sid, f"missing mandatory field {fld.attr}")
                kwargs[fld.attr] = tuple(
                    _term_value(fld.kind, term, sid, fld.attr) for term in terms
                )
            else:
                kwargs[fld.attr] = asm.take_single(sid, fld)
        if spec.interval_attr is not None:
            kwargs[spec.interval_attr] = asm.take_interval(sid)
        if spec.participants:
            kwargs["participants"] = tuple(asm.take_participants(sid))
        entities.append(spec.cls(**kwargs))

    graph.add_all(entities, allow_dangling=True)
    graph.residue = TripleSet(t for t in ts if t not in asm.consumed)
    return graph
