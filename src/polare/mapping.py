"""Mapping between typed entities and their triple representation.

The field table in :mod:`polare.model` (``TYPE_SPECS``, derived from each
entity field's single ``wire(...)`` declaration) drives both directions, so
``assemble_entities`` and ``emit_entities`` stay exact inverses.  Unknown
vocabulary is never dropped: whatever ``assemble_entities`` cannot map ends
up in ``graph.residue``.
"""

from __future__ import annotations

import re
from datetime import date
from decimal import Decimal
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
    TripleSet,
    id_for_term,
    iri,
    is_literal,
    literal,
    literal_parts,
    term_for_id,
)

_RDF_TYPE = iri(vocab.RDF_TYPE)
_START_DATE = iri(vocab.SCHEMA_START_DATE)
_END_DATE = iri(vocab.SCHEMA_END_DATE)
_PARTICIPANT = iri(vocab.POL_PARTICIPANT)
_AGENT = iri(vocab.POL_AGENT)
_ROLE = iri(vocab.POL_ROLE)

# the XSD 1.1 lexical spaces (Part 2, 3.3.3 and the part of 3.3.9 that
# datetime.date holds), in ASCII digits; Decimal and date.fromisoformat
# accept more, such as "NaN", "1e3" and "20161002"
_DECIMAL = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)")
_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


#: type-marker term -> (spec, transaction-object kind or None)
TYPE_MARKERS = {}
for _s in TYPE_SPECS:
    if _s.type_iri is not None:
        TYPE_MARKERS[iri(_s.type_iri)] = (_s, None)
TYPE_MARKERS[iri(vocab.SCHEMA_PRODUCT)] = (SPEC_BY_CLASS[TransactionObject], "product")
TYPE_MARKERS[iri(vocab.SCHEMA_SERVICE)] = (SPEC_BY_CLASS[TransactionObject], "service")


def _value_term(kind: str, value):
    if kind in ("ref", "concept"):
        return term_for_id(value)
    if kind == "string":
        return literal(value)
    if kind == "date":
        return literal(value.isoformat(), XSD_DATE)
    if kind == "decimal":
        return literal(str(value), XSD_DECIMAL)
    if kind == "boolean":
        return literal("true" if value else "false", XSD_BOOLEAN)
    raise AssertionError(kind)


def _term_value(kind: str, term, subject: str, attr: str):
    if kind in ("ref", "concept"):
        if is_literal(term):
            raise ValueParseError(subject, f"{attr}: expected an IRI or blank node, got a literal")
        return id_for_term(term)
    if not is_literal(term):
        raise ValueParseError(subject, f"{attr}: expected a literal")
    lexical, datatype = literal_parts(term)
    if kind == "string":
        if datatype != XSD_STRING:
            raise ValueParseError(subject, f"{attr}: expected a string literal, got {datatype}")
        return lexical
    if kind == "date":
        if datatype != XSD_DATE:
            raise ValueParseError(subject, f"{attr}: expected an {XSD_DATE} literal")
        if _DATE.fullmatch(lexical):
            try:
                return date.fromisoformat(lexical)
            except ValueError:  # a month or day out of range
                pass
        raise ValueParseError(subject, f"{attr}: bad date literal {lexical!r}")
    if kind == "decimal":
        if datatype != XSD_DECIMAL:
            raise ValueParseError(subject, f"{attr}: expected an {XSD_DECIMAL} literal")
        if not _DECIMAL.fullmatch(lexical):
            raise ValueParseError(subject, f"{attr}: bad decimal literal {lexical!r}")
        return Decimal(lexical)
    if kind == "boolean":
        if datatype != XSD_BOOLEAN or lexical not in ("true", "false"):
            raise ValueParseError(subject, f"{attr}: expected a boolean literal")
        return lexical == "true"
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
    bounds = ((_START_DATE, interval.start), (_END_DATE, interval.end))
    return [(subject, pred, _value_term("date", d)) for pred, d in bounds if d is not None]


def triples_for_entity(entity) -> list:
    """The exact triples ``emit_entities`` produces for one entity."""
    spec = SPEC_BY_CLASS[type(entity)]
    subj = term_for_id(entity.id)
    if spec.type_iri is not None:
        type_iri = spec.type_iri
    else:
        type_iri = vocab.SCHEMA_PRODUCT if entity.kind == "product" else vocab.SCHEMA_SERVICE
    out = [(subj, _RDF_TYPE, iri(type_iri))]
    for fld in spec.fields:
        value = getattr(entity, fld.attr)
        if fld.multi:
            for v in sorted(value):
                out.append((subj, iri(fld.pred), _value_term(fld.kind, v)))
        elif fld.required or value != fld.default:
            if value is not None:
                out.append((subj, iri(fld.pred), _value_term(fld.kind, value)))
    if spec.interval_attr is not None:
        out.extend(interval_triples(subj, getattr(entity, spec.interval_attr)))
    if spec.participants:
        for i, part in enumerate(entity.participants):
            node = term_for_id(_participant_node_id(entity.id, i))
            out.append((subj, _PARTICIPANT, node))
            out.append((node, _AGENT, term_for_id(part.agent)))
            out.append((node, _ROLE, term_for_id(part.role)))
    return out


def emit_entities(graph: EntityGraph) -> TripleSet:
    """Serialize every entity of the graph into the wire vocabulary."""
    ts = TripleSet()
    for entity in graph.entities():
        ts.update(triples_for_entity(entity))
    return ts


class SubjectIndex:
    """The triples of a set by subject id and predicate term, recording
    which ones a reader has taken."""

    def __init__(self, ts: TripleSet):
        self.by_subject: dict = {}  # subject id -> predicate term -> [(object term, triple)]
        self.consumed: set = set()
        for t in ts:
            self.by_subject.setdefault(id_for_term(t[0]), {}).setdefault(t[1], []).append((t[2], t))

    def values(self, sid: str, pred: str) -> list:
        return self.by_subject.get(sid, {}).get(pred, [])

    def take(self, sid: str, pred: str) -> list:
        pairs = self.values(sid, pred)
        for _, t in pairs:
            self.consumed.add(t)
        return [term for term, _ in pairs]

    def take_single(self, sid: str, fld: FieldSpec):
        terms = self.take(sid, iri(fld.pred))
        if not terms:
            if fld.required:
                raise MissingFieldError(sid, f"missing mandatory field {fld.attr}")
            return fld.default
        if len(terms) > 1:
            raise ValueParseError(sid, f"{fld.attr}: {len(terms)} values for a single-valued field")
        return _term_value(fld.kind, terms[0], sid, fld.attr)

    def take_interval(self, sid: str) -> TimeInterval:
        starts = self.take(sid, _START_DATE)
        ends = self.take(sid, _END_DATE)
        if len(starts) > 1 or len(ends) > 1:
            raise ValueParseError(sid, "multiple start or end dates")
        start = _term_value("date", starts[0], sid, "interval.start") if starts else None
        end = _term_value("date", ends[0], sid, "interval.end") if ends else None
        return TimeInterval(start, end)

    def take_participants(self, sid: str) -> list:
        nodes = self.take(sid, _PARTICIPANT)
        if not nodes:
            raise MissingFieldError(sid, "missing mandatory field participants")
        parts = []
        for node in nodes:
            if is_literal(node):
                raise ValueParseError(sid, "participant must be an IRI or blank node")
            nid = id_for_term(node)
            agents = self.take(nid, _AGENT)
            roles = self.take(nid, _ROLE)
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
        marker = TYPE_MARKERS.get(t[2]) if t[1] == _RDF_TYPE else None
        if marker is None:
            continue
        sid = id_for_term(t[0])
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
                terms = asm.take(sid, iri(fld.pred))
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
