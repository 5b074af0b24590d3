"""Domain model: political agents, posts, memberships, legislative and
electoral entities, concept schemes, day-granular time intervals, and the
entity graph that holds them all.

Each entity field is declared once, on its class, with :func:`wire`: its
wire predicate, its value kind and, for references, the classes it may
point to.  The field table :data:`TYPE_SPECS` is derived from those
declarations, and the entity id checks, :func:`iter_references`,
:func:`iter_concept_refs`, :data:`BINDING_KEYS` and the wire mapping in
:mod:`polare.mapping` all read it; each class's ``__post_init__`` adds only
its own invariants.

All domain values are immutable after construction.  The graph itself is
mutated only through :meth:`EntityGraph.add_all` (which
:meth:`EntityGraph.add` calls with a batch of one), which must be
serialized by the caller; any number of readers may share a graph
snapshot.  A batch is staged on its
own, so each insert costs the size of the batch, not of the graph.
"""

from __future__ import annotations

import re
from datetime import date, datetime
from decimal import Decimal, InvalidOperation
from typing import Callable, Iterable, Iterator, Optional

from . import vocab
from .errors import (
    DanglingReferenceError,
    DuplicateIdError,
    InvariantError,
    SchemeError,
    UnknownConceptError,
    UnknownSchemeError,
)
from .record import MISSING, Field, Record

_BLANK_LABEL_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]*$")
_CURRENCY_RE = re.compile(r"^[A-Z]{3}$")
_IRI_FORBIDDEN = frozenset(' \t\n\r<>"')


def check_entity_id(value, owner: str = "id") -> str:
    """Validate an entity id: an absolute-IRI-like string (must contain a
    scheme separator ``:``) or a blank-node label starting with ``_:``."""
    if not isinstance(value, str) or not value:
        raise InvariantError(f"{owner}: id must be a non-empty string")
    if value.startswith("_:"):
        if not _BLANK_LABEL_RE.match(value[2:]):
            raise InvariantError(f"{owner}: malformed blank-node label {value!r}")
        return value
    if ":" not in value:
        raise InvariantError(f"{owner}: IRI id {value!r} lacks a scheme separator ':'")
    if not _IRI_FORBIDDEN.isdisjoint(value):
        raise InvariantError(f"{owner}: id {value!r} contains characters not allowed in an IRI")
    return value


def _check_date(value, owner: str, optional: bool = False):
    if value is None and optional:
        return None
    if isinstance(value, datetime) or not isinstance(value, date):
        raise InvariantError(f"{owner}: expected a calendar date, got {value!r}")
    return value


def _check_decimal(value, owner: str):
    if isinstance(value, float):
        raise InvariantError(f"{owner}: amounts use decimal arithmetic, not float ({value!r})")
    try:
        dec = value if isinstance(value, Decimal) else Decimal(value)
    except (InvalidOperation, TypeError, ValueError):
        raise InvariantError(f"{owner}: not a decimal value: {value!r}") from None
    if not dec.is_finite():
        raise InvariantError(f"{owner}: not a finite decimal value: {value!r}")
    return dec


class TimeInterval(Record):
    """Day-granularity interval, closed on both ends; an absent bound means
    unbounded in that direction."""

    start: Optional[date] = None
    end: Optional[date] = None

    def __post_init__(self):
        _check_date(self.start, "TimeInterval.start", optional=True)
        _check_date(self.end, "TimeInterval.end", optional=True)
        if self.start is not None and self.end is not None and self.start > self.end:
            raise InvariantError(f"TimeInterval: start {self.start} after end {self.end}")

    def in_effect(self, d: date) -> bool:
        _check_date(d, "in_effect")
        return (self.start is None or self.start <= d) and (self.end is None or d <= self.end)

    def overlaps(self, other: "TimeInterval") -> bool:
        """True when the two closed intervals share at least one day."""
        if self.start is not None and other.end is not None and other.end < self.start:
            return False
        if other.start is not None and self.end is not None and self.end < other.start:
            return False
        return True

    def intersection(self, other: "TimeInterval") -> Optional["TimeInterval"]:
        if not self.overlaps(other):
            return None
        start, end = self.start, self.end
        if other.start is not None and (start is None or other.start > start):
            start = other.start
        if other.end is not None and (end is None or other.end < end):
            end = other.end
        # skips __post_init__: these are bounds of two checked intervals that
        # overlap, so start <= end (TestIntersection); a check added there
        # must hold here too
        out = object.__new__(TimeInterval)
        object.__setattr__(out, "start", start)
        object.__setattr__(out, "end", end)
        return out

    def contains(self, other: "TimeInterval") -> bool:
        """True when every day covered by ``other`` is covered by ``self``."""
        if self.start is not None and (other.start is None or other.start < self.start):
            return False
        if self.end is not None and (other.end is None or other.end > self.end):
            return False
        return True


_NO_PERIOD = TimeInterval()


def overlapping_pairs(items: Iterable) -> Iterator[tuple]:
    """Every unordered pair of ``items`` whose ``interval`` attributes share
    a day, each pair once.

    Sorts by start (an open start first) and sweeps, keeping the items whose
    interval has not yet ended; each item pairs with every kept one.  Costs
    O(n log n + pairs reported) instead of testing all n(n-1)/2 pairs.
    """
    active: list = []
    for item in sorted(items, key=lambda x: x.interval.start or date.min):
        start = item.interval.start
        if start is not None:
            active = [a for a in active if a.interval.end is None or a.interval.end >= start]
        for a in active:
            yield (a, item)
        active.append(item)


class Concept(Record):
    """A controlled-vocabulary concept belonging to one scheme.

    ``symmetric`` only carries meaning for relation concepts: when true, the
    (subject, object) order of a relation using this concept is irrelevant.
    """

    id: str
    scheme: str
    label: str
    broader: Optional[str] = None
    symmetric: bool = False

    def __post_init__(self):
        check_entity_id(self.id, "Concept")
        check_entity_id(self.scheme, "Concept.scheme")
        if self.broader is not None:
            check_entity_id(self.broader, "Concept.broader")


class ConceptScheme(Record):
    """A named set of concepts; ids unique within the scheme, broader links
    stay inside the scheme and form no cycles."""

    id: str
    concepts: tuple = ()
    __slots__ = ("_by_id",)  # not a field: the concepts by id

    def __post_init__(self):
        check_entity_id(self.id, "ConceptScheme")
        ordered = tuple(sorted(self.concepts, key=lambda c: c.id))
        by_id = {}
        for c in ordered:
            if not isinstance(c, Concept):
                raise SchemeError(f"scheme {self.id}: not a Concept: {c!r}")
            if c.scheme != self.id:
                raise SchemeError(f"scheme {self.id}: concept {c.id} declares scheme {c.scheme}")
            if c.id in by_id:
                raise SchemeError(f"scheme {self.id}: duplicate concept id {c.id}")
            by_id[c.id] = c
        for c in ordered:
            seen = {c.id}
            cur = c
            while cur.broader is not None:
                if cur.broader not in by_id:
                    raise SchemeError(
                        f"scheme {self.id}: broader target {cur.broader} of {cur.id} not in scheme"
                    )
                if cur.broader in seen:
                    raise SchemeError(f"scheme {self.id}: broader cycle through {cur.broader}")
                seen.add(cur.broader)
                cur = by_id[cur.broader]
        object.__setattr__(self, "concepts", ordered)
        object.__setattr__(self, "_by_id", by_id)

    def __contains__(self, concept_id: str) -> bool:
        return concept_id in self._by_id

    def concept(self, concept_id: str) -> Concept:
        try:
            return self._by_id[concept_id]
        except KeyError:
            raise UnknownConceptError(f"scheme {self.id} has no concept {concept_id}") from None


def _check_fields(entity) -> None:
    """Check the id, the interval and every ref, concept, date and decimal
    field that the field table lists for the entity's class; decimals are
    stored as ``Decimal``, multi-valued fields as a tuple the class
    normalizes, and a period without bounds as ``TimeInterval()`` or, where
    the class's interval is optional, as None."""
    spec = SPEC_BY_CLASS[type(entity)]
    check_entity_id(entity.id, type(entity).__name__)
    if spec.interval_attr is not None:
        value = getattr(entity, spec.interval_attr)
        if value is None or value == _NO_PERIOD:
            value = None if spec.interval_optional else _NO_PERIOD
            object.__setattr__(entity, spec.interval_attr, value)
        elif not isinstance(value, TimeInterval):
            raise InvariantError(
                f"{type(entity).__name__}.{spec.interval_attr}: not a TimeInterval: {value!r}"
            )
    for fld in spec.fields:
        value = getattr(entity, fld.attr)
        if fld.multi:
            value = tuple(value or ())  # a one-shot iterable is read only here
            object.__setattr__(entity, fld.attr, value)
            for v in value:
                check_entity_id(v, fld.key)
        elif value is None and not fld.required:
            continue
        elif fld.kind in ("ref", "concept"):
            check_entity_id(value, fld.key)
        elif fld.kind == "date":
            _check_date(value, fld.key)
        elif fld.kind == "decimal":
            object.__setattr__(entity, fld.attr, _check_decimal(value, fld.key))


def _sorted_ids(values) -> tuple:
    return tuple(sorted(set(values)))


def wire(pred: str, kind: str, *targets: str, multi: bool = False, default=MISSING):
    """Declare an entity field with its wire predicate and value kind (ref |
    concept | string | date | decimal | boolean); a ref field names the
    classes its id may resolve to, ``"Agent"`` standing for every agent
    class.  The field is required exactly when it has no default."""
    return Field(default, (pred, kind, targets, multi))


class Person(Record):
    id: str
    name: str = wire(vocab.FOAF_NAME, "string")

    def __post_init__(self):
        _check_fields(self)
        if not self.name:
            raise InvariantError(f"Person {self.id}: name must be non-empty")


class Organization(Record):
    id: str
    name: str = wire(vocab.FOAF_NAME, "string")
    classification: Optional[str] = wire(vocab.ORG_CLASSIFICATION, "concept", default=None)
    parent: Optional[str] = wire(
        vocab.ORG_SUB_ORGANIZATION_OF, "ref", "Organization", default=None
    )

    __post_init__ = _check_fields


class Group(Record):
    id: str
    name: str = wire(vocab.FOAF_NAME, "string")
    members: frozenset = wire(vocab.FOAF_MEMBER, "ref", "Person", multi=True, default=frozenset())

    def __post_init__(self):
        _check_fields(self)
        object.__setattr__(self, "members", frozenset(self.members))


class Post(Record):
    """A position within an organization; ``exclusive`` posts hold at most
    one person at any moment."""

    id: str
    organization: str = wire(vocab.ORG_POST_IN, "ref", "Organization")
    role: str = wire(vocab.ORG_ROLE, "concept")
    interval: TimeInterval = TimeInterval()
    exclusive: bool = wire(vocab.POL_EXCLUSIVE, "boolean", default=True)

    __post_init__ = _check_fields


class Membership(Record):
    """The reified, time-qualified fact that a person occupies a post; the
    only way a person relates to an organization."""

    id: str
    person: str = wire(vocab.ORG_MEMBER, "ref", "Person")
    post: str = wire(vocab.POL_HAS_POST, "ref", "Post")
    interval: TimeInterval = TimeInterval()

    __post_init__ = _check_fields


class DirectRel(Record):
    """A direct person-to-person relation qualified by a relation concept
    (family ties and similar)."""

    id: str
    subject: str = wire(vocab.POL_REL_SOURCE, "ref", "Person")
    object: str = wire(vocab.POL_REL_TARGET, "ref", "Person")
    relation: str = wire(vocab.POL_DIRECT_REL_PROP, "concept")
    interval: Optional[TimeInterval] = None

    def __post_init__(self):
        _check_fields(self)
        if self.subject == self.object:
            raise InvariantError(f"DirectRel {self.id}: relates {self.subject} to itself")


class Referral(Record):
    """Some agent nominated a person to occupy a post."""

    id: str
    referrer: str = wire(vocab.POL_REFERRER, "ref", "Agent")
    referred: str = wire(vocab.POL_REFERRED, "ref", "Person")
    post: str = wire(vocab.POL_POST_PROP, "ref", "Post")
    date: Optional[date] = wire(vocab.DC_DATE, "date", default=None)

    def __post_init__(self):
        _check_fields(self)
        if self.referrer == self.referred:
            raise InvariantError(f"Referral {self.id}: {self.referrer} refers itself")


class Proposition(Record):
    id: str
    creators: tuple = wire(vocab.DC_CREATOR, "ref", "Person", multi=True)
    title: Optional[str] = wire(vocab.DC_TITLE, "string", default=None)

    def __post_init__(self):
        _check_fields(self)
        if not self.creators:
            raise InvariantError(f"Proposition {self.id}: needs at least one creator")
        object.__setattr__(self, "creators", _sorted_ids(self.creators))


class Law(Record):
    id: str
    proposition: str = wire(vocab.POL_FROM_PROPOSITION, "ref", "Proposition")
    enacted: date = wire(vocab.POL_ENACTED_ON, "date")

    __post_init__ = _check_fields


class Session(Record):
    id: str
    date: date = wire(vocab.DC_DATE, "date")

    __post_init__ = _check_fields


class VoteEvent(Record):
    """One voting round within a session, deciding a disposition of a
    proposition."""

    id: str
    session: str = wire(vocab.POL_SESSION_PROP, "ref", "Session")
    proposition: str = wire(vocab.POL_PROPOSITION_PROP, "ref", "Proposition")
    disposition: str = wire(vocab.POL_DISPOSITION, "concept")
    start: date = wire(vocab.SCHEMA_START_DATE, "date")

    __post_init__ = _check_fields


class Voter(Record):
    """A person in their voting role, preserving the party affiliation the
    data source recorded for them."""

    id: str
    person: str = wire(vocab.POL_PERSON_PROP, "ref", "Person")
    party: str = wire(vocab.POL_PARTY, "ref", "Organization")

    __post_init__ = _check_fields


class Vote(Record):
    id: str
    vote_event: str = wire(vocab.POL_VOTE_EVENT_PROP, "ref", "VoteEvent")
    voter: str = wire(vocab.POL_VOTER_PROP, "ref", "Voter")
    value: str = wire(vocab.POL_VOTE_PROP, "concept")

    __post_init__ = _check_fields


class Recommendation(Record):
    id: str
    issuer: str = wire(vocab.POL_ISSUED_BY, "ref", "Group")
    vote_event: str = wire(vocab.POL_VOTE_EVENT_PROP, "ref", "VoteEvent")
    recommended: str = wire(vocab.POL_RECOMMENDS, "concept")

    __post_init__ = _check_fields


class Election(Record):
    id: str
    date: date = wire(vocab.DC_DATE, "date")
    posts: frozenset = wire(vocab.POL_ELECTS_POST, "ref", "Post", multi=True)

    def __post_init__(self):
        _check_fields(self)
        if not self.posts:
            raise InvariantError(f"Election {self.id}: defines no posts")
        object.__setattr__(self, "posts", frozenset(self.posts))


class Candidacy(Record):
    id: str
    person: str = wire(vocab.POL_CANDIDATE, "ref", "Person")
    election: str = wire(vocab.POL_ELECTION_PROP, "ref", "Election")
    post: str = wire(vocab.POL_POST_PROP, "ref", "Post")
    campaign_report: Optional[str] = wire(
        vocab.POL_CAMPAIGN_REPORT_PROP, "ref", "CampaignReport", default=None
    )
    property_report: Optional[str] = wire(
        vocab.POL_PROPERTY_REPORT_PROP, "ref", "PropertyReport", default=None
    )

    __post_init__ = _check_fields


class TransactionObject(Record):
    id: str
    kind: str  # "product" or "service"; it is the wire type marker
    description: str = wire(vocab.SCHEMA_DESCRIPTION, "string", default="")

    def __post_init__(self):
        _check_fields(self)
        if self.kind not in ("product", "service"):
            raise InvariantError(f"TransactionObject {self.id}: kind must be product or service")


class Participation(Record):
    """One agent taking one role in a transaction or legal case."""

    agent: str
    role: str  # concept id

    def __post_init__(self):
        check_entity_id(self.agent, "Participation.agent")
        check_entity_id(self.role, "Participation.role")


def _norm_participants(values) -> tuple:
    parts = []
    for v in values:
        if not isinstance(v, Participation):
            v = Participation(*v)
        parts.append(v)
    return tuple(sorted(set(parts), key=lambda p: (p.agent, p.role)))


class Transaction(Record):
    """An exchange between two or more agents, each in a role, over an
    object, for an amount."""

    id: str
    participants: tuple  # Participation values, stored sorted
    object: str = wire(vocab.POL_TRANSACTION_OBJECT, "ref", "TransactionObject")
    amount: Decimal = wire(vocab.POL_AMOUNT, "decimal")
    currency: str = wire(vocab.POL_CURRENCY, "string")
    date: date = wire(vocab.DC_DATE, "date")

    def __post_init__(self):
        _check_fields(self)
        parts = _norm_participants(self.participants)
        if len({p.agent for p in parts}) < 2:
            raise InvariantError(f"Transaction {self.id}: needs at least two distinct agents")
        object.__setattr__(self, "participants", parts)
        if self.amount < 0:
            raise InvariantError(f"Transaction {self.id}: negative amount {self.amount}")
        if not _CURRENCY_RE.match(self.currency):
            raise InvariantError(f"Transaction {self.id}: bad currency code {self.currency!r}")


class CampaignReport(Record):
    id: str
    candidacy: str = wire(vocab.POL_CANDIDACY_PROP, "ref", "Candidacy")
    transactions: tuple = wire(
        vocab.POL_TRANSACTION_PROP, "ref", "Transaction", multi=True, default=()
    )

    def __post_init__(self):
        _check_fields(self)
        object.__setattr__(self, "transactions", _sorted_ids(self.transactions))


class Asset(Record):
    id: str
    owner: str = wire(vocab.POL_OWNER, "ref", "Person")
    description: str = wire(vocab.SCHEMA_DESCRIPTION, "string", default="")
    value: Optional[Decimal] = wire(vocab.POL_VALUE, "decimal", default=None)
    acquired_via: Optional[str] = wire(
        vocab.POL_ACQUIRED_VIA, "ref", "TransactionObject", default=None
    )

    __post_init__ = _check_fields


class PropertyReport(Record):
    id: str
    candidacy: str = wire(vocab.POL_CANDIDACY_PROP, "ref", "Candidacy")
    assets: tuple = wire(vocab.POL_ASSET_PROP, "ref", "Asset", multi=True, default=())

    def __post_init__(self):
        _check_fields(self)
        object.__setattr__(self, "assets", _sorted_ids(self.assets))


class LegalCase(Record):
    id: str
    participants: tuple  # Participation values, stored sorted
    interval: Optional[TimeInterval] = None

    def __post_init__(self):
        _check_fields(self)
        parts = _norm_participants(self.participants)
        if not parts:
            raise InvariantError(f"LegalCase {self.id}: needs at least one participant")
        object.__setattr__(self, "participants", parts)


AGENT_CLASSES = (Person, Organization, Group)

#: Every entity class, in table order, with the type marker its subject
#: carries on the wire (None: a transaction object is typed by its kind).
_TYPE_IRIS = {
    Person: vocab.FOAF_PERSON,
    Organization: vocab.ORG_ORGANIZATION,
    Group: vocab.FOAF_GROUP,
    Post: vocab.ORG_POST,
    Membership: vocab.ORG_MEMBERSHIP,
    DirectRel: vocab.POL_DIRECT_REL,
    Referral: vocab.POL_REFERRAL,
    Proposition: vocab.POL_PROPOSITION,
    Law: vocab.POL_LAW,
    Session: vocab.POL_SESSION,
    VoteEvent: vocab.POL_VOTE_EVENT,
    Voter: vocab.POL_VOTER,
    Vote: vocab.POL_VOTE,
    Recommendation: vocab.POL_RECOMMENDATION,
    Election: vocab.POL_ELECTION,
    Candidacy: vocab.POL_CANDIDACY,
    TransactionObject: None,
    Transaction: vocab.POL_TRANSACTION,
    CampaignReport: vocab.POL_CAMPAIGN_REPORT,
    Asset: vocab.POL_ASSET,
    PropertyReport: vocab.POL_PROPERTY_REPORT,
    LegalCase: vocab.POL_LEGAL_CASE,
}

ENTITY_CLASSES = tuple(_TYPE_IRIS)


# -- the field table ---------------------------------------------------------


class FieldSpec(Record):
    """One entity field: its attribute, wire predicate and value kind."""

    attr: str
    pred: str
    kind: str  # ref | concept | string | date | decimal | boolean
    required: bool
    multi: bool
    default: object  # optional single-valued fields only; None otherwise
    targets: tuple  # ref fields: the classes the referenced id may resolve to
    key: str  # "<Cls>.<attr>"


class TypeSpec(Record):
    """One entity class: its type marker, its fields in wire order, and
    whether it carries an interval and participants."""

    cls: type
    type_iri: Optional[str]  # None: transaction objects are typed by their kind
    fields: tuple
    interval_attr: Optional[str]
    interval_optional: bool
    participants: bool

    @property
    def role_key(self) -> str:
        """Binding key of the participants' roles."""
        return f"{self.cls.__name__}.role"


_TARGETS = {c.__name__: (c,) for c in ENTITY_CLASSES}
_TARGETS["Agent"] = AGENT_CLASSES


def _type_spec(cls, type_iri: Optional[str]) -> TypeSpec:
    """Read the class's ``wire(...)`` declarations into its table entry."""
    defaults = cls._field_defaults
    specs = []
    for attr, (pred, kind, targets, multi) in cls._field_metadata.items():
        required = attr not in defaults
        specs.append(
            FieldSpec(
                attr,
                pred,
                kind,
                required,
                multi,
                None if required or multi else defaults[attr],
                tuple(c for name in targets for c in _TARGETS[name]),
                f"{cls.__name__}.{attr}",
            )
        )
    return TypeSpec(
        cls,
        type_iri,
        tuple(specs),
        "interval" if "interval" in cls._fields else None,
        defaults.get("interval", MISSING) is None,
        "participants" in cls._fields,
    )


#: The one description of every entity field, derived from the classes'
#: ``wire(...)`` declarations.  The id checks, reference and concept
#: iteration, the binding keys and the wire mapping all read it.
TYPE_SPECS = tuple(_type_spec(cls, type_iri) for cls, type_iri in _TYPE_IRIS.items())

SPEC_BY_CLASS = {s.cls: s for s in TYPE_SPECS}

#: field keys the scheme-binding table may constrain
BINDING_KEYS = frozenset(
    [f.key for s in TYPE_SPECS for f in s.fields if f.kind == "concept"]
    + [s.role_key for s in TYPE_SPECS if s.participants]
)


def _field_values(e, fld: FieldSpec):
    """The values a ref or concept field holds, sorted when multi-valued."""
    value = getattr(e, fld.attr)
    if fld.multi:
        return sorted(value)
    return () if value is None else (value,)


def iter_references(e) -> Iterator[tuple]:
    """Yield (field, referenced id, allowed target classes) for every
    entity reference the value carries: participants' agents first, then
    the ref fields in table order, multi-valued ones sorted."""
    spec = SPEC_BY_CLASS[type(e)]
    if spec.participants:
        for p in e.participants:
            yield ("participants", p.agent, AGENT_CLASSES)
    for fld in spec.fields:
        if fld.kind == "ref":
            for ref in _field_values(e, fld):
                yield (fld.attr, ref, fld.targets)


def iter_concept_refs(e) -> Iterator[tuple]:
    """Yield (binding key, concept id) for every concept-valued field, using
    the same keys the scheme-binding table uses."""
    spec = SPEC_BY_CLASS[type(e)]
    if spec.participants:
        for p in e.participants:
            yield (spec.role_key, p.role)
    for fld in spec.fields:
        if fld.kind == "concept":
            for concept_id in _field_values(e, fld):
                yield (fld.key, concept_id)


class EntityGraph:
    """Typed, id-indexed collection of all domain entities plus registered
    concept schemes and the field-to-scheme binding table.

    Ids are unique across entities, schemes and concepts.  ``add`` enforces
    referential closure; ``add_all(..., allow_dangling=True)`` supports
    linked-data ingestion where referenced ids may live outside the loaded
    data (use :meth:`dangling_refs` to inspect what stayed unresolved).
    """

    def __init__(self, schemes: Iterable[ConceptScheme] = (), bindings: Optional[dict] = None):
        self._entities: dict = {}
        self._schemes: dict = {}
        self._concepts: dict = {}  # concept id -> Concept
        self._bindings: dict = {}
        self.residue = ()  # triples an assembler could not map; set by graph-io
        for s in schemes:
            self.register_scheme(s)
        if bindings:
            self.register_bindings(bindings)

    # -- schemes -----------------------------------------------------------

    def register_scheme(self, scheme: ConceptScheme) -> None:
        if self._known_id(scheme.id):
            raise DuplicateIdError(f"id {scheme.id} already present in graph")
        for c in scheme.concepts:
            if self._known_id(c.id):
                raise DuplicateIdError(f"id {c.id} already present in graph")
        self._schemes[scheme.id] = scheme
        for c in scheme.concepts:
            self._concepts[c.id] = c

    def register_bindings(self, bindings: dict) -> None:
        """Bind concept-valued fields (e.g. ``"Post.role"``) to scheme ids."""
        for key, scheme_id in bindings.items():
            if scheme_id not in self._schemes:
                raise UnknownSchemeError(f"binding {key}: scheme {scheme_id} not registered")
            self._bindings[key] = scheme_id

    @property
    def schemes(self) -> dict:
        return dict(self._schemes)

    @property
    def bindings(self) -> dict:
        return dict(self._bindings)

    def find_concept(self, concept_id: str) -> Optional[Concept]:
        return self._concepts.get(concept_id)

    def scheme_for_field(self, binding_key: str) -> Optional[ConceptScheme]:
        scheme_id = self._bindings.get(binding_key)
        return self._schemes.get(scheme_id) if scheme_id else None

    # -- entities ----------------------------------------------------------

    def _known_id(self, eid: str) -> bool:
        return eid in self._entities or eid in self._schemes or eid in self._concepts

    def __contains__(self, eid: str) -> bool:
        return eid in self._entities

    def __len__(self) -> int:
        return len(self._entities)

    def get(self, eid: str):
        return self._entities.get(eid)

    def entities(self) -> list:
        """All entities, sorted by id (stable regardless of insertion order)."""
        return [self._entities[k] for k in sorted(self._entities)]

    def of_type(self, cls) -> list:
        return [e for e in self.entities() if isinstance(e, cls)]

    def is_agent(self, eid: str) -> bool:
        return isinstance(self._entities.get(eid), AGENT_CLASSES)

    def add(self, entity) -> None:
        """Insert one entity: :meth:`add_all` of a batch of one."""
        self.add_all((entity,))

    def add_all(self, entities: Iterable, allow_dangling: bool = False) -> None:
        """Insert a batch, checking referential closure only after every
        entity is staged, so mutually referencing entities can be loaded in
        any order.  Duplicate ids, dangling or ill-typed references,
        unresolved concept ids and parent cycles are rejected, and the graph
        is unchanged on rejection.  With ``allow_dangling`` references to ids
        absent from the graph are tolerated (open-world linked data);
        references that do resolve must still resolve to the right type."""
        batch: dict = {}

        def staged(eid: str):  # the batch first, then the graph
            return batch[eid] if eid in batch else self._entities.get(eid)

        for entity in entities:
            self._check_type(entity)
            if entity.id in batch or self._known_id(entity.id):
                raise DuplicateIdError(f"id {entity.id} already present in graph")
            batch[entity.id] = entity
        for entity in batch.values():
            for fld, ref, allowed in iter_references(entity):
                target = staged(ref)
                if target is None:
                    if not allow_dangling:
                        raise DanglingReferenceError(
                            f"{type(entity).__name__} {entity.id}: {fld} references missing id {ref}"
                        )
                    continue
                self._check_target_type(entity, fld, ref, target, allowed)
            if not allow_dangling:
                for _, concept_id in iter_concept_refs(entity):
                    if concept_id not in self._concepts:
                        raise DanglingReferenceError(
                            f"{type(entity).__name__} {entity.id}: concept {concept_id} "
                            "not found in any registered scheme"
                        )
            if isinstance(entity, Organization):
                self._check_parent_chain(entity, staged)
        self._entities.update(batch)

    def dangling_refs(self) -> list:
        """Sorted (referrer id, field, missing id) for every unresolved
        reference; empty on referentially closed graphs."""
        out = []
        for e in self._entities.values():
            for fld, ref, _ in iter_references(e):
                if ref not in self._entities:
                    out.append((e.id, fld, ref))
            for fld, concept_id in iter_concept_refs(e):
                if concept_id not in self._concepts:
                    out.append((e.id, fld, concept_id))
        return sorted(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EntityGraph):
            return NotImplemented
        return (
            self._entities == other._entities
            and self._schemes == other._schemes
            and self._bindings == other._bindings
        )

    def __repr__(self) -> str:
        return f"EntityGraph({len(self._entities)} entities, {len(self._schemes)} schemes)"

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _check_type(entity) -> None:
        if not isinstance(entity, ENTITY_CLASSES):
            raise InvariantError(f"not a domain entity: {entity!r}")

    @staticmethod
    def _check_target_type(entity, fld, ref, target, allowed) -> None:
        if not isinstance(target, allowed):
            names = "/".join(c.__name__ for c in allowed)
            raise InvariantError(
                f"{type(entity).__name__} {entity.id}: {fld} must reference {names}, "
                f"but {ref} is {type(target).__name__}"
            )

    @staticmethod
    def _check_parent_chain(org: Organization, lookup: Callable) -> None:
        seen = {org.id}
        cur = org
        while cur.parent is not None:
            if cur.parent in seen:
                raise InvariantError(f"Organization {org.id}: parent chain contains a cycle")
            seen.add(cur.parent)
            nxt = lookup(cur.parent)
            if not isinstance(nxt, Organization):
                break
            cur = nxt
