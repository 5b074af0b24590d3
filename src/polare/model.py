"""Domain model: political agents, posts, memberships, legislative and
electoral entities, concept schemes, day-granular time intervals, and the
entity graph that holds them all.

All domain values are immutable after construction.  The graph itself is
mutated only through :meth:`EntityGraph.add_all` (which
:meth:`EntityGraph.add` calls with a batch of one) and
:meth:`EntityGraph.remove`, which must be serialized by the caller; any
number of readers may share a graph snapshot.  A batch is staged on its
own, so each insert costs the size of the batch, not of the graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date, datetime
from decimal import Decimal, InvalidOperation
from typing import Callable, Iterable, Iterator, Optional, Union

from .errors import (
    DanglingReferenceError,
    DuplicateIdError,
    InvariantError,
    SchemeError,
    UnknownConceptError,
    UnknownSchemeError,
)

_BLANK_LABEL_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]*$")
_CURRENCY_RE = re.compile(r"^[A-Z]{3}$")
_IRI_FORBIDDEN = set(' \t\n\r<>"')


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
    if any(c in _IRI_FORBIDDEN for c in value):
        raise InvariantError(f"{owner}: id {value!r} contains characters not allowed in an IRI")
    return value


def _check_date(value, owner: str, optional: bool = False):
    if value is None and optional:
        return None
    if isinstance(value, datetime) or not isinstance(value, date):
        raise InvariantError(f"{owner}: expected a calendar date, got {value!r}")
    return value


def _check_decimal(value, owner: str, optional: bool = False):
    if value is None and optional:
        return None
    if isinstance(value, float):
        raise InvariantError(f"{owner}: amounts use decimal arithmetic, not float ({value!r})")
    try:
        dec = value if isinstance(value, Decimal) else Decimal(value)
    except (InvalidOperation, TypeError, ValueError):
        raise InvariantError(f"{owner}: not a decimal value: {value!r}") from None
    return dec


@dataclass(frozen=True)
class TimeInterval:
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
        starts = [s for s in (self.start, other.start) if s is not None]
        ends = [e for e in (self.end, other.end) if e is not None]
        return TimeInterval(max(starts) if starts else None, min(ends) if ends else None)

    def contains(self, other: "TimeInterval") -> bool:
        """True when every day covered by ``other`` is covered by ``self``."""
        if self.start is not None and (other.start is None or other.start < self.start):
            return False
        if self.end is not None and (other.end is None or other.end > self.end):
            return False
        return True


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


@dataclass(frozen=True)
class Concept:
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


@dataclass(frozen=True)
class ConceptScheme:
    """A named set of concepts; ids unique within the scheme, broader links
    stay inside the scheme and form no cycles."""

    id: str
    concepts: tuple = ()

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


def _sorted_ids(values, owner: str) -> tuple:
    out = sorted({check_entity_id(v, owner) for v in values})
    return tuple(out)


@dataclass(frozen=True)
class Person:
    id: str
    name: str

    def __post_init__(self):
        check_entity_id(self.id, "Person")
        if not self.name:
            raise InvariantError(f"Person {self.id}: name must be non-empty")


@dataclass(frozen=True)
class Organization:
    id: str
    name: str
    classification: Optional[str] = None  # concept id
    parent: Optional[str] = None  # parent organization id

    def __post_init__(self):
        check_entity_id(self.id, "Organization")
        if self.classification is not None:
            check_entity_id(self.classification, "Organization.classification")
        if self.parent is not None:
            check_entity_id(self.parent, "Organization.parent")


@dataclass(frozen=True)
class Group:
    id: str
    name: str
    members: frozenset = frozenset()  # person ids

    def __post_init__(self):
        check_entity_id(self.id, "Group")
        object.__setattr__(
            self, "members", frozenset(check_entity_id(m, "Group.members") for m in self.members)
        )


@dataclass(frozen=True)
class Post:
    """A position within an organization; ``exclusive`` posts hold at most
    one person at any moment."""

    id: str
    organization: str
    role: str  # concept id
    interval: TimeInterval = TimeInterval()
    exclusive: bool = True

    def __post_init__(self):
        check_entity_id(self.id, "Post")
        check_entity_id(self.organization, "Post.organization")
        check_entity_id(self.role, "Post.role")


@dataclass(frozen=True)
class Membership:
    """The reified, time-qualified fact that a person occupies a post; the
    only way a person relates to an organization."""

    id: str
    person: str
    post: str
    interval: TimeInterval = TimeInterval()

    def __post_init__(self):
        check_entity_id(self.id, "Membership")
        check_entity_id(self.person, "Membership.person")
        check_entity_id(self.post, "Membership.post")


@dataclass(frozen=True)
class DirectRel:
    """A direct person-to-person relation qualified by a relation concept
    (family ties and similar)."""

    id: str
    subject: str
    object: str
    relation: str  # concept id
    interval: Optional[TimeInterval] = None

    def __post_init__(self):
        check_entity_id(self.id, "DirectRel")
        check_entity_id(self.subject, "DirectRel.subject")
        check_entity_id(self.object, "DirectRel.object")
        check_entity_id(self.relation, "DirectRel.relation")
        if self.subject == self.object:
            raise InvariantError(f"DirectRel {self.id}: relates {self.subject} to itself")
        # an interval with no bounds carries no information; canonicalize to None
        if self.interval is not None and self.interval == TimeInterval():
            object.__setattr__(self, "interval", None)


@dataclass(frozen=True)
class Referral:
    """Some agent nominated a person to occupy a post."""

    id: str
    referrer: str  # agent id
    referred: str  # person id
    post: str
    date: Optional[date] = None

    def __post_init__(self):
        check_entity_id(self.id, "Referral")
        check_entity_id(self.referrer, "Referral.referrer")
        check_entity_id(self.referred, "Referral.referred")
        check_entity_id(self.post, "Referral.post")
        _check_date(self.date, "Referral.date", optional=True)


@dataclass(frozen=True)
class Proposition:
    id: str
    creators: tuple  # person ids, stored sorted
    title: Optional[str] = None

    def __post_init__(self):
        check_entity_id(self.id, "Proposition")
        if not self.creators:
            raise InvariantError(f"Proposition {self.id}: needs at least one creator")
        object.__setattr__(self, "creators", _sorted_ids(self.creators, "Proposition.creators"))


@dataclass(frozen=True)
class Law:
    id: str
    proposition: str
    enacted: date

    def __post_init__(self):
        check_entity_id(self.id, "Law")
        check_entity_id(self.proposition, "Law.proposition")
        _check_date(self.enacted, "Law.enacted")


@dataclass(frozen=True)
class Session:
    id: str
    date: date

    def __post_init__(self):
        check_entity_id(self.id, "Session")
        _check_date(self.date, "Session.date")


@dataclass(frozen=True)
class VoteEvent:
    """One voting round within a session, deciding a disposition of a
    proposition."""

    id: str
    session: str
    proposition: str
    disposition: str  # concept id
    start: date

    def __post_init__(self):
        check_entity_id(self.id, "VoteEvent")
        check_entity_id(self.session, "VoteEvent.session")
        check_entity_id(self.proposition, "VoteEvent.proposition")
        check_entity_id(self.disposition, "VoteEvent.disposition")
        _check_date(self.start, "VoteEvent.start")


@dataclass(frozen=True)
class Voter:
    """A person in their voting role, preserving the party affiliation the
    data source recorded for them."""

    id: str
    person: str
    party: str  # organization id

    def __post_init__(self):
        check_entity_id(self.id, "Voter")
        check_entity_id(self.person, "Voter.person")
        check_entity_id(self.party, "Voter.party")


@dataclass(frozen=True)
class Vote:
    id: str
    vote_event: str
    voter: str
    value: str  # concept id

    def __post_init__(self):
        check_entity_id(self.id, "Vote")
        check_entity_id(self.vote_event, "Vote.vote_event")
        check_entity_id(self.voter, "Vote.voter")
        check_entity_id(self.value, "Vote.value")


@dataclass(frozen=True)
class Recommendation:
    id: str
    issuer: str  # group id
    vote_event: str
    recommended: str  # concept id

    def __post_init__(self):
        check_entity_id(self.id, "Recommendation")
        check_entity_id(self.issuer, "Recommendation.issuer")
        check_entity_id(self.vote_event, "Recommendation.vote_event")
        check_entity_id(self.recommended, "Recommendation.recommended")


@dataclass(frozen=True)
class Election:
    id: str
    date: date
    posts: frozenset  # post ids

    def __post_init__(self):
        check_entity_id(self.id, "Election")
        _check_date(self.date, "Election.date")
        if not self.posts:
            raise InvariantError(f"Election {self.id}: defines no posts")
        object.__setattr__(
            self, "posts", frozenset(check_entity_id(p, "Election.posts") for p in self.posts)
        )


@dataclass(frozen=True)
class Candidacy:
    id: str
    person: str
    election: str
    post: str
    campaign_report: Optional[str] = None
    property_report: Optional[str] = None

    def __post_init__(self):
        check_entity_id(self.id, "Candidacy")
        check_entity_id(self.person, "Candidacy.person")
        check_entity_id(self.election, "Candidacy.election")
        check_entity_id(self.post, "Candidacy.post")
        if self.campaign_report is not None:
            check_entity_id(self.campaign_report, "Candidacy.campaign_report")
        if self.property_report is not None:
            check_entity_id(self.property_report, "Candidacy.property_report")


@dataclass(frozen=True)
class TransactionObject:
    id: str
    kind: str  # "product" or "service"
    description: str = ""

    def __post_init__(self):
        check_entity_id(self.id, "TransactionObject")
        if self.kind not in ("product", "service"):
            raise InvariantError(f"TransactionObject {self.id}: kind must be product or service")


@dataclass(frozen=True)
class Participation:
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


@dataclass(frozen=True)
class Transaction:
    """An exchange between two or more agents, each in a role, over an
    object, for an amount."""

    id: str
    participants: tuple  # Participation values, stored sorted
    object: str
    amount: Decimal
    currency: str
    date: date

    def __post_init__(self):
        check_entity_id(self.id, "Transaction")
        check_entity_id(self.object, "Transaction.object")
        parts = _norm_participants(self.participants)
        if len({p.agent for p in parts}) < 2:
            raise InvariantError(f"Transaction {self.id}: needs at least two distinct agents")
        object.__setattr__(self, "participants", parts)
        amount = _check_decimal(self.amount, f"Transaction {self.id}")
        if amount < 0:
            raise InvariantError(f"Transaction {self.id}: negative amount {amount}")
        object.__setattr__(self, "amount", amount)
        if not _CURRENCY_RE.match(self.currency):
            raise InvariantError(f"Transaction {self.id}: bad currency code {self.currency!r}")
        _check_date(self.date, f"Transaction {self.id}.date")


@dataclass(frozen=True)
class CampaignReport:
    id: str
    candidacy: str
    transactions: tuple = ()  # transaction ids, stored sorted

    def __post_init__(self):
        check_entity_id(self.id, "CampaignReport")
        check_entity_id(self.candidacy, "CampaignReport.candidacy")
        if self.transactions:
            object.__setattr__(
                self, "transactions", _sorted_ids(self.transactions, "CampaignReport.transactions")
            )
        else:
            object.__setattr__(self, "transactions", ())


@dataclass(frozen=True)
class Asset:
    id: str
    owner: str  # person id
    description: str = ""
    value: Optional[Decimal] = None
    acquired_via: Optional[str] = None  # transaction-object id

    def __post_init__(self):
        check_entity_id(self.id, "Asset")
        check_entity_id(self.owner, "Asset.owner")
        object.__setattr__(self, "value", _check_decimal(self.value, f"Asset {self.id}", optional=True))
        if self.acquired_via is not None:
            check_entity_id(self.acquired_via, "Asset.acquired_via")


@dataclass(frozen=True)
class PropertyReport:
    id: str
    candidacy: str
    assets: tuple = ()  # asset ids, stored sorted

    def __post_init__(self):
        check_entity_id(self.id, "PropertyReport")
        check_entity_id(self.candidacy, "PropertyReport.candidacy")
        if self.assets:
            object.__setattr__(self, "assets", _sorted_ids(self.assets, "PropertyReport.assets"))
        else:
            object.__setattr__(self, "assets", ())


@dataclass(frozen=True)
class LegalCase:
    id: str
    participants: tuple  # Participation values, stored sorted
    interval: Optional[TimeInterval] = None

    def __post_init__(self):
        check_entity_id(self.id, "LegalCase")
        parts = _norm_participants(self.participants)
        if not parts:
            raise InvariantError(f"LegalCase {self.id}: needs at least one participant")
        object.__setattr__(self, "participants", parts)
        if self.interval is not None and self.interval == TimeInterval():
            object.__setattr__(self, "interval", None)


AGENT_CLASSES = (Person, Organization, Group)

ENTITY_CLASSES = (
    Person,
    Organization,
    Group,
    Post,
    Membership,
    DirectRel,
    Referral,
    Proposition,
    Law,
    Session,
    VoteEvent,
    Voter,
    Vote,
    Recommendation,
    Election,
    Candidacy,
    TransactionObject,
    Transaction,
    CampaignReport,
    Asset,
    PropertyReport,
    LegalCase,
)

Agent = Union[Person, Organization, Group]
Entity = Union[ENTITY_CLASSES]


def iter_references(e) -> Iterator[tuple]:
    """Yield (field, referenced id, allowed target classes) for every
    entity reference the value carries."""
    if isinstance(e, Organization):
        if e.parent is not None:
            yield ("parent", e.parent, (Organization,))
    elif isinstance(e, Group):
        for m in sorted(e.members):
            yield ("members", m, (Person,))
    elif isinstance(e, Post):
        yield ("organization", e.organization, (Organization,))
    elif isinstance(e, Membership):
        yield ("person", e.person, (Person,))
        yield ("post", e.post, (Post,))
    elif isinstance(e, DirectRel):
        yield ("subject", e.subject, (Person,))
        yield ("object", e.object, (Person,))
    elif isinstance(e, Referral):
        yield ("referrer", e.referrer, AGENT_CLASSES)
        yield ("referred", e.referred, (Person,))
        yield ("post", e.post, (Post,))
    elif isinstance(e, Proposition):
        for c in e.creators:
            yield ("creators", c, (Person,))
    elif isinstance(e, Law):
        yield ("proposition", e.proposition, (Proposition,))
    elif isinstance(e, VoteEvent):
        yield ("session", e.session, (Session,))
        yield ("proposition", e.proposition, (Proposition,))
    elif isinstance(e, Voter):
        yield ("person", e.person, (Person,))
        yield ("party", e.party, (Organization,))
    elif isinstance(e, Vote):
        yield ("vote_event", e.vote_event, (VoteEvent,))
        yield ("voter", e.voter, (Voter,))
    elif isinstance(e, Recommendation):
        yield ("issuer", e.issuer, (Group,))
        yield ("vote_event", e.vote_event, (VoteEvent,))
    elif isinstance(e, Election):
        for p in sorted(e.posts):
            yield ("posts", p, (Post,))
    elif isinstance(e, Candidacy):
        yield ("person", e.person, (Person,))
        yield ("election", e.election, (Election,))
        yield ("post", e.post, (Post,))
        if e.campaign_report is not None:
            yield ("campaign_report", e.campaign_report, (CampaignReport,))
        if e.property_report is not None:
            yield ("property_report", e.property_report, (PropertyReport,))
    elif isinstance(e, Transaction):
        for p in e.participants:
            yield ("participants", p.agent, AGENT_CLASSES)
        yield ("object", e.object, (TransactionObject,))
    elif isinstance(e, CampaignReport):
        yield ("candidacy", e.candidacy, (Candidacy,))
        for t in e.transactions:
            yield ("transactions", t, (Transaction,))
    elif isinstance(e, Asset):
        yield ("owner", e.owner, (Person,))
        if e.acquired_via is not None:
            yield ("acquired_via", e.acquired_via, (TransactionObject,))
    elif isinstance(e, PropertyReport):
        yield ("candidacy", e.candidacy, (Candidacy,))
        for a in e.assets:
            yield ("assets", a, (Asset,))
    elif isinstance(e, LegalCase):
        for p in e.participants:
            yield ("participants", p.agent, AGENT_CLASSES)


#: field keys the scheme-binding table may constrain
BINDING_KEYS = frozenset(
    {
        "Organization.classification",
        "Post.role",
        "DirectRel.relation",
        "VoteEvent.disposition",
        "Vote.value",
        "Recommendation.recommended",
        "Transaction.role",
        "LegalCase.role",
    }
)


def iter_concept_refs(e) -> Iterator[tuple]:
    """Yield (binding key, concept id) for every concept-valued field, using
    the same keys the scheme-binding table uses."""
    if isinstance(e, Organization):
        if e.classification is not None:
            yield ("Organization.classification", e.classification)
    elif isinstance(e, Post):
        yield ("Post.role", e.role)
    elif isinstance(e, DirectRel):
        yield ("DirectRel.relation", e.relation)
    elif isinstance(e, VoteEvent):
        yield ("VoteEvent.disposition", e.disposition)
    elif isinstance(e, Vote):
        yield ("Vote.value", e.value)
    elif isinstance(e, Recommendation):
        yield ("Recommendation.recommended", e.recommended)
    elif isinstance(e, Transaction):
        for p in e.participants:
            yield ("Transaction.role", p.role)
    elif isinstance(e, LegalCase):
        for p in e.participants:
            yield ("LegalCase.role", p.role)


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

    def resolve_concept(self, scheme_id: str, concept_id: str) -> Concept:
        """Exact lookup of a concept inside a registered scheme."""
        if scheme_id not in self._schemes:
            raise UnknownSchemeError(f"scheme {scheme_id} not registered")
        return self._schemes[scheme_id].concept(concept_id)

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

    def remove(self, eid: str) -> None:
        """Remove an entity; refused while anything still references it."""
        if eid not in self._entities:
            raise DanglingReferenceError(f"no entity {eid} to remove")
        for other in self._entities.values():
            if other.id == eid:
                continue
            for fld, ref, _ in iter_references(other):
                if ref == eid:
                    raise InvariantError(
                        f"cannot remove {eid}: referenced by {other.id} field {fld}"
                    )
        del self._entities[eid]

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

    def copy(self) -> "EntityGraph":
        g = EntityGraph()
        g._entities = dict(self._entities)
        g._schemes = dict(self._schemes)
        g._concepts = dict(self._concepts)
        g._bindings = dict(self._bindings)
        g.residue = self.residue
        return g

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
