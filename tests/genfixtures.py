"""Seeded random fixture builders shared across the test suite.

All randomness flows through a caller-provided ``random.Random`` so every
test run sees identical fixtures.  Generators build inputs only; expected
outcomes come from tests/oracles.py.
"""

from __future__ import annotations

import random
from datetime import date, timedelta
from decimal import Decimal

from polare.inference import RelationEdge, RelationGraph
from polare.model import (
    Asset,
    CampaignReport,
    Candidacy,
    Concept,
    ConceptScheme,
    DirectRel,
    Election,
    EntityGraph,
    Group,
    Law,
    LegalCase,
    Membership,
    Organization,
    Participation,
    Person,
    Post,
    PropertyReport,
    Proposition,
    Recommendation,
    Referral,
    Session,
    TimeInterval,
    Transaction,
    TransactionObject,
    Vote,
    VoteEvent,
    Voter,
)

NS = "http://t.pol/"


def _scheme(name: str, entries) -> ConceptScheme:
    sid = NS + "scheme/" + name
    return ConceptScheme(
        sid,
        tuple(
            Concept(sid + "/" + cid, sid, label, symmetric=symmetric)
            for cid, label, symmetric in entries
        ),
    )


FAMILY_SCHEME = _scheme(
    "family",
    (
        ("parentOf", "parent of", False),
        ("siblingOf", "sibling of", True),
        ("cohabitates", "co-habitates", True),
        ("marriedTo", "married to", True),
    ),
)
ROLE_SCHEME = _scheme(
    "roles",
    (
        ("mayor", "Mayor", False),
        ("deputy", "Deputy", False),
        ("senator", "Senator", False),
        ("treasurer", "Treasurer", False),
        ("director", "Director", False),
    ),
)
DISPOSITION_SCHEME = _scheme(
    "dispositions",
    (
        ("substitution", "substitution", False),
        ("amendment", "amendment", False),
        ("approval", "approval", False),
    ),
)
VOTE_SCHEME = _scheme(
    "votes",
    (("yes", "yes", False), ("no", "no", False), ("abstain", "abstain", False)),
)
TX_ROLE_SCHEME = _scheme(
    "txroles",
    (("seller", "seller", False), ("buyer", "buyer", False), ("guarantor", "guarantor", False)),
)
LEGAL_ROLE_SCHEME = _scheme(
    "legalroles",
    (
        ("plaintiff", "plaintiff", False),
        ("defendant", "defendant", False),
        ("judge", "judge", False),
        ("attorney", "attorney", False),
    ),
)
CLASS_SCHEME = _scheme(
    "classifications",
    (
        ("party", "political party", False),
        ("company", "company", False),
        ("publicBody", "public body", False),
    ),
)

ALL_SCHEMES = (
    FAMILY_SCHEME,
    ROLE_SCHEME,
    DISPOSITION_SCHEME,
    VOTE_SCHEME,
    TX_ROLE_SCHEME,
    LEGAL_ROLE_SCHEME,
    CLASS_SCHEME,
)

BINDINGS = {
    "Organization.classification": CLASS_SCHEME.id,
    "Post.role": ROLE_SCHEME.id,
    "DirectRel.relation": FAMILY_SCHEME.id,
    "VoteEvent.disposition": DISPOSITION_SCHEME.id,
    "Vote.value": VOTE_SCHEME.id,
    "Recommendation.recommended": VOTE_SCHEME.id,
    "Transaction.role": TX_ROLE_SCHEME.id,
    "LegalCase.role": LEGAL_ROLE_SCHEME.id,
}

PARTY = CLASS_SCHEME.id + "/party"


def concept_ids(scheme: ConceptScheme) -> list:
    return [c.id for c in scheme.concepts]


def new_graph() -> EntityGraph:
    return EntityGraph(ALL_SCHEMES, BINDINGS)


def rand_date(rng: random.Random, lo=date(2014, 1, 1), span=2500) -> date:
    return lo + timedelta(days=rng.randrange(span))


def rand_interval(rng: random.Random, lo=date(2014, 1, 1), span=2500) -> TimeInterval:
    a = rand_date(rng, lo, span)
    b = a + timedelta(days=rng.randrange(1200))
    roll = rng.random()
    if roll < 0.15:
        return TimeInterval(a, None)
    if roll < 0.25:
        return TimeInterval(None, b)
    if roll < 0.30:
        return TimeInterval()
    return TimeInterval(a, b)


class _Ids:
    def __init__(self):
        self.counts = {}

    def new(self, kind: str) -> str:
        i = self.counts.get(kind, 0)
        self.counts[kind] = i + 1
        return f"{NS}{kind}/{i}"


def random_entity_graph(rng: random.Random, max_entities: int = 200) -> EntityGraph:
    """A referentially closed random graph touching every entity type."""
    target = rng.randint(8, max_entities)
    ids = _Ids()
    ents = []

    def mk(entity):
        ents.append(entity)
        return entity.id

    orgs = [
        mk(
            Organization(
                ids.new("org"),
                f"Org {i}",
                classification=rng.choice([None] + concept_ids(CLASS_SCHEME)),
            )
        )
        for i in range(max(1, target // 14))
    ]
    if len(orgs) >= 3 and rng.random() < 0.5:
        child = Organization(ids.new("org"), "Unit", parent=orgs[0])
        orgs.append(mk(child))
    persons = [mk(Person(ids.new("person"), f"P {i}")) for i in range(max(2, target // 4))]
    posts = [
        mk(
            Post(
                ids.new("post"),
                rng.choice(orgs),
                rng.choice(concept_ids(ROLE_SCHEME)),
                rand_interval(rng),
                exclusive=rng.random() < 0.7,
            )
        )
        for _ in range(max(1, target // 8))
    ]
    for _ in range(max(1, target // 6)):
        mk(Membership(ids.new("m"), rng.choice(persons), rng.choice(posts), rand_interval(rng)))

    sessions = []
    events = []
    voters = []
    propositions = []
    elections = []
    candidacies = []
    objects = []
    transactions = []
    assets = []

    groups = []

    def extra(kind: str) -> None:
        if kind == "group":
            members = frozenset(rng.sample(persons, k=min(len(persons), rng.randint(0, 3))))
            groups.append(mk(Group(ids.new("group"), "G", members)))
        elif kind == "rel":
            a, b = rng.sample(persons, k=2)
            interval = rand_interval(rng) if rng.random() < 0.4 else None
            mk(DirectRel(ids.new("rel"), a, b, rng.choice(concept_ids(FAMILY_SCHEME)), interval))
        elif kind == "referral":
            a, b = rng.sample(persons, k=2)
            d = rand_date(rng) if rng.random() < 0.7 else None
            mk(Referral(ids.new("ref"), a, b, rng.choice(posts), d))
        elif kind == "proposition":
            creators = tuple(rng.sample(persons, k=rng.randint(1, min(3, len(persons)))))
            title = "T" if rng.random() < 0.5 else None
            propositions.append(mk(Proposition(ids.new("prop"), creators, title)))
        elif kind == "law" and propositions:
            mk(Law(ids.new("law"), rng.choice(propositions), rand_date(rng)))
        elif kind == "session":
            sessions.append(mk(Session(ids.new("session"), rand_date(rng))))
        elif kind == "event" and sessions and propositions:
            events.append(
                mk(
                    VoteEvent(
                        ids.new("event"),
                        rng.choice(sessions),
                        rng.choice(propositions),
                        rng.choice(concept_ids(DISPOSITION_SCHEME)),
                        rand_date(rng),
                    )
                )
            )
        elif kind == "voter":
            voters.append(mk(Voter(ids.new("voter"), rng.choice(persons), rng.choice(orgs))))
        elif kind == "vote" and voters and events:
            mk(
                Vote(
                    ids.new("vote"),
                    rng.choice(events),
                    rng.choice(voters),
                    rng.choice(concept_ids(VOTE_SCHEME)),
                )
            )
        elif kind == "recommendation" and events and groups:
            mk(
                Recommendation(
                    ids.new("rec"),
                    rng.choice(groups),
                    rng.choice(events),
                    rng.choice(concept_ids(VOTE_SCHEME)),
                )
            )
        elif kind == "election":
            chosen = frozenset(rng.sample(posts, k=rng.randint(1, min(3, len(posts)))))
            elections.append(mk(Election(ids.new("election"), rand_date(rng), chosen)))
        elif kind == "candidacy" and elections:
            eid = rng.choice(elections)
            election = next(e for e in ents if e.id == eid)
            candidacies.append(
                mk(
                    Candidacy(
                        ids.new("cand"),
                        rng.choice(persons),
                        election.id,
                        rng.choice(sorted(election.posts)),
                    )
                )
            )
        elif kind == "object":
            objects.append(
                mk(
                    TransactionObject(
                        ids.new("obj"),
                        rng.choice(("product", "service")),
                        rng.choice(("", "thing", 'said "x"\nline')),
                    )
                )
            )
        elif kind == "transaction" and objects:
            k = rng.randint(2, min(4, len(persons) + len(orgs)))
            agents = rng.sample(persons + orgs, k=k)
            parts = tuple(
                Participation(a, rng.choice(concept_ids(TX_ROLE_SCHEME))) for a in agents
            )
            transactions.append(
                mk(
                    Transaction(
                        ids.new("tx"),
                        parts,
                        rng.choice(objects),
                        Decimal(rng.randint(0, 10_000_000)) / 100,
                        rng.choice(("BRL", "USD", "EUR")),
                        rand_date(rng),
                    )
                )
            )
        elif kind == "campaign_report" and candidacies and transactions:
            txs = tuple(rng.sample(transactions, k=rng.randint(0, min(2, len(transactions)))))
            mk(CampaignReport(ids.new("camprep"), rng.choice(candidacies), txs))
        elif kind == "asset":
            via = rng.choice(objects) if objects and rng.random() < 0.5 else None
            value = Decimal(rng.randint(0, 900_000)) / 100 if rng.random() < 0.7 else None
            assets.append(
                mk(Asset(ids.new("asset"), rng.choice(persons), "house", value, via))
            )
        elif kind == "property_report" and candidacies:
            chosen = tuple(rng.sample(assets, k=rng.randint(0, min(3, len(assets)))))
            mk(PropertyReport(ids.new("proprep"), rng.choice(candidacies), chosen))
        elif kind == "case":
            k = rng.randint(1, min(4, len(persons) + len(orgs)))
            agents = rng.sample(persons + orgs, k=k)
            parts = tuple(
                Participation(a, rng.choice(concept_ids(LEGAL_ROLE_SCHEME))) for a in agents
            )
            interval = rand_interval(rng) if rng.random() < 0.5 else None
            mk(LegalCase(ids.new("case"), parts, interval))

    kinds = (
        "group",
        "rel",
        "referral",
        "proposition",
        "law",
        "session",
        "event",
        "voter",
        "vote",
        "recommendation",
        "election",
        "candidacy",
        "object",
        "transaction",
        "campaign_report",
        "asset",
        "property_report",
        "case",
    )
    while len(ents) < target:
        extra(rng.choice(kinds))

    graph = new_graph()
    graph.add_all(ents)
    return graph


def random_occupancy_fixture(rng: random.Random):
    """(graph, posts oracle dict, memberships oracle list) for exclusivity."""
    graph = new_graph()
    ents = []
    n_orgs = rng.randint(1, 2)
    orgs = [Organization(f"{NS}org/{i}", f"O{i}") for i in range(n_orgs)]
    ents.extend(orgs)
    persons = [Person(f"{NS}person/{i}", f"P{i}") for i in range(rng.randint(2, 6))]
    ents.extend(persons)
    posts = {}
    for i in range(rng.randint(1, 4)):
        exclusive = rng.random() < 0.7
        post = Post(
            f"{NS}post/{i}",
            rng.choice(orgs).id,
            rng.choice(concept_ids(ROLE_SCHEME)),
            exclusive=exclusive,
        )
        ents.append(post)
        posts[post.id] = {"exclusive": exclusive}
    memberships = []
    for i in range(rng.randint(1, 8)):
        start = rand_date(rng, date(2015, 1, 1), 900)
        end = start + timedelta(days=rng.randrange(400))
        roll = rng.random()
        interval = (
            TimeInterval(start, None)
            if roll < 0.1
            else TimeInterval(None, end)
            if roll < 0.15
            else TimeInterval(start, end)
        )
        m = Membership(
            f"{NS}m/{i}", rng.choice(persons).id, rng.choice(sorted(posts)), interval
        )
        ents.append(m)
        memberships.append(
            {
                "id": m.id,
                "person": m.person,
                "post": m.post,
                "start": interval.start,
                "end": interval.end,
            }
        )
    graph.add_all(ents)
    return graph, posts, memberships


def random_party_memberships(rng: random.Random, n_parties: int = 4):
    """(graph, person id, oracle membership dicts) for affiliation checks.

    Every post belongs to a party-classified organization except a decoy
    company; memberships may overlap to exercise the ambiguity rule.
    """
    graph = new_graph()
    ents = []
    parties = []
    for i in range(n_parties):
        org = Organization(f"{NS}party/{i}", f"Party {i}", classification=PARTY)
        ents.append(org)
        parties.append(org)
    company = Organization(f"{NS}co/0", "Comp", classification=CLASS_SCHEME.id + "/company")
    ents.append(company)
    person = Person(f"{NS}person/0", "X")
    ents.append(person)
    posts = []
    for i, org in enumerate(parties + [company]):
        post = Post(f"{NS}post/{i}", org.id, ROLE_SCHEME.id + "/deputy", exclusive=False)
        ents.append(post)
        posts.append((post, org))
    oracle = []
    for i in range(rng.randint(1, 5)):
        post, org = rng.choice(posts)
        start = rand_date(rng, date(2014, 1, 1), 1500)
        end = start + timedelta(days=rng.randrange(900))
        roll = rng.random()
        if roll < 0.15:
            interval = TimeInterval(start, None)
        elif roll < 0.2:
            interval = TimeInterval()
        else:
            interval = TimeInterval(start, end)
        m = Membership(f"{NS}m/{i}", person.id, post.id, interval)
        ents.append(m)
        oracle.append(
            {
                "person": person.id,
                "org": org.id,
                "org_class": org.classification,
                "start": interval.start,
                "end": interval.end,
            }
        )
    graph.add_all(ents)
    return graph, person.id, oracle


_KIND_CHOICES = (
    ("family", True),
    ("family", False),
    ("co_membership", False),
    ("referral", True),
    ("co_transaction", False),
    ("co_case", False),
    ("candidacy_post", True),
)


def random_relation_graph(rng: random.Random, max_agents: int = 50, max_edges: int = 200):
    """(RelationGraph, plain edge dicts for the oracles)."""
    n_agents = rng.randint(2, max_agents)
    agents = [f"{NS}a/{i}" for i in range(n_agents)]
    rg = RelationGraph()
    plain = []
    n_edges = rng.randint(1, max_edges)
    for i in range(n_edges):
        a, b = rng.sample(agents, k=2)
        kind, directed = rng.choice(_KIND_CHOICES)
        edge = RelationEdge(
            a, b, kind, f"{NS}d/{i % 7}", (f"{NS}e/{i}",), directed=directed
        )
        if rg.add(edge):
            plain.append(
                {
                    "key": edge.key,
                    "a": edge.a,
                    "b": edge.b,
                    "kind": edge.kind,
                    "directed": edge.directed,
                }
            )
    return rg, plain
