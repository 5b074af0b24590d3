"""Golden output of the entity field table: the references and concept
values every entity class yields, the binding keys, and a guard that no
entity field escapes the table."""

from datetime import date
from decimal import Decimal

import pytest

from polare.model import (
    AGENT_CLASSES,
    BINDING_KEYS,
    ENTITY_CLASSES,
    TYPE_SPECS,
    Asset,
    CampaignReport,
    Candidacy,
    DirectRel,
    Election,
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
    iter_concept_refs,
    iter_references,
)

D = date(2020, 1, 1)
IV = TimeInterval(D, date(2020, 12, 31))
PARTS = (Participation("x:b", "x:seller"), Participation("x:a", "x:buyer"))

# (entity, list(iter_references(e)), list(iter_concept_refs(e)))
GOLDEN = [
    (Person("x:p", "P"), [], []),
    (Organization("x:o", "O"), [], []),
    (
        Organization("x:o", "O", "x:party", "x:root"),
        [("parent", "x:root", (Organization,))],
        [("Organization.classification", "x:party")],
    ),
    (Group("x:g", "G"), [], []),
    (
        Group("x:g", "G", frozenset({"x:p2", "x:p1"})),
        [("members", "x:p1", (Person,)), ("members", "x:p2", (Person,))],
        [],
    ),
    (
        Post("x:s", "x:o", "x:seat", IV, exclusive=False),
        [("organization", "x:o", (Organization,))],
        [("Post.role", "x:seat")],
    ),
    (
        Membership("x:m", "x:p", "x:s", IV),
        [("person", "x:p", (Person,)), ("post", "x:s", (Post,))],
        [],
    ),
    (
        DirectRel("x:r", "x:p1", "x:p2", "x:sibling"),
        [("subject", "x:p1", (Person,)), ("object", "x:p2", (Person,))],
        [("DirectRel.relation", "x:sibling")],
    ),
    (
        DirectRel("x:r", "x:p1", "x:p2", "x:sibling", IV),
        [("subject", "x:p1", (Person,)), ("object", "x:p2", (Person,))],
        [("DirectRel.relation", "x:sibling")],
    ),
    (
        Referral("x:ref", "x:o", "x:p", "x:s"),
        [("referrer", "x:o", AGENT_CLASSES), ("referred", "x:p", (Person,)), ("post", "x:s", (Post,))],
        [],
    ),
    (
        Referral("x:ref", "x:g", "x:p", "x:s", D),
        [("referrer", "x:g", AGENT_CLASSES), ("referred", "x:p", (Person,)), ("post", "x:s", (Post,))],
        [],
    ),
    (
        Proposition("x:pr", ("x:p2", "x:p1")),
        [("creators", "x:p1", (Person,)), ("creators", "x:p2", (Person,))],
        [],
    ),
    (Proposition("x:pr", ("x:p1",), "Title"), [("creators", "x:p1", (Person,))], []),
    (Law("x:l", "x:pr", D), [("proposition", "x:pr", (Proposition,))], []),
    (Session("x:se", D), [], []),
    (
        VoteEvent("x:ve", "x:se", "x:pr", "x:approve", D),
        [("session", "x:se", (Session,)), ("proposition", "x:pr", (Proposition,))],
        [("VoteEvent.disposition", "x:approve")],
    ),
    (
        Voter("x:vr", "x:p", "x:o"),
        [("person", "x:p", (Person,)), ("party", "x:o", (Organization,))],
        [],
    ),
    (
        Vote("x:v", "x:ve", "x:vr", "x:yes"),
        [("vote_event", "x:ve", (VoteEvent,)), ("voter", "x:vr", (Voter,))],
        [("Vote.value", "x:yes")],
    ),
    (
        Recommendation("x:rec", "x:g", "x:ve", "x:yes"),
        [("issuer", "x:g", (Group,)), ("vote_event", "x:ve", (VoteEvent,))],
        [("Recommendation.recommended", "x:yes")],
    ),
    (
        Election("x:el", D, frozenset({"x:s2", "x:s1"})),
        [("posts", "x:s1", (Post,)), ("posts", "x:s2", (Post,))],
        [],
    ),
    (
        Candidacy("x:c", "x:p", "x:el", "x:s"),
        [("person", "x:p", (Person,)), ("election", "x:el", (Election,)), ("post", "x:s", (Post,))],
        [],
    ),
    (
        Candidacy("x:c", "x:p", "x:el", "x:s", "x:cr", "x:prr"),
        [
            ("person", "x:p", (Person,)),
            ("election", "x:el", (Election,)),
            ("post", "x:s", (Post,)),
            ("campaign_report", "x:cr", (CampaignReport,)),
            ("property_report", "x:prr", (PropertyReport,)),
        ],
        [],
    ),
    (TransactionObject("x:to", "product"), [], []),
    (TransactionObject("x:to", "service", "consulting"), [], []),
    (
        Transaction("x:t", PARTS, "x:to", Decimal("10.50"), "BRL", D),
        [
            ("participants", "x:a", AGENT_CLASSES),
            ("participants", "x:b", AGENT_CLASSES),
            ("object", "x:to", (TransactionObject,)),
        ],
        [("Transaction.role", "x:buyer"), ("Transaction.role", "x:seller")],
    ),
    (CampaignReport("x:cr", "x:c"), [("candidacy", "x:c", (Candidacy,))], []),
    (
        CampaignReport("x:cr", "x:c", ("x:t2", "x:t1")),
        [
            ("candidacy", "x:c", (Candidacy,)),
            ("transactions", "x:t1", (Transaction,)),
            ("transactions", "x:t2", (Transaction,)),
        ],
        [],
    ),
    (Asset("x:as", "x:p"), [("owner", "x:p", (Person,))], []),
    (
        Asset("x:as", "x:p", "flat", Decimal("12.30"), "x:to"),
        [("owner", "x:p", (Person,)), ("acquired_via", "x:to", (TransactionObject,))],
        [],
    ),
    (PropertyReport("x:prr", "x:c"), [("candidacy", "x:c", (Candidacy,))], []),
    (
        PropertyReport("x:prr", "x:c", ("x:as2", "x:as1")),
        [
            ("candidacy", "x:c", (Candidacy,)),
            ("assets", "x:as1", (Asset,)),
            ("assets", "x:as2", (Asset,)),
        ],
        [],
    ),
    (
        LegalCase("x:lc", PARTS),
        [("participants", "x:a", AGENT_CLASSES), ("participants", "x:b", AGENT_CLASSES)],
        [("LegalCase.role", "x:buyer"), ("LegalCase.role", "x:seller")],
    ),
    (
        LegalCase("x:lc", PARTS[1:], IV),
        [("participants", "x:a", AGENT_CLASSES)],
        [("LegalCase.role", "x:buyer")],
    ),
]


def test_golden_covers_every_entity_class():
    assert {type(e) for e, _, _ in GOLDEN} == set(ENTITY_CLASSES)


@pytest.mark.parametrize(
    "entity, refs, concepts",
    GOLDEN,
    ids=[f"{type(e).__name__}-{i}" for i, (e, _, _) in enumerate(GOLDEN)],
)
def test_references_and_concepts_are_pinned(entity, refs, concepts):
    assert list(iter_references(entity)) == refs
    assert list(iter_concept_refs(entity)) == concepts


def test_binding_keys_are_pinned():
    assert BINDING_KEYS == frozenset(
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


def test_every_entity_field_is_in_the_table():
    """A field added to an entity class without a table entry would be
    skipped by the id checks, the reference walk and the wire mapping."""
    specs = {s.cls: s for s in TYPE_SPECS}
    assert set(specs) == set(ENTITY_CLASSES)
    for cls in ENTITY_CLASSES:
        spec = specs[cls]
        covered = {"id"} | {f.attr for f in spec.fields}
        if spec.interval_attr is not None:
            covered.add(spec.interval_attr)
        if spec.participants:
            covered.add("participants")
        if cls is TransactionObject:
            covered.add("kind")
        assert set(cls._fields) == covered, cls.__name__
