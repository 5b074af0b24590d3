"""Regenerates everything under fixtures/ deterministically.

Run from the repository root:  python3 scripts/make_fixtures.py
The outputs are committed; tests read them and never regenerate.
"""

from __future__ import annotations

import json
import shutil
import sys
from datetime import date, datetime, timezone
from decimal import Decimal
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from polare.claims import Claim, write_claims  # noqa: E402
from polare.mapping import emit_entities  # noqa: E402
from polare.model import (  # noqa: E402
    Asset,
    CampaignReport,
    Candidacy,
    Concept,
    ConceptScheme,
    DirectRel,
    Election,
    EntityGraph,
    Group,
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
from polare.schemes import write_bindings, write_scheme  # noqa: E402

FX = "http://polare.org/fx/"
ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def scheme(name: str, entries) -> ConceptScheme:
    sid = FX + "scheme/" + name
    return ConceptScheme(
        sid,
        tuple(
            Concept(sid + "/" + cid, sid, label, symmetric=sym) for cid, label, sym in entries
        ),
    )


FAMILY = scheme(
    "family",
    (
        ("parentOf", "parentOf", False),
        ("siblingOf", "siblingOf", True),
        ("co-habitates", "co-habitates", True),
    ),
)
ROLES = scheme(
    "roles",
    (
        ("councillor", "councillor", False),
        ("mayor", "mayor", False),
        ("advisor", "advisor", False),
        ("member", "member", False),
    ),
)
DISPOSITIONS = scheme(
    "dispositions",
    (
        ("substitution", "substitution", False),
        ("amendment", "amendment", False),
        ("approval", "approval", False),
    ),
)
VOTES = scheme("votes", (("yes", "yes", False), ("no", "no", False), ("abstain", "abstain", False)))
TX_ROLES = scheme(
    "transaction-roles",
    (("seller", "seller", False), ("buyer", "buyer", False), ("guarantor", "guarantor", False)),
)
LEGAL_ROLES = scheme(
    "legal-roles",
    (
        ("plaintiff", "plaintiff", False),
        ("defendant", "defendant", False),
        ("judge", "judge", False),
        ("attorney", "attorney", False),
    ),
)
CLASSIFICATIONS = scheme(
    "classifications",
    (
        ("party", "political party", False),
        ("company", "company", False),
        ("public-body", "public body", False),
    ),
)

SCHEMES = (FAMILY, ROLES, DISPOSITIONS, VOTES, TX_ROLES, LEGAL_ROLES, CLASSIFICATIONS)
BINDINGS = {
    "Organization.classification": CLASSIFICATIONS.id,
    "Post.role": ROLES.id,
    "DirectRel.relation": FAMILY.id,
    "VoteEvent.disposition": DISPOSITIONS.id,
    "Vote.value": VOTES.id,
    "Recommendation.recommended": VOTES.id,
    "Transaction.role": TX_ROLES.id,
    "LegalCase.role": LEGAL_ROLES.id,
}


def c(scheme_obj: ConceptScheme, tail: str) -> str:
    return scheme_obj.id + "/" + tail


def write_store(path: Path, claims) -> None:
    if path.exists():
        shutil.rmtree(path)
    (path / "schemes").mkdir(parents=True)
    for s in SCHEMES:
        name = s.id.rsplit("/", 1)[-1] + ".json"
        write_scheme(s, path / "schemes" / name)
    write_bindings(BINDINGS, path / "bindings.json")
    write_claims(claims, path / "claims.jsonl")


def triples_of(entities) -> tuple:
    g = EntityGraph(SCHEMES, BINDINGS)
    # claims are split by asserter, so one claim may reference entities
    # asserted in another; the union of all three claims is closed
    g.add_all(list(entities), allow_dangling=True)
    return tuple(emit_entities(g))


def ts(day: str) -> datetime:
    return datetime.fromisoformat(day + "T12:00:00+00:00").astimezone(timezone.utc)


def clean_store() -> None:
    council = Organization(FX + "org/council", "City Council", c(CLASSIFICATIONS, "public-body"))
    party_a = Organization(FX + "org/party-a", "Party A", c(CLASSIFICATIONS, "party"))
    party_b = Organization(FX + "org/party-b", "Party B", c(CLASSIFICATIONS, "party"))
    comp = Organization(FX + "org/comp", "Comp Ltd", c(CLASSIFICATIONS, "company"))
    john = Person(FX + "person/john", "John Doe")
    mary = Person(FX + "person/mary", "Mary Roe")
    ana = Person(FX + "person/ana", "Ana Poe")
    seat1 = Post(
        FX + "post/seat1",
        council.id,
        c(ROLES, "councillor"),
        TimeInterval(date(2013, 1, 1), None),
    )
    advisor = Post(FX + "post/advisor", council.id, c(ROLES, "advisor"), exclusive=False)
    pa_seat = Post(FX + "post/pa-member", party_a.id, c(ROLES, "member"), exclusive=False)
    pb_seat = Post(FX + "post/pb-member", party_b.id, c(ROLES, "member"), exclusive=False)
    m_john_seat = Membership(
        FX + "m/john-seat1",
        john.id,
        seat1.id,
        TimeInterval(date(2015, 1, 1), date(2016, 12, 31)),
    )
    m_mary_seat = Membership(
        FX + "m/mary-seat1",
        mary.id,
        seat1.id,
        TimeInterval(date(2017, 1, 1), date(2018, 12, 31)),
    )
    m_john_pa = Membership(
        FX + "m/john-pa",
        john.id,
        pa_seat.id,
        TimeInterval(date(2014, 1, 1), date(2016, 6, 30)),
    )
    m_john_pb = Membership(
        FX + "m/john-pb", john.id, pb_seat.id, TimeInterval(date(2016, 7, 1), None)
    )
    m_ana_adv = Membership(
        FX + "m/ana-advisor", ana.id, advisor.id, TimeInterval(date(2015, 6, 1), None)
    )
    rel = DirectRel(FX + "rel/john-ana", john.id, ana.id, c(FAMILY, "parentOf"))
    referral = Referral(
        FX + "ref/john-ana", john.id, ana.id, advisor.id, date(2015, 5, 20)
    )
    allies = Group(FX + "group/allies", "Allies", frozenset({john.id, mary.id}))

    claim_base = Claim(
        FX + "agent/tribunal",
        "https://example.org/mandates-2015.csv",
        ts("2019-01-10"),
        triples_of(
            [
                council,
                party_a,
                party_b,
                comp,
                john,
                mary,
                ana,
                seat1,
                advisor,
                pa_seat,
                pb_seat,
                m_john_seat,
                m_mary_seat,
                m_john_pa,
                m_john_pb,
                m_ana_adv,
                rel,
                referral,
                allies,
            ]
        ),
    )

    session = Session(FX + "session/2015-03-10", date(2015, 3, 10))
    prop = Proposition(FX + "prop/42", (john.id,), "Traffic calming")
    event = VoteEvent(
        FX + "event/42-first",
        session.id,
        prop.id,
        c(DISPOSITIONS, "approval"),
        date(2015, 3, 10),
    )
    voter_john = Voter(FX + "voter/john", john.id, party_a.id)
    vote = Vote(FX + "vote/42-john", event.id, voter_john.id, c(VOTES, "yes"))
    bench_a = Group(FX + "group/bench-a", "Party A bench", frozenset({john.id}))
    rec = Recommendation(FX + "rec/pa-42", bench_a.id, event.id, c(VOTES, "yes"))
    # these claims reference entities asserted by the tribunal claim, so the
    # registry claim alone does not assemble into a closed graph; that is fine
    claim_votes = Claim(
        FX + "agent/registry",
        "https://example.org/votes-2015.json",
        ts("2019-02-01"),
        triples_of([session, prop, event, voter_john, vote, bench_a, rec])
        + triples_of([Person(john.id, "John Doe"), Organization(party_a.id, "Party A", c(CLASSIFICATIONS, "party"))]),
    )

    election = Election(FX + "election/2016", date(2016, 10, 2), frozenset({seat1.id}))
    cand = Candidacy(
        FX + "cand/mary-2016",
        mary.id,
        election.id,
        seat1.id,
        campaign_report=FX + "report/mary-2016",
        property_report=FX + "preport/mary-2016",
    )
    obj = TransactionObject(FX + "object/consulting", "service", "campaign consulting")
    tx = Transaction(
        FX + "tx/1001",
        (
            Participation(mary.id, c(TX_ROLES, "buyer")),
            Participation(comp.id, c(TX_ROLES, "seller")),
        ),
        obj.id,
        Decimal("1500.50"),
        "BRL",
        date(2016, 8, 1),
    )
    report = CampaignReport(FX + "report/mary-2016", cand.id, (tx.id,))
    asset = Asset(
        FX + "asset/mary-apt", mary.id, "apartment", Decimal("250000.00"), obj.id
    )
    preport = PropertyReport(FX + "preport/mary-2016", cand.id, (asset.id,))
    case = LegalCase(
        FX + "case/77",
        (
            Participation(ana.id, c(LEGAL_ROLES, "defendant")),
            Participation(comp.id, c(LEGAL_ROLES, "plaintiff")),
        ),
        TimeInterval(date(2018, 2, 1), date(2018, 11, 30)),
    )
    claim_election = Claim(
        FX + "agent/electoral-court",
        "https://example.org/election-2016.xml",
        ts("2019-03-15"),
        triples_of(
            [
                election,
                cand,
                obj,
                tx,
                report,
                asset,
                preport,
                case,
                Person(mary.id, "Mary Roe"),
                Person(ana.id, "Ana Poe"),
                Organization(comp.id, "Comp Ltd", c(CLASSIFICATIONS, "company")),
                Post(
                    seat1.id,
                    council.id,
                    c(ROLES, "councillor"),
                    TimeInterval(date(2013, 1, 1), None),
                ),
                Organization(council.id, "City Council", c(CLASSIFICATIONS, "public-body")),
            ]
        ),
    )

    write_store(FIXTURES / "clean_store", [claim_base, claim_votes, claim_election])


def overlap_store() -> None:
    council = Organization(FX + "org/council", "City Council", c(CLASSIFICATIONS, "public-body"))
    john = Person(FX + "person/john", "John Doe")
    mary = Person(FX + "person/mary", "Mary Roe")
    seat1 = Post(FX + "post/seat1", council.id, c(ROLES, "councillor"))
    m1 = Membership(
        FX + "m/john-seat1",
        john.id,
        seat1.id,
        TimeInterval(date(2015, 1, 1), date(2016, 12, 31)),
    )
    m2 = Membership(
        FX + "m/mary-seat1",
        mary.id,
        seat1.id,
        TimeInterval(date(2016, 6, 1), date(2017, 12, 31)),
    )
    claim = Claim(
        FX + "agent/tribunal",
        "https://example.org/mandates-dirty.csv",
        ts("2019-01-10"),
        triples_of([council, john, mary, seat1, m1, m2]),
    )
    write_store(FIXTURES / "overlap_store", [claim])


LISTING = """\
# One person, one seat, one time-qualified occupancy in singleton form.
:John rdf:type owl:NamedIndividual .
:John rdf:type foaf:Person .
:John foaf:name "John Doe"^^xsd:string .
:John :occupies_1 :Post_1 .
:occupies_1 rdf:type owl:NamedIndividual .
:occupies_1 rdf:type owl:ObjectProperty .
:occupies_1 rdf:type org:Membership .
:occupies_1 schema:startDate "2015-01-01"^^xsd:date .
:occupies_1 :singletonPropertyOf :occupies .
:occupies rdf:type owl:NamedIndividual .
:occupies rdf:type owl:ObjectProperty .
"""

PREFIXES = {
    "": "http://polare.org/ns#",
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "owl": "http://www.w3.org/2002/07/owl#",
    "foaf": "http://xmlns.com/foaf/0.1/",
    "org": "http://www.w3.org/ns/org#",
    "schema": "http://schema.org/",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
}


def singleton_listing() -> None:
    (FIXTURES / "singleton_person.nt").write_text(LISTING, encoding="utf-8")
    (FIXTURES / "singleton_prefixes.json").write_text(
        json.dumps(PREFIXES, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def asserter_files() -> None:
    (FIXTURES / "asserters_tribunal.json").write_text(
        json.dumps([FX + "agent/tribunal"]) + "\n", encoding="utf-8"
    )
    (FIXTURES / "asserters_all.json").write_text(
        json.dumps(
            [FX + "agent/electoral-court", FX + "agent/registry", FX + "agent/tribunal"]
        )
        + "\n",
        encoding="utf-8",
    )


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    clean_store()
    overlap_store()
    singleton_listing()
    asserter_files()
    print(f"fixtures written under {FIXTURES}")


if __name__ == "__main__":
    main()
