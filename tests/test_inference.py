import random
from datetime import date
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polare.errors import AmbiguousAffiliationError, InvariantError
from polare.inference import (
    ALL_KINDS,
    CANDIDACY_POST,
    CO_CASE,
    CO_MEMBERSHIP,
    CO_TRANSACTION,
    FAMILY,
    REFERRAL,
    RelationEdge,
    RelationGraph,
    VoterCheck,
    affiliation_at,
    candidacy_post_edges,
    check_voter_consistency,
    co_case_edges,
    co_membership_edges,
    co_transaction_edges,
    edges_to_jsonl,
    family_edges,
    materialize,
    referral_edges,
)
from polare.model import (
    Candidacy,
    DirectRel,
    Election,
    LegalCase,
    Membership,
    Organization,
    Participation,
    Person,
    Post,
    Proposition,
    Referral,
    Session,
    TimeInterval,
    Transaction,
    TransactionObject,
    Vote,
    VoteEvent,
    Voter,
)
from polare.validation import validate_graph

from .genfixtures import (
    ALL_SCHEMES,
    BINDINGS,
    CLASS_SCHEME,
    FAMILY_SCHEME,
    LEGAL_ROLE_SCHEME,
    PARTY,
    ROLE_SCHEME,
    TX_ROLE_SCHEME,
    VOTE_SCHEME,
    DISPOSITION_SCHEME,
    concept_ids,
    new_graph,
    random_entity_graph,
    random_occupancy_fixture,
    random_party_memberships,
)
from .oracles import (
    SCAN_MAX,
    SCAN_MIN,
    affiliation_by_scan,
    co_membership_by_day_scan,
    edge_to_dict,
    pair_count,
)

ROLE = concept_ids(ROLE_SCHEME)[0]
COMPANY = next(c for c in concept_ids(CLASS_SCHEME) if c.endswith("company"))


def org(g, tail, classification=PARTY):
    o = Organization(f"x:org-{tail}", tail, classification)
    g.add(o)
    return o


def seat(g, o, tail, exclusive=True):
    p = Post(f"x:post-{tail}", o.id, ROLE, exclusive=exclusive)
    g.add(p)
    return p


def person(g, tail):
    p = Person(f"x:{tail}", tail.title())
    g.add(p)
    return p


def member(g, p, post, start, end, tail=None):
    m = Membership(
        f"x:m-{tail or (p.id + post.id).replace(':', '')}",
        p.id,
        post.id,
        TimeInterval(start, end),
    )
    g.add(m)
    return m


class TestRelationEdge:
    def edge(self, **kw):
        args = dict(
            a="x:a", b="x:b", kind=FAMILY, detail="x:c", evidence=("x:e",), interval=None, directed=True
        )
        args.update(kw)
        return RelationEdge(**args)

    def test_self_edge_rejected(self):
        with pytest.raises(InvariantError):
            self.edge(b="x:a")

    def test_empty_evidence_rejected(self):
        with pytest.raises(InvariantError):
            self.edge(evidence=())

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvariantError):
            self.edge(kind="friendship")

    @pytest.mark.parametrize(
        "changes",
        [{"detail": None}, {"evidence": ("x:e", 7)}, {"interval": (None, None)}],
        ids=["detail", "evidence", "interval"],
    )
    def test_fields_the_json_line_reads_are_typed(self, changes):
        with pytest.raises(InvariantError):
            self.edge(**changes)

    def test_undirected_stored_canonically(self):
        e1 = self.edge(a="x:b", b="x:a", directed=False)
        e2 = self.edge(a="x:a", b="x:b", directed=False)
        assert e1 == e2 and e1.a == "x:a"

    def test_directed_order_preserved(self):
        assert self.edge(a="x:b", b="x:a").a == "x:b"

    def test_evidence_sorted(self):
        e = self.edge(evidence=("x:2", "x:1"))
        assert e.evidence == ("x:1", "x:2")

    def test_other(self):
        e = self.edge()
        assert e.other("x:a") == "x:b" and e.other("x:b") == "x:a"
        with pytest.raises(ValueError):
            e.other("x:z")


class TestRelationGraph:
    def test_dedup_by_identity_key(self):
        rg = RelationGraph()
        e = RelationEdge("x:a", "x:b", FAMILY, "x:c", ("x:e",), None, False)
        assert rg.add(e) is True
        assert rg.add(RelationEdge("x:b", "x:a", FAMILY, "x:c", ("x:e",), None, False)) is False
        assert len(rg) == 1

    def test_same_pair_different_detail_kept(self):
        rg = RelationGraph()
        rg.add(RelationEdge("x:a", "x:b", FAMILY, "x:c1", ("x:e",), None, False))
        rg.add(RelationEdge("x:a", "x:b", FAMILY, "x:c2", ("x:e",), None, False))
        assert len(rg) == 2

    def test_edges_sorted_and_stable(self):
        rg = RelationGraph()
        e2 = RelationEdge("x:b", "x:c", FAMILY, "x:c", ("x:e",), None, True)
        e1 = RelationEdge("x:a", "x:b", FAMILY, "x:c", ("x:e",), None, True)
        rg.add(e2)
        rg.add(e1)
        assert rg.edges() == [e1, e2]

    def test_edges_touching(self):
        rg = RelationGraph()
        e = RelationEdge("x:a", "x:b", FAMILY, "x:c", ("x:e",), None, False)
        rg.add(e)
        assert rg.edges_touching("x:a") == [e] and rg.edges_touching("x:z") == []


class TestAffiliationAt:
    def john_graph(self):
        g = new_graph()
        john = person(g, "john")
        pa = org(g, "party-a")
        pb = org(g, "party-b")
        member(g, john, seat(g, pa, "pa", exclusive=False), date(2014, 1, 1), date(2016, 6, 30), "pa")
        member(g, john, seat(g, pb, "pb", exclusive=False), date(2016, 7, 1), None, "pb")
        return g, john, pa, pb

    def test_unique_membership_resolves(self):
        g, john, pa, pb = self.john_graph()
        assert affiliation_at(g, john.id, date(2015, 3, 10)) == pa.id
        assert affiliation_at(g, john.id, date(2016, 7, 1)) == pb.id

    def test_boundary_days(self):
        g, john, pa, pb = self.john_graph()
        assert affiliation_at(g, john.id, date(2016, 6, 30)) == pa.id
        assert affiliation_at(g, john.id, date(2014, 1, 1)) == pa.id

    def test_gap_returns_none(self):
        g, john, _, _ = self.john_graph()
        assert affiliation_at(g, john.id, date(2013, 12, 31)) is None

    def test_overlap_is_ambiguous(self):
        g, john, pa, _ = self.john_graph()
        member(g, john, seat(g, org(g, "party-c"), "pc", exclusive=False), date(2015, 1, 1), None, "pc")
        with pytest.raises(AmbiguousAffiliationError):
            affiliation_at(g, john.id, date(2015, 3, 10))

    def test_two_memberships_same_org_still_ambiguous(self):
        g = new_graph()
        john = person(g, "john")
        pa = org(g, "party-a")
        member(g, john, seat(g, pa, "s1", exclusive=False), date(2015, 1, 1), None, "m1")
        member(g, john, seat(g, pa, "s2", exclusive=False), date(2015, 1, 1), None, "m2")
        with pytest.raises(AmbiguousAffiliationError):
            affiliation_at(g, john.id, date(2015, 6, 1))

    def test_org_filter_narrows(self):
        g, john, pa, _ = self.john_graph()
        co = org(g, "employer", classification=COMPANY)
        member(g, john, seat(g, co, "job", exclusive=False), date(2014, 1, 1), None, "job")
        # unfiltered: party + employer memberships both in effect -> ambiguous
        with pytest.raises(AmbiguousAffiliationError):
            affiliation_at(g, john.id, date(2015, 3, 10))
        assert affiliation_at(g, john.id, date(2015, 3, 10), org_filter=PARTY) == pa.id

    def test_unknown_person_rejected(self):
        g = new_graph()
        with pytest.raises(Exception):
            affiliation_at(g, "x:ghost", date(2015, 1, 1))

    def test_matches_day_scan_oracle(self):
        rng = random.Random(9090)
        for _ in range(30):
            g, person_id, mems = random_party_memberships(rng)
            for _ in range(8):
                d = date(2014, 1, 1).fromordinal(
                    date(2014, 1, 1).toordinal() + rng.randrange(1500)
                )
                verdict, orgs = affiliation_by_scan(mems, person_id, d, PARTY)
                if verdict == "ambiguous":
                    with pytest.raises(AmbiguousAffiliationError):
                        affiliation_at(g, person_id, d, org_filter=PARTY)
                elif verdict == "none":
                    assert affiliation_at(g, person_id, d, org_filter=PARTY) is None
                else:
                    assert affiliation_at(g, person_id, d, org_filter=PARTY) == orgs


class TestVoterConsistency:
    def vote_graph(self, recorded_party, actual_party, vote_day):
        g = new_graph()
        john = person(g, "john")
        parties = {"pa": org(g, "party-a"), "pb": org(g, "party-b")}
        member(g, john, seat(g, parties[actual_party], "act", exclusive=False),
               date(2014, 1, 1), None, "act")
        session = Session("x:sess", vote_day)
        g.add(session)
        prop = Proposition("x:prop", (john.id,), "P")
        g.add(prop)
        event = VoteEvent("x:event", session.id, prop.id, concept_ids(DISPOSITION_SCHEME)[0], vote_day)
        g.add(event)
        voter = Voter("x:voter", john.id, parties[recorded_party].id)
        g.add(voter)
        g.add(Vote("x:vote", event.id, voter.id, concept_ids(VOTE_SCHEME)[0]))
        return g, parties["pa"], parties["pb"]

    def test_consistent_vote_passes(self):
        g, _, _ = self.vote_graph("pa", "pa", date(2015, 3, 10))
        assert check_voter_consistency(g, party_classification=PARTY) == []

    def test_mismatch_reported(self):
        g, pa, pb = self.vote_graph("pb", "pa", date(2015, 3, 10))
        checks = check_voter_consistency(g, party_classification=PARTY)
        assert len(checks) == 1
        (c,) = checks
        assert isinstance(c, VoterCheck)
        assert c.vote == "x:vote"
        assert c.recorded == pb.id and c.inferred == pa.id
        assert c.reason == "mismatch"

    def test_no_affiliation_reported(self):
        g, pa, pb = self.vote_graph("pa", "pa", date(2013, 1, 1))
        checks = check_voter_consistency(g, party_classification=PARTY)
        assert [c.reason for c in checks] == ["no-affiliation"]
        assert checks[0].inferred is None

    def test_ambiguity_reported(self):
        g = new_graph()
        john = person(g, "john")
        pa = org(g, "party-a")
        pb = org(g, "party-b")
        member(g, john, seat(g, pa, "pa", exclusive=False), date(2014, 1, 1), None, "pa")
        member(g, john, seat(g, pb, "pb", exclusive=False), date(2014, 1, 1), None, "pb")
        g.add(Session("x:sess", date(2015, 1, 1)))
        g.add(Proposition("x:prop", (john.id,), "P"))
        g.add(VoteEvent("x:event", "x:sess", "x:prop", concept_ids(DISPOSITION_SCHEME)[0], date(2015, 1, 1)))
        g.add(Voter("x:voter", john.id, pa.id))
        g.add(Vote("x:vote", "x:event", "x:voter", concept_ids(VOTE_SCHEME)[0]))
        checks = check_voter_consistency(g, party_classification=PARTY)
        assert [c.reason for c in checks] == ["ambiguous"]

    def test_without_party_filter_all_orgs_count(self):
        g, _, _ = self.vote_graph("pa", "pa", date(2015, 3, 10))
        co = org(g, "employer", classification=COMPANY)
        john = g.get("x:john")
        member(g, john, seat(g, co, "job", exclusive=False), date(2014, 1, 1), None, "job")
        # unfiltered: the employer membership makes the affiliation ambiguous
        checks = check_voter_consistency(g)
        assert [c.reason for c in checks] == ["ambiguous"]
        assert check_voter_consistency(g, party_classification=PARTY) == []


class TestFamilyEdges:
    def test_asymmetric_concept_directed(self):
        g = new_graph()
        a, b = person(g, "a"), person(g, "b")
        parent_of = next(c for c in concept_ids(FAMILY_SCHEME) if c.endswith("parentOf"))
        g.add(DirectRel("x:r", a.id, b.id, parent_of))
        (e,) = family_edges(g)
        assert e.directed and e.a == a.id and e.b == b.id and e.detail == parent_of

    def test_symmetric_concept_undirected(self):
        g = new_graph()
        b, a = person(g, "b"), person(g, "a")
        cohab = next(c for c in concept_ids(FAMILY_SCHEME) if c.endswith("cohabitates"))
        g.add(DirectRel("x:r", b.id, a.id, cohab))
        (e,) = family_edges(g)
        assert not e.directed
        assert (e.a, e.b) == (a.id, b.id)  # canonical min/max order

    def test_interval_copied(self):
        g = new_graph()
        a, b = person(g, "a"), person(g, "b")
        iv = TimeInterval(date(2010, 1, 1), None)
        parent_of = next(c for c in concept_ids(FAMILY_SCHEME) if c.endswith("parentOf"))
        g.add(DirectRel("x:r", a.id, b.id, parent_of, iv))
        (e,) = family_edges(g)
        assert e.interval == iv

    def test_empty(self):
        assert family_edges(new_graph()) == []


class TestCoMembership:
    def colleagues(self, i1, i2, same_org=True):
        g = new_graph()
        a, b = person(g, "a"), person(g, "b")
        o1 = org(g, "o1")
        o2 = o1 if same_org else org(g, "o2")
        m1 = member(g, a, seat(g, o1, "s1", exclusive=False), i1[0], i1[1], "m1")
        m2 = member(g, b, seat(g, o2, "s2", exclusive=False), i2[0], i2[1], "m2")
        return g, a, b, o1, m1, m2

    def test_overlapping_terms_make_one_edge(self):
        g, a, b, o, m1, m2 = self.colleagues(
            (date(2015, 1, 1), date(2016, 12, 31)), (date(2016, 1, 1), None)
        )
        edges = co_membership_edges(g, require_overlap=True)
        assert len(edges) == 1
        (e,) = edges
        assert not e.directed
        assert e.detail == o.id
        assert e.evidence == (m1.id, m2.id)
        assert e.interval == TimeInterval(date(2016, 1, 1), date(2016, 12, 31))

    def test_disjoint_terms_respect_flag(self):
        spans = ((date(2015, 1, 1), date(2015, 12, 31)), (date(2016, 1, 1), None))
        g, *_ = self.colleagues(*spans)
        assert len(co_membership_edges(g, require_overlap=True)) == 0
        g2, *_ = self.colleagues(*spans)
        assert len(co_membership_edges(g2, require_overlap=False)) == 1

    def test_membership_given_no_interval_is_open(self):
        g = new_graph()
        a, b = person(g, "a"), person(g, "b")
        post = seat(g, org(g, "o"), "s", exclusive=False)
        member(g, a, post, date(2015, 1, 1), None)
        g.add(Membership("x:m-open", b.id, post.id, None))
        assert g.get("x:m-open").interval == TimeInterval()
        assert validate_graph(g).conforms
        (e,) = materialize(g).edges()
        assert e.kind == CO_MEMBERSHIP
        assert e.interval == TimeInterval(date(2015, 1, 1), None)

    def test_different_orgs_never_pair(self):
        g, *_ = self.colleagues(
            (date(2015, 1, 1), None), (date(2015, 1, 1), None), same_org=False
        )
        assert len(co_membership_edges(g, require_overlap=False)) == 0

    @pytest.mark.parametrize("require_overlap", [True, False])
    def test_random_pairs_agree_with_day_scan(self, require_overlap):
        rng = random.Random(3141 + require_overlap)
        for _ in range(150):
            g, _, mems = random_occupancy_fixture(rng)
            for m in mems:
                m["org"] = g.get(m["post"]).organization
            edges = co_membership_edges(g, require_overlap)
            got = {}
            for e in edges:
                span = None
                if e.interval is not None:
                    span = (e.interval.start or SCAN_MIN, e.interval.end or SCAN_MAX)
                got[(e.detail, frozenset(e.evidence))] = (frozenset((e.a, e.b)), span)
            assert len(got) == len(edges)
            assert got == co_membership_by_day_scan(mems, require_overlap)

    def test_same_person_never_pairs_with_self(self):
        g = new_graph()
        a = person(g, "a")
        o = org(g, "o")
        member(g, a, seat(g, o, "s1", exclusive=False), date(2015, 1, 1), None, "m1")
        member(g, a, seat(g, o, "s2", exclusive=False), date(2015, 1, 1), None, "m2")
        assert len(co_membership_edges(g, require_overlap=False)) == 0

    def test_multiple_qualifying_memberships_make_multiple_edges(self):
        g = new_graph()
        a, b = person(g, "a"), person(g, "b")
        o = org(g, "o")
        m1 = member(g, a, seat(g, o, "s1", exclusive=False), date(2015, 1, 1), None, "m1")
        m2 = member(g, a, seat(g, o, "s2", exclusive=False), date(2015, 1, 1), None, "m2")
        m3 = member(g, b, seat(g, o, "s3", exclusive=False), date(2015, 1, 1), None, "m3")
        edges = co_membership_edges(g, require_overlap=True)
        # each (a-membership, b-membership) pair is separate evidence
        assert len(edges) == 2
        assert {e.evidence for e in edges} == {(m1.id, m3.id), (m2.id, m3.id)}


class TestReferralAndCandidacy:
    def test_referral_edge(self):
        g = new_graph()
        boss, hire = person(g, "boss"), person(g, "hire")
        o = org(g, "o")
        p = seat(g, o, "s")
        g.add(Referral("x:ref", boss.id, hire.id, p.id, date(2015, 5, 20)))
        (e,) = referral_edges(g)
        assert e.directed and (e.a, e.b) == (boss.id, hire.id)
        assert e.kind == REFERRAL and e.detail == p.id
        assert e.evidence == ("x:ref",)
        assert e.interval == TimeInterval(date(2015, 5, 20), date(2015, 5, 20))

    def test_two_referrals_two_edges(self):
        g = new_graph()
        boss, hire = person(g, "boss"), person(g, "hire")
        o = org(g, "o")
        p1, p2 = seat(g, o, "s1"), seat(g, o, "s2")
        g.add(Referral("x:r1", boss.id, hire.id, p1.id))
        g.add(Referral("x:r2", boss.id, hire.id, p2.id))
        assert len(referral_edges(g)) == 2

    def test_referral_count_oracle(self):
        rng = random.Random(808)
        for _ in range(15):
            g = random_entity_graph(rng, max_entities=60)
            assert len(referral_edges(g)) == len(g.of_type(Referral))

    def test_candidacy_edge_targets_owning_org(self):
        g = new_graph()
        cand = person(g, "cand")
        o = org(g, "council", classification=concept_ids(CLASS_SCHEME)[-1])
        p = seat(g, o, "seat")
        g.add(Election("x:e", date(2016, 10, 2), frozenset({p.id})))
        g.add(Candidacy("x:c", cand.id, "x:e", p.id))
        (e,) = candidacy_post_edges(g)
        assert e.directed and (e.a, e.b) == (cand.id, o.id)
        assert e.kind == CANDIDACY_POST and e.detail == p.id
        assert e.evidence == ("x:c",)


class TestPairCliques:
    def tx_graph(self, k):
        g = new_graph()
        people = [person(g, f"p{i}") for i in range(k)]
        obj = TransactionObject("x:obj", "service", "svc")
        g.add(obj)
        roles = concept_ids(TX_ROLE_SCHEME)
        g.add(
            Transaction(
                "x:t",
                tuple(Participation(p.id, roles[i % len(roles)]) for i, p in enumerate(people)),
                obj.id,
                Decimal("10"),
                "BRL",
                date(2016, 8, 1),
            )
        )
        return g

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_transaction_pairs(self, k):
        edges = co_transaction_edges(self.tx_graph(k))
        assert len(edges) == pair_count(k)
        for e in edges:
            assert e.kind == CO_TRANSACTION
            assert e.detail == "x:t" and e.evidence == ("x:t",)
            assert e.interval == TimeInterval(date(2016, 8, 1), date(2016, 8, 1))

    def test_repeated_agent_in_two_roles_no_self_edge(self):
        g = new_graph()
        a, b = person(g, "a"), person(g, "b")
        obj = TransactionObject("x:obj", "product", "car")
        g.add(obj)
        roles = concept_ids(TX_ROLE_SCHEME)
        g.add(
            Transaction(
                "x:t",
                (
                    Participation(a.id, roles[0]),
                    Participation(a.id, roles[2]),
                    Participation(b.id, roles[1]),
                ),
                obj.id,
                Decimal("5"),
                "BRL",
                date(2016, 8, 1),
            )
        )
        edges = co_transaction_edges(g)
        assert len(edges) == 1

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_case_pairs(self, k):
        g = new_graph()
        people = [person(g, f"p{i}") for i in range(k)]
        roles = concept_ids(LEGAL_ROLE_SCHEME)
        g.add(
            LegalCase(
                "x:case",
                tuple(Participation(p.id, roles[i % len(roles)]) for i, p in enumerate(people)),
                TimeInterval(date(2018, 2, 1), date(2018, 11, 30)),
            )
        )
        edges = co_case_edges(g)
        assert len(edges) == pair_count(k)
        for e in edges:
            assert e.kind == CO_CASE and e.detail == "x:case"
            assert e.interval == TimeInterval(date(2018, 2, 1), date(2018, 11, 30))


class TestMaterialize:
    def test_empty_graph(self):
        assert len(materialize(new_graph())) == 0

    def test_union_of_generators(self):
        rng = random.Random(555)
        for _ in range(10):
            g = random_entity_graph(rng, max_entities=80)
            rg = materialize(g)
            want = RelationGraph()
            for e in family_edges(g):
                want.add(e)
            for e in co_membership_edges(g, require_overlap=True):
                want.add(e)
            for e in referral_edges(g):
                want.add(e)
            for e in co_transaction_edges(g):
                want.add(e)
            for e in co_case_edges(g):
                want.add(e)
            for e in candidacy_post_edges(g):
                want.add(e)
            assert rg == want

    def test_require_overlap_flag_passes_through(self):
        spans = ((date(2015, 1, 1), date(2015, 12, 31)), (date(2016, 1, 1), None))
        g, *_ = TestCoMembership().colleagues(*spans)
        assert len(materialize(g, require_overlap=False).edges()) == 1
        assert len(materialize(g).edges()) == 0

    def test_rename_isomorphism(self):
        from polare.model import iter_references

        rng = random.Random(4242)
        g = random_entity_graph(rng, max_entities=60)
        mapping = {}

        def rn(eid):
            return mapping.setdefault(eid, f"http://renamed/{len(mapping)}")

        def rename_entity(e):
            ref_fields = {f for f, _, _ in iter_references(e)}
            changes = {"id": rn(e.id)}
            for name in e._fields:
                if name not in ref_fields:
                    continue
                v = getattr(e, name)
                if isinstance(v, str):
                    changes[name] = rn(v)
                elif isinstance(v, frozenset):
                    changes[name] = frozenset(rn(x) for x in v)
                elif isinstance(v, tuple) and v and isinstance(v[0], Participation):
                    changes[name] = tuple(Participation(rn(p.agent), p.role) for p in v)
                elif isinstance(v, tuple):
                    changes[name] = tuple(rn(x) for x in v)
            return type(e)(**{**{name: getattr(e, name) for name in e._fields}, **changes})

        g2 = new_graph()
        g2.add_all([rename_entity(e) for e in g.entities()], allow_dangling=True)
        rg, rg2 = materialize(g), materialize(g2)
        assert len(rg) == len(rg2)
        got = {(rn(e.a), rn(e.b), e.kind, e.directed) for e in rg.edges()}
        want = {(e.a, e.b, e.kind, e.directed) for e in rg2.edges()}
        # undirected edges may flip canonical order under renaming
        def normalize(s):
            return {(a, b, k, d) if d or a <= b else (b, a, k, d) for a, b, k, d in s}

        assert normalize(got) == normalize(want)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32), st.booleans())
    def test_generated_edges_are_what_the_checked_constructor_builds(self, seed, overlap):
        g = random_entity_graph(random.Random(seed), max_entities=80)
        generators = (family_edges, referral_edges, co_transaction_edges, co_case_edges,
                      candidacy_post_edges, lambda g: co_membership_edges(g, overlap))
        for generate in generators:
            for e in generate(g):
                checked = RelationEdge(e.a, e.b, e.kind, e.detail, e.evidence, e.interval,
                                       e.directed)
                assert type(e) is RelationEdge and tuple(e) == tuple(checked)
                assert type(e.directed) is bool

    def test_monotone_under_entity_addition(self):
        rng = random.Random(31)
        g = random_entity_graph(rng, max_entities=50)
        before = set(e.key for e in materialize(g).edges())
        extra = Person("http://t.pol/late-arrival", "Newcomer")
        g.add(extra)
        after = set(e.key for e in materialize(g).edges())
        assert before <= after


class TestExports:
    def sample_edges(self):
        return [
            RelationEdge(
                "x:a", "x:b", CO_MEMBERSHIP, "x:o", ("x:m1", "x:m2"),
                TimeInterval(date(2015, 1, 1), None), False,
            ),
            RelationEdge("x:c", "x:d", REFERRAL, "x:p", ("x:r",), None, True),
        ]

    def test_edge_dict_fields(self):
        d = edge_to_dict(self.sample_edges()[0])
        assert set(d) == {"a", "b", "kind", "detail", "directed", "interval", "evidence"}
        assert d["interval"] == {"start": "2015-01-01", "end": None}
        assert d["evidence"] == ["x:m1", "x:m2"]

    def test_jsonl_sorted_and_deterministic(self):
        fwd, rev = RelationGraph(), RelationGraph()
        for e in self.sample_edges():
            fwd.add(e)
        for e in reversed(self.sample_edges()):
            rev.add(e)
        text = "".join(edges_to_jsonl(fwd))
        assert text == "".join(edges_to_jsonl(rev))
        assert text.endswith("\n") and len(text.strip().splitlines()) == 2
