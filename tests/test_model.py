import random
from datetime import date, timedelta
from decimal import Decimal
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polare.errors import (
    DanglingReferenceError,
    DuplicateIdError,
    InvariantError,
    SchemeError,
    UnknownConceptError,
    UnknownSchemeError,
    ValueParseError,
)
from polare.model import (
    BINDING_KEYS,
    Asset,
    Concept,
    ConceptScheme,
    DirectRel,
    EntityGraph,
    Group,
    LegalCase,
    Membership,
    Organization,
    Participation,
    Person,
    Post,
    Referral,
    TimeInterval,
    Transaction,
    iter_references,
    overlapping_pairs,
)

from .genfixtures import ALL_SCHEMES, BINDINGS, FAMILY_SCHEME, random_entity_graph


class TestTimeInterval:
    def test_bounded_in_effect_is_inclusive_on_both_ends(self):
        iv = TimeInterval(date(2015, 1, 1), date(2016, 12, 31))
        assert iv.in_effect(date(2015, 1, 1))
        assert iv.in_effect(date(2016, 12, 31))
        assert iv.in_effect(date(2016, 1, 1))
        assert not iv.in_effect(date(2014, 12, 31))
        assert not iv.in_effect(date(2017, 1, 1))

    def test_open_ends(self):
        assert TimeInterval(date(2015, 1, 1), None).in_effect(date(2999, 1, 1))
        assert TimeInterval(None, date(2015, 1, 1)).in_effect(date(1000, 1, 1))
        assert TimeInterval(None, None).in_effect(date(2020, 6, 1))

    def test_reversed_bounds_rejected(self):
        with pytest.raises(InvariantError):
            TimeInterval(date(2020, 1, 2), date(2020, 1, 1))

    def test_single_day_interval_allowed(self):
        iv = TimeInterval(date(2020, 1, 1), date(2020, 1, 1))
        assert iv.in_effect(date(2020, 1, 1))

    def test_overlaps_symmetric_and_boundary_touching(self):
        a = TimeInterval(date(2015, 1, 1), date(2016, 12, 31))
        b = TimeInterval(date(2016, 12, 31), date(2017, 12, 31))
        c = TimeInterval(date(2017, 1, 1), None)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c) and not c.overlaps(a)
        assert b.overlaps(c)

    def test_intersection(self):
        a = TimeInterval(date(2015, 1, 1), date(2016, 12, 31))
        b = TimeInterval(date(2016, 6, 1), None)
        got = a.intersection(b)
        assert got == TimeInterval(date(2016, 6, 1), date(2016, 12, 31))
        assert a.intersection(TimeInterval(date(2017, 1, 1), None)) is None

    def test_intersection_of_open_intervals(self):
        assert TimeInterval(None, None).intersection(TimeInterval(None, None)) == TimeInterval(None, None)

    def test_contains(self):
        outer = TimeInterval(date(2015, 1, 1), None)
        assert outer.contains(TimeInterval(date(2016, 1, 1), date(2017, 1, 1)))
        assert not outer.contains(TimeInterval(date(2014, 1, 1), date(2017, 1, 1)))
        # an open inner end fits an open outer end
        assert outer.contains(TimeInterval(date(2016, 1, 1), None))
        assert not TimeInterval(date(2015, 1, 1), date(2016, 1, 1)).contains(TimeInterval(date(2015, 6, 1), None))

    def test_random_overlap_agrees_with_intersection(self):
        rng = random.Random(4821)
        base = date(2015, 1, 1)
        for _ in range(300):
            def rand_iv():
                s = rng.randrange(0, 1000)
                e = s + rng.randrange(0, 500)
                return TimeInterval(
                    None if rng.random() < 0.1 else base.fromordinal(base.toordinal() + s),
                    None if rng.random() < 0.1 else base.fromordinal(base.toordinal() + e),
                )
            a, b = rand_iv(), rand_iv()
            assert a.overlaps(b) == (a.intersection(b) is not None)


@st.composite
def window_intervals(draw):
    """Intervals on a 16-day window, so equal starts, shared boundary days and
    one-day terms are common; either bound may be open."""
    start = draw(st.none() | st.integers(0, 15))
    length = draw(st.none() | st.integers(0, 4))  # 0 is a one-day term
    base = date(2020, 1, 1)
    end = None if length is None else (start or 0) + length
    return TimeInterval(
        None if start is None else base + timedelta(days=start),
        None if end is None else base + timedelta(days=end),
    )


class TestIntersection:
    @settings(max_examples=300, deadline=None)
    @given(window_intervals(), window_intervals())
    def test_covers_exactly_the_shared_days(self, a, b):
        got = a.intersection(b)
        days = [date(2019, 12, 1) + timedelta(days=i) for i in range(60)]
        shared = [d for d in days if a.in_effect(d) and b.in_effect(d)]
        if got is None:
            assert shared == []
            return
        assert [d for d in days if got.in_effect(d)] == shared
        assert (got.start is None) == (a.start is None and b.start is None)
        assert (got.end is None) == (a.end is None and b.end is None)
        assert got == TimeInterval(got.start, got.end)  # bounds the checked constructor takes


class TestOverlappingPairs:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(window_intervals(), max_size=14))
    def test_reports_exactly_the_overlapping_pairs(self, intervals):
        items = [SimpleNamespace(id=i, interval=iv) for i, iv in enumerate(intervals)]
        got = [frozenset((a.id, b.id)) for a, b in overlapping_pairs(items)]
        want = {
            frozenset((a.id, b.id))
            for a, b in combinations(items, 2)
            if a.interval.overlaps(b.interval)
        }
        assert len(got) == len(set(got))  # each pair once
        assert all(len(pair) == 2 for pair in got)  # never an item with itself
        assert set(got) == want


#: each class with an interval, the arguments before it, and how it stores
#: a period without bounds
INTERVAL_CLASSES = [
    (Post, ("x:p", "x:o", "x:r"), TimeInterval()),
    (Membership, ("x:m", "x:a", "x:p"), TimeInterval()),
    (DirectRel, ("x:d", "x:a", "x:b", "x:r"), None),
    (LegalCase, ("x:c", (Participation("x:a", "x:r"),)), None),
]
INTERVAL_IDS = [cls.__name__ for cls, _, _ in INTERVAL_CLASSES]


class TestEntityInvariants:
    def test_blank_ids_rejected(self):
        for bad in ("", "   ", "\t"):
            with pytest.raises(InvariantError):
                Person(bad, "X")

    @pytest.mark.parametrize("char", [" ", "\t", "\n", "\r", "<", ">", '"'])
    def test_iri_id_with_forbidden_character_rejected(self, char):
        with pytest.raises(InvariantError, match=r"^Membership\.person: id .* not allowed"):
            Membership("x:m", f"x:pe{char}rson", "x:p")

    @pytest.mark.parametrize("cls, args, empty", INTERVAL_CLASSES, ids=INTERVAL_IDS)
    def test_period_without_bounds_is_stored_one_way(self, cls, args, empty):
        assert cls(*args, interval=None).interval == empty
        assert cls(*args, interval=TimeInterval()).interval == empty

    @pytest.mark.parametrize("cls, args, empty", INTERVAL_CLASSES, ids=INTERVAL_IDS)
    def test_interval_must_be_a_time_interval(self, cls, args, empty):
        with pytest.raises(InvariantError, match=rf"^{cls.__name__}\.interval: "):
            cls(*args, interval="2015")

    def test_direct_relation_to_self_rejected(self):
        with pytest.raises(InvariantError):
            DirectRel("x:r", "x:a", "x:a", "x:c")

    def test_self_referral_rejected(self):
        with pytest.raises(InvariantError, match=r"^Referral x:f: x:a refers itself$"):
            Referral("x:f", "x:a", "x:a", "x:p")

    def test_group_may_be_empty(self):
        # membership lists shrink over time; an empty roster is legal data
        assert Group("x:g", "G", frozenset()).members == frozenset()

    def test_transaction_requires_participants(self):
        with pytest.raises(InvariantError):
            Transaction("x:t", (), "x:o", Decimal("1"), "BRL", date(2020, 1, 1))

    def test_transaction_amount_must_be_decimal(self):
        with pytest.raises((InvariantError, ValueParseError, TypeError)):
            Transaction(
                "x:t",
                (Participation("x:a", "x:role"),),
                "x:o",
                1.5,
                "BRL",
                date(2020, 1, 1),
            )

    @pytest.mark.parametrize("amount", ["NaN", "sNaN", "Infinity", "-Infinity"])
    def test_transaction_amount_must_be_finite(self, amount):
        with pytest.raises(InvariantError, match=r"^Transaction\.amount: not a finite decimal"):
            Transaction(
                "x:t",
                (Participation("x:a", "x:role"), Participation("x:b", "x:role")),
                "x:o",
                Decimal(amount),
                "BRL",
                date(2020, 1, 1),
            )

    def test_asset_value_decimal_ok(self):
        a = Asset("x:a", "x:p", "flat", Decimal("12.30"))
        assert a.value == Decimal("12.30")

    def test_transaction_object_kind_restricted(self):
        with pytest.raises(InvariantError):
            __import__("polare.model", fromlist=["TransactionObject"]).TransactionObject(
                "x:o", "gadget", "?"
            )


class TestConceptSchemes:
    def test_concept_lookup(self):
        sch = FAMILY_SCHEME
        cid = sch.concepts[0].id
        assert sch.concept(cid).id == cid

    def test_resolve_known_concept(self):
        g = EntityGraph(ALL_SCHEMES, BINDINGS)
        c = g.find_concept(FAMILY_SCHEME.concepts[0].id)
        assert isinstance(c, Concept)
        assert c.scheme == FAMILY_SCHEME.id
        assert g.schemes[FAMILY_SCHEME.id].concept(c.id) == c

    def test_resolve_unknown_concept_raises(self):
        g = EntityGraph(ALL_SCHEMES, BINDINGS)
        assert g.find_concept("http://t.pol/none") is None
        with pytest.raises(UnknownConceptError):
            g.schemes[FAMILY_SCHEME.id].concept("http://t.pol/none")

    def test_resolve_unknown_scheme_raises(self):
        g = EntityGraph(ALL_SCHEMES, BINDINGS)
        with pytest.raises(UnknownSchemeError):
            g.register_bindings({"Post.role": "http://t.pol/no-scheme"})
        assert g.bindings == EntityGraph(ALL_SCHEMES, BINDINGS).bindings

    def test_symmetric_flag_carried(self):
        sib = next(c for c in FAMILY_SCHEME.concepts if c.id.endswith("siblingOf"))
        par = next(c for c in FAMILY_SCHEME.concepts if c.id.endswith("parentOf"))
        assert sib.symmetric and not par.symmetric

    def test_scheme_rejects_duplicate_concept_ids(self):
        c = Concept("x:c", "x:s", "c")
        with pytest.raises(SchemeError):
            ConceptScheme("x:s", (c, c))

    def test_scheme_rejects_concept_of_other_scheme(self):
        c = Concept("x:c", "x:other", "c")
        with pytest.raises(SchemeError):
            ConceptScheme("x:s", (c,))

    def test_binding_keys_are_the_bindable_fields(self):
        assert set(BINDINGS) <= BINDING_KEYS
        assert "Post.role" in BINDING_KEYS and "LegalCase.role" in BINDING_KEYS


class TestEntityGraph:
    def test_add_checks_references(self):
        g = EntityGraph()
        with pytest.raises(DanglingReferenceError):
            g.add(Membership("x:m", "x:p", "x:post", TimeInterval(None, None)))

    def test_add_rejects_unregistered_concept_ref(self):
        g = EntityGraph()
        with pytest.raises(DanglingReferenceError):
            g.add(Organization("x:o", "O", "x:no-such-concept"))

    def test_add_all_resolves_forward_references(self):
        from .genfixtures import CLASS_SCHEME, ROLE_SCHEME, concept_ids

        g = EntityGraph(ALL_SCHEMES, BINDINGS)
        org = Organization("x:o", "O", concept_ids(CLASS_SCHEME)[0])
        post = Post("x:post", "x:o", concept_ids(ROLE_SCHEME)[0])
        m = Membership("x:m", "x:p", "x:post", TimeInterval(None, None))
        # order intentionally reversed: add_all stages the whole batch
        g.add_all([m, post, org, Person("x:p", "P")])
        assert g.get("x:m") is m

    def test_add_self_parent_is_a_cycle(self):
        # add is add_all of one: the organization is staged before its
        # references resolve, so a parent equal to its own id is a cycle
        g = EntityGraph()
        with pytest.raises(InvariantError, match="parent chain contains a cycle"):
            g.add(Organization("x:o", "O", parent="x:o"))
        assert "x:o" not in g and len(g) == 0

    def test_rejected_batch_leaves_graph_unchanged(self):
        g = EntityGraph()
        g.add(Person("x:p", "P"))
        with pytest.raises(DanglingReferenceError):
            g.add_all([Person("x:q", "Q"), Membership("x:m", "x:q", "x:missing-post")])
        assert g.entities() == [Person("x:p", "P")]

    def test_add_all_allow_dangling(self):
        g = EntityGraph()
        g.add_all([Membership("x:m", "x:p", "x:post", TimeInterval(None, None))], allow_dangling=True)
        assert ("x:m", "person", "x:p") in g.dangling_refs()

    def test_duplicate_id_rejected(self):
        g = EntityGraph()
        g.add(Person("x:p", "P"))
        with pytest.raises(DuplicateIdError):
            g.add(Person("x:p", "Q"))

    def test_is_agent(self):
        from .genfixtures import CLASS_SCHEME, concept_ids

        g = EntityGraph(ALL_SCHEMES, BINDINGS)
        g.add_all([Person("x:p", "P"), Organization("x:o", "O", concept_ids(CLASS_SCHEME)[0])])
        g.add(Group("x:g", "G", frozenset({"x:p"})))
        assert g.is_agent("x:p") and g.is_agent("x:o") and g.is_agent("x:g")
        assert not g.is_agent("x:nope")

    def test_of_type_sorted_by_id(self):
        g = EntityGraph()
        g.add_all([Person("x:b", "B"), Person("x:a", "A")])
        assert [p.id for p in g.of_type(Person)] == ["x:a", "x:b"]

    def test_iter_references_covers_membership(self):
        m = Membership("x:m", "x:p", "x:post", TimeInterval(None, None))
        refs = {(f, t) for f, t, _ in iter_references(m)}
        assert ("person", "x:p") in refs and ("post", "x:post") in refs

    def test_random_graphs_are_closed(self):
        rng = random.Random(99)
        for _ in range(25):
            g = random_entity_graph(rng, max_entities=60)
            assert g.dangling_refs() == []
