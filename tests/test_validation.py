import json
import random
from datetime import date

import pytest

from polare.errors import StoreError
from polare.model import (
    Candidacy,
    Election,
    EntityGraph,
    Membership,
    Organization,
    Person,
    Post,
    TimeInterval,
)
from polare.validation import (
    CANDIDACY_POST,
    CONCEPT_DOMAIN,
    DUPLICATE_MEMBERSHIP,
    ERROR,
    EXCLUSIVE_OCCUPANCY,
    MEMBERSHIP_OUTSIDE_POST,
    POST_MEDIATION,
    ShapeConfig,
    Violation,
    check_candidacy_shape,
    check_concept_domains,
    check_duplicate_membership,
    check_exclusive_occupancy,
    check_membership_within_post,
    check_post_mediation,
    load_shape_config,
    validate_graph,
)
from polare.wire import TripleSet

from .genfixtures import (
    ALL_SCHEMES,
    BINDINGS,
    CLASS_SCHEME,
    ROLE_SCHEME,
    concept_ids,
    new_graph,
    random_occupancy_fixture,
)
from .oracles import duplicate_membership_by_day_scan, exclusive_occupancy_by_day_scan

ORG_CLASS = concept_ids(CLASS_SCHEME)[0]
ROLE = concept_ids(ROLE_SCHEME)[0]


def seat_graph(*memberships, exclusive=True, post_interval=None):
    g = new_graph()
    g.add(Organization("x:org", "O", ORG_CLASS))
    g.add(Post("x:seat", "x:org", ROLE, post_interval, exclusive=exclusive))
    names = set()
    for person, start, end in memberships:
        if person not in names:
            g.add(Person(person, person))
            names.add(person)
    for i, (person, start, end) in enumerate(memberships):
        g.add(Membership(f"x:m{i}", person, "x:seat", TimeInterval(start, end)))
    return g


class TestExclusiveOccupancy:
    def test_overlapping_terms_flagged(self):
        g = seat_graph(
            ("x:john", date(2015, 1, 1), date(2016, 12, 31)),
            ("x:mary", date(2016, 6, 1), date(2017, 12, 31)),
        )
        vs = check_exclusive_occupancy(g)
        assert len(vs) == 1
        (v,) = vs
        assert v.code == EXCLUSIVE_OCCUPANCY and v.severity == ERROR
        assert v.focus == "x:seat"
        assert v.related == ("x:m0", "x:m1")

    def test_adjacent_terms_conform(self):
        g = seat_graph(
            ("x:john", date(2015, 1, 1), date(2016, 12, 31)),
            ("x:mary", date(2017, 1, 1), None),
        )
        assert check_exclusive_occupancy(g) == []

    def test_shared_boundary_day_flagged(self):
        # end dates are inclusive, so a same-day handover counts as overlap
        g = seat_graph(
            ("x:john", date(2015, 1, 1), date(2016, 12, 31)),
            ("x:mary", date(2016, 12, 31), None),
        )
        assert len(check_exclusive_occupancy(g)) == 1

    def test_non_exclusive_post_ignored(self):
        g = seat_graph(
            ("x:john", date(2015, 1, 1), None),
            ("x:mary", date(2015, 1, 1), None),
            exclusive=False,
        )
        assert check_exclusive_occupancy(g) == []

    def test_same_person_twice_not_an_occupancy_clash(self):
        g = seat_graph(
            ("x:john", date(2015, 1, 1), date(2016, 1, 1)),
            ("x:john", date(2015, 6, 1), None),
        )
        assert check_exclusive_occupancy(g) == []

    def test_open_intervals_overlap(self):
        g = seat_graph(("x:john", None, None), ("x:mary", None, None))
        assert len(check_exclusive_occupancy(g)) == 1

    def test_matches_day_scan_oracle(self):
        rng = random.Random(1555)
        for _ in range(40):
            g, posts, mems = random_occupancy_fixture(rng)
            got = {
                (v.focus, frozenset(v.related))
                for v in check_exclusive_occupancy(g)
            }
            want = exclusive_occupancy_by_day_scan(posts, mems)
            assert got == want


class TestMembershipWithinPost:
    def test_membership_escaping_post_window(self):
        g = seat_graph(
            ("x:john", date(2010, 1, 1), date(2016, 1, 1)),
            post_interval=TimeInterval(date(2013, 1, 1), None),
        )
        vs = check_membership_within_post(g)
        assert [v.code for v in vs] == [MEMBERSHIP_OUTSIDE_POST]
        assert vs[0].severity == "warn"
        assert vs[0].focus == "x:m0" and vs[0].related == ("x:seat",)

    def test_contained_membership_ok(self):
        g = seat_graph(
            ("x:john", date(2014, 1, 1), date(2016, 1, 1)),
            post_interval=TimeInterval(date(2013, 1, 1), None),
        )
        assert check_membership_within_post(g) == []

    def test_post_without_window_accepts_all(self):
        g = seat_graph(("x:john", None, None))
        assert check_membership_within_post(g) == []

    def test_severity_is_configurable(self):
        g = seat_graph(
            ("x:john", date(2010, 1, 1), None),
            post_interval=TimeInterval(date(2013, 1, 1), None),
        )
        assert check_membership_within_post(g, severity=ERROR)[0].severity == ERROR


class TestConceptDomains:
    def test_wrong_scheme_flagged(self):
        g = new_graph()
        g.add(Organization("x:org", "O", ROLE))  # a role is not a classification
        vs = check_concept_domains(g)
        assert [v.code for v in vs] == [CONCEPT_DOMAIN]
        assert vs[0].focus == "x:org"

    def test_right_scheme_conforms(self):
        g = new_graph()
        g.add(Organization("x:org", "O", ORG_CLASS))
        assert check_concept_domains(g) == []

    def test_unbound_fields_skipped(self):
        g = EntityGraph(ALL_SCHEMES, {})  # no bindings at all
        g.add(Organization("x:org", "O", ROLE))
        assert check_concept_domains(g) == []


class TestCandidacyShape:
    def graph(self, election_posts, candidacy_post):
        g = new_graph()
        g.add(Organization("x:org", "O", ORG_CLASS))
        g.add(Person("x:p", "P"))
        for pid in {*election_posts, candidacy_post}:
            g.add(Post(pid, "x:org", ROLE))
        g.add(Election("x:e", date(2016, 10, 2), frozenset(election_posts)))
        g.add(Candidacy("x:c", "x:p", "x:e", candidacy_post))
        return g

    def test_post_outside_election_flagged(self):
        vs = check_candidacy_shape(self.graph(["x:s1"], "x:s2"))
        assert [v.code for v in vs] == [CANDIDACY_POST]
        assert vs[0].focus == "x:c"
        assert vs[0].severity == ERROR

    def test_post_inside_election_conforms(self):
        assert check_candidacy_shape(self.graph(["x:s1", "x:s2"], "x:s2")) == []


class TestPostMediation:
    def direct_triple(self):
        return ("<http://x/p>", "<http://www.w3.org/ns/org#memberOf>", "<http://x/org>")

    def test_direct_membership_in_residue_flagged(self):
        g = new_graph()
        g.residue = TripleSet([self.direct_triple()])
        vs = check_post_mediation(g)
        assert [v.code for v in vs] == [POST_MEDIATION]
        assert vs[0].focus == "http://x/p"

    def test_has_member_direction_flagged(self):
        g = new_graph()
        g.residue = TripleSet(
            [("<http://x/org>", "<http://www.w3.org/ns/org#hasMember>", "<http://x/p>")]
        )
        vs = check_post_mediation(g)
        assert len(vs) == 1 and vs[0].focus == "http://x/p"

    def test_clean_residue_conforms(self):
        g = new_graph()
        assert check_post_mediation(g) == []


class TestDuplicateMembership:
    def test_overlapping_duplicate_flagged(self):
        g = seat_graph(
            ("x:john", date(2015, 1, 1), date(2016, 1, 1)),
            ("x:john", date(2015, 6, 1), None),
        )
        vs = check_duplicate_membership(g)
        assert [v.code for v in vs] == [DUPLICATE_MEMBERSHIP]
        assert vs[0].focus == "x:john"
        assert vs[0].related == ("x:m0", "x:m1")

    def test_sequential_terms_allowed(self):
        g = seat_graph(
            ("x:john", date(2015, 1, 1), date(2016, 1, 1)),
            ("x:john", date(2016, 1, 2), None),
        )
        assert check_duplicate_membership(g) == []

    def test_matches_day_scan_oracle(self):
        rng = random.Random(414)
        for _ in range(40):
            g, _, mems = random_occupancy_fixture(rng)
            got = {
                (v.focus, frozenset(v.related)) for v in check_duplicate_membership(g)
            }
            want = duplicate_membership_by_day_scan(mems)
            assert got == want


class TestValidateGraph:
    def dirty_graph(self):
        g = seat_graph(
            ("x:john", date(2015, 1, 1), date(2016, 12, 31)),
            ("x:mary", date(2016, 6, 1), date(2017, 12, 31)),
        )
        return g

    def test_report_collects_and_sorts(self):
        g = self.dirty_graph()
        g.residue = TripleSet([TestPostMediation().direct_triple()])
        report = validate_graph(g)
        codes = [v.code for v in report.violations]
        assert codes == sorted(codes)
        assert not report.conforms

    def test_conforms_means_no_errors(self):
        g = seat_graph(
            ("x:john", date(2015, 1, 1), date(2016, 1, 1)),
            ("x:john", date(2015, 6, 1), None),  # warn-level duplicate only
        )
        report = validate_graph(g)
        assert report.conforms
        assert any(v.severity == "warn" for v in report.violations)

    def test_checks_can_be_disabled(self):
        g = self.dirty_graph()
        cfg = ShapeConfig(exclusive_occupancy=False)
        assert validate_graph(g, cfg).conforms

    def test_duplicate_membership_off(self):
        g = seat_graph(
            ("x:john", date(2015, 1, 1), None),
            ("x:john", date(2015, 6, 1), None),
        )
        cfg = ShapeConfig(duplicate_membership="off")
        assert validate_graph(g, cfg).violations == ()

    def test_membership_window_escalation(self):
        g = seat_graph(
            ("x:john", date(2010, 1, 1), None),
            post_interval=TimeInterval(date(2013, 1, 1), None),
        )
        assert validate_graph(g).conforms  # warn by default
        strict = ShapeConfig(membership_within_post=ERROR)
        assert not validate_graph(g, strict).conforms

    def test_report_json_shape(self):
        report = validate_graph(self.dirty_graph())
        data = json.loads(report.to_json())
        assert set(data) == {"conforms", "violations"}
        assert data["conforms"] is False
        v = data["violations"][0]
        assert set(v) == {"code", "severity", "focus", "related", "message"}
        assert [v["severity"] for v in data["violations"]].count("error") == 1

    def test_report_text_mentions_each_violation(self):
        report = validate_graph(self.dirty_graph())
        text = report.to_text()
        assert EXCLUSIVE_OCCUPANCY in text and "does not conform" in text

    def test_json_deterministic(self):
        a = validate_graph(self.dirty_graph()).to_json()
        b = validate_graph(self.dirty_graph()).to_json()
        assert a == b


class TestShapeConfig:
    def test_defaults(self):
        cfg = ShapeConfig()
        assert cfg.exclusive_occupancy and cfg.require_post_mediation
        assert cfg.membership_within_post == "warn"
        assert cfg.duplicate_membership == "warn"

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(Exception):
            ShapeConfig.from_dict({"nonsense": 1})

    def test_from_dict_rejects_bad_severity(self):
        with pytest.raises(Exception):
            ShapeConfig.from_dict({"membership_within_post": "loud"})

    SETTINGS = [
        ("exclusive_occupancy", False),
        ("membership_within_post", "error"),
        ("require_post_mediation", False),
        ("concept_domain", False),
        ("duplicate_membership", "off"),
    ]

    def test_settings_cover_every_field(self):
        assert [k for k, _ in self.SETTINGS] == list(ShapeConfig._fields)

    @pytest.mark.parametrize("key, value", SETTINGS, ids=[k for k, _ in SETTINGS])
    def test_from_dict_round_trips_each_field(self, key, value):
        cfg = ShapeConfig.from_dict({key: value})
        assert getattr(cfg, key) == value
        assert cfg == ShapeConfig(**{key: value})

    def test_from_dict_messages(self):
        with pytest.raises(StoreError, match=r"^shapes\.json: unknown keys \['a', 'b'\]$"):
            ShapeConfig.from_dict({"b": 1, "concept_domain": True, "a": 2}, "shapes.json")
        with pytest.raises(StoreError, match=r"^config: expected a JSON object$"):
            ShapeConfig.from_dict([])
        with pytest.raises(StoreError, match=r"^config: duplicate_membership: 'error'$"):
            ShapeConfig.from_dict({"duplicate_membership": "error"})

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "shapes.json"
        p.write_text(json.dumps({"exclusive_occupancy": False}), encoding="utf-8")
        cfg = load_shape_config(p)
        assert cfg.exclusive_occupancy is False
        assert cfg.concept_domain is True

    def test_violation_sorting_is_total(self):
        vs = [
            Violation("B", ERROR, "f2", (), "m"),
            Violation("A", ERROR, "f1", ("r",), "m"),
            Violation("A", ERROR, "f1", (), "m"),
        ]
        assert sorted(vs, key=Violation.sort_key) == [vs[2], vs[1], vs[0]]
