import json
import random
from datetime import date
from pathlib import Path

import pytest

from polare.errors import AmbiguousSingletonError, OrphanSingletonError, ValueParseError
from polare.mapping import assemble_entities, emit_entities
from polare.model import Membership, Person, TimeInterval
from polare.singleton import SINGLETON_SUFFIX, from_singleton, singleton_iri, to_singleton
from polare.vocab import OWL, PREFIXES as VOCAB_PREFIXES, RDF_TYPE
from polare.wire import TripleSet, parse_triples, serialize_triples

from .genfixtures import ALL_SCHEMES, BINDINGS, new_graph, random_entity_graph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

NS = {
    "": "http://polare.org/ns#",
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "owl": "http://www.w3.org/2002/07/owl#",
    "foaf": "http://xmlns.com/foaf/0.1/",
    "org": "http://www.w3.org/ns/org#",
    "schema": "http://schema.org/",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
}


def load_fixture_listing():
    text = (FIXTURES / "singleton_person.nt").read_text(encoding="utf-8")
    prefixes = json.loads((FIXTURES / "singleton_prefixes.json").read_text(encoding="utf-8"))
    return parse_triples(text, prefixes)


class TestFromSingleton:
    def test_fixture_listing_assembles(self):
        g = from_singleton(load_fixture_listing())
        people = g.of_type(Person)
        memberships = g.of_type(Membership)
        assert [p.name for p in people] == ["John Doe"]
        assert len(memberships) == 1
        (m,) = memberships
        assert m.person == people[0].id
        assert m.post == "http://polare.org/ns#Post_1"
        assert m.interval == TimeInterval(date(2015, 1, 1), None)
        assert len(g.residue) == 0

    def test_membership_id_is_the_singleton_iri(self):
        g = from_singleton(load_fixture_listing())
        (m,) = g.of_type(Membership)
        assert m.id == "http://polare.org/ns#occupies_1"

    def test_orphan_singleton_rejected(self):
        text = (
            ":s1 :singletonPropertyOf :occupies .\n"
            ":s1 schema:startDate \"2015-01-01\"^^xsd:date .\n"
        )
        with pytest.raises(OrphanSingletonError):
            from_singleton(parse_triples(text, NS))

    def test_ambiguous_singleton_rejected(self):
        text = (
            ":a :s1 :post .\n"
            ":b :s1 :post .\n"
            ":s1 :singletonPropertyOf :occupies .\n"
        )
        with pytest.raises(AmbiguousSingletonError):
            from_singleton(parse_triples(text, NS))

    def test_ambiguous_base_property_rejected(self):
        text = (
            ":a :s1 :post .\n"
            ":s1 :singletonPropertyOf :occupies .\n"
            ":s1 :singletonPropertyOf :otherBase .\n"
        )
        with pytest.raises(AmbiguousSingletonError):
            from_singleton(parse_triples(text, NS))

    def test_non_occupancy_singleton_goes_to_residue(self):
        text = (
            ":a :knows_1 :b .\n"
            ":knows_1 :singletonPropertyOf :knows .\n"
        )
        g = from_singleton(parse_triples(text, NS))
        assert g.of_type(Membership) == []
        preds = {p for _, p, _ in g.residue}
        assert "<http://polare.org/ns#knows_1>" in {s for s, _, _ in g.residue} | preds


    @pytest.mark.parametrize(
        "dates",
        [
            ':occupies_1 schema:startDate "2015-01-01"^^xsd:date .\n'
            ':occupies_1 schema:startDate "2015-02-01"^^xsd:date .\n',
            ':occupies_1 schema:startDate "2015-01-01" .\n',
            ":occupies_1 schema:endDate :someday .\n",
            ':occupies_1 schema:endDate "2015-02-30"^^xsd:date .\n',
        ],
        ids=["duplicate-start", "string-start", "iri-end", "bad-date-end"],
    )
    def test_bad_interval_names_the_singleton(self, dates):
        text = ":john :occupies_1 :Post_1 .\n:occupies_1 :singletonPropertyOf :occupies .\n" + dates
        with pytest.raises(ValueParseError) as info:
            from_singleton(parse_triples(text, NS))
        assert info.value.subject == "http://polare.org/ns#occupies_1"


class TestToSingleton:
    def test_plumbing_shape_for_one_membership(self):
        g = new_graph()
        g.add_all(
            [
                Person("http://x/p", "P"),
                Membership("http://x/m", "http://x/p", "http://x/seat", TimeInterval(date(2015, 1, 1), None)),
            ],
            allow_dangling=True,
        )
        ts = to_singleton(g)
        sp = singleton_iri("http://x/m")
        assert sp == "http://x/m" + SINGLETON_SUFFIX
        by_subj = {}
        for s, p, o in ts:
            by_subj.setdefault(s, set()).add((p, o))
        # the person now links straight to the post through the singleton property
        assert (f"<http://x/m{SINGLETON_SUFFIX}>", "<http://x/seat>") in by_subj["<http://x/p>"]
        # the singleton property node is typed and tied back to its base
        sp_preds = {p for p, _ in by_subj[f"<{sp}>"]}
        assert f"<{RDF_TYPE}>" in sp_preds
        assert any(p.endswith("singletonPropertyOf>") for p in sp_preds)
        types = {o for p, o in by_subj[f"<{sp}>"] if p == f"<{RDF_TYPE}>"}
        assert f"<{OWL}NamedIndividual>" in types and f"<{OWL}ObjectProperty>" in types

    def test_round_trip_modulo_suffix(self):
        listing = load_fixture_listing()
        g = from_singleton(listing)
        back = to_singleton(g)
        old = "<http://polare.org/ns#occupies_1>"
        new = f"<http://polare.org/ns#occupies_1{SINGLETON_SUFFIX}>"
        want = TripleSet(tuple(new if term == old else term for term in t) for t in listing)
        assert back == want

    def test_graph_round_trip_exact(self):
        # the minting rule is inverted on the way back, so a full cycle is
        # the identity, not just equality-up-to-renaming
        rng = random.Random(31337)
        for _ in range(20):
            g = random_entity_graph(rng, max_entities=40)
            ts = to_singleton(g)
            g2 = from_singleton(ts, schemes=ALL_SCHEMES, bindings=BINDINGS)
            assert set(g.entities()) == set(g2.entities())
            assert len(g2.residue) == 0

    def test_overhead_is_per_membership(self):
        g = new_graph()
        g.add(Person("http://x/p", "P"))
        plain = len(to_singleton(g))
        g.add_all(
            [
                Membership("http://x/m1", "http://x/p", "http://x/s1", TimeInterval(None, None)),
                Membership("http://x/m2", "http://x/p", "http://x/s2", TimeInterval(None, None)),
            ],
            allow_dangling=True,
        )
        both = len(to_singleton(g))
        # each membership contributes the same fixed plumbing; the shared base
        # property declarations appear once
        g2 = new_graph()
        g2.add(Person("http://x/p", "P"))
        g2.add_all(
            [Membership("http://x/m1", "http://x/p", "http://x/s1", TimeInterval(None, None))],
            allow_dangling=True,
        )
        one = len(to_singleton(g2))
        # shared overhead appears once: 2 base property typings + 1 individual
        # typing of the person, all deduplicated by set semantics
        assert both - one == one - plain - 3

    def test_carries_residue_through(self):
        g = new_graph()
        g.add(Person("http://x/p", "P"))
        extra = ("<http://other/a>", "<http://other/b>", "<http://other/c>")
        g.residue = TripleSet([extra])
        assert extra in to_singleton(g)


class TestTextRoundTrip:
    def test_serialized_forms_are_stable(self):
        listing = load_fixture_listing()
        g = from_singleton(listing)
        plain_text = serialize_triples(emit_entities(g))
        g2 = assemble_entities(parse_triples(plain_text))
        assert serialize_triples(to_singleton(g2)) == serialize_triples(to_singleton(g))
