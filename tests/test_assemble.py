import random
from datetime import date
from decimal import Decimal

import pytest

from polare.errors import MissingFieldError, TypeConflictError, ValueParseError
from polare.mapping import assemble_entities, emit_entities, triples_for_entity
from polare.model import (
    Membership,
    Person,
    Post,
    TimeInterval,
    Transaction,
)
from polare.vocab import PREFIXES as VOCAB_PREFIXES
from polare.wire import TripleSet, parse_triples, serialize_triples

from .genfixtures import ALL_SCHEMES, BINDINGS, new_graph, random_entity_graph

P = dict(VOCAB_PREFIXES)
P[""] = "http://x/"


def assemble(text, **kw):
    kw.setdefault("schemes", ALL_SCHEMES)
    kw.setdefault("bindings", BINDINGS)
    return assemble_entities(parse_triples(text, P), **kw)


MEMBERSHIP_LISTING = """\
:m rdf:type org:Membership .
:m org:member :john .
:m pol:hasPost :seat .
:m schema:startDate "2015-01-01"^^xsd:date .
:m schema:endDate "2016-12-31"^^xsd:date .
:john rdf:type foaf:Person .
:john foaf:name "John" .
"""

# fields are read in declaration order, so a bad amount or date is reported
# before the missing participants
TRANSACTION = """\
:t rdf:type pol:Transaction .
:t pol:amount "1500.50"^^xsd:decimal .
:t pol:currency "BRL" .
:t pol:transactionObject :o .
:t dc:date "2015-01-01"^^xsd:date .
"""


class TestAssembly:
    def test_membership_with_interval(self):
        g = assemble(MEMBERSHIP_LISTING)
        m = g.get("http://x/m")
        assert isinstance(m, Membership)
        assert m.person == "http://x/john"
        assert m.post == "http://x/seat"
        assert m.interval == TimeInterval(date(2015, 1, 1), date(2016, 12, 31))
        assert len(g.residue) == 0

    def test_open_interval_defaults(self):
        g = assemble(
            ":m rdf:type org:Membership .\n:m org:member :j .\n:m pol:hasPost :s .\n"
            ":j rdf:type foaf:Person .\n:j foaf:name \"J\" .\n"
        )
        assert g.get("http://x/m").interval == TimeInterval(None, None)

    def test_missing_required_field(self):
        with pytest.raises(MissingFieldError):
            assemble(":m rdf:type org:Membership .\n:m org:member :j .\n")

    def test_conflicting_type_declarations(self):
        with pytest.raises(TypeConflictError):
            assemble(":x rdf:type foaf:Person .\n:x rdf:type org:Organization .\n:x foaf:name \"X\" .\n")

    def test_repeated_single_valued_field_rejected(self):
        with pytest.raises((TypeConflictError, ValueParseError)):
            assemble(
                ":p rdf:type foaf:Person .\n:p foaf:name \"A\" .\n:p foaf:name \"B\" .\n"
            )

    def test_bad_date_literal(self):
        with pytest.raises(ValueParseError):
            assemble(
                ":m rdf:type org:Membership .\n:m org:member :j .\n:m pol:hasPost :s .\n"
                ':m schema:startDate "not-a-date"^^xsd:date .\n'
            )

    @pytest.mark.parametrize(
        "dates",
        [
            ':m schema:startDate "2015-01-01"^^xsd:date .\n:m schema:startDate "2015-02-01"^^xsd:date .\n',
            ':m schema:startDate "2015-01-01" .\n',
            ':m schema:endDate :someday .\n',
            ':m schema:endDate "2015-02-30"^^xsd:date .\n',
        ],
        ids=["duplicate-start", "string-start", "iri-end", "bad-date-end"],
    )
    def test_bad_interval_names_the_entity(self, dates):
        with pytest.raises(ValueParseError) as info:
            assemble(":m rdf:type org:Membership .\n:m org:member :j .\n:m pol:hasPost :s .\n" + dates)
        assert info.value.subject == "http://x/m"

    def test_bad_decimal_literal(self):
        with pytest.raises(ValueParseError):
            assemble(
                ":t rdf:type pol:Transaction .\n"
                ':t pol:amount "12,5"^^xsd:decimal .\n'
                ':t pol:currency "BRL" .\n'
                ":t pol:transactionObject :o .\n"
                ':t dc:date "2015-01-01"^^xsd:date .\n'
            )

    @pytest.mark.parametrize("lexical", ["NaN", "Infinity", "1e3", "1_000", " 1", "\u0663"])
    def test_decimal_outside_the_xsd_lexical_space(self, lexical):
        with pytest.raises(ValueParseError) as info:
            assemble(TRANSACTION.replace("1500.50", lexical))
        assert info.value.subject == "http://x/t"
        assert info.value.reason == f"amount: bad decimal literal {lexical!r}"

    @pytest.mark.parametrize("lexical", ["20161002", "2016-W40-1"])
    def test_date_outside_the_xsd_lexical_space(self, lexical):
        with pytest.raises(ValueParseError) as info:
            assemble(TRANSACTION.replace("2015-01-01", lexical))
        assert info.value.subject == "http://x/t"
        assert info.value.reason == f"date: bad date literal {lexical!r}"

    def test_unexpected_datatype_rejected(self):
        with pytest.raises(ValueParseError):
            assemble(
                ":p rdf:type foaf:Person .\n"
                ':p foaf:name "J"^^xsd:integer .\n'
            )

    def test_dangling_references_tolerated(self):
        # references may point outside the listing; assembly keeps them as ids
        g = assemble(
            ":m rdf:type org:Membership .\n:m org:member :ghost .\n:m pol:hasPost :s .\n"
        )
        assert g.get("http://x/m").person == "http://x/ghost"
        assert ("http://x/m", "person", "http://x/ghost") in g.dangling_refs()


class TestResidue:
    def test_unrecognized_triples_preserved(self):
        text = MEMBERSHIP_LISTING + ":john ex:shoeSize \"42\" .\n"
        p = dict(P)
        p["ex"] = "http://example.org/"
        g = assemble_entities(parse_triples(text, p), schemes=ALL_SCHEMES, bindings=BINDINGS)
        assert len(g.residue) == 1
        (left,) = g.residue
        assert left[1] == "<http://example.org/shoeSize>"

    def test_conservation_recognized_plus_residue(self):
        rng = random.Random(777)
        for _ in range(20):
            g = random_entity_graph(rng, max_entities=40)
            ts = emit_entities(g)
            g2 = assemble_entities(ts, schemes=ALL_SCHEMES, bindings=BINDINGS)
            consumed = TripleSet(emit_entities(g2))
            assert len(consumed) + len(g2.residue) == len(ts)

    def test_foreign_graph_is_all_residue(self):
        text = "<http://other/a> <http://other/b> <http://other/c> .\n"
        g = assemble_entities(parse_triples(text))
        assert g.entities() == [] and len(g.residue) == 1


class TestEmission:
    def test_emit_then_assemble_round_trip(self):
        rng = random.Random(1234)
        for _ in range(30):
            g = random_entity_graph(rng, max_entities=50)
            ts = emit_entities(g)
            g2 = assemble_entities(ts, schemes=ALL_SCHEMES, bindings=BINDINGS)
            assert set(g.entities()) == set(g2.entities())
            assert len(g2.residue) == 0

    def test_serialized_emission_is_stable(self):
        rng = random.Random(5150)
        g = random_entity_graph(rng, max_entities=40)
        text = serialize_triples(emit_entities(g))
        g2 = assemble_entities(parse_triples(text), schemes=ALL_SCHEMES, bindings=BINDINGS)
        assert serialize_triples(emit_entities(g2)) == text

    def test_optional_fields_omitted_when_default(self):
        post = Post("http://x/s", "http://x/o", "http://x/r")
        ts = triples_for_entity(post)
        preds = {p for _, p, _ in ts}
        assert not any(p.endswith("exclusive>") for p in preds)

    def test_optional_fields_emitted_when_set(self):
        post = Post("http://x/s", "http://x/o", "http://x/r", exclusive=False)
        preds = {p for _, p, _ in triples_for_entity(post)}
        assert any(p.endswith("exclusive>") for p in preds)

    def test_decimal_amount_survives(self):
        g = new_graph()
        people = [Person(f"http://x/p{i}", f"P{i}") for i in range(2)]
        from polare.model import Participation, TransactionObject
        from .genfixtures import TX_ROLE_SCHEME, concept_ids

        obj = TransactionObject("http://x/o", "service", "svc")
        tx = Transaction(
            "http://x/t",
            tuple(Participation(p.id, concept_ids(TX_ROLE_SCHEME)[i]) for i, p in enumerate(people)),
            obj.id,
            Decimal("1500.50"),
            "BRL",
            date(2016, 8, 1),
        )
        g.add_all(people + [obj, tx])
        g2 = assemble_entities(emit_entities(g), schemes=ALL_SCHEMES, bindings=BINDINGS)
        assert g2.get("http://x/t").amount == Decimal("1500.50")
