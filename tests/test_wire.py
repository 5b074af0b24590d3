import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polare.errors import WireParseError
from polare.wire import (
    _UNESCAPES,
    TripleSet,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DECIMAL,
    XSD_STRING,
    canonicalize,
    id_for_term,
    iri,
    is_canonical,
    is_literal,
    join_triples,
    literal,
    literal_parts,
    parse_triples,
    serialize_triples,
    split_canonical,
    term_for_id,
)

PREFIXES = {
    "": "http://polare.org/ns#",
    "ex": "http://example.org/",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
}


#: a blank node label; ``<{BNODE}>`` is an IRIREF that starts like one
BNODE = "_:a"


def t(s, p, o):
    return (f"<{s}>", f"<{p}>", o)


class TestParsing:
    def test_plain_statement(self):
        got = parse_triples('<http://ex/a> <http://ex/b> <http://ex/c> .\n')
        assert got == TripleSet([t("http://ex/a", "http://ex/b", "<http://ex/c>")])

    def test_prefixed_names_expand(self):
        got = parse_triples(":John ex:knows :Mary .\n", PREFIXES)
        (tr,) = got
        assert tr[0] == "<http://polare.org/ns#John>"
        assert tr[1] == "<http://example.org/knows>"
        assert tr[2] == "<http://polare.org/ns#Mary>"

    def test_prefixed_datatype(self):
        got = parse_triples(':a ex:d "2015-01-01"^^xsd:date .\n', PREFIXES)
        (tr,) = got
        assert tr[2] == literal("2015-01-01", XSD_DATE)

    def test_full_iri_datatype(self):
        line = '<http://ex/a> <http://ex/d> "1.5"^^<http://www.w3.org/2001/XMLSchema#decimal> .\n'
        (tr,) = parse_triples(line)
        assert tr[2] == literal("1.5", XSD_DECIMAL)

    def test_bare_literal_is_string(self):
        (tr,) = parse_triples('<http://ex/a> <http://ex/n> "John Doe" .\n')
        assert literal_parts(tr[2]) == ("John Doe", XSD_STRING)

    def test_escape_sequences(self):
        (tr,) = parse_triples('<http://ex/a> <http://ex/n> "say \\"hi\\"\\n\\t\\\\" .\n')
        assert literal_parts(tr[2])[0] == 'say "hi"\n\t\\'

    def test_comments_and_blank_lines_skipped(self):
        text = "# leading comment\n\n<http://ex/a> <http://ex/b> <http://ex/c> .\n   \n# end\n"
        assert len(parse_triples(text)) == 1

    def test_repeated_statement_collapses(self):
        text = "<http://ex/a> <http://ex/b> <http://ex/c> .\n" * 3
        assert len(parse_triples(text)) == 1

    def test_whitespace_tolerance(self):
        text = "  <http://ex/a>\t<http://ex/b>   <http://ex/c>   .\n"
        assert len(parse_triples(text)) == 1


class TestParseErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "<http://ex/a> <http://ex/b> .\n",  # missing object
            "<http://ex/a> <http://ex/b> <http://ex/c>\n",  # missing dot
            '"lit" <http://ex/b> <http://ex/c> .\n',  # literal subject
            "<http://ex/a> \"lit\" <http://ex/c> .\n",  # literal predicate
            "<http://ex/a> <http://ex/b> <http://ex/c> . extra\n",  # trailing junk
            '<http://ex/a> <http://ex/b> "unterminated .\n',
            "nothing here\n",
        ],
    )
    def test_malformed_statement(self, bad):
        with pytest.raises(WireParseError):
            parse_triples(bad)

    def test_unknown_prefix(self):
        with pytest.raises(WireParseError):
            parse_triples("zz:a ex:b ex:c .\n", PREFIXES)

    def test_pname_without_prefix_map(self):
        with pytest.raises(WireParseError):
            parse_triples(":a :b :c .\n")

    def test_error_carries_line_number(self):
        text = "<http://ex/a> <http://ex/b> <http://ex/c> .\nbroken line\n"
        with pytest.raises(WireParseError) as exc:
            parse_triples(text)
        assert "line 2" in str(exc.value)

    @pytest.mark.parametrize(
        "line, column, reason",
        [
            # IRIs: unterminated, empty, a forbidden character before the
            # closing '>', and one reached because the '>' is missing
            ("<http://ex/a> <http://ex/b> <http://ex/c", 29, "unterminated IRI"),
            ("<> <http://ex/b> <http://ex/c> .", 1, "empty IRI"),
            ("<http://ex/a> <> <http://ex/c> .", 15, "empty IRI"),
            ("<http://ex/a> <http://ex/b\t> <http://ex/c> .", 27, "character '\\t' not allowed inside IRI"),
            ("<http://ex/a> <http://ex/b> <http://ex/<c> .", 40, "character '<' not allowed inside IRI"),
            ("<http://ex/a <http://ex/b> <http://ex/c> .", 13, "character ' ' not allowed inside IRI"),
            ("<http://ex/a> <http://ex/b> <http://ex/c .", 41, "character ' ' not allowed inside IRI"),
            ('<http://ex/a> <http://ex/b> "x"^^<http://ex/d .', 46, "character ' ' not allowed inside IRI"),
            # an IRI scheme starts with a letter, so no IRIREF starts with '_:'
            (f"<{BNODE}> <http://ex/b> <http://ex/c> .", 1, "IRI may not start with '_:'"),
            (f"<http://ex/a> <http://ex/b> <{BNODE}> .", 29, "IRI may not start with '_:'"),
            # literals and blank nodes
            ('<http://ex/a> <http://ex/b> "x .', 29, "unterminated literal"),
            ('<http://ex/a> <http://ex/b> "x\\', 32, "dangling escape at end of line"),
            ('<http://ex/a> <http://ex/b> "x\\q" .', 33, "unknown escape \\q"),
            ('<http://ex/a> <http://ex/b> "x\\uZZZZ" .', 33, "bad \\u escape"),
            ('<http://ex/a> <http://ex/b> "x\\U0001F60" .', 33, "bad \\U escape"),
            ("_:. <http://ex/b> <http://ex/c> .", 1, "empty blank node label"),
            ("<http://ex/a> <http://ex/b> _:", 29, "empty blank node label"),
            # an escape must name a Unicode scalar value; reported at its backslash
            *(
                (f'<http://ex/a> <http://ex/b> "x{esc}" .', 31, f"{esc} is not a Unicode scalar value")
                for esc in ("\\U00110000", "\\UFFFFFFFF", "\\uD800", "\\uDFFF", "\\U0000DC00")
            ),
            ('<http://ex/a> <http://ex/b> "x\\uD83D\\uDE00" .', 31, "\\uD83D is not a Unicode scalar value"),
        ],
    )
    def test_error_position_is_exact(self, line, column, reason):
        with pytest.raises(WireParseError) as exc:
            parse_triples("<http://ex/a> <http://ex/b> <http://ex/c> .\n" + line + "\n")
        assert (exc.value.line, exc.value.column, exc.value.reason) == (2, column, reason)

    @pytest.mark.parametrize(
        "line, namespace, column, reason",
        [
            # a prefixed name expands to an IRI held to the IRIREF rule,
            # and a fault is reported at the prefixed name
            ("<http://ex/a> <http://ex/b> x:a .", "_:", 29, "IRI may not start with '_:'"),
            ("x:c <http://ex/b> <http://ex/c> .", "http://e.org/a b", 1, "character ' ' not allowed inside IRI"),
            ('<http://ex/a> <http://ex/b> "1"^^x:d .', "http://e/\t", 34, "character '\\t' not allowed inside IRI"),
            ("<http://ex/a> x:b> <http://ex/c> .", "http://e/", 15, "character '>' not allowed inside IRI"),
            ("<http://ex/a> x:<b <http://ex/c> .", "http://e/", 15, "character '<' not allowed inside IRI"),
            ("<http://ex/a> <http://ex/b> x:c .", "http://e/\n", 29, "character '\\n' not allowed inside IRI"),
            ("<http://ex/a> <http://ex/b> x: .", "", 29, "empty IRI"),
        ],
    )
    def test_prefixed_name_expanding_to_a_bad_iri(self, line, namespace, column, reason):
        with pytest.raises(WireParseError) as exc:
            parse_triples("<http://ex/a> <http://ex/b> <http://ex/c> .\n" + line + "\n", {"x": namespace})
        assert (exc.value.line, exc.value.column, exc.value.reason) == (2, column, reason)

    def test_largest_scalar_values_accepted(self):
        (tr,) = parse_triples('<http://ex/a> <http://ex/b> "\\U0010FFFF\\uD7FF\\uE000" .\n')
        assert literal_parts(tr[2])[0] == "\U0010ffff\ud7ff\ue000"


class TestSerialization:
    def test_sorted_and_newline_terminated(self):
        ts = TripleSet(
            [
                t("http://ex/b", "http://ex/p", "<http://ex/x>"),
                t("http://ex/a", "http://ex/p", literal("v", XSD_STRING)),
            ]
        )
        text = serialize_triples(ts)
        lines = text.splitlines()
        assert text.endswith("\n")
        assert lines == sorted(lines)

    def test_render_escapes(self):
        assert literal('a"b\\c\nd', XSD_STRING) == '"a\\"b\\\\c\\nd"'

    def test_string_datatype_left_implicit(self):
        ts = TripleSet([t("http://ex/a", "http://ex/p", literal("v", XSD_STRING))])
        line = serialize_triples(ts)
        assert line == '<http://ex/a> <http://ex/p> "v" .\n'

    def test_non_string_datatype_explicit(self):
        ts = TripleSet([t("http://ex/a", "http://ex/p", literal("true", XSD_BOOLEAN))])
        line = serialize_triples(ts)
        assert line.endswith('"true"^^<http://www.w3.org/2001/XMLSchema#boolean> .\n')

    def test_serialize_is_stable_under_input_order(self):
        a = t("http://ex/a", "http://ex/p", "<http://ex/x>")
        b = t("http://ex/b", "http://ex/p", "<http://ex/y>")
        assert serialize_triples(TripleSet([a, b])) == serialize_triples(TripleSet([b, a]))


iris = st.sampled_from([f"<http://ex/{n}>" for n in "abcdefg"])
lexicals = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"),
    max_size=24,
)
objects = st.one_of(iris, st.builds(literal, lexicals, st.just(XSD_STRING)))
triples = st.tuples(iris, iris, objects)


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(triples, max_size=12))
    def test_parse_inverts_serialize(self, items):
        ts = TripleSet(items)
        assert parse_triples(serialize_triples(ts)) == ts

    @settings(max_examples=60, deadline=None)
    @given(st.lists(triples, max_size=8))
    def test_serialize_fixed_point(self, items):
        ts = TripleSet(items)
        once = serialize_triples(ts)
        assert serialize_triples(parse_triples(once)) == once


# -- scanner round trip over every term shape ---------------------------------

# an IRI body may not open like a blank node label (TestParseErrors)
iri_values = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters=" \t<>\n\r"),
    min_size=1,
    max_size=16,
).filter(lambda s: not s.startswith("_:"))
blank_labels = st.text(alphabet="ab9_-.é", min_size=1, max_size=10).filter(
    lambda s: not s.endswith(".")
)
wire_iris = iri_values.map(iri)
nodes = st.one_of(wire_iris, blank_labels.map(lambda label: "_:" + label))
separators = st.text(alphabet=" \t", min_size=1, max_size=3)


def _spellings(c: str) -> list:
    """Every way the wire format can spell one character inside a literal."""
    out = [] if c in '"\\\n\r' else [c]
    out += ["\\" + k for k, v in _UNESCAPES.items() if v == c]
    if ord(c) <= 0xFFFF:
        out += [f"\\u{ord(c):04x}", f"\\u{ord(c):04X}"]
    out.append(f"\\U{ord(c):08x}")
    return out


literal_chars = st.one_of(
    st.sampled_from(sorted(set(_UNESCAPES.values()))),
    st.characters(blacklist_categories=("Cs",)),
)
spelled_chars = literal_chars.flatmap(
    lambda c: st.tuples(st.just(c), st.sampled_from(_spellings(c)))
)


@st.composite
def literal_terms(draw):
    """(literal term, one wire spelling of it), with escapes chosen at random."""
    pieces = draw(st.lists(spelled_chars, max_size=12))
    datatype = draw(st.one_of(st.just(XSD_STRING), iri_values))
    text = '"' + "".join(s for _, s in pieces) + '"'
    if datatype != XSD_STRING or draw(st.booleans()):
        text += f"^^<{datatype}>"
    return literal("".join(c for c, _ in pieces), datatype), text


@st.composite
def statement_lines(draw):
    """(triple, one wire line spelling it) with random whitespace runs."""
    s, p = draw(nodes), draw(wire_iris)
    if draw(st.booleans()):
        o, o_text = draw(literal_terms())
    else:
        o = o_text = draw(nodes)
    line = "".join(
        [
            draw(st.text(alphabet=" \t", max_size=2)),
            s,
            draw(separators),
            p,
            draw(separators),
            o_text,
            draw(st.text(alphabet=" \t", max_size=2)),
            ".",
            draw(st.text(alphabet=" \t", max_size=2)),
        ]
    )
    return (s, p, o), line


class TestScannerProperty:
    @settings(max_examples=300, deadline=None)
    @given(nodes, wire_iris, st.one_of(nodes, literal_terms().map(lambda lt: lt[0])))
    def test_parse_inverts_render_triple(self, s, p, o):
        ts = TripleSet([(s, p, o)])
        assert parse_triples(serialize_triples(ts)) == ts

    @settings(max_examples=300, deadline=None)
    @given(statement_lines())
    def test_any_spelling_parses_to_its_triple(self, case):
        tr, line = case
        assert parse_triples(line + "\n") == TripleSet([tr])


# IRIs the scanner accepts that the generated ones above never hold
odd_iris = st.sampled_from(['<"x">', "<a\rb>", "<a\\b>", "<_>", "<a_:b>", "<http://ex/^^>"])
any_objects = st.one_of(nodes, odd_iris, literal_terms().map(lambda lt: lt[0]))
any_triples = st.tuples(st.one_of(nodes, odd_iris), st.one_of(wire_iris, odd_iris), any_objects)


@st.composite
def texts_of_lines(draw):
    """Wire text of 1-6 statements, each spelled canonically or not, in
    sorted order or not, sometimes with a repeat, a comment or CRLF ends."""
    cases = draw(st.lists(st.one_of(statement_lines(), any_triples.map(lambda t: (t, None))),
                          min_size=1, max_size=6))
    lines = [
        join_triples([t])[:-1] if spelled is None or draw(st.booleans()) else spelled
        for t, spelled in cases
    ]
    if draw(st.booleans()):
        lines.sort()
    if draw(st.integers(0, 9)) == 0:
        lines.append(draw(st.sampled_from(lines)))
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), "# note")
    end = "\r\n" if draw(st.integers(0, 9)) == 0 else "\n"
    return "".join(line + end for line in lines)


class TestCanonicalCheck:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(any_triples, min_size=1, max_size=8))
    def test_canonical_text_splits_into_its_ordered_triples(self, items):
        ordered, text = canonicalize(items)
        assert split_canonical(text) == ordered
        assert is_canonical(text)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(any_triples, min_size=1, max_size=8))
    def test_line_order_is_tuple_order(self, items):
        assert sorted(items, key=lambda t: join_triples([t])) == sorted(items)

    @settings(max_examples=300, deadline=None)
    @given(texts_of_lines())
    def test_check_accepts_exactly_what_canonicalize_writes(self, text):
        ordered, canonical = canonicalize(parse_triples(text))
        got = split_canonical(text)
        assert (got is not None) == (canonical == text) == is_canonical(text)
        if got is not None:
            assert got == ordered

    @pytest.mark.parametrize(
        "text",
        [
            "",
            f"<{BNODE}> <http://ex/b> <http://ex/c> .\n",
            '<http://ex/a> <http://ex/b> "x"^^<_:dt> .\n',
            "_:b. <http://ex/b> <http://ex/c> .\n",
            "<http://ex/a> <http://ex/b> _:b. .\n",
            '<http://ex/a> <http://ex/b> "x\\u0041" .\n',
            f'<http://ex/a> <http://ex/b> "x"^^<{XSD_STRING}> .\n',
            "<http://ex/a> <http://ex/b> <http://ex/c> .",
        ],
        ids=["empty", "iri-like-blank", "datatype-like-blank", "blank-subject-dot",
             "blank-object-dot", "u-escape", "explicit-string", "no-final-newline"],
    )
    def test_non_canonical_spellings_refused(self, text):
        assert split_canonical(text) is None

    def test_check_is_linear_in_the_line_count(self):
        def best_time(n):
            ordered, text = canonicalize(
                (f"<http://ex/s{i:06d}>", "<http://ex/p>", literal(f"v{i}")) for i in range(n)
            )
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                got = split_canonical(text)
                times.append(time.perf_counter() - t0)
            assert got == ordered
            return min(times)

        small, large = best_time(5_000), best_time(50_000)
        assert large < 30 * small  # ten times the lines; a quadratic check takes 100 times


# prefix maps whose namespaces hold what an IRI may not, with local names
# holding what a prefixed name may
namespaces = st.text(alphabet=' \t<>\n\r"_:/aé.', max_size=5)
pname_locals = st.text(alphabet='ab_:.<>"é-', max_size=4)


@st.composite
def prefixed_documents(draw):
    """(text, prefixes): statements whose IRIs are prefixed names or IRIREFs."""
    prefixes = draw(st.dictionaries(st.sampled_from(["", "x", "y"]), namespaces, min_size=1))
    names = st.builds(lambda p, local: f"{p}:{local}", st.sampled_from(sorted(prefixes)), pname_locals)
    terms = st.one_of(names, wire_iris)
    objects = st.one_of(terms, st.builds(lambda dt: f'"v"^^{dt}', terms))
    lines = draw(st.lists(st.tuples(terms, terms, objects), min_size=1, max_size=4))
    return "".join(f"{s} {p} {o} .\n" for s, p, o in lines), prefixes


class TestPrefixedNameProperty:
    @settings(max_examples=300, deadline=None)
    @given(prefixed_documents())
    def test_what_parses_serializes_to_text_that_parses_back(self, case):
        text, prefixes = case
        try:
            ts = parse_triples(text, prefixes)
        except WireParseError:
            return
        out = serialize_triples(ts)
        assert parse_triples(out) == ts
        assert split_canonical(out) == sorted(ts)


# -- term spellings -------------------------------------------------------------

# any text, with the characters a spelling escapes or splits at drawn often
any_text = st.one_of(st.text(max_size=16), st.text(alphabet='"\\\n\r\t^<>_:a', max_size=16))
# the scanner allows '"' inside an IRI, so a datatype may hold '"' and '"^^<'
datatypes = st.one_of(
    st.just(XSD_STRING),
    any_text,
    st.sampled_from(['x"y', '"^^<', 'a"^^<b', XSD_DATE + '"^^<' + XSD_DECIMAL]),
)


class TestTermProperties:
    @settings(max_examples=300, deadline=None)
    @given(any_text, datatypes)
    def test_literal_parts_inverts_literal(self, lexical, datatype):
        term = literal(lexical, datatype)
        assert is_literal(term)
        assert literal_parts(term) == (lexical, datatype)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(any_text, any_text.map(lambda s: "_:" + s)))
    def test_id_for_term_inverts_term_for_id(self, eid):
        term = term_for_id(eid)
        assert not is_literal(term)
        assert id_for_term(term) == eid
