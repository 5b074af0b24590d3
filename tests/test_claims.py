import json
import random
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polare import claims as claims_module
from polare.claims import (
    Claim,
    ClaimStore,
    Provenance,
    claim_from_json,
    claim_to_json,
    load_claimstore,
    parse_timestamp,
    read_claim_ids,
    read_claims,
    write_claims,
)
from polare.errors import ClaimError, EmptyAssertionError, PolareError, StoreError
from polare.wire import (
    XSD_STRING,
    TripleSet,
    literal,
    literal_parts,
    parse_triples,
    serialize_triples,
    split_canonical,
)

from .oracles import filter_claims_scan, first_writer_owner
from .test_wire import any_triples

T0 = datetime(2020, 1, 1, tzinfo=timezone.utc)
#: instants whose UTC equivalent falls outside datetime's range
OUT_OF_RANGE = ["9999-12-31T23:59:59-05:00", "0001-01-01T00:00:00+05:00"]
#: ISO 8601 spellings that are no RFC 3339 date-time; some Pythons'
#: fromisoformat reads them
NOT_RFC3339 = [
    "2016-10-02",
    "2016-10-02T10Z",
    "20161002T100000Z",
    "2016-W40-1T10:00:00Z",
    "2016-10-02T10:00:00,5Z",
    "2016-10-02T10:00:00+0530",
]


def tr(n: int) -> tuple:
    return ("<http://x/s>", "<http://x/p>", f"<http://x/o{n}>")


def claim(asserter="http://x/a", ts=T0, *ns, source="s"):
    return Claim(asserter, source, ts, tuple(tr(n) for n in (ns or (0,))))


class TestClaimIdentity:
    def test_id_is_deterministic(self):
        assert claim().id == claim().id
        assert claim().id.startswith("urn:claim:")

    def test_id_ignores_assertion_order(self):
        a = Claim("http://x/a", "s", T0, (tr(1), tr(2)))
        b = Claim("http://x/a", "s", T0, (tr(2), tr(1)))
        assert a.id == b.id

    def test_id_ignores_duplicate_triples(self):
        a = Claim("http://x/a", "s", T0, (tr(1), tr(1), tr(2)))
        b = Claim("http://x/a", "s", T0, (tr(1), tr(2)))
        assert a.id == b.id

    def test_id_depends_on_asserter_and_time(self):
        base = claim()
        assert claim(asserter="http://x/b").id != base.id
        assert claim(ts=datetime(2021, 1, 1, tzinfo=timezone.utc)).id != base.id

    def test_id_independent_of_source(self):
        # the source string is descriptive metadata, not identity
        assert claim(source="s1").id == claim(source="s2").id

    def test_equivalent_timezone_spellings_agree(self):
        from datetime import timedelta, timezone as tz

        plus2 = tz(timedelta(hours=2))
        a = Claim("http://x/a", "s", datetime(2020, 1, 1, 12, tzinfo=timezone.utc), (tr(0),))
        b = Claim("http://x/a", "s", datetime(2020, 1, 1, 14, tzinfo=plus2), (tr(0),))
        assert a.id == b.id

    def test_empty_assertion_rejected(self):
        with pytest.raises(EmptyAssertionError):
            Claim("http://x/a", "s", T0, ())

    def test_timestamp_outside_utc_range_rejected(self):
        late = datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone(timedelta(hours=-5)))
        with pytest.raises(ClaimError):
            Claim("http://x/a", "s", late, (tr(0),))

    def test_id_and_order_are_pinned(self):
        # ids are stored in logs, so the hashed canonical text must never drift
        lit = ("_:b.1", "<http://x/q>", literal('a "b"\n\tc', "http://x/dt"))
        c = Claim("http://x/a", "s", T0, (tr(2), lit, tr(1), tr(2)))
        assert c.id == "urn:claim:46f01249c63ce05628ef030104f6892fedf6e1cf1321f0ce8715278b7edf624e"
        assert c.assertion == (tr(1), tr(2), lit)
        assert json.loads(claim_to_json(c))["assertion"] == serialize_triples(TripleSet(c.assertion))


class TestParseTimestamp:
    def test_zulu_suffix(self):
        assert parse_timestamp("2020-01-01T00:00:00Z") == T0

    def test_offset_preserved_as_utc(self):
        got = parse_timestamp("2020-01-01T02:00:00+02:00")
        assert got == T0

    def test_naive_treated_as_utc(self):
        assert parse_timestamp("2020-01-01T00:00:00") == T0

    def test_lower_case_t_and_z(self):
        assert parse_timestamp("2020-01-01t00:00:00z") == T0

    @pytest.mark.parametrize(
        "text, micro",
        [("2020-01-01T00:00:00.5Z", 500000), ("2020-01-01T00:00:00.123Z", 123000),
         ("2020-01-01T00:00:00.1234567Z", 123456)],
    )
    def test_fraction_keeps_six_digits(self, text, micro):
        assert parse_timestamp(text) == T0.replace(microsecond=micro)

    @pytest.mark.parametrize("text", NOT_RFC3339)
    def test_other_iso_8601_spellings_rejected(self, text):
        with pytest.raises(ClaimError, match="not an RFC 3339 date-time"):
            parse_timestamp(text)

    @pytest.mark.parametrize("text", ["2020-13-01T00:00:00Z", "2020-01-01T24:00:00Z"])
    def test_field_out_of_range_rejected(self, text):
        with pytest.raises(ClaimError, match="bad timestamp"):
            parse_timestamp(text)

    def test_garbage_rejected(self):
        with pytest.raises(ClaimError):
            parse_timestamp("yesterday")

    @pytest.mark.parametrize("text", OUT_OF_RANGE)
    def test_outside_utc_range_rejected(self, text):
        with pytest.raises(ClaimError):
            parse_timestamp(text)


class TestIngest:
    def test_first_writer_owns(self):
        cs = ClaimStore()
        c1 = cs.ingest([tr(1)], "http://x/a", "s", T0)
        c2 = cs.ingest([tr(1), tr(2)], "http://x/b", "s", T0)
        p1 = cs.provenance_of(tr(1))
        assert p1.owner.id == c1
        assert [w.id for w in p1.corroborations] == [c2]
        p2 = cs.provenance_of(tr(2))
        assert p2.owner.id == c2 and p2.corroborations == ()

    def test_identical_reingest_is_noop(self):
        cs = ClaimStore()
        c1 = cs.ingest([tr(1)], "http://x/a", "s", T0)
        again = cs.ingest([tr(1)], "http://x/a", "s", T0)
        assert again == c1
        assert len(cs.claims()) == 1
        assert cs.provenance_of(tr(1)).corroborations == ()

    def test_provenance_of_unknown_triple_is_empty(self):
        cs = ClaimStore()
        assert cs.provenance_of(tr(9)) == Provenance(None, ())

    def test_owned_and_corroborated_partition_each_claim(self):
        cs = ClaimStore()
        cs.ingest([tr(1)], "http://x/a", "s", T0)
        cid = cs.ingest([tr(1), tr(2)], "http://x/b", "s", T0)
        assert set(cs.owned_triples(cid)) == {tr(2)}
        assert set(cs.corroborated_triples(cid)) == {tr(1)}

    def test_triples_copy_the_ownership_index_without_hashing(self):
        cs = ClaimStore()
        cs.ingest([tr(3), tr(1)], "http://x/a", "s", T0)
        cs.ingest([tr(1), tr(2), tr(3)], "http://x/b", "s", T0)
        got = cs.triples()
        assert list(got) == [tr(1), tr(3), tr(2)]  # first-assertion order

    def test_every_triple_has_exactly_one_owner(self):
        rng = random.Random(2020)
        cs = ClaimStore()
        log = []
        seen = set()
        for i in range(60):
            asserter = f"http://x/agent{rng.randrange(5)}"
            ts = datetime(2020, 1, 1 + i % 27, tzinfo=timezone.utc)
            triples = [tr(rng.randrange(12)) for _ in range(rng.randint(1, 5))]
            cid = cs.ingest(triples, asserter, "s", ts)
            if cid not in seen:  # duplicate ingests are no-ops, mirror that
                seen.add(cid)
                log.append((cid, tuple(TripleSet(triples))))
        want = first_writer_owner(log)
        for t in cs.triples():
            assert cs.provenance_of(t).owner.id == log[want[t]][0]

    def test_asserters_sorted(self):
        cs = ClaimStore()
        cs.ingest([tr(1)], "http://x/b", "s", T0)
        cs.ingest([tr(2)], "http://x/a", "s", T0)
        assert cs.asserters() == ["http://x/a", "http://x/b"]


class TestViews:
    def build(self, rng):
        cs = ClaimStore()
        log = []
        for i in range(40):
            asserter = f"http://x/agent{rng.randrange(4)}"
            ts = datetime(2020, 1, 1 + i % 25, tzinfo=timezone.utc)
            triples = [tr(rng.randrange(10)) for _ in range(rng.randint(1, 4))]
            cs.ingest(triples, asserter, "s", ts)
            log.append((asserter, tuple(TripleSet(triples))))
        return cs, log

    def test_view_matches_linear_scan(self):
        rng = random.Random(11)
        cs, log = self.build(rng)
        all_asserters = sorted({a for a, _ in log})
        for k in range(len(all_asserters) + 1):
            for _ in range(4):
                accepted = set(rng.sample(all_asserters, k=k))
                got = cs.view_by_asserters(accepted)
                want = filter_claims_scan(log, accepted)
                assert set(got) == want

    def test_view_of_all_asserters_is_everything(self):
        rng = random.Random(12)
        cs, log = self.build(rng)
        everyone = set(cs.asserters())
        assert set(cs.view_by_asserters(everyone)) == set(cs.triples())

    def test_view_is_monotone_in_accepted_set(self):
        rng = random.Random(13)
        cs, _ = self.build(rng)
        asserters = list(cs.asserters())
        seen = set()
        for i in range(len(asserters)):
            now = set(cs.view_by_asserters(set(asserters[: i + 1])))
            assert seen <= now
            seen = now

    def test_empty_accepted_set_is_empty_view(self):
        rng = random.Random(14)
        cs, _ = self.build(rng)
        assert len(cs.view_by_asserters(set())) == 0


class TestClaimFiles:
    def test_json_round_trip(self):
        c = Claim("http://x/a", "src", T0, (tr(1), tr(2)))
        got = claim_from_json(claim_to_json(c))
        assert got == c and got.id == c.id

    def test_json_assertion_is_single_string(self):
        c = Claim("http://x/a", "src", T0, (tr(1),))
        obj = json.loads(claim_to_json(c))
        assert isinstance(obj["assertion"], str)
        assert obj["assertion"].endswith(" .\n")

    def test_file_round_trip(self, tmp_path):
        cs = [
            Claim("http://x/a", "s1", T0, (tr(1), tr(2))),
            Claim("http://x/b", "s2", datetime(2021, 5, 5, tzinfo=timezone.utc), (tr(2),)),
        ]
        path = tmp_path / "claims.jsonl"
        write_claims(cs, path)
        assert read_claims(path) == list(cs)

    def test_append_mode(self, tmp_path):
        path = tmp_path / "claims.jsonl"
        write_claims([claim()], path)
        write_claims([claim(ts=datetime(2022, 2, 2, tzinfo=timezone.utc))], path, append=True)
        assert len(read_claims(path)) == 2

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "claims.jsonl"
        path.write_text(claim_to_json(claim()) + "\n\n\n", encoding="utf-8")
        assert len(read_claims(path)) == 1

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "claims.jsonl"
        path.write_text(claim_to_json(claim()) + "\n{oops\n", encoding="utf-8")
        with pytest.raises(StoreError) as exc:
            read_claims(path)
        assert ":2:" in str(exc.value)

    def test_missing_key_rejected(self):
        with pytest.raises(StoreError):
            claim_from_json('{"asserter": "a", "assertion": "x"}')

    def test_bad_assertion_text_rejected(self):
        bad = json.dumps(
            {
                "asserter": "http://x/a",
                "source": "s",
                "timestamp": "2020-01-01T00:00:00Z",
                "assertion": "not a triple\n",
            }
        )
        with pytest.raises(StoreError):
            claim_from_json(bad)

    def test_load_claimstore_replays_in_file_order(self, tmp_path):
        path = tmp_path / "claims.jsonl"
        first = Claim("http://x/a", "s", T0, (tr(1),))
        second = Claim("http://x/b", "s", datetime(2021, 1, 1, tzinfo=timezone.utc), (tr(1),))
        write_claims([first, second], path)
        cs = load_claimstore(path)
        assert cs.provenance_of(tr(1)).owner.id == first.id
        # reversing the file reverses ownership: order of appearance decides
        write_claims([second, first], path)
        cs2 = load_claimstore(path)
        assert cs2.provenance_of(tr(1)).owner.id == second.id

    @pytest.mark.parametrize("key", ["asserter", "source", "timestamp", "assertion"])
    def test_unencodable_field_reports_origin(self, tmp_path, key):
        # a lone surrogate survives json.loads but cannot be hashed or stored
        obj = json.loads(claim_to_json(claim()))
        obj[key] = obj[key][:-5] + "\ud800" + obj[key][-5:]
        path = tmp_path / "claims.jsonl"
        path.write_text(claim_to_json(claim()) + "\n" + json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(StoreError) as exc:
            read_claims(path)
        assert f"{path}:2:" in str(exc.value) and repr(key) in str(exc.value)

    def test_bad_escape_in_assertion_reports_origin(self, tmp_path):
        obj = json.loads(claim_to_json(claim()))
        obj["assertion"] = '<http://x/s> <http://x/p> "\\U00110000" .\n'
        path = tmp_path / "claims.jsonl"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(StoreError) as exc:
            read_claims(path)
        assert f"{path}:1:" in str(exc.value) and "column 28" in str(exc.value)

    @pytest.mark.parametrize(
        "line",
        ["[" * 100_000, '{"asserter": ' + "1" * 5000 + "}"],
        ids=["deep-nesting", "huge-integer"],
    )
    def test_json_decoder_limits_reported(self, tmp_path, line):
        path = tmp_path / "claims.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(StoreError) as exc:
            read_claims(path)
        assert f"{path}:1:" in str(exc.value)

    @pytest.mark.parametrize("sep", ["\u0085", "\u2028", "\u2029"], ids=["NEL", "LS", "PS"])
    def test_unicode_line_breaks_stay_inside_strings(self, tmp_path, sep):
        # JSON allows these raw inside a string; only "\n" ends a claim line
        c = claim(source=f"page{sep}1")
        raw = json.loads(claim_to_json(c))
        line = json.dumps(raw, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
        path = tmp_path / "claims.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        assert read_claims(path) == [c]
        for bad in (b"{not json\n", b"\xff\n"):
            path.write_bytes((line + "\n").encode("utf-8") + bad)
            with pytest.raises(StoreError) as exc:
                read_claims(path)
            assert f"{path}:2:" in str(exc.value)

    def test_append_to_a_log_without_final_newline(self, tmp_path):
        # the batch starts on a fresh line instead of running into the last claim
        path = tmp_path / "claims.jsonl"
        path.write_text(claim_to_json(claim()), encoding="utf-8")
        later = [claim(ts=datetime(2022, 2, 2, tzinfo=timezone.utc)), claim("http://x/b")]
        write_claims(later, path, append=True)
        assert read_claims(path) == [claim(), *later]
        assert path.read_text(encoding="utf-8").count("\n") == 3

    def test_claim_ids_match_read_claims(self, tmp_path):
        canonical = claim_to_json(claim("http://x/a", T0, 2, 1))
        respelled = json.loads(canonical)
        respelled["timestamp"] = "2020-01-01T00:00:00Z"
        respelled["assertion"] = "".join(reversed(respelled["assertion"].splitlines(True)))
        path = tmp_path / "claims.jsonl"
        path.write_text(f"{canonical}\n\n{json.dumps(respelled)}\n", encoding="utf-8")
        assert read_claim_ids(path) == [c.id for c in read_claims(path)]
        assert read_claim_ids(path) == [claim("http://x/a", T0, 1, 2).id] * 2

    def test_invalid_utf8_reports_line(self, tmp_path):
        path = tmp_path / "claims.jsonl"
        path.write_bytes(claim_to_json(claim()).encode() + b"\n\xff\xfe\n")
        with pytest.raises(StoreError) as exc:
            read_claims(path)
        assert f"{path}:2:" in str(exc.value)


# -- replaying canonical lines against the full parse -----------------------------

timestamps = st.datetimes(
    min_value=datetime(1900, 1, 1),
    max_value=datetime(2100, 1, 1),
    timezones=st.sampled_from([timezone.utc, timezone(timedelta(hours=-7, minutes=-30))]),
)
claims = st.builds(
    Claim,
    st.text(min_size=1, max_size=8),
    st.text(max_size=8),
    timestamps,
    st.lists(any_triples, min_size=1, max_size=6).map(tuple),
)


def _full_parse(data: dict) -> Claim:
    """The claim as the full parse builds it, whatever the spelling."""
    ts = parse_timestamp(data["timestamp"])
    return Claim(data["asserter"], data["source"], ts, tuple(parse_triples(data["assertion"])))


def _fields(c: Claim) -> tuple:
    return (c.id, c.assertion, c.timestamp, c.asserter, c.source)


def _respell_line(triple: tuple, sep: str, escape: bool, typed: bool) -> str:
    """One non-canonical spelling of a statement line."""
    s, p, o = triple
    if o.startswith('"'):
        lexical, datatype = literal_parts(o)
        if escape and lexical:
            body = "".join(f"\\u{ord(c):04x}" if ord(c) <= 0xFFFF else f"\\U{ord(c):08x}" for c in lexical)
            o = f'"{body}"' + ("" if datatype == XSD_STRING else f"^^<{datatype}>")
        if typed and datatype == XSD_STRING:
            o += f"^^<{XSD_STRING}>"
    return sep.join((s, p, o)) + sep + "."


@st.composite
def respellings(draw):
    """(claim, a claim-file line spelling the same claim in some other way)."""
    c = draw(claims)
    data = json.loads(claim_to_json(c))
    triples = list(c.assertion)
    if draw(st.booleans()):
        triples = draw(st.permutations(triples))
    if draw(st.booleans()):
        triples.append(draw(st.sampled_from(triples)))
    lines = [
        _respell_line(t, draw(st.sampled_from([" ", "  \t"])), draw(st.booleans()), draw(st.booleans()))
        for t in triples
    ]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "# a comment")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    data["assertion"] = "".join(line + end for line in lines)
    stamp = draw(st.sampled_from(["canonical", "Z", "offset", "naive"]))
    utc = c.timestamp.replace(tzinfo=None)
    data["timestamp"] = {
        "canonical": data["timestamp"],
        "Z": utc.isoformat() + "Z",
        "offset": c.timestamp.astimezone(timezone(timedelta(hours=5, minutes=45))).isoformat(),
        "naive": utc.isoformat(),
    }[stamp]
    return c, json.dumps(data)


class TestCanonicalReplay:
    @settings(max_examples=200, deadline=None)
    @given(claims)
    def test_canonical_line_agrees_with_the_full_parse(self, c):
        line = claim_to_json(c)
        data = json.loads(line)
        assert split_canonical(data["assertion"]) is not None
        with mock.patch.object(claims_module, "parse_triples", side_effect=AssertionError):
            got = claim_from_json(line)
        assert _fields(got) == _fields(_full_parse(data)) == _fields(c)
        assert claim_to_json(got) == line

    @settings(max_examples=300, deadline=None)
    @given(respellings())
    def test_other_spellings_take_the_full_parse(self, case):
        c, line = case
        data = json.loads(line)
        canonical = json.loads(claim_to_json(c))
        respelled = (data["assertion"], data["timestamp"]) != (canonical["assertion"], canonical["timestamp"])
        with mock.patch.object(claims_module, "parse_triples", wraps=parse_triples) as parse:
            got = claim_from_json(line)
        assert parse.called == respelled
        assert _fields(got) == _fields(_full_parse(data)) == _fields(c)

    @pytest.mark.parametrize(
        "assertion, reason",
        [
            ("<_:x> <http://x/p> <http://x/o> .\n", "line 1, column 1: IRI may not start with '_:'"),
            ("_:b. <http://x/p> <http://x/o> .\n", "line 1, column 4: expected whitespace after subject"),
            ("<http://x/s> <http://x/p> _:b. .\n", "line 1, column 32: unexpected content after '.'"),
        ],
    )
    def test_spellings_the_check_refuses_keep_their_errors(self, tmp_path, assertion, reason):
        obj = {**json.loads(claim_to_json(claim())), "assertion": assertion}
        path = tmp_path / "claims.jsonl"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        for read in (read_claims, read_claim_ids):
            with pytest.raises(StoreError) as exc:
                read(path)
            assert str(exc.value) == f"{path}:1: bad assertion payload: {reason}"

    def test_long_assertion_replays_through_the_check(self):
        c = Claim("http://x/a", "s", T0, tuple(tr(n) for n in range(50_000)))
        line = claim_to_json(c)
        with mock.patch.object(claims_module, "parse_triples", side_effect=AssertionError):
            got = claim_from_json(line)
        assert got.id == c.id and got.assertion == c.assertion


# -- fuzz: malformed claim lines fail as PolareError, never anything else ------

LITERAL_TRIPLE = ("<http://x/s>", "<http://x/q>", literal("v\n"))
VALID_OBJ = json.loads(claim_to_json(Claim("http://x/a", "s", T0, (tr(1), LITERAL_TRIPLE))))
VALID_LINE = json.dumps(VALID_OBJ, sort_keys=True, separators=(",", ":"))
CLAIM_KEYS = sorted(VALID_OBJ)

field_texts = st.one_of(
    st.text(max_size=12),
    st.sampled_from(
        [
            "\ud800",
            "x\udfff",
            "",
            *OUT_OF_RANGE,
            "2020-01-01T00:00:00Z",
            VALID_OBJ["assertion"],
            '<http://x/s> <http://x/p> "\\U00110000" .\n',
            '<http://x/s> <http://x/p> "\\uD800" .\n',
            "<http://x/s> <http://x/p> _:b. .\n",
        ]
    ),
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | field_texts,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _splice(cut: tuple) -> str:
    start, end, insert = cut
    return VALID_LINE[:start] + insert + VALID_LINE[end:]


malformed_lines = st.one_of(
    st.binary(max_size=40),
    json_values.map(json.dumps),
    # a valid claim with one field replaced
    st.tuples(st.sampled_from(CLAIM_KEYS), json_values).map(
        lambda kv: json.dumps({**VALID_OBJ, kv[0]: kv[1]})
    ),
    # a valid claim line with a span cut out and something spliced in
    st.tuples(
        st.integers(0, len(VALID_LINE)), st.integers(0, len(VALID_LINE)), st.text(max_size=4)
    ).map(_splice),
)


class TestReadClaimsFuzz:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(malformed_lines, min_size=1, max_size=3), st.booleans())
    def test_malformed_lines_raise_only_polare_errors(self, lines, valid_first):
        encoded = [x if isinstance(x, bytes) else x.encode("utf-8", "surrogatepass") for x in lines]
        data = b"\n".join(([VALID_LINE.encode()] if valid_first else []) + encoded) + b"\n"
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "claims.jsonl"
            path.write_bytes(data)
            try:
                read_claims(path)
            except PolareError:
                pass

    @settings(max_examples=200, deadline=None)
    @given(st.lists(malformed_lines, min_size=1, max_size=3), st.booleans())
    def test_claim_ids_fail_as_read_claims_fails(self, lines, valid_first):
        encoded = [x if isinstance(x, bytes) else x.encode("utf-8", "surrogatepass") for x in lines]
        data = b"\n".join(([VALID_LINE.encode()] if valid_first else []) + encoded) + b"\n"
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "claims.jsonl"
            path.write_bytes(data)
            outcomes = []
            for read in (lambda p: [c.id for c in read_claims(p)], read_claim_ids):
                try:
                    outcomes.append(read(path))
                except PolareError as e:
                    outcomes.append(f"{type(e).__name__}: {e}")
            assert outcomes[0] == outcomes[1]
