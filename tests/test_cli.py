import json
import shutil
from pathlib import Path

import pytest

from polare.cli import run_cli
from polare.claims import read_claims
from polare.store import Store

from .test_claims import NOT_RFC3339

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
CLEAN = FIXTURES / "clean_store"
OVERLAP = FIXTURES / "overlap_store"

JOHN = "http://polare.org/fx/person/john"
MARY = "http://polare.org/fx/person/mary"
#: a blank node label; ``<{BNODE}>`` is an IRIREF that starts like one
BNODE = "_:a"


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_clean_store_conforms(self, capsys):
        code, out, _ = run(capsys, "validate", "--store", str(CLEAN))
        assert code == 0
        assert "conforms" in out

    def test_overlap_store_fails(self, capsys):
        code, out, _ = run(capsys, "validate", "--store", str(OVERLAP))
        assert code == 1
        assert "EXCLUSIVE_OCCUPANCY" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "validate", "--store", str(OVERLAP), "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert data["conforms"] is False
        assert data["violations"][0]["code"] == "EXCLUSIVE_OCCUPANCY"

    def test_config_can_switch_check_off(self, capsys, tmp_path):
        cfg = tmp_path / "shapes.json"
        cfg.write_text(json.dumps({"exclusive_occupancy": False}), encoding="utf-8")
        code, _, _ = run(capsys, "validate", "--store", str(OVERLAP), "--config", str(cfg))
        assert code == 0

    def test_missing_store_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", "--store", str(tmp_path / "nope"))
        assert code == 2
        assert "error" in err.lower()

    def test_asserters_filter_narrows_queries(self, capsys):
        # accept only the tribunal: the election and transaction claims drop
        # out, and the co_transaction edge to mary disappears with them
        args = ("query", "neighborhood", "--store", str(CLEAN), "--agent", MARY, "--depth", "1")
        code_all, out_all, _ = run(capsys, *args)
        code_trib, out_trib, _ = run(
            capsys, *args, "--asserters", str(FIXTURES / "asserters_tribunal.json")
        )
        assert code_all == 0 and code_trib == 0
        kinds_all = {json.loads(line)["kind"] for line in out_all.strip().splitlines()}
        kinds_trib = {json.loads(line)["kind"] for line in out_trib.strip().splitlines()}
        assert "co_transaction" in kinds_all
        assert "co_transaction" not in kinds_trib
        assert "co_membership" in kinds_trib

    def test_accepting_every_asserter_changes_nothing(self, capsys):
        args = ("query", "neighborhood", "--store", str(CLEAN), "--agent", JOHN, "--depth", "2")
        _, out_all, _ = run(capsys, *args)
        _, out_explicit, _ = run(
            capsys, *args, "--asserters", str(FIXTURES / "asserters_all.json")
        )
        assert out_all == out_explicit


#: JSON files past the decoder's depth and digit limits, and one not UTF-8
BAD_JSON = {
    "deep-nesting": b"[" * 200000 + b"]" * 200000,
    "huge-integer": b"1" * 5000,
    "not-utf8": b'{"a": "\xff"}',
}


FX = "http://polare.org/fx/"


def store_with(tmp_path, old: str, new: str) -> Path:
    """A copy of the clean store whose log asserts ``new`` in place of ``old``."""
    store_dir = tmp_path / "store"
    shutil.copytree(CLEAN, store_dir)
    log = store_dir / "claims.jsonl"
    lines = []
    for line in log.read_text(encoding="utf-8").splitlines():
        claim = json.loads(line)
        claim["assertion"] = claim["assertion"].replace(old, new)
        lines.append(json.dumps(claim, sort_keys=True, separators=(",", ":")) + "\n")
    log.write_text("".join(lines), encoding="utf-8")
    return store_dir


def store_with_literal(tmp_path, old: str, new: str) -> Path:
    """A copy of the clean store whose log spells the literal ``old`` as ``new``."""
    return store_with(tmp_path, f'"{old}"^^', f'"{new}"^^')


class TestLiteralValues:
    @pytest.mark.parametrize("lexical", ["NaN", "Infinity", "1e3", "1_000", " 1", "\u0663"])
    def test_decimal_outside_the_xsd_lexical_space(self, capsys, tmp_path, lexical):
        store_dir = store_with_literal(tmp_path, "1500.50", lexical)
        code, out, err = run(capsys, "validate", "--store", str(store_dir))
        assert code == 2 and out == ""
        assert err == f"error: {FX}tx/1001: amount: bad decimal literal {lexical!r}\n"

    @pytest.mark.parametrize("lexical", ["20161002", "2016-W40-1"])
    def test_date_outside_the_xsd_lexical_space(self, capsys, tmp_path, lexical):
        store_dir = store_with_literal(tmp_path, "2016-10-02", lexical)
        code, out, err = run(capsys, "validate", "--store", str(store_dir))
        assert code == 2 and out == ""
        assert err == f"error: {FX}election/2016: date: bad date literal {lexical!r}\n"


class TestSelfReferral:
    """A referral whose referrer is the person it refers is refused when the
    store is read, by every command that reads it."""

    REFERRED = f"<{FX}ref/john-ana> <http://polare.org/ns#referred> "

    @pytest.mark.parametrize(
        "argv",
        [["validate"], ["infer", "--out", "edges.jsonl"],
         ["query", "neighborhood", "--agent", JOHN, "--depth", "1"]],
        ids=["validate", "infer", "neighborhood"],
    )
    def test_refused(self, capsys, tmp_path, argv):
        store_dir = store_with(tmp_path, self.REFERRED + f"<{FX}person/ana>",
                               self.REFERRED + f"<{JOHN}>")
        argv = [str(tmp_path / a) if a == "edges.jsonl" else a for a in argv]
        code, out, err = run(capsys, *argv, "--store", str(store_dir))
        assert code == 2 and out == ""
        assert err == f"error: Referral {FX}ref/john-ana: {JOHN} refers itself\n"


class TestUnreadableJsonFiles:
    @pytest.mark.parametrize("content", BAD_JSON.values(), ids=BAD_JSON.keys())
    @pytest.mark.parametrize("where", ["--config", "--asserters", "scheme", "--prefixes"])
    def test_usage_error_names_the_file(self, capsys, tmp_path, where, content):
        store = tmp_path / "store"
        shutil.copytree(CLEAN, store)
        bad = store / "schemes" / "zz_bad.json" if where == "scheme" else tmp_path / "bad.json"
        bad.write_bytes(content)
        if where == "--prefixes":
            argv = ["rewrite", "--to-singleton", "--in", str(FIXTURES / "singleton_person.nt"),
                    "--out", str(tmp_path / "out.nt"), "--prefixes", str(bad)]
        else:
            argv = ["validate", "--store", str(store)]
            if where != "scheme":
                argv += [where, str(bad)]
        code, _, err = run(capsys, *argv)  # an escaping exception would be a traceback
        assert code == 2
        assert err.startswith(f"error: {bad}: ")


class TestIngest:
    def test_ingest_into_fresh_store(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        shutil.copytree(CLEAN, store_dir)
        claims_file = tmp_path / "more.jsonl"
        shutil.copy(OVERLAP / "claims.jsonl", claims_file)
        code, out, _ = run(capsys, "ingest", "--claims", str(claims_file), "--store", str(store_dir))
        assert code == 0
        assert "1 new claim(s)" in out

    def test_reingest_is_idempotent(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        shutil.copytree(CLEAN, store_dir)
        before = read_claims(store_dir / "claims.jsonl")
        code, out, _ = run(
            capsys, "ingest", "--claims", str(CLEAN / "claims.jsonl"), "--store", str(store_dir)
        )
        assert code == 0
        assert "0 new claim(s)" in out
        assert read_claims(store_dir / "claims.jsonl") == before

    def test_creates_store_layout(self, capsys, tmp_path):
        store_dir = tmp_path / "fresh"
        code, _, _ = run(
            capsys, "ingest", "--claims", str(OVERLAP / "claims.jsonl"), "--store", str(store_dir)
        )
        assert code == 0
        assert (store_dir / "claims.jsonl").exists()

    def test_bad_claims_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n", encoding="utf-8")
        code, _, err = run(capsys, "ingest", "--claims", str(bad), "--store", str(tmp_path / "s"))
        assert code == 2 and "error" in err.lower()

    def test_timestamp_outside_utc_range_is_usage_error(self, capsys, tmp_path):
        line = json.loads((OVERLAP / "claims.jsonl").read_text(encoding="utf-8").splitlines()[0])
        line["timestamp"] = "9999-12-31T23:59:59-05:00"
        bad = tmp_path / "late.jsonl"
        bad.write_text(json.dumps(line) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "ingest", "--claims", str(bad), "--store", str(tmp_path / "s"))
        assert code == 2
        assert err.startswith("error:") and "9999" in err

    @pytest.mark.parametrize("stamp", NOT_RFC3339)
    def test_timestamp_outside_rfc_3339_is_usage_error(self, capsys, tmp_path, stamp):
        line = json.loads((OVERLAP / "claims.jsonl").read_text(encoding="utf-8").splitlines()[0])
        line["timestamp"] = stamp
        bad = tmp_path / "stamp.jsonl"
        bad.write_text(json.dumps(line) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "ingest", "--claims", str(bad), "--store", str(tmp_path / "s"))
        assert code == 2 and out == ""
        assert err == f"error: {bad}:1: bad timestamp {stamp!r}: not an RFC 3339 date-time\n"

    def test_iriref_starting_like_a_blank_node_is_usage_error(self, capsys, tmp_path):
        claim = json.loads((OVERLAP / "claims.jsonl").read_text(encoding="utf-8").splitlines()[0])
        claim["assertion"] = f"<{BNODE}> <http://ex/b> <http://ex/c> .\n"
        bad = tmp_path / "bnode.jsonl"
        bad.write_text(json.dumps(claim) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "ingest", "--claims", str(bad), "--store", str(tmp_path / "s"))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "IRI may not start with '_:'" in err

    def test_batch_repeating_a_claim_counts_duplicates(self, capsys, tmp_path):
        line = (OVERLAP / "claims.jsonl").read_text(encoding="utf-8").splitlines()[0]
        batch = tmp_path / "batch.jsonl"
        batch.write_text((line + "\n") * 3, encoding="utf-8")
        store_dir = tmp_path / "s"
        code, out, _ = run(capsys, "ingest", "--claims", str(batch), "--store", str(store_dir))
        assert code == 0
        assert out == "ingested 1 new claim(s), skipped 2 duplicate(s)\n"
        assert len(read_claims(store_dir / "claims.jsonl")) == 1

    def test_append_to_a_log_without_final_newline(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        shutil.copytree(CLEAN, store_dir)
        log = store_dir / "claims.jsonl"
        log.write_bytes(log.read_bytes().rstrip(b"\n"))
        before = read_claims(log)
        again = json.loads(log.read_text(encoding="utf-8").splitlines()[0])
        again["timestamp"] = "2030-01-01T00:00:00+00:00"  # a new claim of known triples
        batch = tmp_path / "batch.jsonl"
        batch.write_text(json.dumps(again) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "ingest", "--claims", str(batch), "--store", str(store_dir))
        assert code == 0 and "ingested 1 new claim(s)" in out
        after = read_claims(log)
        assert after[:-1] == before and len(after) == len(before) + 1
        code, _, err = run(capsys, "export", "--store", str(store_dir), "--out", str(tmp_path / "o.nt"))
        assert code == 0 and err == ""


class TestInfer:
    def test_writes_jsonl(self, capsys, tmp_path):
        out_file = tmp_path / "edges.jsonl"
        code, _, _ = run(capsys, "infer", "--store", str(CLEAN), "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text(encoding="utf-8").strip().splitlines()
        edges = [json.loads(line) for line in lines]
        assert all(
            set(e) == {"a", "b", "kind", "detail", "directed", "interval", "evidence"}
            for e in edges
        )
        kinds = {e["kind"] for e in edges}
        assert {"co_membership", "family", "referral", "co_transaction", "co_case", "candidacy_post"} <= kinds

    def test_no_overlap_flag_adds_edges(self, capsys, tmp_path):
        strict, loose = tmp_path / "strict.jsonl", tmp_path / "loose.jsonl"
        run(capsys, "infer", "--store", str(CLEAN), "--out", str(strict))
        run(capsys, "infer", "--store", str(CLEAN), "--out", str(loose), "--no-overlap-required")
        n_strict = len(strict.read_text(encoding="utf-8").splitlines())
        n_loose = len(loose.read_text(encoding="utf-8").splitlines())
        assert n_loose >= n_strict


class TestQuery:
    def test_path_finds_connection(self, capsys):
        code, out, _ = run(
            capsys, "query", "path", "--store", str(CLEAN), "--from", JOHN, "--to", MARY
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows and all(r["source"] == JOHN and r["target"] == MARY for r in rows)
        assert [r["length"] for r in rows] == sorted(r["length"] for r in rows)

    def test_expect_nonempty_exit(self, capsys):
        code, out, _ = run(
            capsys,
            "query",
            "path",
            "--store",
            str(OVERLAP),
            "--from",
            JOHN,
            "--to",
            MARY,
            "--max-depth",
            "1",
            "--kinds",
            "family",
            "--expect-nonempty",
        )
        assert code == 1 and out.strip() == ""

    def test_unknown_agent_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "query", "path", "--store", str(CLEAN), "--from", JOHN, "--to", "http://nope/x"
        )
        assert code == 2 and "error" in err.lower()

    def test_kind_filter_applies(self, capsys):
        code, out, _ = run(
            capsys,
            "query",
            "path",
            "--store",
            str(CLEAN),
            "--from",
            JOHN,
            "--to",
            MARY,
            "--kinds",
            "co_membership",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert all(s["kind"] == "co_membership" for r in rows for s in r["steps"])

    def test_bad_kind_rejected(self, capsys):
        code, _, err = run(
            capsys,
            "query", "path", "--store", str(CLEAN),
            "--from", JOHN, "--to", MARY, "--kinds", "bogus",
        )
        assert code == 2

    def test_neighborhood_depth_one(self, capsys):
        code, out, _ = run(
            capsys, "query", "neighborhood", "--store", str(CLEAN), "--agent", JOHN, "--depth", "1"
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows and all(JOHN in (r["a"], r["b"]) for r in rows)

    def test_isolated_agent_empty_neighborhood(self, capsys):
        # the group has no edges of its own; it exists in the entity world
        group = "http://polare.org/fx/group/allies"
        code, out, _ = run(
            capsys, "query", "neighborhood", "--store", str(CLEAN), "--agent", group, "--depth", "2"
        )
        assert code == 0 and out.strip() == ""


class TestRewrite:
    def test_round_trip_byte_identical(self, capsys, tmp_path):
        plain1 = tmp_path / "plain1.nt"
        single = tmp_path / "single.nt"
        plain2 = tmp_path / "plain2.nt"
        code, _, _ = run(
            capsys,
            "rewrite",
            "--from-singleton",
            "--in",
            str(FIXTURES / "singleton_person.nt"),
            "--prefixes",
            str(FIXTURES / "singleton_prefixes.json"),
            "--out",
            str(plain1),
        )
        assert code == 0
        assert run_cli(["rewrite", "--to-singleton", "--in", str(plain1), "--out", str(single)]) == 0
        assert run_cli(["rewrite", "--from-singleton", "--in", str(single), "--out", str(plain2)]) == 0
        capsys.readouterr()
        assert plain1.read_bytes() == plain2.read_bytes()

    def test_direction_flags_are_exclusive(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "rewrite",
            "--to-singleton",
            "--from-singleton",
            "--in",
            str(FIXTURES / "singleton_person.nt"),
            "--out",
            str(tmp_path / "o.nt"),
        )
        assert code == 2

    def test_parse_error_in_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.nt"
        bad.write_text("this is not a triple\n", encoding="utf-8")
        code, _, err = run(
            capsys, "rewrite", "--to-singleton", "--in", str(bad), "--out", str(tmp_path / "o.nt")
        )
        assert code == 2 and "error" in err.lower()

    def test_iriref_starting_like_a_blank_node(self, capsys, tmp_path):
        # as an IRI it must not become the blank node _:a on the way out
        bad = tmp_path / "bnode.nt"
        bad.write_text(
            f"<{BNODE}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
            "<http://xmlns.com/foaf/0.1/Person> .\n"
            f'<{BNODE}> <http://xmlns.com/foaf/0.1/name> "A" .\n',
            encoding="utf-8",
        )
        for direction in ("--to-singleton", "--from-singleton"):
            code, out, err = run(
                capsys, "rewrite", direction, "--in", str(bad), "--out", str(tmp_path / "o.nt")
            )
            assert code == 2 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1
            assert "line 1, column 1" in err and "IRI may not start with '_:'" in err
        assert not (tmp_path / "o.nt").exists()

    @pytest.mark.parametrize(
        "namespace, reason",
        [("_:", "IRI may not start with '_:'"), ("http://e.org/a b", "character ' ' not allowed inside IRI")],
    )
    def test_prefixed_name_expanding_to_a_bad_iri(self, capsys, tmp_path, namespace, reason):
        # neither may become a blank node or a line polare cannot read back
        src = tmp_path / "in.nt"
        src.write_text(
            "x:c <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://xmlns.com/foaf/0.1/Person> .\n"
            'x:c <http://xmlns.com/foaf/0.1/name> "A" .\n',
            encoding="utf-8",
        )
        prefixes = tmp_path / "prefixes.json"
        prefixes.write_text(json.dumps({"x": namespace}), encoding="utf-8")
        code, out, err = run(
            capsys, "rewrite", "--from-singleton", "--in", str(src), "--prefixes", str(prefixes),
            "--out", str(tmp_path / "o.nt"),
        )
        assert code == 2 and out == ""
        assert "line 1, column 1" in err and reason in err
        assert not (tmp_path / "o.nt").exists()


class TestExport:
    def test_export_parses_back(self, capsys, tmp_path):
        out_file = tmp_path / "full.nt"
        code, _, _ = run(capsys, "export", "--store", str(CLEAN), "--out", str(out_file))
        assert code == 0
        from polare.mapping import assemble_entities
        from polare.wire import parse_triples

        store = Store(CLEAN)
        g = assemble_entities(
            parse_triples(out_file.read_text(encoding="utf-8")),
            schemes=store.load_schemes(),
            bindings=store.load_bindings(),
        )
        assert len(g.entities()) > 0 and len(g.residue) == 0

    def test_export_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.nt", tmp_path / "b.nt"
        run(capsys, "export", "--store", str(CLEAN), "--out", str(a))
        run(capsys, "export", "--store", str(CLEAN), "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
