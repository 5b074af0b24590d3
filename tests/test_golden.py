"""Pinned command-line outputs on the shipped fixtures.

Each command runs in-process, and one sha256 over its exit code, its stdout
and the file it writes with ``--out`` must equal the entry in ``GOLDEN``,
so any change to what a command prints, writes or returns fails here.
A change meant to alter an output regenerates the table with
``PYTHONPATH=src python3 tests/test_golden.py`` and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from polare.claims import read_claims
from polare.cli import run_cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
JOHN = "http://polare.org/fx/person/john"
MARY = "http://polare.org/fx/person/mary"


def store_commands(store: str, work: Path) -> list:
    """(label, argv, --out file or None) in run order: the rewrites read the
    export written before them."""
    tribunal = ["--asserters", str(FIXTURES / "asserters_tribunal.json")]
    filters = ["--kinds", "family,co_membership,co_case", "--at-date", "2018-03-01"]
    export, single, back = (work / name for name in ("export.nt", "singleton.nt", "back.nt"))
    edges, edges_open = work / "edges.jsonl", work / "edges_open.jsonl"
    return [
        ("validate", ["validate", "--store", store], None),
        ("validate_trib", ["validate", "--store", store, *tribunal], None),
        ("validate_json", ["validate", "--store", store, "--format", "json"], None),
        ("validate_json_trib", ["validate", "--store", store, "--format", "json", *tribunal],
         None),
        ("infer", ["infer", "--store", store, "--out", str(edges)], edges),
        ("infer_open", ["infer", "--store", store, "--no-overlap-required",
                        "--out", str(edges_open)], edges_open),
        ("export", ["export", "--store", store, "--out", str(export)], export),
        ("query_path", ["query", "path", "--store", store, "--from", JOHN, "--to", MARY,
                        "--max-depth", "3"], None),
        ("query_neighborhood", ["query", "neighborhood", "--store", store, "--agent", JOHN,
                                "--depth", "2"], None),
        ("query_path_default", ["query", "path", "--store", store, "--from", JOHN, "--to", MARY],
         None),
        ("query_path_filtered", ["query", "path", "--store", store, "--from", JOHN, "--to", MARY,
                                 "--max-depth", "3", *filters], None),
        ("query_neighborhood_filtered", ["query", "neighborhood", "--store", store,
                                         "--agent", JOHN, "--depth", "2", *filters], None),
        ("to_singleton", ["rewrite", "--to-singleton", "--in", str(export),
                          "--out", str(single)], single),
        ("from_singleton", ["rewrite", "--from-singleton", "--in", str(single),
                            "--out", str(back)], back),
    ]


def fixture_commands(work: Path) -> list:
    out = work / "person.nt"
    return [
        ("from_singleton", ["rewrite", "--from-singleton",
                            "--in", str(FIXTURES / "singleton_person.nt"),
                            "--prefixes", str(FIXTURES / "singleton_prefixes.json"),
                            "--out", str(out)], out),
    ]


def digests(commands: list) -> dict:
    """label -> sha256 of the exit code, the stdout and the --out file."""
    got = {}
    for label, argv, out_file in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run_cli(argv)
        digest = hashlib.sha256(f"exit {code}\n{buf.getvalue()}\0".encode("utf-8"))
        if out_file is not None:
            digest.update(out_file.read_bytes())
        got[label] = digest.hexdigest()
    return got


def run_case(case: str, work: Path) -> dict:
    if case == "singleton_person":
        return digests(fixture_commands(work))
    return digests(store_commands(str(FIXTURES / case), work))


GOLDEN = {
    "clean_store": {
        "validate": "9c3c8ab7a6b5e56fc76994b8ecd430c2245e35bddbfe6bf0b44d4e8d23924130",
        "validate_trib": "9c3c8ab7a6b5e56fc76994b8ecd430c2245e35bddbfe6bf0b44d4e8d23924130",
        "validate_json": "6ce61aa344b7c18dc5211584ec6db68330c3b733cd62f02feb32d0740dca546c",
        "validate_json_trib": "6ce61aa344b7c18dc5211584ec6db68330c3b733cd62f02feb32d0740dca546c",
        "infer": "45d146578760a26e6d2a9ba5c1b77b4b887b173ebfe7170d5dbf56b12f4db8b1",
        "infer_open": "3a906177b166e2bad1061870515fe44f0c8d5303893bdad378a12f16d34b960d",
        "export": "038e9ce4f5c9831bea77e9ddfa84099097bccebdc32387e78f49db9cf81aac2d",
        "query_path": "f7911d25f52fd1067b74eb3e06dbf81ff5020ea177e2bed7f4f84a947d0f1988",
        "query_neighborhood": "5a68723482f3d0837aab04654f91a878eaf31ddacd2e2213d5617a90de8f6867",
        "query_path_default": "f7911d25f52fd1067b74eb3e06dbf81ff5020ea177e2bed7f4f84a947d0f1988",
        "query_path_filtered": "acc7103dbc93d862c4870db1fd2ed463abefe2d81980dd697f805c1513d11355",
        "query_neighborhood_filtered": "fb41a808923e281f48f21abcc84ebc30f000ba0a7761f6d5b6a654fe22d7eeec",
        "to_singleton": "365ea3f15372efc85a7a6f22bbf8122029ed3ed840b82f4a1e4eecd49185ed87",
        "from_singleton": "038e9ce4f5c9831bea77e9ddfa84099097bccebdc32387e78f49db9cf81aac2d",
    },
    "overlap_store": {
        "validate": "325e1850a43e12c5da10a57a3a5ded0aebb99668fc1001d384f3ac662851801c",
        "validate_trib": "325e1850a43e12c5da10a57a3a5ded0aebb99668fc1001d384f3ac662851801c",
        "validate_json": "c20e73e30174c638c3d3221a51ef28770ba3de0e907485cd2ceedf15a46464aa",
        "validate_json_trib": "c20e73e30174c638c3d3221a51ef28770ba3de0e907485cd2ceedf15a46464aa",
        "infer": "600593f4a52187fee862bb4d65d14472d9e971b3fb0642c73afbe69faef8505c",
        "infer_open": "2b66b6bbce743ad0153be592e4894da7021d642e0d3fa7f8686ecba42c81203c",
        "export": "255a8833744a798462227c0a9f821f42d7a12aeaa0d6d7f814110ce3e372babb",
        "query_path": "e5a6174544772b0afe4c8294463e9939972bf4402f0995a74d85fb0e43c38f89",
        "query_neighborhood": "7a4e5eca23dfabdbebce993fafbd9a9dc7a38466733c7a4c301e039ac7db50f8",
        "query_path_default": "e5a6174544772b0afe4c8294463e9939972bf4402f0995a74d85fb0e43c38f89",
        "query_path_filtered": "c0b0bbaed78e12fd51b184900f58deabadd9747d5c9e53e9d592e9736bf3cc6b",
        "query_neighborhood_filtered": "c0b0bbaed78e12fd51b184900f58deabadd9747d5c9e53e9d592e9736bf3cc6b",
        "to_singleton": "f14479a343775578e105663e1a2453282af421a15de33fe6d17c6d97f27d3673",
        "from_singleton": "255a8833744a798462227c0a9f821f42d7a12aeaa0d6d7f814110ce3e372babb",
    },
    "singleton_person": {
        "from_singleton": "876f5306858ea3970401b45b36055a919ee86321656b97b401bdf69257c42258",
    },
}


#: sha256 of the claim ids of clean_store then overlap_store, in log order,
#: one per line; a change to term spelling, canonical order or hashing fails it
CLAIM_IDS = "ffdd2a312e4b50aed0725ef7524b0af73652c093b3eff082eb107b588b666092"


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_outputs_match_the_pinned_digests(case, tmp_path):
    assert run_case(case, tmp_path) == GOLDEN[case]


def test_claim_ids_are_pinned():
    ids = [
        claim.id
        for store in ("clean_store", "overlap_store")
        for claim in read_claims(FIXTURES / store / "claims.jsonl")
    ]
    assert hashlib.sha256("\n".join(ids).encode("utf-8")).hexdigest() == CLAIM_IDS


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for case in ("clean_store", "overlap_store", "singleton_person"):
            work = Path(tmp) / case
            work.mkdir()
            print(f'    "{case}": {{')
            for label, digest in run_case(case, work).items():
                print(f'        "{label}": "{digest}",')
            print("    },")
        print("}")
