"""The traced run: the benchmark's command sequence in one process, with a
span around every call into a public polare function.

Spans are recorded from the benchmark's own code, by wrapping the public
functions where polare's modules look them up; nothing under ``src/`` is
changed.  Each span keeps its name, start, end and parent in memory, and
the spans are written out when the run ends.  The first part of a span
name is its layer (``claims.read`` belongs to ``claims``); command spans
(``cmd.*``) belong to ``cli``.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import json
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "claims", "wire", "store", "mapping", "model", "validation", "inference",
          "queries", "singleton")

MODEL_TYPES = ("Person", "Organization", "Post", "Membership", "DirectRel", "Referral",
               "Election", "Candidacy", "Transaction", "LegalCase", "Vote")

GENERATORS = ("family", "co_membership", "referral", "co_transaction", "co_case",
              "candidacy_post")


class Tracer:
    """In-memory spans: [name, start, end, parent index, root index]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = {}
        self.results: dict = {}  # (root name, span name) -> last result

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        root = self.stack[0] if self.stack else sid
        self.spans.append([name, perf_counter(), None, parent, root])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            tracer.results[(tracer.spans[tracer.spans[sid][4]][0], name)] = result
            if count is not None:
                count(tracer, args, result)
            return result

        return traced

    # aggregation ----------------------------------------------------------

    def root_name(self, span) -> str:
        return self.spans[span[4]][0]

    def total(self, name: str, root_prefix: str = "") -> float:
        """Summed duration of every span of that name under matching roots."""
        return sum(
            s[2] - s[1]
            for s in self.spans
            if s[0] == name and self.root_name(s).startswith(root_prefix)
        )

    def self_times(self, root_prefix: str = "cmd.") -> dict:
        """Per-layer self time: each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None:
                child[s[3]] += s[2] - s[1]
        out = dict.fromkeys(LAYERS, 0.0)
        for i, s in enumerate(self.spans):
            if self.root_name(s).startswith(root_prefix):
                layer = s[0].split(".", 1)[0]
                out["cli" if layer == "cmd" else layer] += s[2] - s[1] - child[i]
        return out

    def top_level(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] is None)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3], "root": s[4]}
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"spans": rows, "counts": self.counts}) + "\n", encoding="utf-8")


def _count_parse(tracer, args, result) -> None:
    tracer.add("wire.bytes_parsed", len(args[0]))  # the generated data is ASCII
    tracer.add("wire.triples_parsed", len(result))


def _count_serialize(tracer, args, result) -> None:
    if tracer.stack and tracer.spans[tracer.stack[0]][0] == "cmd.export":
        tracer.add("wire.bytes_out", len(result))


def install(tracer: Tracer) -> list:
    """Wrap the public functions; returns what ``uninstall`` restores."""
    from polare import claims, cli, model, store

    patches = [
        (claims, "read_claims", "claims.read", None),
        (claims, "parse_triples", "wire.parse", _count_parse),
        (claims.ClaimStore, "ingest", "claims.ingest", None),
        (claims.ClaimStore, "view_by_asserters", "claims.view", None),
        (claims.ClaimStore, "triples", "claims.triples", None),
        (cli, "read_claims", "claims.read_input", None),
        (cli, "parse_triples", "wire.parse_file", None),
        (cli, "serialize_triples", "wire.serialize", _count_serialize),
        (store.Store, "load_claims", "store.load_claims", None),
        (store.Store, "append_claims", "store.append", None),
        (store.Store, "graph", "store.graph", None),
        (store, "assemble_entities", "mapping.assemble", None),
        (cli, "assemble_entities", "mapping.assemble", None),
        (cli, "emit_entities", "mapping.emit", None),
        (model.EntityGraph, "add_all", "model.add_all", None),
        (model.EntityGraph, "entities", "model.entities", None),
        (model.EntityGraph, "of_type", "model.of_type", None),
        (cli, "validate_graph", "validation.validate", None),
        (cli, "materialize", "inference.materialize", None),
        (cli, "edges_to_jsonl", "inference.jsonl", None),
        (cli, "find_paths", "queries.find_paths", None),
        (cli, "neighborhood", "queries.neighborhood", None),
        (cli, "paths_to_jsonl", "queries.jsonl", None),
        (cli, "to_singleton", "singleton.to_singleton", None),
    ]
    saved = []
    for owner, attr, name, count in patches:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, count))
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def run_commands(tracer: Tracer, commands: list) -> dict:
    """Run (label, argv) pairs through polare's CLI entry point in this
    process, each under a ``cmd.<label>`` span; returns label -> (exit
    code, or the exception it raised, and stdout)."""
    from polare.cli import run_cli

    out = {}
    for label, argv in commands:
        # a fresh process would not re-scan what earlier commands left behind
        gc.collect()
        gc.freeze()
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), tracer.span("cmd." + label):
                code = run_cli(argv)
        except Exception as e:  # the CLI process would have died; compare as a failure
            code = f"raised {e!r}"
        out[label] = (code, buf.getvalue())
    return out


def run_generators(tracer: Tracer, graph) -> dict:
    """Call each public edge generator on its own, one top-level span each."""
    from polare import inference

    generated = {}
    for kind in GENERATORS:
        fn = getattr(inference, kind + "_edges")
        with tracer.span("inference." + kind):
            generated[kind] = len(fn(graph))
    return generated


def layer_metrics(tracer: Tracer, wall: float, generated: dict, log_bytes: int) -> dict:
    """Every per-layer metric of the benchmark, from one traced pass."""
    from workloads import VIOLATION_CODES

    r = tracer.results
    cs = r[("cmd.validate", "store.load_claims")]
    graph = r[("cmd.validate", "mapping.assemble")]
    report = r[("cmd.validate", "validation.validate")]
    rg = r[("cmd.infer", "inference.materialize")]
    appended, duplicates = r[("cmd.append", "store.append")]
    asserted = sum(len(c.assertion) for c in cs.claims())
    distinct = len(cs.triples())
    m = {}
    m["claims.read_s"] = tracer.total("claims.read")
    m["claims.ingest_s"] = tracer.total("claims.ingest")
    m["claims.view_s"] = tracer.total("claims.view")
    m["claims.count"] = len(cs)
    m["claims.triples_asserted"] = asserted
    m["claims.triples_distinct"] = distinct
    m["claims.corroborations"] = sum(len(cs.corroborated_triples(c.id)) for c in cs.claims())
    m["claims.log_bytes"] = log_bytes
    m["claims.useful_ratio"] = distinct / asserted
    m["wire.parse_s"] = tracer.total("wire.parse")
    m["wire.serialize_s"] = tracer.total("wire.serialize", "cmd.export")
    for key in ("wire.bytes_parsed", "wire.triples_parsed", "wire.bytes_out"):
        m[key] = tracer.counts.get(key, 0)
    m["store.load_claims_s"] = tracer.total("store.load_claims")
    m["store.append_s"] = tracer.total("store.append")
    m["store.appended"] = appended
    m["store.duplicates"] = duplicates
    m["mapping.assemble_s"] = tracer.total("mapping.assemble")
    m["mapping.emit_s"] = tracer.total("mapping.emit")
    m["mapping.residue"] = len(graph.residue)
    m["model.entities"] = len(graph)
    by_type = {}
    for e in graph.entities():
        by_type[type(e).__name__] = by_type.get(type(e).__name__, 0) + 1
    for name in MODEL_TYPES:
        m["model.entities." + name] = by_type.get(name, 0)
    m["model.dangling_refs"] = len(graph.dangling_refs())
    m["validation.validate_s"] = tracer.total("validation.validate")
    violations = report.counts_by_code()
    for code in VIOLATION_CODES:
        m["validation.violations." + code] = violations.get(code, 0)
    m["inference.materialize_s"] = tracer.total("inference.materialize")
    for kind in GENERATORS:
        m[f"inference.{kind}_s"] = tracer.total("inference." + kind)
    m["inference.jsonl_s"] = tracer.total("inference.jsonl", "cmd.infer")
    edges = {}
    for e in rg.edges():
        edges[e.kind] = edges.get(e.kind, 0) + 1
    for kind in GENERATORS:
        m["inference.generated." + kind] = generated[kind]
        m["inference.edges." + kind] = edges.get(kind, 0)
    m["inference.dedup_ratio"] = len(rg) / sum(generated.values())
    m["queries.find_paths_s"] = tracer.total("queries.find_paths")
    m["queries.neighborhood_s"] = tracer.total("queries.neighborhood")
    m["queries.jsonl_s"] = tracer.total("queries.jsonl")
    m["queries.paths"] = len(r[("cmd.query_path", "queries.find_paths")])
    m["queries.neighborhood_edges"] = len(r[("cmd.query_neighborhood", "queries.neighborhood")])
    m["singleton.to_singleton_s"] = tracer.total("singleton.to_singleton")
    for layer, seconds in tracer.self_times().items():
        m[layer + ".self_s"] = seconds
    m["trace.coverage"] = tracer.top_level() / wall
    return m
