"""Command line: ingest -> validate -> infer -> query over a store directory.

Exit codes: 0 success (and, for validate, conforms); 1 validation found
error-severity violations, or a query came back empty under
``--expect-nonempty``; 2 parse, IO or usage errors.
"""

from __future__ import annotations

import argparse
import sys
from datetime import date
from pathlib import Path
from typing import Optional

from .errors import PolareError, StoreError
from .claims import read_claims
from .inference import edges_to_jsonl, materialize
from .mapping import assemble_entities, emit_entities
from .queries import PathQuery, find_paths, neighborhood, paths_to_jsonl
from .schemes import read_json
from .singleton import from_singleton, to_singleton
from .store import Store, load_asserters
from .validation import ShapeConfig, load_shape_config, validate_graph
from .wire import parse_triples, serialize_triples


def _parse_kinds(text: Optional[str]) -> Optional[frozenset]:
    if not text:
        return None
    return frozenset(part.strip() for part in text.split(",") if part.strip())


def _parse_date(text: Optional[str]) -> Optional[date]:
    return date.fromisoformat(text) if text else None


def _load_prefixes(path: Optional[str]) -> dict:
    if not path:
        return {}
    data = read_json(path)
    if not isinstance(data, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in data.items()
    ):
        raise StoreError(f"{path}: prefix map must be a JSON object of strings")
    return data


def _store_graph(args):
    store = Store(args.store).require()
    asserters = None
    if getattr(args, "asserters", None):
        asserters = load_asserters(args.asserters)
    return store.graph(asserters)


def _cmd_ingest(args) -> int:
    claims = read_claims(args.claims)
    store = Store(args.store).create()
    new, duplicates = store.append_claims(claims)
    print(f"ingested {new} new claim(s), skipped {duplicates} duplicate(s)")
    return 0


def _cmd_validate(args) -> int:
    graph = _store_graph(args)
    cfg = load_shape_config(args.config) if args.config else ShapeConfig()
    report = validate_graph(graph, cfg)
    sys.stdout.write(report.to_json() if args.format == "json" else report.to_text())
    return 0 if report.conforms else 1


def _cmd_infer(args) -> int:
    graph = Store(args.store).require().graph()
    rg = materialize(graph, require_overlap=not args.no_overlap_required)
    with open(args.out, "w", encoding="utf-8") as out:
        out.writelines(edges_to_jsonl(rg))
    return 0


def _graph_agents(graph) -> set:
    return {e.id for e in graph.entities() if graph.is_agent(e.id)}


def _cmd_query_path(args) -> int:
    graph = _store_graph(args)
    rg = materialize(graph)
    query = PathQuery(
        args.source,
        args.target,
        max_depth=args.max_depth,
        kinds=_parse_kinds(args.kinds),
        at_date=_parse_date(args.at_date),
    )
    paths = find_paths(rg, query, agents=_graph_agents(graph))
    sys.stdout.writelines(paths_to_jsonl(paths))
    if args.expect_nonempty and not paths:
        return 1
    return 0


def _cmd_query_neighborhood(args) -> int:
    graph = _store_graph(args)
    rg = materialize(graph)
    sub = neighborhood(
        rg,
        args.agent,
        args.depth,
        kinds=_parse_kinds(args.kinds),
        at_date=_parse_date(args.at_date),
        agents=_graph_agents(graph),
    )
    sys.stdout.writelines(edges_to_jsonl(sub))
    if args.expect_nonempty and len(sub) == 0:
        return 1
    return 0


def _cmd_rewrite(args) -> int:
    text = Path(args.infile).read_text(encoding="utf-8")
    ts = parse_triples(text, _load_prefixes(args.prefixes))
    if args.to_singleton:
        out_ts = to_singleton(assemble_entities(ts))
    else:
        graph = from_singleton(ts)
        out_ts = emit_entities(graph)
        out_ts.update(graph.residue)
    Path(args.out).write_text(serialize_triples(out_ts), encoding="utf-8")
    return 0


def _cmd_export(args) -> int:
    graph = Store(args.store).require().graph()
    ts = emit_entities(graph)
    ts.update(graph.residue)
    Path(args.out).write_text(serialize_triples(ts), encoding="utf-8")
    return 0


def _add_query_filters(parser) -> None:
    parser.add_argument("--kinds", help="comma-separated edge kinds to keep")
    parser.add_argument("--at-date", help="keep only edges in effect on this date (YYYY-MM-DD)")
    parser.add_argument("--asserters", help="JSON file listing accepted asserter ids")
    parser.add_argument(
        "--expect-nonempty",
        action="store_true",
        help="exit 1 when the query returns nothing",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polare", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="append a claims file to a store")
    p.add_argument("--claims", required=True, help="claims file, one JSON claim per line")
    p.add_argument("--store", required=True, help="store directory (created if absent)")
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("validate", help="run shape checks over the store")
    p.add_argument("--store", required=True)
    p.add_argument("--config", help="shape configuration JSON file")
    p.add_argument("--asserters", help="JSON file listing accepted asserter ids")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("infer", help="materialize the relation graph to JSON lines")
    p.add_argument("--store", required=True)
    p.add_argument(
        "--no-overlap-required",
        action="store_true",
        help="emit co-membership edges even for non-overlapping periods",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_infer)

    q = sub.add_parser("query", help="path and neighborhood queries")
    qsub = q.add_subparsers(dest="query_command", required=True)

    p = qsub.add_parser("path", help="simple paths between two agents")
    p.add_argument("--store", required=True)
    p.add_argument("--from", dest="source", required=True, metavar="IRI")
    p.add_argument("--to", dest="target", required=True, metavar="IRI")
    p.add_argument("--max-depth", type=int, default=4)
    _add_query_filters(p)
    p.set_defaults(handler=_cmd_query_path)

    p = qsub.add_parser("neighborhood", help="edges reachable from an agent")
    p.add_argument("--store", required=True)
    p.add_argument("--agent", required=True, metavar="IRI")
    p.add_argument("--depth", type=int, required=True)
    _add_query_filters(p)
    p.set_defaults(handler=_cmd_query_neighborhood)

    p = sub.add_parser("rewrite", help="switch between reified and singleton form")
    direction = p.add_mutually_exclusive_group(required=True)
    direction.add_argument("--to-singleton", action="store_true")
    direction.add_argument("--from-singleton", action="store_true")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--out", required=True)
    p.add_argument("--prefixes", help="JSON prefix map for the input file")
    p.set_defaults(handler=_cmd_rewrite)

    p = sub.add_parser("export", help="canonical serialization of the store")
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_export)

    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.handler(args)
    except (PolareError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run_cli())
