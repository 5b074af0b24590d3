"""On-disk store: a directory with an append-only claims log plus the
concept schemes and field bindings needed to interpret the data.

Layout::

    <store>/claims.jsonl   one JSON claim per line, append-only
    <store>/schemes/*.json concept scheme files
    <store>/bindings.json  field-key to scheme-IRI map (optional)

The pipeline is claims -> (optional asserter filter) -> triples ->
typed entity graph; everything downstream works from that graph.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional, Union

from .claims import ClaimStore, load_claimstore, read_claim_ids, write_claims
from .errors import StoreError
from .mapping import assemble_entities
from .model import EntityGraph
from .schemes import load_bindings, load_schemes_dir, read_json
from .wire import TripleSet

Pathish = Union[str, Path]


class Store:
    def __init__(self, root: Pathish):
        self.root = Path(root)

    @property
    def claims_path(self) -> Path:
        return self.root / "claims.jsonl"

    @property
    def schemes_dir(self) -> Path:
        return self.root / "schemes"

    @property
    def bindings_path(self) -> Path:
        return self.root / "bindings.json"

    def exists(self) -> bool:
        return self.root.is_dir()

    def create(self) -> "Store":
        self.root.mkdir(parents=True, exist_ok=True)
        self.schemes_dir.mkdir(exist_ok=True)
        if not self.claims_path.exists():
            self.claims_path.touch()
        return self

    def require(self) -> "Store":
        if not self.exists():
            raise StoreError(f"store directory {self.root} does not exist")
        return self

    def load_schemes(self) -> tuple:
        return load_schemes_dir(self.schemes_dir)

    def load_bindings(self) -> dict:
        if not self.bindings_path.exists():
            return {}
        return load_bindings(self.bindings_path)

    def load_claims(self) -> ClaimStore:
        if not self.claims_path.exists():
            return ClaimStore()
        return load_claimstore(self.claims_path)

    def append_claims(self, claims: Iterable) -> tuple:
        """Append claims not already present; returns (new, duplicate) counts.

        Ownership order is replay order of the file, so duplicates (same
        content id, in the log or earlier in the batch) are skipped rather
        than re-appended.  Only the ids of the logged claims are needed, not
        their ownership index, so canonical log lines are checked and hashed
        but not split into triples.  The batch is one write that starts on
        a fresh line.
        """
        seen = set()
        if self.claims_path.exists():
            seen = set(read_claim_ids(self.claims_path))
        fresh = []
        duplicates = 0
        for claim in claims:
            if claim.id in seen:
                duplicates += 1
                continue
            seen.add(claim.id)
            fresh.append(claim)
        if fresh:
            write_claims(fresh, self.claims_path, append=True)
        return (len(fresh), duplicates)

    def triples(self, asserters: Optional[Iterable] = None) -> TripleSet:
        """All stored triples, or only those claimed by accepted asserters.

        The provenance filter acts here, at the triple level, before any
        assembly or inference sees the data.
        """
        claims = self.load_claims()
        if asserters is None:
            return claims.triples()
        return claims.view_by_asserters(asserters)

    def graph(self, asserters: Optional[Iterable] = None) -> EntityGraph:
        return assemble_entities(
            self.triples(asserters), self.load_schemes(), self.load_bindings()
        )


def load_asserters(path: Pathish) -> list:
    """Accepted-asserter file: a JSON array of asserter ids."""
    data = read_json(path)
    if not isinstance(data, list) or not all(isinstance(x, str) for x in data):
        raise StoreError(f"{path}: expected a JSON array of asserter ids")
    return data
