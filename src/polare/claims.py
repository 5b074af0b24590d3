"""Claims and provenance: every triple enters the store as part of a claim.

Ownership is first-writer-wins.  A triple belongs to the claim that first
asserted it; later claims containing the same triple record it as a
corroboration instead of re-owning it.  Views can then be restricted to the
claims of accepted asserters and fed to assembly and validation like any
other triple set.

A claim is built, sorted and hashed exactly once: ``Claim`` sorts its
triples, whose terms are their canonical spellings, and hashes the text
they join into, and ``ClaimStore.add`` files an already-built claim, so
replaying a claims file builds one ``Claim`` per line.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Optional, Union

from .errors import ClaimError, EmptyAssertionError, StoreError, WireParseError
from .wire import TripleSet, canonicalize, parse_triples, serialize_triples

Pathish = Union[str, Path]


def _canonical_timestamp(value: datetime) -> datetime:
    if value.tzinfo is None:
        value = value.replace(tzinfo=timezone.utc)
    try:
        return value.astimezone(timezone.utc)
    except OverflowError:
        raise ClaimError(f"timestamp {value.isoformat()} has no UTC equivalent in range") from None


def parse_timestamp(text: str) -> datetime:
    """RFC-3339 date-time, normalized to UTC."""
    try:
        parsed = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as e:
        raise ClaimError(f"bad timestamp {text!r}: {e}") from None
    return _canonical_timestamp(parsed)


@dataclass(frozen=True)
class Claim:
    """One assertion event: who said what, where, when.

    The id is content-addressed over (assertion, asserter, timestamp), so
    re-reading the same claim file yields the same ids.
    """

    asserter: str
    source: str
    timestamp: datetime
    assertion: tuple
    id: str = field(init=False, compare=False)

    def __post_init__(self):
        if not self.asserter:
            raise ClaimError("claim asserter must be non-empty")
        ordered, text = canonicalize(self.assertion)
        if not ordered:
            raise EmptyAssertionError("claim assertion must contain at least one triple")
        object.__setattr__(self, "assertion", tuple(ordered))
        object.__setattr__(self, "timestamp", _canonical_timestamp(self.timestamp))
        digest = hashlib.sha256()
        digest.update(text.encode("utf-8"))
        digest.update(b"\x00" + self.asserter.encode("utf-8"))
        digest.update(b"\x00" + self.timestamp.isoformat().encode("utf-8"))
        object.__setattr__(self, "id", "urn:claim:" + digest.hexdigest())


@dataclass(frozen=True)
class Provenance:
    owner: Optional[Claim]
    corroborations: tuple


class ClaimStore:
    """Append-only collection of claims; its ownership index is its triple set.

    Single writer: ownership depends on ingest order, so concurrent ingests
    must be serialized by the caller.  Reads never mutate.
    """

    def __init__(self):
        self._claims: dict = {}  # claim id -> Claim, in ingest order
        self._owner: dict = {}  # triple -> claim id, in first-assertion order
        self._corroborators: dict = {}  # triple -> [claim id]

    def __len__(self) -> int:
        return len(self._claims)

    def __contains__(self, claim_id: str) -> bool:
        return claim_id in self._claims

    def claims(self) -> list:
        """All claims in ingest order."""
        return list(self._claims.values())

    def claim(self, claim_id: str) -> Claim:
        if claim_id not in self._claims:
            raise ClaimError(f"no claim {claim_id}")
        return self._claims[claim_id]

    def asserters(self) -> list:
        return sorted({c.asserter for c in self._claims.values()})

    def add(self, claim: Claim) -> str:
        """Store one claim; returns its id.

        New triples become owned by this claim; triples already owned by an
        earlier claim are recorded as corroborations.  Re-adding a claim
        with identical content (same assertion, asserter and timestamp) is a
        no-op returning the existing id.
        """
        cid = claim.id
        if cid in self._claims:
            return cid
        for t in claim.assertion:
            if self._owner.setdefault(t, cid) != cid:
                self._corroborators.setdefault(t, []).append(cid)
        self._claims[cid] = claim
        return cid

    def ingest(self, assertion, asserter: str, source: str, timestamp: datetime) -> str:
        """Build a claim from its parts and :meth:`add` it; returns its id."""
        return self.add(Claim(asserter, source, timestamp, tuple(assertion)))

    def owned_triples(self, claim_id: str) -> tuple:
        return tuple(t for t in self.claim(claim_id).assertion if self._owner[t] == claim_id)

    def corroborated_triples(self, claim_id: str) -> tuple:
        return tuple(t for t in self.claim(claim_id).assertion if self._owner[t] != claim_id)

    def provenance_of(self, t: tuple) -> Provenance:
        """Owner claim plus corroborating claims; empty for unseen triples."""
        owner_id = self._owner.get(t)
        if owner_id is None:
            return Provenance(None, ())
        witnesses = tuple(self._claims[cid] for cid in self._corroborators.get(t, []))
        return Provenance(self._claims[owner_id], witnesses)

    def triples(self) -> TripleSet:
        """Every distinct triple across all claims, first-assertion order."""
        return TripleSet(self._owner)

    def view_by_asserters(self, accepted: Iterable) -> TripleSet:
        """Union of the assertions of every claim by an accepted asserter."""
        accepted = set(accepted)
        ts = TripleSet()
        for claim in self._claims.values():
            if claim.asserter in accepted:
                ts.update(claim.assertion)
        return ts


# -- claim files (one JSON object per line) --------------------------------


def claim_to_json(claim: Claim) -> str:
    payload = {
        "asserter": claim.asserter,
        "source": claim.source,
        "timestamp": claim.timestamp.isoformat(),
        "assertion": serialize_triples(claim.assertion),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def claim_from_json(line: str, origin: str = "claims") -> Claim:
    """One claim-file line -> Claim; every failure is a :class:`StoreError`
    naming ``origin``."""
    try:
        data = json.loads(line)
    except (ValueError, RecursionError) as e:  # also the decoder's digit and depth limits
        raise StoreError(f"{origin}: invalid JSON: {e}") from e
    if not isinstance(data, dict):
        raise StoreError(f"{origin}: claim must be a JSON object")
    for key in ("asserter", "source", "timestamp", "assertion"):
        value = data.get(key)
        if not isinstance(value, str):
            raise StoreError(f"{origin}: claim field {key!r} missing or not a string")
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as e:  # a lone surrogate escape such as "\ud800"
            raise StoreError(f"{origin}: claim field {key!r} is not valid Unicode: {e}") from None
    try:
        assertion = parse_triples(data["assertion"], {})
    except WireParseError as e:
        raise StoreError(f"{origin}: bad assertion payload: {e}") from e
    try:
        return Claim(
            data["asserter"], data["source"], parse_timestamp(data["timestamp"]), tuple(assertion)
        )
    except ClaimError as e:
        raise StoreError(f"{origin}: {e}") from e


def read_claims(path: Pathish) -> list:
    """Parse a claims file into Claim objects, preserving line order."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as e:
        raise StoreError(f"cannot read {path}: {e}") from e
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1  # numbered as the loop below numbers it
        raise StoreError(f"{path}:{line}: not valid UTF-8: {e}") from None
    out = []
    # JSON Lines break at "\n" only; U+2028 and the like may sit raw in a string
    for i, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        out.append(claim_from_json(line, f"{path}:{i}"))
    return out


def write_claims(claims: Iterable, path: Pathish, append: bool = False) -> None:
    path = Path(path)
    mode = "a" if append else "w"
    with path.open(mode, encoding="utf-8") as fh:
        for claim in claims:
            fh.write(claim_to_json(claim) + "\n")


def load_claimstore(path: Pathish) -> ClaimStore:
    """Build a store by replaying a claims file in line order."""
    store = ClaimStore()
    for claim in read_claims(path):
        store.add(claim)
    return store
