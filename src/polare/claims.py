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

Replay hashes a stored line that is already canonical as it stands.  When
a line's assertion is the canonical text of its triples
(:func:`polare.wire.split_canonical`) and its timestamp is the UTC
isoformat that :func:`claim_to_json` writes, the claim takes the triples
from one regex pass and its id hashes the stored text, with no scan and no
sort.  Any other line (hand-edited, reordered, escaped differently, or
timestamped in another zone) goes through the full ``parse_triples`` and
``canonicalize``, so its id is the same either way.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from datetime import datetime, timezone
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from .errors import ClaimError, EmptyAssertionError, StoreError, WireParseError
from .record import Record
from .wire import TripleSet, canonicalize, is_canonical, join_triples, parse_triples, split_canonical

Pathish = Union[str, Path]


def _canonical_timestamp(value: datetime) -> datetime:
    if value.tzinfo is None:
        value = value.replace(tzinfo=timezone.utc)
    try:
        return value.astimezone(timezone.utc)
    except OverflowError:
        raise ClaimError(f"timestamp {value.isoformat()} has no UTC equivalent in range") from None


#: RFC 3339 section 5.6 ``date-time``, whose "T" and "Z" may be lower case,
#: and polare's one extension: a date-time without offset, read as UTC.
#: ``datetime.fromisoformat`` alone accepts more, and more on newer Pythons.
_TIMESTAMP = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}[Tt][0-9]{2}:[0-9]{2}:[0-9]{2}(\.[0-9]+)?"
    r"([Zz]|[+-](?:[01][0-9]|2[0-3]):[0-5][0-9])?"
)


def parse_timestamp(text: str) -> datetime:
    """An RFC 3339 date-time (or one without offset, read as UTC),
    normalized to UTC.  A fraction keeps its first six digits."""
    match = _TIMESTAMP.fullmatch(text)
    if match is None:
        raise ClaimError(f"bad timestamp {text!r}: not an RFC 3339 date-time")
    fraction, offset = match.groups()
    # the spelling every supported fromisoformat reads alike: the date and
    # time to the second, six fraction digits, a numeric offset or none
    iso = text[:19]
    if fraction is not None:
        iso += fraction[:7].ljust(7, "0")
    if offset not in (None, "Z", "z"):
        iso += offset
    try:
        parsed = datetime.fromisoformat(iso)
    except ValueError as e:  # a field out of range
        raise ClaimError(f"bad timestamp {text!r}: {e}") from None
    return _canonical_timestamp(parsed)


def _claim_id(text: bytes, asserter: bytes, timestamp: bytes) -> str:
    """Content address over the UTF-8 of the canonical assertion text, the
    asserter and the UTC timestamp's isoformat."""
    return "urn:claim:" + hashlib.sha256(b"\x00".join((text, asserter, timestamp))).hexdigest()


class Claim(Record):
    """One assertion event: who said what, where, when.

    The id is content-addressed over (assertion, asserter, timestamp), so
    re-reading the same claim file yields the same ids.  A caller that
    passes ``claim_id`` vouches that ``assertion`` is already distinct,
    non-empty and in canonical order, that ``timestamp`` is in UTC and that
    the id is the content address of the three; the claim then neither
    sorts, joins nor hashes them.  Equality ignores the id.
    """

    asserter: str
    source: str
    timestamp: datetime
    assertion: tuple
    id: str

    _key = attrgetter("asserter", "source", "timestamp", "assertion")

    def __init__(
        self,
        asserter: str,
        source: str,
        timestamp: datetime,
        assertion: tuple,
        claim_id: Optional[str] = None,
    ):
        if not asserter:
            raise ClaimError("claim asserter must be non-empty")
        if claim_id is None:
            ordered, text = canonicalize(assertion)
            if not ordered:
                raise EmptyAssertionError("claim assertion must contain at least one triple")
            assertion = tuple(ordered)
            timestamp = _canonical_timestamp(timestamp)
            claim_id = _claim_id(
                text.encode("utf-8"),
                asserter.encode("utf-8"),
                timestamp.isoformat().encode("utf-8"),
            )
        super().__init__(asserter, source, timestamp, assertion, claim_id)


class Provenance(Record):
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
        "assertion": join_triples(claim.assertion),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _claim_fields(line: str, origin: str) -> tuple:
    """The asserter, source, timestamp and assertion of one claim-file line,
    each checked to be a string that encodes as UTF-8, and the encoding of
    each."""
    try:
        data = json.loads(line)
    except (ValueError, RecursionError) as e:  # also the decoder's digit and depth limits
        raise StoreError(f"{origin}: invalid JSON: {e}") from e
    if not isinstance(data, dict):
        raise StoreError(f"{origin}: claim must be a JSON object")
    values, encoded = [], []
    for key in ("asserter", "source", "timestamp", "assertion"):
        value = data.get(key)
        if not isinstance(value, str):
            raise StoreError(f"{origin}: claim field {key!r} missing or not a string")
        try:
            encoded.append(value.encode("utf-8"))
        except UnicodeEncodeError as e:  # a lone surrogate escape such as "\ud800"
            raise StoreError(f"{origin}: claim field {key!r} is not valid Unicode: {e}") from None
        values.append(value)
    return values, encoded


def _logged_timestamp(stamp: str, origin: str) -> Optional[datetime]:
    """The timestamp ``stamp`` when it is spelled as :func:`claim_to_json`
    writes it, so that the id hashes the stored text; None otherwise."""
    try:
        timestamp = parse_timestamp(stamp)
    except ClaimError as e:
        raise StoreError(f"{origin}: {e}") from e
    return timestamp if timestamp.isoformat() == stamp else None


def claim_from_json(line: str, origin: str = "claims") -> Claim:
    """One claim-file line -> Claim; every failure is a :class:`StoreError`
    naming ``origin``.  A line spelled as :func:`claim_to_json` writes it
    is hashed as it stands; any other goes through the full parse."""
    (asserter, source, stamp, text), encoded = _claim_fields(line, origin)
    triples = split_canonical(text)
    timestamp = None if triples is None else _logged_timestamp(stamp, origin)
    claim_id = None
    if timestamp is None:  # not spelled as claim_to_json writes it: the full parse
        try:
            triples = parse_triples(text, {})
        except WireParseError as e:
            raise StoreError(f"{origin}: bad assertion payload: {e}") from e
    else:
        claim_id = _claim_id(encoded[3], encoded[0], encoded[2])
    try:
        if timestamp is None:
            timestamp = parse_timestamp(stamp)
        return Claim(asserter, source, timestamp, tuple(triples), claim_id)
    except ClaimError as e:
        raise StoreError(f"{origin}: {e}") from e


def _claim_id_from_json(line: str, origin: str) -> str:
    """The id :func:`claim_from_json` gives ``line``, with the same checks;
    a canonical assertion is checked but not split into triples."""
    (asserter, _, stamp, text), encoded = _claim_fields(line, origin)
    if asserter and is_canonical(text) and _logged_timestamp(stamp, origin) is not None:
        return _claim_id(encoded[3], encoded[0], encoded[2])
    return claim_from_json(line, origin).id


def _log_lines(path: Path) -> Iterator:
    """``(line, origin)`` for each non-blank line of a claims file, where
    origin is ``path:line_number``."""
    try:
        data = path.read_bytes()
    except OSError as e:
        raise StoreError(f"cannot read {path}: {e}") from e
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1  # numbered as the loop below numbers it
        raise StoreError(f"{path}:{line}: not valid UTF-8: {e}") from None
    # JSON Lines break at "\n" only; U+2028 and the like may sit raw in a string
    for i, line in enumerate(text.split("\n"), start=1):
        if line.strip():
            yield line, f"{path}:{i}"


def read_claims(path: Pathish) -> list:
    """Parse a claims file into Claim objects, preserving line order."""
    return [claim_from_json(line, origin) for line, origin in _log_lines(Path(path))]


def read_claim_ids(path: Pathish) -> list:
    """The id of each claim in a claims file, in line order, with every
    check :func:`read_claims` makes."""
    return [_claim_id_from_json(line, origin) for line, origin in _log_lines(Path(path))]


def write_claims(claims: Iterable, path: Pathish, append: bool = False) -> None:
    """Write claims one JSON line each, in one ``write`` call.  An append to
    a file whose last line has no newline starts on a fresh line, so the
    batch never runs into that line."""
    batch = "".join(claim_to_json(claim) + "\n" for claim in claims).encode("utf-8")
    with Path(path).open("a+b" if append else "wb") as fh:
        if append and fh.seek(0, os.SEEK_END) > 0:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                batch = b"\n" + batch
        fh.write(batch)


def load_claimstore(path: Pathish) -> ClaimStore:
    """Build a store by replaying a claims file in line order."""
    store = ClaimStore()
    for claim in read_claims(path):
        store.add(claim)
    return store
