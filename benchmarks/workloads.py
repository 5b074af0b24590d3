"""Seeded synthetic stores for the benchmark, written without calling polare.

Each workload is built from plain records (persons, posts, memberships,
transactions, ...) and rendered straight into the canonical claim-file
text that ``polare ingest`` reads and the store writes.  The expected
results of every command (claim counts, violations per code, edges per
kind, the exported triples) are derived from those same records, so the
harness can check polare's outputs against something polare did not
compute.

The same ``(name, seed)`` always gives byte-identical files.  Sizes are
fixed per workload; the seed only moves ids, dates and pairings around.
"""

from __future__ import annotations

import json
import random
from datetime import date, datetime, timedelta, timezone
from itertools import combinations
from pathlib import Path

from tests import oracles

NS = "http://bench.polare.org/"

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD = "http://www.w3.org/2001/XMLSchema#"
FOAF = "http://xmlns.com/foaf/0.1/"
ORG = "http://www.w3.org/ns/org#"
SCHEMA = "http://schema.org/"
DC = "http://purl.org/dc/terms/"
POL = "http://polare.org/ns#"

#: a predicate outside every vocabulary polare maps; it lands in the residue
NOTE = NS + "ns#note"

SCHEMES = {
    "family": (("parentOf", False), ("siblingOf", True), ("cohabitates", True), ("marriedTo", True)),
    "roles": (("mayor", False), ("deputy", False), ("senator", False), ("treasurer", False),
              ("director", False), ("councillor", False)),
    "dispositions": (("substitution", False), ("amendment", False), ("approval", False)),
    "votes": (("yes", False), ("no", False), ("abstain", False)),
    "txroles": (("seller", False), ("buyer", False), ("guarantor", False)),
    "legalroles": (("plaintiff", False), ("defendant", False), ("judge", False), ("attorney", False)),
    "classifications": (("party", False), ("company", False), ("publicBody", False)),
}

BINDINGS = {
    "Organization.classification": "classifications",
    "Post.role": "roles",
    "DirectRel.relation": "family",
    "VoteEvent.disposition": "dispositions",
    "Vote.value": "votes",
    "Recommendation.recommended": "votes",
    "Transaction.role": "txroles",
    "LegalCase.role": "legalroles",
}

EDGE_KINDS = ("family", "co_membership", "referral", "co_transaction", "co_case", "candidacy_post")
VIOLATION_CODES = (
    "CANDIDACY_POST",
    "CONCEPT_DOMAIN",
    "DUPLICATE_MEMBERSHIP",
    "EXCLUSIVE_OCCUPANCY",
    "MEMBERSHIP_OUTSIDE_POST",
    "POST_MEDIATION",
)

D0 = date(2008, 1, 1)
T0 = datetime(2020, 1, 1, tzinfo=timezone.utc)
OPEN_END = 10**9  # ordinal standing in for an unbounded interval end

DENSE_PATHS = 1500  # depth-3 paths wanted from the dense path query
PAIR_TRIES = 60  # seeded candidate pairs it is picked from


def scheme_id(name: str) -> str:
    return f"{NS}scheme/{name}"


def concept(name: str, cid: str) -> str:
    return f"{scheme_id(name)}/{cid}"


def concepts(name: str) -> list:
    return [concept(name, cid) for cid, _ in SCHEMES[name]]


# -- rendering (the canonical wire text polare writes) ------------------------

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _iri(value: str) -> str:
    return f"<{value}>"


def _str(value: str) -> str:
    return '"' + "".join(_ESCAPES.get(c, c) for c in value) + '"'


def _typed(lexical: str, datatype: str) -> str:
    return f'"{lexical}"^^<{XSD}{datatype}>'


def _date(d: date) -> str:
    return _typed(d.isoformat(), "date")


def _cents(cents: int) -> str:
    return _typed(f"{cents // 100}.{cents % 100:02d}", "decimal")


def render_assertion(triples) -> str:
    """Canonical assertion text: sorted by (subject, predicate, object)."""
    return "".join(f"{s} {p} {o} .\n" for s, p, o in sorted(set(triples)))


def claim_line(asserter: str, source: str, timestamp: datetime, triples) -> str:
    payload = {
        "asserter": asserter,
        "assertion": render_assertion(triples),
        "source": source,
        "timestamp": timestamp.isoformat(),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# -- interval helpers --------------------------------------------------------


def _ord(d, default: int) -> int:
    return default if d is None else d.toordinal()


def overlapping_pairs(items) -> list:
    """Pairs of items whose closed day intervals share a day.

    items: (key, start date or None, end date or None).  Sort by start and
    sweep an active list, so the cost follows the pairs reported rather
    than all pairs.
    """
    ordered = sorted(items, key=lambda it: _ord(it[1], -1))
    active: list = []
    out = []
    for key, start, end in ordered:
        lo = _ord(start, -1)
        active = [a for a in active if a[1] >= lo]
        for other, _ in active:
            out.append((other, key))
        active.append((key, _ord(end, OPEN_END)))
    return out


def count_paths(step, source: str, target: str) -> tuple:
    """(simple paths of at most 3 steps from source to target, nodes the
    search expands), where ``step(u)`` maps each node one walkable edge
    away from u to the number of such edges."""
    memo: dict = {}

    def mult(u):
        if u not in memo:
            memo[u] = step(u)
        return memo[u]

    from_s = mult(source)
    total = from_s.get(target, 0)
    expansions = 1
    for x, mx in from_s.items():
        if x == target:
            continue
        expansions += mx
        for y, my in mult(x).items():
            if y in (source, x):
                continue
            if y == target:
                total += mx * my
                continue
            expansions += mx * my
            total += mx * my * mult(y).get(target, 0)
    return total, expansions


# -- the generator -----------------------------------------------------------


class Workload:
    """One generated store plus everything needed to check polare on it."""

    def __init__(self, name: str, seed: int):
        self.rng = random.Random(f"{name}:{seed}")
        self.entities: list = []  # (entity id, [triple]) in creation order
        self.persons: list = []
        self.posts: dict = {}  # id -> (org, exclusive, start, end)
        self.memberships: list = []  # (id, person, post, start, end)
        self.rels = 0
        self.referrals = 0
        self.candidacies = 0
        self.cliques: dict = {"transaction": [], "case": []}  # distinct agents per entity
        self.residue = 0
        self.dangling = 0
        self.claims: list = []  # (asserter, timestamp, [entity id]) in log order
        self.asserters: list = []
        self.accepted: list = []
        self.store_lines: list = []  # the canonical claims log, one JSON claim per line
        self.append_lines: list = []
        self.append_new = 0
        self.append_duplicates = 0
        self.path_pair: tuple = ()
        self.agent = ""

    # entity constructors: each returns the entity id --------------------------

    def _add(self, eid: str, type_iri: str, pairs) -> str:
        s = _iri(eid)
        triples = [(s, _iri(RDF_TYPE), _iri(type_iri))]
        triples.extend((s, _iri(p), o) for p, o in pairs)
        self.entities.append((eid, triples))
        return eid

    def person(self, key) -> str:
        eid = f"{NS}person/{key}"
        pairs = [(FOAF + "name", _str(f"Person {key}"))]
        self.persons.append(eid)
        return self._add(eid, FOAF + "Person", pairs)

    def org(self, key, classification: str) -> str:
        eid = f"{NS}org/{key}"
        pairs = [
            (FOAF + "name", _str(f"Organization {key}")),
            (ORG + "classification", _iri(concept("classifications", classification))),
        ]
        return self._add(eid, ORG + "Organization", pairs)

    def post(self, key, org: str, exclusive: bool, start=None, end=None) -> str:
        eid = f"{NS}post/{key}"
        pairs = [
            (ORG + "postIn", _iri(org)),
            (ORG + "role", _iri(self.rng.choice(concepts("roles")))),
        ]
        if not exclusive:  # exclusive is the default and is not written out
            pairs.append((POL + "exclusive", _typed("false", "boolean")))
        pairs += self._interval(start, end)
        self.posts[eid] = (org, exclusive, start, end)
        return self._add(eid, ORG + "Post", pairs)

    def membership(self, person: str, post: str, start, end) -> str:
        eid = f"{NS}m/{len(self.memberships)}"
        pairs = [(ORG + "member", _iri(person)), (POL + "hasPost", _iri(post))]
        pairs += self._interval(start, end)
        self.memberships.append((eid, person, post, start, end))
        return self._add(eid, ORG + "Membership", pairs)

    def direct_rel(self, a: str, b: str) -> str:
        eid = f"{NS}rel/{self.rels}"
        self.rels += 1
        pairs = [
            (POL + "relSource", _iri(a)),
            (POL + "relTarget", _iri(b)),
            (POL + "directRelProp", _iri(self.rng.choice(concepts("family")))),
        ]
        if self.rng.random() < 0.4:
            start = self.day(0, 5000)
            pairs += self._interval(start, start + timedelta(days=self.rng.randrange(3000)))
        return self._add(eid, POL + "DirectRel", pairs)

    def referral(self, referrer: str, referred: str, post: str) -> str:
        eid = f"{NS}referral/{self.referrals}"
        self.referrals += 1
        pairs = [
            (POL + "referrer", _iri(referrer)),
            (POL + "referred", _iri(referred)),
            (POL + "post", _iri(post)),
        ]
        if self.rng.random() < 0.7:
            pairs.append((DC + "date", _date(self.day(0, 5000))))
        return self._add(eid, POL + "Referral", pairs)

    def election(self, key, posts: list) -> str:
        eid = f"{NS}election/{key}"
        pairs = [(DC + "date", _date(self.day(0, 5000)))]
        pairs += [(POL + "electsPost", _iri(p)) for p in posts]
        return self._add(eid, POL + "Election", pairs)

    def candidacy(self, person: str, election: str, post: str) -> str:
        eid = f"{NS}candidacy/{self.candidacies}"
        self.candidacies += 1
        pairs = [
            (POL + "candidate", _iri(person)),
            (POL + "election", _iri(election)),
            (POL + "post", _iri(post)),
        ]
        return self._add(eid, POL + "Candidacy", pairs)

    def _participants(self, eid: str, agents: list, roles: str) -> list:
        # polare numbers participant nodes in (agent, role) order
        parts = sorted((a, self.rng.choice(concepts(roles))) for a in agents)
        pairs = []
        for i, (agent, role) in enumerate(parts):
            node = f"{eid}/p{i}"
            pairs.append((POL + "participant", _iri(node)))
            self.entities[-1][1].extend(
                [
                    (_iri(node), _iri(POL + "agent"), _iri(agent)),
                    (_iri(node), _iri(POL + "role"), _iri(role)),
                ]
            )
        return pairs

    def transaction(self, agents: list) -> str:
        i = len(self.cliques["transaction"])
        obj = f"{NS}object/{i}"
        kind = "Product" if self.rng.random() < 0.5 else "Service"
        self._add(obj, SCHEMA + kind, [(SCHEMA + "description", _str(f"lot {i}"))])
        eid = f"{NS}tx/{i}"
        self._add(eid, POL + "Transaction", [])
        pairs = [
            (POL + "transactionObject", _iri(obj)),
            (POL + "amount", _cents(self.rng.randrange(100, 10_000_000))),
            (POL + "currency", _str(self.rng.choice(("BRL", "USD", "EUR")))),
            (DC + "date", _date(self.day(0, 5000))),
        ]
        pairs += self._participants(eid, agents, "txroles")
        self.entities[-1][1].extend((_iri(eid), _iri(p), o) for p, o in pairs)
        self.cliques["transaction"].append(sorted(set(agents)))
        return eid

    def legal_case(self, agents: list) -> str:
        eid = f"{NS}case/{len(self.cliques['case'])}"
        self._add(eid, POL + "LegalCase", [])
        pairs = self._participants(eid, agents, "legalroles")
        if self.rng.random() < 0.5:
            start = self.day(0, 5000)
            pairs += self._interval(start, start + timedelta(days=self.rng.randrange(900)))
        self.entities[-1][1].extend((_iri(eid), _iri(p), o) for p, o in pairs)
        self.cliques["case"].append(sorted(set(agents)))
        return eid

    def votes(self, n_sittings: int, n_props: int, n_events: int, n_voters: int, n_votes: int,
              parties: list) -> None:
        rng = self.rng
        sittings = [
            self._add(f"{NS}session/{i}", POL + "Session", [(DC + "date", _date(self.day(0, 5000)))])
            for i in range(n_sittings)
        ]
        props = []
        for i in range(n_props):
            creators = rng.sample(self.persons, k=rng.randint(1, 3))
            pairs = [(DC + "creator", _iri(c)) for c in creators]
            pairs.append((DC + "title", _str(f"Bill {i}")))
            props.append(self._add(f"{NS}prop/{i}", POL + "Proposition", pairs))
        events = []
        for i in range(n_events):
            pairs = [
                (POL + "session", _iri(rng.choice(sittings))),
                (POL + "proposition", _iri(rng.choice(props))),
                (POL + "disposition", _iri(rng.choice(concepts("dispositions")))),
                (SCHEMA + "startDate", _date(self.day(0, 5000))),
            ]
            events.append(self._add(f"{NS}event/{i}", POL + "VoteEvent", pairs))
        voters = []
        for i in range(n_voters):
            pairs = [
                (POL + "person", _iri(rng.choice(self.persons))),
                (POL + "party", _iri(rng.choice(parties))),
            ]
            voters.append(self._add(f"{NS}voter/{i}", POL + "Voter", pairs))
        for i in range(n_votes):
            pairs = [
                (POL + "voteEvent", _iri(rng.choice(events))),
                (POL + "voter", _iri(rng.choice(voters))),
                (POL + "vote", _iri(rng.choice(concepts("votes")))),
            ]
            self._add(f"{NS}vote/{i}", POL + "Vote", pairs)

    def note(self, eid: str) -> None:
        """Attach a triple polare cannot map, to the entity last built."""
        self.entities[-1][1].append((_iri(eid), _iri(NOTE), _str("unmapped remark")))
        self.residue += 1

    def day(self, lo: int, span: int) -> date:
        return D0 + timedelta(days=lo + self.rng.randrange(span))

    @staticmethod
    def _interval(start, end) -> list:
        pairs = []
        if start is not None:
            pairs.append((SCHEMA + "startDate", _date(start)))
        if end is not None:
            pairs.append((SCHEMA + "endDate", _date(end)))
        return pairs

    # claims ---------------------------------------------------------------

    def chunk_claims(self, n_claims: int, n_asserters: int, corroborators: int = 0) -> None:
        """Shuffle whole entities into claims; each claim may be re-asserted
        by ``corroborators`` further asserters, in timestamp order."""
        rng = self.rng
        self.asserters = [f"{NS}agent/asserter-{i}" for i in range(n_asserters)]
        ids = [eid for eid, _ in self.entities]
        rng.shuffle(ids)
        timed = []
        for i in range(n_claims):
            chunk = ids[i * len(ids) // n_claims : (i + 1) * len(ids) // n_claims]
            first = self.asserters[i % n_asserters]  # equal shares, so views vary little
            base = T0 + timedelta(minutes=i)
            timed.append((base, first, chunk))
            others = [a for a in self.asserters if a != first]
            for asserter in rng.sample(others, k=corroborators):
                timed.append((base + timedelta(seconds=rng.randrange(1, 6000)), asserter, chunk))
        timed.sort(key=lambda c: (c[0], c[1]))
        self.claims = [(asserter, ts, chunk) for ts, asserter, chunk in timed]

    def finish(self, n_accepted: int, n_new: int, n_duplicates: int, endpoints: list,
               anchor=None, path_pair=None) -> None:
        """Accepted asserters (always including whoever asserted ``anchor``),
        the append batch, and the query endpoints: ``path_pair`` when given,
        else a seeded pair from ``endpoints``, and a seeded agent."""
        rng = self.rng
        keep = [a for a, _, chunk in self.claims if anchor in chunk][:1]
        rest = [a for a in self.asserters if a not in keep]
        self.accepted = sorted(keep + rng.sample(rest, k=n_accepted - len(keep)))
        by_id = dict(self.entities)
        self.store_lines = [
            claim_line(a, f"{NS}source/{i}", ts, [t for eid in chunk for t in by_id[eid]])
            for i, (a, ts, chunk) in enumerate(self.claims)
        ]
        new = []
        for i in range(n_new):
            key = f"late-{i}"
            s = _iri(f"{NS}person/{key}")
            triples = [
                (s, _iri(RDF_TYPE), _iri(FOAF + "Person")),
                (s, _iri(FOAF + "name"), _str(f"Person {key}")),
            ]
            ts = T0 + timedelta(days=400, minutes=i)
            new.append(claim_line(rng.choice(self.asserters), f"{NS}source/late", ts, triples))
        batch = new + rng.sample(self.store_lines, k=n_duplicates)
        rng.shuffle(batch)
        self.append_lines = batch
        self.append_new = n_new
        self.append_duplicates = n_duplicates
        self.path_pair = path_pair or tuple(rng.sample(endpoints, k=2))
        self.agent = rng.choice(endpoints)

    # expectations, from the records alone ---------------------------------

    def present_entities(self, accepted=None) -> set:
        keep = None if accepted is None else set(accepted)
        out = set()
        for asserter, _, chunk in self.claims:
            if keep is None or asserter in keep:
                out.update(chunk)
        return out

    def expected_violations(self, accepted=None) -> dict:
        """Violations per code on the entities the accepted asserters keep,
        from the day-scan oracles of ``tests/oracles.py``, one post (and,
        for duplicates, one person on it) at a time to keep them fast."""
        present = self.present_entities(accepted)
        by_post: dict = {}
        for mid, person, post, start, end in self.memberships:
            if mid in present:
                record = {"id": mid, "person": person, "post": post, "start": start, "end": end}
                by_post.setdefault(post, []).append(record)
        counts = dict.fromkeys(VIOLATION_CODES, 0)
        for post, group in by_post.items():
            by_person: dict = {}
            for m in group:
                by_person.setdefault(m["person"], []).append(m)
            counts["DUPLICATE_MEMBERSHIP"] += sum(
                len(oracles.duplicate_membership_by_day_scan(held))
                for held in by_person.values() if len(held) > 1
            )
            if post not in present:
                continue
            _, exclusive, start, end = self.posts[post]
            if exclusive:
                counts["EXCLUSIVE_OCCUPANCY"] += len(
                    oracles.exclusive_occupancy_by_day_scan({post: {"exclusive": True}}, group)
                )
            counts["MEMBERSHIP_OUTSIDE_POST"] += sum(
                1 for m in group if not oracles.interval_contained(start, end, m["start"], m["end"])
            )
        return counts

    def co_membership(self) -> list:
        """Person pairs of every co-membership edge: distinct persons whose
        memberships in posts of one organization share a day."""
        by_org: dict = {}
        for mid, person, post, start, end in self.memberships:
            by_org.setdefault(self.posts[post][0], []).append((mid, person, start, end))
        out = []
        for group in by_org.values():
            person = {m[0]: m[1] for m in group}
            for a, b in overlapping_pairs([(m[0], m[2], m[3]) for m in group]):
                if person[a] != person[b]:
                    out.append((person[a], person[b]))
        return out

    def expected_edges(self) -> dict:
        co_membership = len(self.co_membership())
        return {
            "family": self.rels,
            "co_membership": co_membership,
            "referral": self.referrals,
            "co_transaction": sum(oracles.pair_count(len(c)) for c in self.cliques["transaction"]),
            "co_case": sum(oracles.pair_count(len(c)) for c in self.cliques["case"]),
            "candidacy_post": self.candidacies,
        }

    def expected_export(self) -> str:
        """The canonical export: every stored triple once, sorted."""
        return render_assertion(t for _, triples in self.entities for t in triples)

    def expected_singleton_lines(self) -> int:
        """Rewriting replaces each membership's 3 node triples by 5, adds one
        typing per member person and two for the shared property."""
        n = len({t for _, triples in self.entities for t in triples})
        members = {m[1] for m in self.memberships}
        return n + 2 * len(self.memberships) + len(members) + (2 if self.memberships else 0)

    # structure ------------------------------------------------------------

    def shape(self) -> dict:
        """The figures the structural guards and the size record use."""
        by_id = dict(self.entities)
        asserted = sum(len(set(t for eid in chunk for t in by_id[eid])) for _, _, chunk in self.claims)
        distinct = len({t for _, triples in self.entities for t in triples})
        per_post: dict = {}
        for m in self.memberships:
            per_post[m[2]] = per_post.get(m[2], 0) + 1
        return {
            "claims": len(self.claims),
            "log_bytes": sum(len(line) + 1 for line in self.store_lines),
            "triples_asserted": asserted,
            "triples_distinct": distinct,
            "corroboration_share": (asserted - distinct) / asserted,
            "append_duplicate_share": self.append_duplicates / len(self.append_lines),
            "entities": len(self.entities),
            "largest_post": max(per_post.values()),
            "transaction_sizes": sorted({len(c) for c in self.cliques["transaction"]}),
            "case_sizes": sorted({len(c) for c in self.cliques["case"]}),
            "transactions": len(self.cliques["transaction"]),
            "cases": len(self.cliques["case"]),
        }

    # files ----------------------------------------------------------------

    def write(self, root: Path) -> None:
        """Write the populated store, the claims file it was ingested from,
        the append batch, the accepted-asserter file and an empty store
        holding only schemes and bindings."""
        store = root / "store"
        empty = root / "empty_store"
        for d in (store, empty):
            (d / "schemes").mkdir(parents=True, exist_ok=True)
            for name, entries in SCHEMES.items():
                body = {
                    "concepts": [
                        {"id": concept(name, cid), "label": cid, **({"symmetric": True} if sym else {})}
                        for cid, sym in entries
                    ],
                    "id": scheme_id(name),
                }
                (d / "schemes" / f"{name}.json").write_text(
                    json.dumps(body, indent=2, sort_keys=True) + "\n", encoding="utf-8"
                )
            bindings = {key: scheme_id(name) for key, name in BINDINGS.items()}
            (d / "bindings.json").write_text(
                json.dumps(bindings, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
        log = "".join(line + "\n" for line in self.store_lines)
        (store / "claims.jsonl").write_text(log, encoding="utf-8")
        (root / "claims.jsonl").write_text(log, encoding="utf-8")
        (root / "append.jsonl").write_text(
            "".join(line + "\n" for line in self.append_lines), encoding="utf-8"
        )
        (root / "asserters.json").write_text(json.dumps(self.accepted) + "\n", encoding="utf-8")


# -- the three workloads -------------------------------------------------------


def _terms(w: Workload, post: str, persons: list, n: int, lo: int, hi: int) -> None:
    """n back-to-back non-overlapping terms in [lo, hi] (day offsets)."""
    slot = (hi - lo + 1) // n
    for i in range(n):
        a = lo + i * slot + w.rng.randrange(slot // 4)
        b = lo + (i + 1) * slot - 1 - w.rng.randrange(slot // 4)
        w.membership(w.rng.choice(persons), post, D0 + timedelta(days=a), D0 + timedelta(days=b))


def census(seed: int) -> Workload:
    """Broad and realistic: every entity type, modest cliques, no
    corroboration.  Exclusive posts hold back-to-back terms, so the store
    conforms; a few duplicate and out-of-period memberships are warnings."""
    w = Workload("census", seed)
    rng = w.rng
    persons = []
    for i in range(400):
        persons.append(w.person(i))
        if i % 100 == 0:
            w.note(persons[-1])
    parties = [w.org(f"party-{i}", "party") for i in range(8)]
    companies = [w.org(f"company-{i}", "company") for i in range(3)]
    posts = []
    for i in range(80):
        exclusive = i % 10 < 3
        bounded = i % 4 == 0
        lo = rng.randrange(600) if bounded else 0
        hi = lo + 3000 + rng.randrange(1500) if bounded else 5800
        start, end = (D0 + timedelta(days=lo), D0 + timedelta(days=hi)) if bounded else (None, None)
        post = w.post(i, parties[i % 8], exclusive, start, end)
        posts.append(post)
        if exclusive:
            _terms(w, post, persons, 10, lo, hi)
            continue
        holders = rng.sample(persons, k=10)
        if i % 25 == 1:  # a planted duplicate: one person holding the post twice
            holders[1] = holders[0]
        for person in holders:
            a = lo + rng.randrange(hi - lo - 400)
            b = a + 200 + rng.randrange(1400)
            if b > hi and bounded and i % 25 != 4:
                b = hi  # out-of-period memberships only on the planted posts
            elif not bounded and rng.random() < 0.1:
                b = None
            w.membership(person, post, D0 + timedelta(days=a),
                         None if b is None else D0 + timedelta(days=b))
    for _ in range(60):
        a, b = rng.sample(persons, k=2)
        w.direct_rel(a, b)
    for i in range(40):
        external = i % 20 == 0  # a referrer the store does not describe
        referrer = f"{NS}external/{i}" if external else rng.choice(persons)
        w.dangling += external
        w.referral(referrer, rng.choice(persons), rng.choice(posts))
    for i in range(4):
        chosen = rng.sample(posts, k=rng.randint(1, 3))
        election = w.election(i, chosen)
        for _ in range(10):
            w.candidacy(rng.choice(persons), election, rng.choice(chosen))
    w.votes(3, 6, 8, 40, 120, parties)
    for _ in range(30):
        w.transaction(rng.sample(persons + companies, k=rng.randint(2, 3)))
    for _ in range(4):
        w.legal_case(rng.sample(persons + companies, k=rng.randint(2, 4)))
    w.chunk_claims(60, 5)
    w.finish(2, 8, 8, _endpoints(w))
    return w


def dense(seed: int) -> Workload:
    """Adversarial shapes: one exclusive post held by 1200 short rotating
    terms (the pairwise membership scans), and 200 transactions and legal
    cases of 4-7 parties drawn from a core of 100 persons (k-cliques, so a
    depth-3 path query returns about 1500 paths)."""
    w = Workload("dense", seed)
    rng = w.rng
    persons = [w.person(i) for i in range(300)]
    huge = w.org("huge", "party")
    companies = [w.org(f"company-{i}", "company") for i in range(4)]
    post = w.post("huge-chair", huge, True)
    planted = set(rng.sample(range(1199), k=10))
    offset = rng.randrange(300)
    for i in range(1200):
        start = D0 + timedelta(days=2 * i)
        end = start + timedelta(days=2 if i in planted else 1)
        w.membership(persons[(offset + i) % 300], post, start, end)
    cores = rng.sample(persons, k=100)
    for _ in range(160):
        w.transaction(rng.sample(cores, k=rng.randint(4, 7)))
    for _ in range(40):
        w.legal_case(rng.sample(cores + companies, k=rng.randint(4, 7)))
    w.chunk_claims(120, 5)
    degree = dict.fromkeys(cores, 0)
    for clique in w.cliques["transaction"] + w.cliques["case"]:
        for p in clique:
            if p in degree:
                degree[p] += len(clique) - 1
    endpoints = _middle_fifth(degree)
    w.finish(2, 20, 20, endpoints, anchor=post, path_pair=_steady_pair(w, cores))
    return w


def provenance(seed: int) -> Workload:
    """Heavy corroboration on a small graph: 600 claims of about one entity
    each, each re-asserted by 3 more of 40 asserters, and a large append
    batch that is half duplicates."""
    w = Workload("provenance", seed)
    rng = w.rng
    persons = [w.person(i) for i in range(200)]
    parties = [w.org(f"party-{i}", "party") for i in range(5)]
    posts = [w.post(i, parties[i % 5], i % 5 == 0) for i in range(20)]
    for i, post in enumerate(posts):
        if i % 5 == 0:
            _terms(w, post, persons, 15, 0, 5800)
            continue
        for person in rng.sample(persons, k=20):
            a = rng.randrange(5000)
            w.membership(person, post, D0 + timedelta(days=a),
                         D0 + timedelta(days=a + 30 + rng.randrange(700)))
    w.chunk_claims(600, 40, corroborators=3)
    w.finish(13, 300, 300, _endpoints(w))
    return w


def _steady_pair(w: Workload, persons: list) -> tuple:
    """Of PAIR_TRIES seeded pairs of ``persons``, the one whose depth-3 path
    count is nearest DENSE_PATHS, so the output-bound query does about the
    same work on every seed.  Counts walk the clique and co-membership
    edges, the only kinds ``dense`` has, which are undirected."""
    adjacency: dict = {}
    links = [pair for c in w.cliques["transaction"] + w.cliques["case"]
             for pair in combinations(c, 2)]
    for a, b in links + w.co_membership():
        for u, v in ((a, b), (b, a)):
            near = adjacency.setdefault(u, {})
            near[v] = near.get(v, 0) + 1

    def paths(pair):
        return count_paths(lambda u: adjacency.get(u, {}), *pair)[0]

    pairs = [tuple(w.rng.sample(persons, k=2)) for _ in range(PAIR_TRIES)]
    return min(pairs, key=lambda p: (abs(paths(p) - DENSE_PATHS), p))


def _middle_fifth(degree: dict) -> list:
    """Query endpoints: the middle fifth by edge count, so the search work
    per query varies little from seed to seed."""
    ranked = sorted(degree, key=lambda p: (degree[p], p))
    return ranked[2 * len(ranked) // 5 : 3 * len(ranked) // 5]


def _endpoints(w: Workload) -> list:
    """Persons holding exactly one membership, in the middle fifth by
    co-membership edges."""
    held: dict = {}
    for m in w.memberships:
        held[m[1]] = held.get(m[1], 0) + 1
    degree = dict.fromkeys((p for p, n in held.items() if n == 1), 0)
    for a, b in w.co_membership():
        for p in (a, b):
            if p in degree:
                degree[p] += 1
    return _middle_fifth(degree)


WORKLOADS = {"census": census, "dense": dense, "provenance": provenance}
