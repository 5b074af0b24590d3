"""Shape checks over an entity graph.

Problems are data, not exceptions: every check returns :class:`Violation`
records and always completes, so dirty contributed data can be triaged in
one pass.  Reports are deterministic (violations sorted) and a graph
conforms exactly when no error-severity violation exists.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from . import vocab
from .errors import StoreError
from .model import Candidacy, EntityGraph, Membership, Post, iter_concept_refs, overlapping_pairs
from .record import Record
from .schemes import read_json
from .wire import id_for_term, iri, is_literal, literal_parts

EXCLUSIVE_OCCUPANCY = "EXCLUSIVE_OCCUPANCY"
MEMBERSHIP_OUTSIDE_POST = "MEMBERSHIP_OUTSIDE_POST"
CONCEPT_DOMAIN = "CONCEPT_DOMAIN"
CANDIDACY_POST = "CANDIDACY_POST"
POST_MEDIATION = "POST_MEDIATION"
DUPLICATE_MEMBERSHIP = "DUPLICATE_MEMBERSHIP"

ERROR = "error"
WARN = "warn"

_MEMBER_OF = iri(vocab.ORG_MEMBER_OF)
_HAS_MEMBER = iri(vocab.ORG_HAS_MEMBER)

_SEVERITY_LEVELS = (ERROR, WARN, "off")


class ShapeConfig(Record):
    """Which checks run and how hard they bite."""

    exclusive_occupancy: bool = True
    membership_within_post: str = WARN  # error | warn | off
    require_post_mediation: bool = True
    concept_domain: bool = True
    duplicate_membership: str = WARN  # warn | off

    def __post_init__(self):
        if self.membership_within_post not in _SEVERITY_LEVELS:
            raise ValueError(f"membership_within_post: {self.membership_within_post!r}")
        if self.duplicate_membership not in (WARN, "off"):
            raise ValueError(f"duplicate_membership: {self.duplicate_membership!r}")

    @classmethod
    def from_dict(cls, data: dict, origin: str = "config") -> "ShapeConfig":
        if not isinstance(data, dict):
            raise StoreError(f"{origin}: expected a JSON object")
        kwargs = {f: data[f] for f in cls._fields if f in data}
        unknown = set(data) - set(kwargs)
        if unknown:
            raise StoreError(f"{origin}: unknown keys {sorted(unknown)}")
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as e:
            raise StoreError(f"{origin}: {e}") from e


def load_shape_config(path: Union[str, Path]) -> ShapeConfig:
    return ShapeConfig.from_dict(read_json(path), str(path))


class Violation(Record):
    code: str
    severity: str
    focus: str
    related: tuple
    message: str

    def sort_key(self):
        return (self.code, self.focus, self.related, self.message)

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "focus": self.focus,
            "related": list(self.related),
            "message": self.message,
        }


class ValidationReport(Record):
    violations: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "violations", tuple(sorted(self.violations, key=Violation.sort_key))
        )

    @property
    def conforms(self) -> bool:
        return not any(v.severity == ERROR for v in self.violations)

    def counts_by_code(self) -> dict:
        out: dict = {}
        for v in self.violations:
            out[v.code] = out.get(v.code, 0) + 1
        return out

    def to_json(self) -> str:
        payload = {
            "conforms": self.conforms,
            "violations": [v.to_dict() for v in self.violations],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = []
        for v in self.violations:
            related = f" (related: {', '.join(v.related)})" if v.related else ""
            lines.append(f"{v.severity.upper()} {v.code} {v.focus}: {v.message}{related}")
        lines.append(
            f"{'conforms' if self.conforms else 'does not conform'}: "
            f"{len(self.violations)} violation(s)"
        )
        return "\n".join(lines) + "\n"


def _memberships_by_post(graph: EntityGraph) -> dict:
    by_post: dict = {}
    for m in graph.of_type(Membership):
        by_post.setdefault(m.post, []).append(m)
    return by_post


def check_exclusive_occupancy(graph: EntityGraph) -> list:
    """Two distinct persons may never share an exclusive post for a day."""
    out = []
    by_post = _memberships_by_post(graph)
    for post in graph.of_type(Post):
        if not post.exclusive:
            continue
        for m1, m2 in overlapping_pairs(by_post.get(post.id, [])):
            if m1.person != m2.person:
                out.append(
                    Violation(
                        EXCLUSIVE_OCCUPANCY,
                        ERROR,
                        post.id,
                        tuple(sorted((m1.id, m2.id))),
                        "exclusive post occupied by two persons at once",
                    )
                )
    return out


def check_membership_within_post(graph: EntityGraph, severity: str = WARN) -> list:
    """Membership dates must fall inside the post's own period."""
    out = []
    for m in graph.of_type(Membership):
        post = graph.get(m.post)
        if not isinstance(post, Post):
            continue
        if not post.interval.contains(m.interval):
            out.append(
                Violation(
                    MEMBERSHIP_OUTSIDE_POST,
                    severity,
                    m.id,
                    (post.id,),
                    "membership period extends outside the post period",
                )
            )
    return out


def check_concept_domains(graph: EntityGraph) -> list:
    """Concept-valued fields must draw from their bound scheme."""
    out = []
    for entity in graph.entities():
        for binding_key, concept_id in iter_concept_refs(entity):
            scheme = graph.scheme_for_field(binding_key)
            if scheme is None:
                continue
            if concept_id not in scheme:
                out.append(
                    Violation(
                        CONCEPT_DOMAIN,
                        ERROR,
                        entity.id,
                        (concept_id, scheme.id),
                        f"{binding_key} value is not in its bound scheme",
                    )
                )
    return out


def check_candidacy_shape(graph: EntityGraph) -> list:
    """A candidacy must contest one of its election's declared posts."""
    out = []
    for c in graph.of_type(Candidacy):
        election = graph.get(c.election)
        if election is None:
            continue
        if c.post not in election.posts:
            out.append(
                Violation(
                    CANDIDACY_POST,
                    ERROR,
                    c.id,
                    (c.post, c.election),
                    "candidacy post is not declared by its election",
                )
            )
    return out


def _term_id(term: str) -> str:
    return literal_parts(term)[0] if is_literal(term) else id_for_term(term)


def check_post_mediation(graph: EntityGraph) -> list:
    """Person-organization links must go through a post; raw member-of
    triples in the residue are flagged."""
    out = []
    for t in getattr(graph, "residue", ()):
        if t[1] == _MEMBER_OF:
            person, org = _term_id(t[0]), _term_id(t[2])
        elif t[1] == _HAS_MEMBER:
            person, org = _term_id(t[2]), _term_id(t[0])
        else:
            continue
        out.append(
            Violation(
                POST_MEDIATION,
                ERROR,
                person,
                (org,),
                "direct member link bypasses post mediation",
            )
        )
    return out


def check_duplicate_membership(graph: EntityGraph, severity: str = WARN) -> list:
    """The same person holding the same post twice with overlapping dates."""
    out = []
    by_post = _memberships_by_post(graph)
    for ms in by_post.values():
        for m1, m2 in overlapping_pairs(ms):
            if m1.person == m2.person:
                out.append(
                    Violation(
                        DUPLICATE_MEMBERSHIP,
                        severity,
                        m1.person,
                        tuple(sorted((m1.id, m2.id))),
                        "person holds the same post twice in overlapping periods",
                    )
                )
    return out


def validate_graph(graph: EntityGraph, cfg: Optional[ShapeConfig] = None) -> ValidationReport:
    """Run every enabled check and merge into one sorted report."""
    cfg = cfg or ShapeConfig()
    violations: list = []
    if cfg.exclusive_occupancy:
        violations.extend(check_exclusive_occupancy(graph))
    if cfg.membership_within_post != "off":
        violations.extend(check_membership_within_post(graph, cfg.membership_within_post))
    if cfg.concept_domain:
        violations.extend(check_concept_domains(graph))
    violations.extend(check_candidacy_shape(graph))
    if cfg.require_post_mediation:
        violations.extend(check_post_mediation(graph))
    if cfg.duplicate_membership != "off":
        violations.extend(check_duplicate_membership(graph, cfg.duplicate_membership))
    return ValidationReport(tuple(violations))
