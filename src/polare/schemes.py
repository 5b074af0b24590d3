"""JSON readers and writers for concept schemes and field bindings.

Scheme file: ``{"id": IRI, "concepts": [{"id", "label", "broader"?, "symmetric"?}]}``.
Bindings file: flat JSON object mapping a field key such as ``"Post.role"``
to the IRI of the scheme its values must come from.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .errors import StoreError
from .model import BINDING_KEYS, Concept, ConceptScheme

Pathish = Union[str, Path]


def scheme_from_dict(data: dict, origin: str = "scheme") -> ConceptScheme:
    if not isinstance(data, dict):
        raise StoreError(f"{origin}: expected a JSON object")
    scheme_id = data.get("id")
    if not isinstance(scheme_id, str) or not scheme_id:
        raise StoreError(f"{origin}: missing scheme id")
    raw = data.get("concepts", [])
    if not isinstance(raw, list):
        raise StoreError(f"{origin}: concepts must be a list")
    concepts = []
    for i, c in enumerate(raw):
        if not isinstance(c, dict) or not isinstance(c.get("id"), str):
            raise StoreError(f"{origin}: concept #{i} malformed")
        if not isinstance(c.get("label"), str):
            raise StoreError(f"{origin}: concept {c['id']} has no label")
        broader = c.get("broader")
        if broader is not None and not isinstance(broader, str):
            raise StoreError(f"{origin}: concept {c['id']}: broader must be a string")
        symmetric = c.get("symmetric", False)
        if not isinstance(symmetric, bool):
            raise StoreError(f"{origin}: concept {c['id']}: symmetric must be a boolean")
        concepts.append(Concept(c["id"], scheme_id, c["label"], broader, symmetric))
    return ConceptScheme(scheme_id, tuple(concepts))


def scheme_to_dict(scheme: ConceptScheme) -> dict:
    concepts = []
    for c in scheme.concepts:
        entry = {"id": c.id, "label": c.label}
        if c.broader is not None:
            entry["broader"] = c.broader
        if c.symmetric:
            entry["symmetric"] = True
        concepts.append(entry)
    return {"id": scheme.id, "concepts": concepts}


def read_json(path: Pathish):
    """Parse a UTF-8 JSON file; every failure is a :class:`StoreError`
    naming the path."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise StoreError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise StoreError(f"{path}: not valid UTF-8: {e}") from None
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # also the decoder's digit and depth limits
        raise StoreError(f"{path}: invalid JSON: {e}") from e


def load_scheme(path: Pathish) -> ConceptScheme:
    return scheme_from_dict(read_json(path), str(path))


def write_scheme(scheme: ConceptScheme, path: Pathish) -> None:
    Path(path).write_text(
        json.dumps(scheme_to_dict(scheme), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_schemes_dir(path: Pathish) -> tuple:
    """Load every ``*.json`` under a directory, sorted by file name."""
    root = Path(path)
    if not root.is_dir():
        return ()
    return tuple(load_scheme(p) for p in sorted(root.glob("*.json")))


def load_bindings(path: Pathish) -> dict:
    data = read_json(path)
    if not isinstance(data, dict):
        raise StoreError(f"{path}: bindings must be a JSON object")
    for key, value in data.items():
        if key not in BINDING_KEYS:
            raise StoreError(f"{path}: unknown field key {key!r}")
        if not isinstance(value, str) or not value:
            raise StoreError(f"{path}: binding for {key} must be a scheme IRI")
    return dict(data)


def write_bindings(bindings: dict, path: Pathish) -> None:
    Path(path).write_text(
        json.dumps(bindings, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
