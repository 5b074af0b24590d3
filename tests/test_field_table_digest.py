"""One sha256 over a canonical dump of the entity field table.

Every attribute of every ``TypeSpec`` and ``FieldSpec``, the entity class
order and the binding keys go into the dump, so any change to what the
``wire(...)`` declarations derive fails here.  A change meant to alter the
table prints the new dump with ``PYTHONPATH=src python3
tests/test_field_table_digest.py`` and says why.
"""

from __future__ import annotations

import hashlib

from polare.model import BINDING_KEYS, ENTITY_CLASSES, TYPE_SPECS

DIGEST = "0bf3470738c8e3db4562a8a4e5b08ad7a093d0acc6ba21147b6eb17233b74fd8"


def dump() -> str:
    lines = []
    for s in TYPE_SPECS:
        lines.append(
            f"type {s.cls.__name__} {s.type_iri} {s.interval_attr} "
            f"{s.interval_optional} {s.participants}"
        )
        for f in s.fields:
            targets = ",".join(c.__name__ for c in f.targets)
            lines.append(
                f"  field {f.attr} {f.pred} {f.kind} {f.required} {f.multi} "
                f"{f.default!r} {targets} {f.key}"
            )
    lines.append("classes " + ",".join(c.__name__ for c in ENTITY_CLASSES))
    lines.append("bindings " + ",".join(sorted(BINDING_KEYS)))
    return "\n".join(lines) + "\n"


def test_field_table_digest_is_pinned():
    assert hashlib.sha256(dump().encode("utf-8")).hexdigest() == DIGEST


if __name__ == "__main__":
    text = dump()
    print(text, end="")
    print(hashlib.sha256(text.encode("utf-8")).hexdigest())
