r"""Triple wire format: a strict N-Triples subset with an out-of-band prefix
map, plus canonical serialization.

Grammar (one statement per line)::

    STATEMENT := SUBJ WS PRED WS OBJ WS? "."
    SUBJ      := IRIREF | BLANK | PNAME
    PRED      := IRIREF | PNAME
    OBJ       := IRIREF | BLANK | LITERAL | PNAME
    IRIREF    := "<" non-space chars ">"
    BLANK     := "_:" label
    LITERAL   := '"' escaped chars '"' ("^^" (IRIREF | PNAME))?

Lines starting with ``#`` are comments.  PNAMEs (``foaf:name``, ``:John``)
are an input convenience expanded through the supplied prefix map; a PNAME
local part cannot end with ``.``, since a trailing dot reads as the
statement terminator.  Canonical serialization emits full IRIs only, one
sorted statement per line.

In memory a term is its canonical spelling, as RDF 1.1 N-Triples writes
it: ``<iri>``, ``_:label``, ``"lexical"`` or ``"lexical"^^<datatype>``,
with ``xsd:string`` never written and ``\\ \" \n \r \t`` escaped in the
lexical form.  A triple is a ``(subject, predicate, object)`` tuple of
spellings, so tuple order is the canonical order.  This module is the only
one that builds or takes apart a spelling: :func:`iri`, :func:`literal`,
:func:`term_for_id`, :func:`id_for_term`, :func:`is_literal` and
:func:`literal_parts`.

Parsing is one left-to-right pass per line.  The scanner finds each token
with a single ``str.find`` or precompiled regex match from its cursor (an
IRI is found by its closing ``>`` and then checked for the forbidden
characters ``" \t<"``), so a line costs time linear in its length.  A
literal is sliced out whole unless it holds a backslash, and only then
decoded escape by escape; a ``\u``/``\U`` escape must name a Unicode scalar
value, as UCHAR does in RDF 1.1 N-Triples, so surrogates and code points
past U+10FFFF are rejected.  Every :class:`WireParseError` carries the exact
1-based line and column of the offending character.  An IRI that a prefixed
name expands to is held to the IRIREF rule, and a fault in it is reported
at the prefixed name's column.

:func:`split_canonical` recognizes text that is already canonical, as
:func:`canonicalize` writes it, with one precompiled regex and one pass
over its lines, and returns its triples without scanning it term by term.
"""

from __future__ import annotations

import re
from operator import lt
from typing import Iterable, Iterator, Optional

from .errors import UnknownPrefixError, WireParseError

XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = XSD + "string"
XSD_DATE = XSD + "date"
XSD_DECIMAL = XSD + "decimal"
XSD_BOOLEAN = XSD + "boolean"


def iri(value: str) -> str:
    return f"<{value}>"


_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})
_UNESCAPES = {"\\": "\\", '"': '"', "'": "'", "n": "\n", "r": "\r", "t": "\t", "b": "\b", "f": "\f"}
_ESCAPED_CHAR = re.compile(r"\\(.)", re.DOTALL)
# an escaped lexical form runs to the first quote that no backslash escapes
_ESCAPED_BODY = re.compile(r'[^"\\]*(?:\\.[^"\\]*)*', re.DOTALL)


def literal(lexical: str, datatype: str = XSD_STRING) -> str:
    body = lexical.translate(_ESCAPES)
    if datatype == XSD_STRING:
        return f'"{body}"'
    return f'"{body}"^^<{datatype}>'


def is_literal(term: str) -> bool:
    return term.startswith('"')


def literal_parts(term: str) -> tuple:
    """``(lexical, datatype)`` of a literal's spelling; inverts :func:`literal`."""
    if term.endswith('"'):  # only an xsd:string literal ends at its closing quote
        body, datatype = term[1:-1], XSD_STRING
    else:
        end = _ESCAPED_BODY.match(term, 1).end()
        body, datatype = term[1:end], term[end + 4 : -1]
    if "\\" in body:
        body = _ESCAPED_CHAR.sub(lambda m: _UNESCAPES[m.group(1)], body)
    return body, datatype


def term_for_id(eid: str) -> str:
    """Entity id string -> subject/object term."""
    return eid if eid.startswith("_:") else iri(eid)


def id_for_term(term: str) -> str:
    """Subject/object term -> entity id string; literals have no id."""
    if term.startswith("<"):
        return term[1:-1]
    if term.startswith("_:"):
        return term
    raise ValueError(f"term has no entity id: {term!r}")


class TripleSet:
    """Insertion-ordered collection of triples with set semantics: no
    duplicates, equality ignores order."""

    __slots__ = ("_items",)

    def __init__(self, triples: Iterable[tuple] = ()):
        # from a dict, such as ClaimStore's ownership index, this copies the
        # stored hashes and hashes no triple
        self._items: dict = dict.fromkeys(triples)

    def add(self, t: tuple) -> bool:
        size = len(self._items)
        self._items.setdefault(t)  # hashes t once; a test plus a store would hash it twice
        return len(self._items) > size

    def update(self, triples: Iterable[tuple]) -> None:
        self._items.update(dict.fromkeys(triples))

    def __contains__(self, t: tuple) -> bool:
        return t in self._items

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TripleSet):
            return NotImplemented
        return self._items.keys() == other._items.keys()

    def __repr__(self) -> str:
        return f"TripleSet({len(self._items)} triples)"


def join_triples(ordered: Iterable[tuple]) -> str:
    """The canonical text of triples that are already distinct and in
    canonical order: one ``S P O .`` line each."""
    return "".join(f"{s} {p} {o} .\n" for s, p, o in ordered)


def canonicalize(triples: Iterable[tuple]) -> tuple:
    """``(ordered, text)``: the distinct triples in canonical order, which is
    the tuple order of their spellings, and their canonical text."""
    ordered = sorted(set(triples))
    return ordered, join_triples(ordered)


def serialize_triples(ts: TripleSet) -> str:
    """Canonical text form: full IRIs, one statement per line, lines sorted
    by (subject, predicate, object); ``parse_triples`` inverts it exactly."""
    return canonicalize(ts)[1]


# the canonical spelling of each term, exactly as the scanner and literal()
# write it: an IRI body without " \t<>\n" that does not open like a blank
# node, a blank label not ending in ".", a lexical form holding only the
# five escapes literal() writes, and never an explicit xsd:string
_C_IRI = r"<(?!_:)[^ \t<>\n]+>"
_C_NODE = _C_IRI + r"|_:[\w.-]*[\w-]"
_C_LITERAL = (
    r'"[^"\\\n\r\t]*(?:\\[\\"nrt][^"\\\n\r\t]*)*"'
    rf"(?:\^\^(?!<{re.escape(XSD_STRING)}>){_C_IRI})?"
)
_CANONICAL_LINE = re.compile(rf"({_C_NODE}) ({_C_IRI}) ({_C_NODE}|{_C_LITERAL}) \.\n")
_CANONICAL_TEXT = re.compile(rf"(?:(?:{_C_NODE}) (?:{_C_IRI}) (?:{_C_NODE}|{_C_LITERAL}) \.\n)+")


def is_canonical(text: str) -> bool:
    """Whether ``text`` is exactly what :func:`canonicalize` writes for the
    triples it spells: every line one canonical ``S P O .``, lines strictly
    increasing.  For canonical lines string order is tuple order: where one
    term is a proper prefix of another, the longer one goes on with a
    character above the space that follows the shorter one in its line."""
    if _CANONICAL_TEXT.fullmatch(text) is None:
        return False
    lines = text.split("\n")  # the last item is the "" after the final newline
    return all(map(lt, lines, lines[1:-1]))


def split_canonical(text: str) -> Optional[list]:
    """The triples of ``text`` in canonical order when :func:`is_canonical`
    holds, so that ``canonicalize(result)[1] == text``; otherwise None."""
    return _CANONICAL_LINE.findall(text) if is_canonical(text) else None


_WS = re.compile(r"[ \t]*")
# ">" and "\n" cannot occur in an IRIREF's body, but can in a prefix map's
_IRI_FORBIDDEN = re.compile(r"[ \t<>\n]")
_BLANK_LABEL = re.compile(r"[\w.-]*")  # \w is str.isalnum() plus "_"
_PNAME = re.compile(r"[^ \t]*")
_LITERAL_RUN = re.compile(r'[^"\\]*')  # up to the closing quote or an escape
_HEX = frozenset("0123456789abcdefABCDEF")


def _iri_fault(value: str) -> tuple:
    """``(offset, reason)`` for the first rule the IRI ``value`` breaks:
    offset is that of a forbidden character, None for a fault of the whole
    value; ``(None, None)`` when it breaks none."""
    bad = _IRI_FORBIDDEN.search(value)
    if bad:
        return bad.start(), f"character {bad.group()!r} not allowed inside IRI"
    if not value:
        return None, "empty IRI"
    if value.startswith("_:"):  # an IRI scheme starts with a letter
        return None, "IRI may not start with '_:'"
    return None, None


class _LineScanner:
    """Cursor over one statement line, reporting 1-based columns.

    Every token is found with one ``str.find`` or one precompiled regex
    match from the cursor, so a line is scanned in time linear in its
    length.  Literal escapes are decoded only when a backslash is present.
    """

    def __init__(self, text: str, line_no: int, prefixes: dict):
        self.text = text
        self.pos = 0
        self.line = line_no
        self.prefixes = prefixes

    def error(self, message: str, column: Optional[int] = None):
        raise WireParseError(self.line, self.pos + 1 if column is None else column, message)

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self) -> int:
        start = self.pos
        self.pos = _WS.match(self.text, start).end()
        return self.pos - start

    def scan_iriref(self) -> str:
        """An IRIREF, spelled as it stands in the input."""
        text, start = self.text, self.pos
        close = text.find(">", start + 1)
        offset, fault = _iri_fault(text[start + 1 : len(text) if close < 0 else close])
        if offset is not None:
            self.error(fault, column=start + 2 + offset)
        if close < 0:
            self.error("unterminated IRI", column=start + 1)
        if fault:
            self.error(fault, column=start + 1)
        self.pos = close + 1
        return text[start : close + 1]

    def scan_blank(self) -> str:
        start = self.pos
        end = _BLANK_LABEL.match(self.text, start + 2).end()
        # a trailing dot reads as the statement terminator, not label content
        label = self.text[start + 2 : end].rstrip(".")
        if not label:
            self.error("empty blank node label", column=start + 1)
        self.pos = start + 2 + len(label)
        return self.text[start : self.pos]

    def scan_pname_iri(self) -> str:
        """Scan a prefixed name and expand it through the prefix map into an
        IRI that obeys the IRIREF rule; a fault is reported at the name."""
        start = self.pos
        end = _PNAME.match(self.text, start).end()
        token = self.text[start:end].rstrip(".")
        self.pos = start + len(token)
        if ":" not in token:
            self.error(f"expected an IRI, blank node or literal, got {token!r}", column=start + 1)
        prefix, _, local = token.partition(":")
        if prefix not in self.prefixes:
            raise UnknownPrefixError(self.line, start + 1, prefix)
        value = self.prefixes[prefix] + local
        fault = _iri_fault(value)[1]
        if fault:
            self.error(fault, column=start + 1)
        return value

    def scan_literal(self) -> str:
        text, start = self.text, self.pos
        end = _LITERAL_RUN.match(text, start + 1).end()
        if end < len(text) and text[end] == '"':
            lexical = text[start + 1 : end]
            self.pos = end + 1
        else:
            lexical = self._unescape(start)
        datatype = XSD_STRING
        if text.startswith("^^", self.pos):
            self.pos += 2
            if self.peek() == "<":
                datatype = self.scan_iriref()[1:-1]
            else:
                datatype = self.scan_pname_iri()
        return literal(lexical, datatype)

    def _unescape(self, start: int) -> str:
        """Decode the body of the literal opening at ``start`` and move the
        cursor past its closing quote."""
        text = self.text
        chars = []
        self.pos = start + 1
        while True:
            end = _LITERAL_RUN.match(text, self.pos).end()
            chars.append(text[self.pos : end])
            if end >= len(text):
                self.error("unterminated literal", column=start + 1)
            self.pos = end + 1
            if text[end] == '"':
                return "".join(chars)
            if self.at_end():
                self.error("dangling escape at end of line")
            e = text[self.pos]
            self.pos += 1
            if e in _UNESCAPES:
                chars.append(_UNESCAPES[e])
            elif e in "uU":
                width = 4 if e == "u" else 8
                hexpart = text[self.pos : self.pos + width]
                if len(hexpart) < width or not _HEX.issuperset(hexpart):
                    self.error(f"bad \\{e} escape")
                code = int(hexpart, 16)
                if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                    # RDF 1.1 N-Triples UCHAR: an escape names a Unicode scalar value
                    self.error(f"\\{e}{hexpart} is not a Unicode scalar value", column=end + 1)
                chars.append(chr(code))
                self.pos += width
            else:
                self.error(f"unknown escape \\{e}")

    def scan_iri(self) -> str:
        if self.peek() == "<":
            return self.scan_iriref()
        return iri(self.scan_pname_iri())

    def scan_subject(self) -> str:
        if self.text.startswith("_:", self.pos):
            return self.scan_blank()
        if self.peek() == '"':
            self.error("literal not allowed as subject")
        return self.scan_iri()

    def scan_predicate(self) -> str:
        if self.text.startswith("_:", self.pos) or self.peek() == '"':
            self.error("predicate must be an IRI")
        return self.scan_iri()

    def scan_object(self) -> str:
        if self.text.startswith("_:", self.pos):
            return self.scan_blank()
        if self.peek() == '"':
            return self.scan_literal()
        return self.scan_iri()


def parse_triples(text: str, prefixes: Optional[dict] = None) -> TripleSet:
    """Parse wire-format text into a :class:`TripleSet`, expanding prefixed
    names through ``prefixes``; raises :class:`WireParseError` with the line
    and column of the first problem."""
    prefixes = prefixes or {}
    out = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        sc = _LineScanner(line, line_no, prefixes)
        sc.skip_ws()
        if sc.at_end() or sc.peek() == "#":
            continue
        subject = sc.scan_subject()
        if not sc.skip_ws():
            sc.error("expected whitespace after subject")
        predicate = sc.scan_predicate()
        if not sc.skip_ws():
            sc.error("expected whitespace after predicate")
        obj = sc.scan_object()
        sc.skip_ws()
        if sc.peek() != ".":
            sc.error("expected '.' terminating the statement")
        sc.pos += 1
        sc.skip_ws()
        if not sc.at_end():
            sc.error("unexpected content after '.'")
        out.append((subject, predicate, obj))
    return TripleSet(out)
