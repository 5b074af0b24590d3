"""The JSON lines ``infer`` and both queries write, against ``json.dumps``.

The library formats each line directly; the oracle builds the object from
the edge's or path's attributes and lets ``json.dumps`` write it with
sorted keys and compact separators.  The two must agree byte for byte.
"""

from datetime import date

from hypothesis import given, settings
from hypothesis import strategies as st

from polare.inference import ALL_KINDS, RelationEdge, RelationGraph, edges_to_jsonl
from polare.model import TimeInterval
from polare.queries import Path, PathStep, paths_to_jsonl

from .oracles import edge_to_dict, json_line, path_to_dict

#: characters JSON escapes or writes as more than one byte: non-ASCII, an
#: astral character, U+2028, a backslash, a slash, control characters
TRICKY = "\u00e9\U0001f600\u2028\\/\x00\x1f\x7f"

#: entity ids: anything an IRI id may hold
ids = st.text(
    st.sampled_from(TRICKY) | st.characters(blacklist_characters=' \t\n\r<>"'), max_size=6
).map(lambda s: "x:" + s)
texts = st.text(st.sampled_from(TRICKY + '"\n') | st.characters(), max_size=6)
days = st.none() | st.dates(date(1, 1, 1), date(9999, 12, 31))


@st.composite
def intervals(draw):
    if draw(st.booleans()):
        return None
    start, end = draw(days), draw(days)
    if start is not None and end is not None and start > end:
        start, end = end, start
    return TimeInterval(start, end)


@st.composite
def edges(draw, a=None, b=None):
    if a is None:
        a, b = draw(st.lists(ids, min_size=2, max_size=2, unique=True))
    return RelationEdge(
        a,
        b,
        draw(st.sampled_from(sorted(ALL_KINDS))),
        draw(texts),
        tuple(draw(st.lists(texts, min_size=1, max_size=3))),
        draw(intervals()),
        draw(st.booleans()),
    )


@st.composite
def paths(draw):
    """A chain of edges between distinct agents; each edge may be stored
    either way round and each step walked either way."""
    agents = draw(st.lists(ids, min_size=2, max_size=5, unique=True))
    steps = []
    for here, there in zip(agents, agents[1:]):
        a, b = (there, here) if draw(st.booleans()) else (here, there)
        steps.append(PathStep(draw(edges(a, b)), draw(st.booleans())))
    return Path(agents[0], agents[-1], tuple(steps))


class TestLineFormat:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(edges(), max_size=4))
    def test_edge_lines_are_what_json_dumps_writes(self, drawn):
        rg = RelationGraph(drawn)
        want = "".join(json_line(edge_to_dict(e)) for e in rg.edges())
        assert "".join(edges_to_jsonl(rg)) == want

    @settings(max_examples=100, deadline=None)
    @given(st.lists(paths(), max_size=3))
    def test_path_lines_are_what_json_dumps_writes(self, drawn):
        want = "".join(json_line(path_to_dict(p)) for p in drawn)
        assert "".join(paths_to_jsonl(drawn)) == want
