import random
from datetime import date, timedelta

import pytest

from polare.errors import UnknownAgentError
from polare.inference import (
    ALL_KINDS,
    CANDIDACY_POST,
    CO_MEMBERSHIP,
    FAMILY,
    REFERRAL,
    RelationEdge,
    RelationGraph,
)
from polare.model import TimeInterval
from polare.queries import (
    MAX_DEPTH_CAP,
    Path,
    PathQuery,
    PathStep,
    find_paths,
    neighborhood,
    paths_to_jsonl,
)

from .genfixtures import random_relation_graph
from .oracles import all_simple_paths, covers_day, path_to_dict, reachable_edges_bfs


def edge(a, b, kind=CO_MEMBERSHIP, detail="x:o", directed=False, interval=None):
    return RelationEdge(a, b, kind, detail, (f"x:ev-{a}-{b}",), interval, directed)


def graph_of(*edges):
    rg = RelationGraph()
    for e in edges:
        rg.add(e)
    return rg


def plain(e):
    return {"key": e.key, "a": e.a, "b": e.b, "kind": e.kind, "directed": e.directed}


class TestPathQueryValidation:
    def test_depth_default_and_cap(self):
        assert PathQuery("x:a", "x:b").max_depth == 4
        assert PathQuery("x:a", "x:b", max_depth=MAX_DEPTH_CAP).max_depth == 8
        with pytest.raises(ValueError):
            PathQuery("x:a", "x:b", max_depth=MAX_DEPTH_CAP + 1)
        with pytest.raises(ValueError):
            PathQuery("x:a", "x:b", max_depth=0)

    def test_source_target_must_differ(self):
        with pytest.raises(ValueError):
            PathQuery("x:a", "x:a")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PathQuery("x:a", "x:b", kinds=frozenset({"gossip"}))

    def test_unknown_agent_raises(self):
        rg = graph_of(edge("x:a", "x:b"))
        with pytest.raises(UnknownAgentError):
            find_paths(rg, PathQuery("x:a", "x:zz"))
        with pytest.raises(UnknownAgentError):
            find_paths(rg, PathQuery("x:zz", "x:a"))

    def test_agents_parameter_extends_the_world(self):
        # an agent known to the entity graph but touching no edges is a valid
        # endpoint; there are simply no paths
        rg = graph_of(edge("x:a", "x:b"))
        assert find_paths(rg, PathQuery("x:a", "x:loner"), agents={"x:a", "x:b", "x:loner"}) == []


class TestTraversal:
    def test_single_undirected_edge_both_ways(self):
        e = edge("x:a", "x:b")
        rg = graph_of(e)
        (p,) = find_paths(rg, PathQuery("x:a", "x:b"))
        assert p.steps == (PathStep(e, forward=True),)
        (q,) = find_paths(rg, PathQuery("x:b", "x:a"))
        assert q.steps == (PathStep(e, forward=True),)

    def test_directed_edge_one_way(self):
        e = edge("x:a", "x:b", kind=REFERRAL, directed=True)
        rg = graph_of(e)
        assert len(find_paths(rg, PathQuery("x:a", "x:b"))) == 1
        assert find_paths(rg, PathQuery("x:b", "x:a")) == []

    def test_family_edge_traversable_backwards(self):
        e = edge("x:a", "x:b", kind=FAMILY, directed=True)
        rg = graph_of(e)
        (p,) = find_paths(rg, PathQuery("x:b", "x:a"))
        assert p.steps[0].forward is False

    def test_non_family_directed_never_backwards(self):
        e = edge("x:a", "x:b", kind=CANDIDACY_POST, directed=True)
        assert find_paths(graph_of(e), PathQuery("x:b", "x:a")) == []

    def test_simple_paths_only(self):
        # triangle: a-b, b-c, c-a; paths a->c must not revisit a
        rg = graph_of(edge("x:a", "x:b"), edge("x:b", "x:c"), edge("x:c", "x:a"))
        paths = find_paths(rg, PathQuery("x:a", "x:c"))
        assert [p.length for p in paths] == [1, 2]

    def test_depth_limits_results(self):
        rg = graph_of(edge("x:a", "x:b"), edge("x:b", "x:c"), edge("x:c", "x:d"))
        assert find_paths(rg, PathQuery("x:a", "x:d", max_depth=2)) == []
        assert len(find_paths(rg, PathQuery("x:a", "x:d", max_depth=3))) == 1

    def test_kind_filter(self):
        rg = graph_of(
            edge("x:a", "x:b", kind=CO_MEMBERSHIP),
            edge("x:a", "x:b", kind=FAMILY, detail="x:c"),
        )
        paths = find_paths(rg, PathQuery("x:a", "x:b", kinds=frozenset({FAMILY})))
        assert len(paths) == 1 and paths[0].steps[0].edge.kind == FAMILY

    def test_date_filter_drops_lapsed_edges(self):
        live = TimeInterval(date(2015, 1, 1), None)
        dead = TimeInterval(date(2000, 1, 1), date(2001, 1, 1))
        rg = graph_of(
            edge("x:a", "x:b", interval=live),
            edge("x:b", "x:c", interval=dead),
            edge("x:a", "x:c", kind=FAMILY, detail="x:k"),  # undated: always passes
        )
        paths = find_paths(rg, PathQuery("x:a", "x:c", at_date=date(2016, 6, 1)))
        assert [p.length for p in paths] == [1]

    def test_paths_sorted_by_length_then_edges(self):
        rg = graph_of(
            edge("x:a", "x:c", detail="x:o2"),
            edge("x:a", "x:c", detail="x:o1"),
            edge("x:a", "x:b"),
            edge("x:b", "x:c"),
        )
        paths = find_paths(rg, PathQuery("x:a", "x:c"))
        assert [p.length for p in paths] == [1, 1, 2]
        keys = [(p.length, [s.edge.key for s in p.steps]) for p in paths]
        assert keys[0] < keys[1] < keys[2]

    def test_path_agents(self):
        rg = graph_of(edge("x:a", "x:b"), edge("x:b", "x:c"))
        (p,) = find_paths(rg, PathQuery("x:a", "x:c"))
        assert p.agents() == ["x:a", "x:b", "x:c"]


class TestPathOracle:
    def test_matches_brute_force(self):
        rng = random.Random(616)
        for _ in range(25):
            rg, eds = random_relation_graph(rng, max_agents=14, max_edges=30)
            agents = sorted(rg.agents())
            if len(agents) < 2:
                continue
            for _ in range(6):
                src, dst = rng.sample(agents, k=2)
                depth = rng.randint(1, 4)
                got = [
                    tuple((s.edge.key, s.forward) for s in p.steps)
                    for p in find_paths(rg, PathQuery(src, dst, max_depth=depth))
                ]
                want = all_simple_paths([plain(e) for e in rg.edges()], src, dst, depth)
                assert got == want


def random_day(rng):
    return date(2016, 1, 1) + timedelta(days=rng.randint(0, 90))


def random_interval(rng):
    """None, or an interval whose bounds are each a day or open."""
    if rng.random() < 0.25:
        return None
    start, end = (random_day(rng) if rng.random() < 0.7 else None for _ in range(2))
    if start is not None and end is not None and start > end:
        start, end = end, start
    return TimeInterval(start, end)


def dated(e):
    span = e.interval
    return {**plain(e), "start": span and span.start, "end": span and span.end}


class TestFilteredOracle:
    """``kinds`` and ``at_date`` against the oracles run on the edge dicts
    that pass both filters, decided here from the raw bounds."""

    def cases(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            rg, _ = random_relation_graph(rng, max_agents=12, max_edges=40)
            rg = graph_of(*(e._replace(interval=random_interval(rng)) for e in rg.edges()))
            kinds = frozenset(k for k in sorted(ALL_KINDS) if rng.random() < 0.6)
            at = random_day(rng)
            kept = [
                d
                for d in map(dated, rg.edges())
                if d["kind"] in kinds and covers_day(d["start"], d["end"], at)
            ]
            yield rng, rg, kinds, at, kept

    def test_paths_match_brute_force(self):
        found = dropped = 0
        for rng, rg, kinds, at, kept in self.cases(1717):
            dropped += len(rg) - len(kept)
            for _ in range(6):
                src, dst = rng.sample(rg.agents(), k=2)
                depth = rng.randint(1, 4)
                q = PathQuery(src, dst, max_depth=depth, kinds=kinds, at_date=at)
                got = [tuple((s.edge.key, s.forward) for s in p.steps) for p in find_paths(rg, q)]
                assert got == all_simple_paths(kept, src, dst, depth)
                found += len(got)
        assert found > 100 and dropped > 100

    def test_neighborhood_matches_bfs(self):
        found = 0
        for rng, rg, kinds, at, kept in self.cases(2929):
            for _ in range(4):
                agent = rng.choice(rg.agents())
                depth = rng.randint(1, 3)
                got = {e.key for e in neighborhood(rg, agent, depth, kinds, at).edges()}
                assert got == reachable_edges_bfs(kept, agent, depth)
                found += len(got)
        assert found > 100


class TestNeighborhood:
    def chain(self):
        return graph_of(
            edge("x:a", "x:b"),
            edge("x:b", "x:c"),
            edge("x:c", "x:d"),
            edge("x:d", "x:e"),
        )

    def test_depth_one(self):
        rg = self.chain()
        n = neighborhood(rg, "x:b", 1)
        assert {(e.a, e.b) for e in n.edges()} == {("x:a", "x:b"), ("x:b", "x:c")}

    def test_depth_two(self):
        n = neighborhood(self.chain(), "x:b", 2)
        assert {(e.a, e.b) for e in n.edges()} == {
            ("x:a", "x:b"),
            ("x:b", "x:c"),
            ("x:c", "x:d"),
        }

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            neighborhood(self.chain(), "x:a", 0)

    def test_unknown_agent(self):
        with pytest.raises(UnknownAgentError):
            neighborhood(self.chain(), "x:zz", 1)

    def test_isolated_agent_empty_result(self):
        n = neighborhood(self.chain(), "x:loner", 2, agents={"x:loner"})
        assert len(n) == 0

    def test_directed_edges_respected(self):
        rg = graph_of(
            edge("x:a", "x:b", kind=REFERRAL, directed=True),
            edge("x:c", "x:a", kind=REFERRAL, directed=True),
        )
        n = neighborhood(rg, "x:a", 1)
        # only the outbound edge is walkable; the inbound one stays out
        assert {(e.a, e.b) for e in n.edges()} == {("x:a", "x:b")}

    def test_family_counts_both_ways(self):
        rg = graph_of(edge("x:p", "x:kid", kind=FAMILY, directed=True))
        n = neighborhood(rg, "x:kid", 1)
        assert len(n) == 1

    def test_matches_bfs_oracle(self):
        rng = random.Random(2662)
        for _ in range(25):
            rg, _ = random_relation_graph(rng, max_agents=16, max_edges=40)
            agents = sorted(rg.agents())
            if not agents:
                continue
            agent = rng.choice(agents)
            depth = rng.randint(1, 3)
            got = {e.key for e in neighborhood(rg, agent, depth).edges()}
            want = reachable_edges_bfs([plain(e) for e in rg.edges()], agent, depth)
            assert got == want

    def test_result_is_independent_graph(self):
        rg = self.chain()
        n = neighborhood(rg, "x:a", 1)
        n.add(edge("x:y", "x:z"))
        assert len(rg) == 4


class TestSerialization:
    def test_path_dict_shape(self):
        rg = graph_of(edge("x:a", "x:b"), edge("x:b", "x:c"))
        (p,) = find_paths(rg, PathQuery("x:a", "x:c"))
        d = path_to_dict(p)
        assert d["source"] == "x:a" and d["target"] == "x:c" and d["length"] == 2
        assert [s["from"] for s in d["steps"]] == ["x:a", "x:b"]
        assert all(set(s) == {"from", "to", "kind", "detail", "forward"} for s in d["steps"])

    def test_jsonl_deterministic(self):
        rg = graph_of(edge("x:a", "x:b"), edge("x:b", "x:c"), edge("x:a", "x:c"))
        ps = find_paths(rg, PathQuery("x:a", "x:c"))
        text = "".join(paths_to_jsonl(ps))
        assert text == "".join(paths_to_jsonl(list(ps)))
        assert text.count("\n") == len(ps)

    def test_backward_step_marked(self):
        rg = graph_of(edge("x:p", "x:kid", kind=FAMILY, directed=True))
        (p,) = find_paths(rg, PathQuery("x:kid", "x:p"))
        d = path_to_dict(p)
        assert d["steps"][0]["forward"] is False
        assert d["steps"][0]["from"] == "x:kid" and d["steps"][0]["to"] == "x:p"
