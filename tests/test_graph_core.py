import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawsq.analysis import find_claw
from clawsq.coloring import edge_conflict_graph
from clawsq.corpus import cocktail_party, cycle, complete, octahedron, path
from clawsq.errors import (
    DuplicateEdgeError,
    SelfLoopError,
    SizeMismatchError,
    VertexOutOfRangeError,
)
from clawsq.graph import (
    DISJOINT_COVER,
    JOINED_COVER,
    NO_COVER,
    UNCOLORED,
    Coloring,
    Graph,
    bits,
    build_graph,
    connected_components,
    cover_kind,
    delete_vertex,
    induced_subgraph,
    line_graph,
    max_clique,
    max_clique_within,
    max_degree,
    neighborhood_cliques,
    neighborhood_covers,
    split_at_lowest,
    square,
    square_degrees,
)

from helpers import (
    bfs_distances,
    brute_delete_vertex,
    brute_is_clique,
    brute_is_proper,
    brute_max_clique,
    brute_square_degree,
    greedy_clique,
    random_graph,
)


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    return build_graph(n, edges)


class TestBuildGraph:
    def test_claw(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert [g.degree(v) for v in (1, 2, 3)] == [1, 1, 1]
        assert g.edge_count == 3

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError):
            build_graph(-1, [])

    def test_edgeless(self):
        g = build_graph(3, [])
        assert g.edge_count == 0
        assert list(g.edges()) == []

    def test_edges_come_in_lexicographic_order(self, corpus):
        # write_dimacs, edge_conflict_graph and analyze's root_edges rely on it.
        for entry in corpus:
            edges = list(entry.graph.edges())
            assert edges == sorted(edges)
            assert all(u < v for u, v in edges)
            assert len(edges) == entry.graph.edge_count

    def test_c5_two_regular(self):
        g = cycle(5)
        assert all(g.degree(v) == 2 for v in range(5))
        assert g.edge_count == 5

    def test_rejects_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            build_graph(3, [(0, 3)])

    def test_rejects_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_graph(3, [(1, 1)])

    def test_rejects_duplicate_even_reversed(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph(3, [(0, 1), (1, 0)])

    @given(graphs())
    @settings(deadline=None, max_examples=60)
    def test_edge_count_is_half_degree_sum(self, g):
        # n and edge_count derive from the rows, on every constructor's output.
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count
        assert Graph(g._adj) == g
        derived = [
            square(g),
            induced_subgraph(g, range(0, g.n, 2))[0],
            edge_conflict_graph(g)[0],
            line_graph(g.n, tuple(g.edges())),
        ]
        if g.n:
            derived.append(delete_vertex(g, g.n // 2))
        for h in derived:
            assert h.n == len(h._adj)
            assert h.edge_count == len(list(h.edges()))
        assert octahedron().edge_count == 12


class TestLineGraph:
    @given(graphs(), st.data())
    @settings(deadline=None, max_examples=60)
    def test_matches_pairwise_definition(self, f, data):
        # root_graph lists its root edges in g's vertex order, which is not
        # lexicographic; the ends of each edge come in either order here too.
        edges = [
            (v, u) if data.draw(st.booleans()) else (u, v)
            for u, v in data.draw(st.permutations(list(f.edges())))
        ]
        pairs = [
            (i, j) for i, j in combinations(range(len(edges)), 2) if {*edges[i]} & {*edges[j]}
        ]
        assert line_graph(f.n, edges) == build_graph(len(edges), pairs)


class TestSquare:
    def test_c5_squares_to_k5(self):
        assert square(cycle(5)) == complete(5)

    def test_p4_square_misses_the_long_pair(self):
        sq = square(path(4))
        assert sorted(sq.edges()) == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
        assert not sq.has_edge(0, 3)

    def test_edgeless_stays_edgeless(self):
        assert square(build_graph(4, [])) == build_graph(4, [])

    def test_icosahedron_square_degree_is_ten(self, icosahedron):
        # Independent derivation: BFS from each vertex, count distance <= 2.
        sq = square(icosahedron)
        for v in range(12):
            assert brute_square_degree(icosahedron, v) == 10
            assert sq.degree(v) == 10

    def test_icosahedron_has_unique_antipode(self, icosahedron):
        for v in range(12):
            dist = bfs_distances(icosahedron, v)
            assert sorted(dist.values()).count(3) == 1

    @given(graphs())
    @settings(deadline=None)
    def test_square_contains_original_edges(self, g):
        sq = square(g)
        for u, v in g.edges():
            assert sq.has_edge(u, v)


def scan(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class TestBitKernels:
    def test_bits_edge_cases(self):
        rng = random.Random(6400)
        masks = [0, 1, 1 << 6399, (1 << 64) - 1]
        masks += [sum(1 << i for i in rng.sample(range(6400), k)) for k in (2, 7, 40)]
        for mask in masks:
            assert bits(mask) == scan(mask)

    def test_cover_kind_matches_its_definition(self):
        rng = random.Random(1973)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 9), rng.choice((0.5, 0.8, 0.95)))
            mask = rng.getrandbits(g.n)
            if not mask:
                assert split_at_lowest(g._adj, mask) == (0, 0)
                assert cover_kind(g._adj, mask) == DISJOINT_COVER
                continue
            low = scan(mask)[0]
            side_a = [u for u in scan(mask) if u == low or g.has_edge(low, u)]
            side_b = [u for u in scan(mask) if u not in side_a]
            split = (sum(1 << u for u in side_a), sum(1 << u for u in side_b))
            assert split_at_lowest(g._adj, mask) == split
            covered = brute_is_clique(g, side_a) and brute_is_clique(g, side_b)
            joined = any(g.has_edge(a, b) for a in side_a for b in side_b)
            kind = NO_COVER if not covered else JOINED_COVER if joined else DISJOINT_COVER
            assert cover_kind(g._adj, mask) == kind


class TestInducedAndDelete:
    def test_induced_path_from_cycle(self):
        sub, old = induced_subgraph(cycle(5), {0, 1, 2})
        assert old == (0, 1, 2)
        assert sorted(sub.edges()) == [(0, 1), (1, 2)]

    def test_induced_triangle_from_k4(self):
        sub, _ = induced_subgraph(complete(4), {1, 2, 3})
        assert sub == complete(3)

    def test_induced_leaves_of_claw_are_edgeless(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        sub, _ = induced_subgraph(g, {1, 2, 3})
        assert sub.edge_count == 0

    def test_every_vertex_returns_the_graph_itself(self):
        for g in (build_graph(0, []), cycle(5), complete(4)):
            sub, old = induced_subgraph(g, range(g.n))
            assert sub is g and old == tuple(range(g.n))

    def test_delete_from_k4(self):
        assert delete_vertex(complete(4), 0) == complete(3)

    def test_delete_from_c5_gives_p4(self):
        assert delete_vertex(cycle(5), 0) == path(4)

    def test_delete_claw_center(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert delete_vertex(g, 0) == build_graph(3, [])

    def test_delete_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            delete_vertex(cycle(5), 5)

    def test_delete_matches_row_by_row_reference(self):
        rng = random.Random(17)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 30), rng.uniform(0.0, 0.6))
            for v in range(g.n):
                got, want = delete_vertex(g, v), brute_delete_vertex(g, v)
                assert (got.n, got._adj) == (want.n, want._adj)
                assert got.edge_count == want.edge_count

    def test_square_does_not_commute_with_deletion(self):
        # Deleting a cycle vertex loses distance-2 paths through it, so the
        # engine must recompute squares after each deletion.
        g = cycle(5)
        assert square(delete_vertex(g, 0)) != delete_vertex(square(g), 0)

    def test_square_commutes_for_isolated_vertex(self):
        g = build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 1)])
        assert square(delete_vertex(g, 0)) == delete_vertex(square(g), 0)


class TestComponentsAndCliques:
    def test_two_triangles(self):
        g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert connected_components(g) == [frozenset({0, 1, 2}), frozenset({3, 4, 5})]

    def test_cycle_is_connected(self):
        assert connected_components(cycle(5)) == [frozenset(range(5))]

    def test_edgeless_singletons(self):
        assert connected_components(build_graph(3, [])) == [
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        ]

    def test_k4(self):
        size, witness = max_clique(complete(4))
        assert size == 4 and witness == frozenset(range(4))

    def test_icosahedron_clique_number(self, icosahedron):
        # Exhaustive check that no four vertices are pairwise adjacent.
        assert all(
            not all(icosahedron.has_edge(u, v) for u, v in combinations(s, 2))
            for s in combinations(range(12), 4)
        )
        size, witness = max_clique(icosahedron)
        assert size == 3
        assert brute_is_clique(icosahedron, witness)

    def test_octahedron_clique_number(self):
        g = octahedron()
        assert brute_max_clique(g) == 3
        assert max_clique(g)[0] == 3

    @given(graphs(max_n=9))
    @settings(deadline=None, max_examples=60)
    def test_max_clique_matches_brute_force(self, g):
        size, witness = max_clique(g)
        assert size == brute_max_clique(g)
        assert brute_is_clique(g, witness)
        assert len(witness) == size

    @given(graphs(max_n=10))
    @settings(deadline=None, max_examples=60)
    def test_max_clique_at_least_greedy(self, g):
        assert max_clique(g)[0] >= greedy_clique(g)


class TestNeighborhoodTables:
    @staticmethod
    def assert_tables_exact(g):
        adj = g._adj
        assert neighborhood_covers(g) == bytes(cover_kind(adj, row) for row in adj)
        want = tuple(min(max_clique_within(adj, row)[0], 4) for row in adj)
        assert neighborhood_cliques(g) == want
        degrees = tuple(row.bit_count() for row in square(g)._adj)
        assert square_degrees(g) == degrees
        # The tables do not depend on which one is asked for first.
        header = Graph(adj)
        assert square_degrees(header) == degrees
        assert neighborhood_cliques(header) == want
        assert neighborhood_covers(header) == neighborhood_covers(g)
        for comp in connected_components(g):
            sub, _ = induced_subgraph(g, comp)
            assert 1 + max(neighborhood_cliques(sub)) == min(max_clique(sub)[0], 5)

    def test_claw_free_families(self, corpus, stress_family, icosahedron):
        graphs = [entry.graph for entry in corpus] + [g for *_, g in stress_family]
        graphs += [cocktail_party(k) for k in range(1, 8)] + [icosahedron]
        for g in graphs:
            self.assert_tables_exact(Graph(g._adj))

    def test_random_graphs_with_claws(self):
        rng = random.Random(3000)
        claws = 0
        for _ in range(1000):
            g = random_graph(rng, rng.randint(0, 18), rng.choice((0.2, 0.5, 0.8, 0.95)))
            self.assert_tables_exact(g)
            claws += find_claw(g) is not None
        assert claws > 300

    def test_tables_are_built_once(self):
        g = octahedron()
        assert neighborhood_covers(g) is neighborhood_covers(g)
        assert neighborhood_cliques(g) is neighborhood_cliques(g)
        assert square_degrees(g) is square_degrees(g)
        header = Graph(g._adj)
        assert header == g and header._covers is None and header._cliques is None
        assert header._square_degrees is None

    def test_proper_subgraphs_start_without_tables(self):
        rng = random.Random(12)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 14), rng.choice((0.1, 0.25, 0.6)))
            neighborhood_cliques(g)
            square_degrees(g)
            assert g._covers is not None and g._cliques is not None
            assert g._square_degrees is not None
            assert induced_subgraph(g, range(g.n))[0] is g
            for comp in connected_components(g):
                for part in (comp, list(comp)[1:]):
                    sub, _ = induced_subgraph(g, part)
                    if sub is g:
                        continue
                    assert sub._covers is None and sub._cliques is None
                    assert sub._square_degrees is None
                    again = Graph(sub._adj)
                    assert neighborhood_covers(sub) == neighborhood_covers(again)
                    assert neighborhood_cliques(sub) == neighborhood_cliques(again)
                    assert square_degrees(sub) == square_degrees(again)


class TestSmallHelpers:
    def test_max_degree(self):
        assert max_degree(path(4)) == 2
        assert max_degree(build_graph(2, [])) == 0


class TestColoring:
    def test_palette_size(self):
        assert Coloring([0, 2, 1]).palette_size == 3
        assert Coloring([]).palette_size == 0

    def test_total_and_proper(self):
        c5 = cycle(5)
        assert Coloring([0, 1, 2, 3, 4]).is_proper_on(square(c5))
        assert not Coloring([0, 1, 0, 1, 0]).is_proper_on(square(c5))
        assert not Coloring([0, 1, 2, 3, UNCOLORED]).is_proper_on(square(c5))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            Coloring([0, 1]).is_proper_on(cycle(5))

    def test_is_proper_on_matches_edge_loop(self):
        rng = random.Random(40)
        kinds = set()
        for _ in range(200):
            n = rng.randint(0, 30)
            g = random_graph(rng, n, 0.3)
            colors = [UNCOLORED] * n
            for v in range(n):  # greedy: proper by construction
                taken = {colors[u] for u in g.neighbors(v)}
                colors[v] = min(c for c in range(n + 1) if c not in taken)
            if n and rng.random() < 0.5:
                colors[rng.randrange(n)] = rng.choice((UNCOLORED, rng.randrange(3)))
            if n and rng.random() < 0.2:
                colors = [rng.randrange(4) for _ in range(n)]
            expected = brute_is_proper(g, colors)
            kinds.add(expected)
            assert Coloring(colors).is_proper_on(g) == expected
        assert kinds == {True, False}

    def test_equality_length_and_repr(self):
        assert Coloring([0, 1]) == Coloring((0, 1))
        assert hash(Coloring([0, 1])) == hash(Coloring((0, 1)))
        assert Coloring([0, 1]) != (0, 1)
        assert Coloring([0, 1]) != build_graph(2, [])
        assert len(Coloring([0, 1])) == 2
        assert repr(Coloring([0, 1, 0])) == "Coloring(palette=2, n=3)"

    def test_compaction_keeps_order(self):
        assert Coloring([5, 0, 7, 5]).compacted() == Coloring([1, 0, 2, 1])

    def test_graph_equality_and_repr(self):
        assert cycle(4) == cycle(4)
        assert hash(cycle(4)) == hash(cycle(4))
        assert cycle(4) != path(4)
        assert cycle(4) != Coloring([0, 1, 0, 1])
        assert repr(cycle(4)) == "Graph(n=4, m=4)"
