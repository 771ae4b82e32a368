import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawsq.corpus import cycle, complete, octahedron, path
from clawsq.errors import (
    DuplicateEdgeError,
    SelfLoopError,
    SizeMismatchError,
    VertexOutOfRangeError,
)
from clawsq.graph import (
    UNCOLORED,
    Coloring,
    build_graph,
    connected_components,
    delete_vertex,
    distance,
    induced_subgraph,
    max_clique,
    max_degree,
    square,
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

    def test_edgeless(self):
        g = build_graph(3, [])
        assert g.edge_count == 0
        assert list(g.edges()) == []

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

    def test_edge_count_is_half_degree_sum(self):
        g = octahedron()
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count


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
        # Graph equality ignores edge_count, so it is compared on its own.
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


class TestSmallHelpers:
    def test_distance(self):
        g = path(4)
        assert distance(g, 0, 3) == 3
        assert distance(g, 2, 2) == 0

    def test_distance_disconnected(self):
        assert distance(build_graph(3, [(0, 1)]), 0, 2) is None

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

    def test_compaction_keeps_order(self):
        assert Coloring([5, 0, 7, 5]).compacted() == Coloring([1, 0, 2, 1])

    def test_graph_equality_and_repr(self):
        assert cycle(4) == cycle(4)
        assert cycle(4) != path(4)
        assert repr(cycle(4)) == "Graph(n=4, m=4)"
