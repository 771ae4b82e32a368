import random
from collections import Counter
from itertools import combinations

import pytest

from clawsq import graph
from clawsq.corpus import (
    claw,
    cocktail_party,
    complete,
    cycle,
    gen_line_graph,
    gen_random_claw_free,
    path,
    petersen,
    squared_cycle,
)
from clawsq.errors import (
    InvalidPartitionError,
    NotClawFreeError,
    UnclassifiableGraphError,
    UnsupportedOmegaError,
)
from clawsq.graph import (
    DISJOINT_COVER,
    build_graph,
    connected_components,
    delete_vertex,
    induced_subgraph,
    max_clique,
    max_degree,
    square,
    square_degrees,
)
from clawsq.oracle import brute_force_claw_free
from clawsq.structure import (
    NeighborhoodShape,
    classify,
    find_reducible_vertex,
    krausz_partition,
    neighborhood_shape,
    recognize_icosahedron,
    reduction_case,
    reduction_thresholds,
    root_graph,
)
import clawsq.structure as structure

from helpers import (
    bfs_distances,
    brute_is_clique,
    brute_krausz_root,
    brute_neighborhood_shape,
    brute_reduction_case,
    chain,
    girth,
    line_graph_mismatch,
    random_graph,
    record_calls,
    relabel,
)
from iso_util import is_isomorphic


def line_k5():
    g, _ = gen_line_graph(complete(5))
    return g


def split(a, b):
    return NeighborhoodShape((frozenset(a), frozenset(b)))


class TestNeighborhoodShape:
    def test_line_petersen_two_disjoint_edges(self, line_petersen):
        for v in range(line_petersen.n):
            shape = neighborhood_shape(line_petersen, v)
            assert not shape.ambiguous
            a, b = shape.parts
            assert len(a) == len(b) == 2 and a | b == set(line_petersen.neighbors(v))
            assert not any(line_petersen.has_edge(i, j) for i in a for j in b)

    def test_icosahedron_five_cycle(self, icosahedron):
        # The complement of a five-cycle is a five-cycle, an odd cycle, so
        # no split into two cliques exists.
        for v in range(12):
            assert neighborhood_shape(icosahedron, v) == NeighborhoodShape(None)

    def test_octahedron_other(self, octahedron_graph):
        # The induced C4 splits into two cliques in more than one way, so no
        # covering pair is canonical.
        for v in range(6):
            shape = neighborhood_shape(octahedron_graph, v)
            assert shape == NeighborhoodShape(None, ambiguous=True)

    def test_clique_neighborhood(self):
        assert neighborhood_shape(complete(4), 0) == split((), {1, 2, 3})

    def test_singleton_plus_triangle(self):
        g = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (2, 3), (2, 4), (3, 4)])
        assert neighborhood_shape(g, 0) == split({1}, {2, 3, 4})

    def test_two_triangles_plus_one_edge(self):
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3)]
        edges += [(6, i) for i in range(6)]
        g = build_graph(7, edges)
        assert neighborhood_shape(g, 6) == split({0, 1, 2}, {3, 4, 5})

    def test_two_incident_cross_edges_are_other(self):
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (0, 4)]
        edges += [(6, i) for i in range(6)]
        g = build_graph(7, edges)
        assert neighborhood_shape(g, 6) == NeighborhoodShape(None)

    def test_two_non_incident_cross_edges(self):
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4)]
        edges += [(6, i) for i in range(6)]
        g = build_graph(7, edges)
        assert neighborhood_shape(g, 6) == split({0, 1, 2}, {3, 4, 5})

    def test_line_k5_perfect_matching_is_other(self):
        g = line_k5()
        for v in range(g.n):
            assert neighborhood_shape(g, v) == NeighborhoodShape(None)

    def test_empty_neighborhood(self):
        assert neighborhood_shape(build_graph(1, []), 0) == split((), ())

    def test_large_cocktail_party_neighborhood_is_ambiguous(self):
        g = cocktail_party(30)
        assert g.degree(0) == 58
        shape = neighborhood_shape(g, 0)
        assert shape == NeighborhoodShape(None, ambiguous=True)


def under_apex(h, edges):
    """Graph with neighborhood edges on 0..h-1 and an apex h joined to all of them."""
    return build_graph(h + 1, list(edges) + [(i, h) for i in range(h)])


def two_cliques_under_apex(a, b, cross, perm):
    """Cliques on 0..a-1 and a..a+b-1 plus ``cross``, relabelled by ``perm``, under an apex."""
    inner = list(combinations(range(a), 2)) + list(combinations(range(a, a + b), 2))
    return under_apex(a + b, [(perm[u], perm[v]) for u, v in inner + cross])


class TestNeighborhoodShapeFastPath:
    """The two-clique cover shortcut against the enumeration, on and off its boundary."""

    def test_two_cliques_with_few_cross_edges(self):
        rng = random.Random(1973)
        covered = 0
        for a in range(1, 8):
            for b in range(8):
                last_a, first_b, last_b = a - 1, a, a + b - 1
                crosses = [[]]
                if b:
                    crosses += [[(0, first_b)], [(last_a, last_b)]]
                if b >= 2:
                    crosses.append([(0, first_b), (0, last_b)])  # incident in A
                if a >= 2 and b:
                    crosses.append([(0, first_b), (last_a, first_b)])  # incident in B
                if a >= 2 and b >= 2:
                    crosses.append([(0, first_b), (last_a, last_b)])  # non-incident
                h = a + b
                for cross in crosses:
                    for perm in (list(range(h)), rng.sample(range(h), h)):
                        g = two_cliques_under_apex(a, b, cross, perm)
                        if not cross:
                            covered += graph._cover_walk(g._adj, g._adj[h])[0] == DISJOINT_COVER
                        assert neighborhood_shape(g, h) == brute_neighborhood_shape(g, h)
        # Every neighborhood without cross edges takes the shortcut.
        assert covered == 7 * 8 * 2


class TestNeighborhoodShapeMatchesEnumeration:
    def test_every_neighborhood_up_to_five(self):
        for h in range(6):
            pairs = list(combinations(range(h), 2))
            for mask in range(1 << len(pairs)):
                g = under_apex(h, [p for i, p in enumerate(pairs) if mask >> i & 1])
                assert neighborhood_shape(g, h) == brute_neighborhood_shape(g, h)

    def test_random_dense_neighborhoods(self):
        rng = random.Random(20161)
        for _ in range(120):
            h = rng.randint(6, 14)
            density = rng.uniform(0.5, 0.95)
            edges = [p for p in combinations(range(h), 2) if rng.random() < density]
            g = under_apex(h, edges)
            assert neighborhood_shape(g, h) == brute_neighborhood_shape(g, h)

    def test_every_corpus_vertex(self, corpus):
        # The enumeration runs once per distinct induced neighborhood, under an
        # apex with local labels; the labels map back through ``old``, which is
        # increasing, so part order is kept.
        local = {}
        for entry in corpus:
            g = entry.graph
            for v in range(g.n):
                sub, old = induced_subgraph(g, g.neighbors(v))
                if sub._adj not in local:
                    local[sub._adj] = brute_neighborhood_shape(
                        under_apex(sub.n, sub.edges()), sub.n
                    )
                ref = local[sub._adj]
                expected = NeighborhoodShape(
                    None
                    if ref.parts is None
                    else tuple(frozenset(old[i] for i in p) for p in ref.parts),
                    ref.ambiguous,
                )
                assert neighborhood_shape(g, v) == expected

    @pytest.mark.parametrize("k", range(1, 11))
    def test_cocktail_party(self, k):
        # K_{k x 2} is vertex-transitive, so vertex 0 stands for all of them.
        g = cocktail_party(k)
        assert neighborhood_shape(g, 0) == brute_neighborhood_shape(g, 0)


class TestRecognizeIcosahedron:
    def test_icosahedron(self, icosahedron):
        pairing = recognize_icosahedron(icosahedron)
        assert pairing is not None and len(pairing) == 6
        for a, b in pairing:
            assert bfs_distances(icosahedron, a)[b] == 3
        assert sorted(v for p in pairing for v in p) == list(range(12))

    def test_octahedron_rejected(self, octahedron_graph):
        assert recognize_icosahedron(octahedron_graph) is None

    def test_five_regular_non_icosahedron_rejected(self):
        # Circulant C12(1,2,6): 5-regular on 12 vertices but neighborhoods
        # do not induce five-cycles.
        edges = {
            tuple(sorted((i, (i + d) % 12))) for i in range(12) for d in (1, 2, 6)
        }
        g = build_graph(12, sorted(edges))
        assert all(g.degree(v) == 5 for v in range(12))
        assert recognize_icosahedron(g) is None

    def test_relabelings_and_one_moved_edge(self, icosahedron):
        pairing = recognize_icosahedron(icosahedron)
        rng = random.Random(73)
        for _ in range(20):
            perm = rng.sample(range(12), 12)
            g = relabel(icosahedron, perm)
            expected = tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in pairing))
            assert recognize_icosahedron(g) == expected
            edges = set(g.edges())
            gone = rng.choice(sorted(edges))
            added = rng.choice(sorted(set(combinations(range(12), 2)) - edges))
            assert recognize_icosahedron(build_graph(12, (edges - {gone}) | {added})) is None


class TestKrausz:
    def test_line_petersen_ten_triangles(self, line_petersen):
        part = krausz_partition(line_petersen, 3)
        assert part is not None and len(part) == 10
        assert all(len(c) == 3 for c in part)
        assert all(brute_is_clique(line_petersen, c) for c in part)
        covered = sorted(
            tuple(sorted((u, w)))
            for c in part
            for u in c
            for w in c
            if u < w
        )
        assert covered == sorted(line_petersen.edges())

    def test_triangle(self):
        assert krausz_partition(complete(3), 3) == [frozenset({0, 1, 2})]

    def test_octahedron_returns_none(self, octahedron_graph):
        assert krausz_partition(octahedron_graph, 3) is None

    def test_icosahedron_returns_none(self, icosahedron):
        assert krausz_partition(icosahedron, 3) is None

    def test_path_three(self):
        assert krausz_partition(path(3), 2) == [frozenset({0, 1}), frozenset({1, 2})]

    def test_net_has_cross_edges(self):
        # The net: a triangle 0-1-2 with pendant edges 0-3, 1-4 and 2-5. In
        # its line graph, each edge of the triangle has one edge between the
        # two cliques of its neighborhood.
        net = build_graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
        g, _ = gen_line_graph(net)
        part = krausz_partition(g, 3)
        assert part == [frozenset({0, 1, 2}), frozenset({0, 3, 4}), frozenset({1, 3, 5})]
        assert is_isomorphic(root_graph(g, part).f, net)

    def test_line_of_k4_minus_edge_is_ambiguous(self):
        g, _ = gen_line_graph(build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))
        assert all(neighborhood_shape(g, v).ambiguous for v in range(g.n))
        assert krausz_partition(g, 3) is None


class TestRootGraph:
    def test_line_petersen_root_is_petersen(self, line_petersen):
        part = krausz_partition(line_petersen, 3)
        root = root_graph(line_petersen, part)
        assert root.f.n == 10 and root.f.edge_count == 15
        assert all(root.f.degree(v) == 3 for v in range(10))
        assert is_isomorphic(root.f, petersen())

    def test_triangle_root_is_star(self):
        root = root_graph(complete(3), [frozenset({0, 1, 2})])
        assert is_isomorphic(root.f, claw())
        lg, _ = gen_line_graph(root.f)
        assert lg == complete(3)

    def test_path_root(self):
        root = root_graph(path(3), [frozenset({0, 1}), frozenset({1, 2})])
        assert is_isomorphic(root.f, path(4))

    def test_isolated_vertex_gets_fresh_edge(self):
        g = build_graph(3, [(0, 1)])
        root = root_graph(g, [frozenset({0, 1})])
        assert root.f.edge_count == 3  # one per graph vertex
        lg, _ = gen_line_graph(root.f)
        assert lg.n == 3 and lg.edge_count == 1

    def test_rejects_double_cover(self):
        g = complete(3)
        with pytest.raises(InvalidPartitionError):
            root_graph(g, [frozenset({0, 1, 2}), frozenset({0, 1})])

    def test_rejects_duplicate_clique(self):
        with pytest.raises(InvalidPartitionError, match="^duplicate cliques in partition$"):
            root_graph(path(3), [frozenset({0, 1}), frozenset({1, 0}), frozenset({1, 2})])

    def test_rejects_non_edge(self):
        g = path(3)
        with pytest.raises(InvalidPartitionError):
            root_graph(g, [frozenset({0, 2}), frozenset({1, 2})])

    def test_rejects_uncovered_edge(self):
        g = path(3)
        with pytest.raises(InvalidPartitionError):
            root_graph(g, [frozenset({0, 1})])

    def test_rejects_bad_families_on_its_own(self):
        p3 = path(3)
        for g, family in (
            (p3, [{0, 1, 2}]),  # a non-edge inside a clique
            (p3, [{0, 1}]),  # an uncovered edge
            (complete(3), [{0, 1, 2}, {0, 1}]),  # an edge covered twice
            (claw(), [{0, 1}, {0, 2}, {0, 3}]),  # a vertex in three cliques
            (p3, [{0, 1}, {1, 2}, {2}]),  # a clique of one vertex
        ):
            with pytest.raises(InvalidPartitionError):
                root_graph(g, [frozenset(c) for c in family])
        with pytest.raises(IndexError):
            root_graph(p3, [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})])

    def test_one_partition_check_per_classify(self, monkeypatch, line_petersen, stress_family):
        # classify builds the root once; that build is the partition check.
        log = []
        for name in ("krausz_partition", "root_graph"):
            record_calls(monkeypatch, structure, name, log=log)
        for g in (line_petersen, stress_family[0][3]):
            log.clear()
            assert classify(g, max_clique(g)[0]).kind == "line_graph"
            assert log == ["root_graph"]


class TestRootGraphMatchesReference:
    """root_graph accepts exactly the partitions the pairwise line-graph check accepts."""

    def random_line_graphs(self):
        rng = random.Random(30)
        for _ in range(40):
            g = gen_random_claw_free(rng.randint(3, 40), rng.choice((3, 4)), rng.randrange(10**6))
            partition = krausz_partition(g, max_clique(g)[0])
            if partition is not None:
                yield rng, g, partition

    def test_recovered_roots_pass_the_pairwise_check(self):
        checked = 0
        for _, g, partition in self.random_line_graphs():
            assert not line_graph_mismatch(g, root_graph(g, partition).edge_of_vertex)
            checked += 1
        assert checked >= 20

    def test_one_edge_off_raises(self):
        for rng, g, partition in self.random_line_graphs():
            edge_of_vertex = root_graph(g, partition).edge_of_vertex
            u, w = sorted(rng.sample(range(g.n), 2))
            off = build_graph(g.n, set(g.edges()) ^ {(u, w)})
            assert line_graph_mismatch(off, edge_of_vertex)
            with pytest.raises(InvalidPartitionError):
                root_graph(off, partition)


def same_krausz_as_reference(g, omega):
    """The reference root after checking the library's Krausz steps against it, or None.

    The member lists of ``_krausz_root``, the frozensets of ``krausz_partition``
    and the root that ``root_graph`` builds from them must equal the
    frozenset reference, or all be None with it.
    """
    expected = brute_krausz_root(g, omega)
    found = structure._krausz_root(g, omega)
    partition = krausz_partition(g, omega)
    if expected is None:
        assert found is None and partition is None
        return None
    cliques, root = expected
    assert [frozenset(c) for c in found[0]] == cliques
    assert found[1] == root
    assert partition == cliques
    recovered = root_graph(g, partition)
    assert recovered.f == root.f and recovered.edge_of_vertex == root.edge_of_vertex
    return root


class TestKrauszMatchesReference:
    """The mask Krausz partition returns what the frozenset one it replaced returns."""

    def test_corpus_components(self, corpus):
        roots = line_graphs = 0
        for entry in corpus:
            for comp in connected_components(entry.graph):
                sub, _ = induced_subgraph(entry.graph, comp)
                omega = max_clique(sub)[0]
                if omega not in (3, 4):
                    continue
                root = same_krausz_as_reference(sub, omega)
                roots += root is not None
                try:
                    outcome = classify(sub, omega)
                except NotClawFreeError:
                    continue
                if outcome.kind == "line_graph":
                    assert outcome.root == root
                    line_graphs += 1
        assert roots > 150 and line_graphs >= 2

    def test_stress_family(self, stress_family):
        for name, d, _, g in stress_family:
            root = same_krausz_as_reference(g, d)
            assert root is not None and classify(g, d).root == root, name

    def test_root_degree_within_omega(self, corpus, stress_family):
        # No designated clique exceeds omega vertices and a fresh endpoint
        # has degree 1, so classify needs no check of the root's degree.
        graphs = [(name, d, g) for name, d, _, g in stress_family]
        for entry in corpus:
            for comp in connected_components(entry.graph):
                sub, _ = induced_subgraph(entry.graph, comp)
                graphs.append((entry.id, max_clique(sub)[0], sub))
        roots = 0
        for name, omega, g in graphs:
            found = structure._krausz_root(g, omega)
            if found is not None:
                roots += 1
                assert max_degree(found[1].f) <= omega, name
        assert roots > 150

    def test_shuffled_relabelings(self, line_petersen, stress_family):
        rng = random.Random(19)
        for g in (line_petersen, stress_family[0][3]):
            omega = max_clique(g)[0]
            for _ in range(20):
                perm = list(range(g.n))
                rng.shuffle(perm)
                h = relabel(g, perm)
                root = same_krausz_as_reference(h, omega)
                assert root is not None and classify(h, omega).root == root

    def test_neighborhood_without_a_split(self, icosahedron):
        # Every neighborhood of the icosahedron is a five-cycle.
        adj = icosahedron._adj
        assert structure._shape_masks(adj, adj[0], graph._cover_walk(adj, adj[0])[0]) is False
        assert same_krausz_as_reference(icosahedron, 3) is None

    def test_part_larger_than_omega_minus_one(self):
        # K4 is the line graph of a star with four edges: one clique of four.
        assert same_krausz_as_reference(complete(4), 4) is not None
        assert same_krausz_as_reference(complete(4), 3) is None

    def test_vertex_in_three_cliques(self):
        # K4 on 0..3 and a vertex 4 joined to 1 and 3: every neighborhood
        # splits, but the designated cliques put a vertex in three of them.
        g = build_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])
        designated = {
            part | {v} for v in range(g.n) for part in neighborhood_shape(g, v).parts if part
        }
        with pytest.raises(InvalidPartitionError, match="more than two cliques"):
            root_graph(g, sorted(designated, key=sorted))
        assert same_krausz_as_reference(g, 4) is None


class TestStressFamily:
    """Line graphs of girth-5 regular roots reach the line-graph base case."""

    def test_roots_have_girth_five(self, stress_family):
        for name, d, edges, _ in stress_family:
            n = max(v for e in edges for v in e) + 1
            assert girth(n, edges) >= 5, name
            assert len(edges) * 2 == n * d, name

    def test_classified_as_line_graph_with_nothing_reducible(self, stress_family):
        for name, d, _, g in stress_family:
            omega = max_clique(g)[0]
            assert omega == d, name
            assert find_reducible_vertex(g, omega) is None, name
            outcome = classify(g, omega)
            assert outcome.kind == "line_graph", name
            assert max_degree(outcome.root.f) == d, name
            assert not line_graph_mismatch(g, outcome.root.edge_of_vertex), name

    @pytest.mark.parametrize("k", [4, 5])
    def test_chain_reaches_the_line_graph_base(self, k):
        # Not coloured here: the chronological search takes seconds on these.
        f = chain(k)
        assert all(f.degree(v) == 3 for v in range(f.n))
        assert len(connected_components(f)) == 1
        g, _ = gen_line_graph(f)
        assert g.n == 24 * k
        assert brute_force_claw_free(g)
        assert find_reducible_vertex(g, 3) is None
        assert classify(g, 3).kind == "line_graph"


class TestFindReducible:
    def test_octahedron(self, octahedron_graph):
        red = find_reducible_vertex(octahedron_graph, 3)
        assert red.vertex == 0 and red.case == "iii" and red.xstar is None

    def test_icosahedron_none(self, icosahedron):
        assert find_reducible_vertex(icosahedron, 3) is None

    def test_line_petersen_none(self, line_petersen):
        # Square degrees are all 12 > 9, so nothing qualifies.
        sq = square(line_petersen)
        assert all(sq.degree(v) == 12 for v in range(15))
        assert find_reducible_vertex(line_petersen, 3) is None

    def test_case_condition_verified_against_full_square(self, octahedron_graph):
        red = find_reducible_vertex(octahedron_graph, 3)
        sq = square(octahedron_graph)
        assert sq.degree(red.vertex) <= red.kprime
        bad = [
            x
            for x in octahedron_graph.neighbors(red.vertex)
            if sq.degree(x) > red.kprime + 1
        ]
        deleted_sq = square(delete_vertex(octahedron_graph, red.vertex))
        shifted = [x if x < red.vertex else x - 1 for x in bad]
        assert brute_is_clique(deleted_sq, shifted)

    @pytest.mark.parametrize(
        "omega, thresholds", [(3, (9, 11)), (4, (19, None)), (5, (36, 37))]
    )
    def test_reduction_thresholds(self, omega, thresholds):
        assert reduction_thresholds(omega) == thresholds

    def test_no_reduction_thresholds_below_three(self):
        with pytest.raises(UnsupportedOmegaError):
            reduction_thresholds(2)


class TestReductionCaseMatchesReference:
    """The mask-based reducibility test decides as the square-row one does, on
    every vertex of the corpus, the stress family and random graphs that need
    not be claw-free, under both thresholds, with and without a neighbor cap."""

    SETTINGS = [(kprime, cap) for kprime in (9, 19) for cap in (None, kprime + 2)]

    @pytest.fixture(scope="class")
    def expected(self, corpus, stress_family):
        rng = random.Random(23)
        graphs = [entry.graph for entry in corpus] + [g for *_, g in stress_family]
        graphs += [
            random_graph(rng, rng.randint(3, 40), rng.uniform(0.05, 0.5)) for _ in range(100)
        ]
        out = []
        for g in graphs:
            sq_rows = square(g)._adj
            for kprime, cap in self.SETTINGS:
                for v in range(g.n):
                    found = brute_reduction_case(g, v, sq_rows, kprime, cap)
                    out.append((g, v, kprime, cap, found))
        return out

    @staticmethod
    def mismatches(expected):
        return sum(
            reduction_case(g._adj, square_degrees(g), v, kprime, cap) != found
            for g, v, kprime, cap, found in expected
        )

    def test_same_case_everywhere(self, expected):
        assert self.mismatches(expected) == 0
        # Each case occurs both with and without the neighbor cap.
        outcomes = {(cap is None, found) for *_, cap, found in expected}
        assert outcomes == {(u, case) for u in (True, False) for case in ("iii", "ii", None)}

    def test_deleted_vertex_is_not_a_shared_neighbor(self, expected, monkeypatch):
        # Every pair of neighbors of v shares v itself; a test that forgets
        # to exclude it calls every neighborhood a clique of the deleted square.
        original = structure._clique_in_deleted_square
        monkeypatch.setattr(
            structure,
            "_clique_in_deleted_square",
            lambda adj, mask, v: original(adj, mask, len(adj)),
        )
        assert self.mismatches(expected) > 0


class TestClassify:
    def test_icosahedron(self, icosahedron):
        outcome = classify(icosahedron, 3)
        assert outcome.kind == "icosahedron"
        assert len(outcome.antipodal_pairs) == 6

    def test_line_petersen(self, line_petersen):
        outcome = classify(line_petersen, 3)
        assert outcome.kind == "line_graph"
        assert is_isomorphic(outcome.root.f, petersen())
        assert max_degree(outcome.root.f) <= 3

    def test_octahedron_reducible(self, octahedron_graph):
        outcome = classify(octahedron_graph, 3)
        assert outcome.kind == "reducible"
        assert outcome.reduction.vertex == 0
        assert outcome.reduction.case == "iii"

    def test_small_omega(self):
        assert classify(cycle(5), 2).kind == "small_omega"

    def test_rejects_claw(self):
        with pytest.raises(NotClawFreeError):
            classify(claw(), 2)

    def test_non_claw_free_input_exhausts_cases(self):
        # K_{6,6} has every square degree at 11 > 9, is not the icosahedron
        # and admits no covering clique pairs, so with the claw check
        # disabled the classifier runs out of cases.
        k66 = build_graph(12, [(i, 6 + j) for i in range(6) for j in range(6)])
        with pytest.raises(UnclassifiableGraphError):
            classify(k66, 3, check_claw_free=False)

    def test_line_k5_is_reducible(self):
        # Dense line graph: every square degree is 9, far below 19.
        outcome = classify(line_k5(), 4)
        assert outcome.kind == "reducible"

    def test_case_ii_reduces_only_below_omega_five(self, corpus, monkeypatch):
        # From omega 5 up, reduction_thresholds caps every neighbor at
        # kprime+1, above neither case threshold, so reduction_case gives
        # no vertex case ii: on L(K_{5,5}), on K_{k x 2} for k = 5..8 and on
        # every corpus component of clique number 5 or more.
        rook, _ = gen_line_graph(build_graph(10, [(i, 5 + j) for i in range(5) for j in range(5)]))
        graphs = [rook] + [cocktail_party(k) for k in range(5, 9)]
        for entry in corpus:
            g = entry.graph
            graphs += [induced_subgraph(g, comp)[0] for comp in connected_components(g)]
        cases = Counter()
        for g in graphs:
            omega = max_clique(g)[0]
            if omega >= 5:
                kprime, cap = reduction_thresholds(omega)
                assert cap == kprime + 1
                sq = square_degrees(g)
                cases.update(reduction_case(g._adj, sq, v, kprime, cap) for v in range(g.n))
        assert cases["iii"] > 0 and cases["ii"] == 0
        assert classify(rook, 5).reduction.case == "iii"
        # At omega 4 there is no cap, and classify keeps a case-ii vertex.
        monkeypatch.setattr(structure, "reduction_case", lambda *args: "ii")
        assert classify(line_k5(), 4).reduction.case == "ii"

    def test_squared_cycles_classify(self):
        for n in range(7, 15):
            outcome = classify(squared_cycle(n), 3)
            assert outcome.kind in ("reducible", "line_graph")

    def test_random_line_graphs_classify(self):
        for seed in range(12):
            g = gen_random_claw_free(16, 4, seed, strategy="line-graph")
            omega = max_clique(g)[0]
            if omega < 3:
                continue
            for_comp = classify  # classify handles only connected graphs
            from clawsq.graph import connected_components, induced_subgraph

            for comp in connected_components(g):
                sub, _ = induced_subgraph(g, comp)
                w = max_clique(sub)[0]
                if w >= 3:
                    assert for_comp(sub, w).kind in ("reducible", "line_graph")
