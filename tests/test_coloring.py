import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawsq import coloring
from clawsq.coloring import (
    DEFAULT_NODE_LIMIT,
    color_icosahedron,
    color_small_omega,
    color_square,
    edge_conflict_graph,
    greedy_reduce,
    palette_bound,
    strong_edge_color,
    trivial_greedy_square,
    verify_coloring,
    _backtrack_within,
    _match_distinct,
    _reinsert_vertex,
)
from clawsq.corpus import (
    BlowupSpec,
    claw,
    cocktail_party,
    complete,
    cycle,
    gen_blowup_c5,
    gen_icosahedron,
    gen_line_graph,
    gen_random_claw_free,
    path,
    squared_cycle,
)
from clawsq.errors import (
    BudgetExhaustedError,
    InvalidPairingError,
    NodeLimitExceeded,
    NotClawFreeError,
    NotSmallOmegaError,
    SizeMismatchError,
)
from clawsq import graph
from clawsq.graph import (
    UNCOLORED,
    Coloring,
    build_graph,
    connected_components,
    delete_vertex,
    induced_subgraph,
    max_clique,
    max_degree,
    square,
)
from clawsq.oracle import exact_chromatic
from clawsq.structure import (
    classify,
    krausz_partition,
    recognize_icosahedron,
    reduction_case,
    root_graph,
)

from helpers import (
    brute_backtrack_within,
    brute_color_small_omega,
    brute_dsatur_order_greedy,
    brute_edge_conflict_graph,
    brute_greedy_reduce,
    brute_is_proper,
    brute_is_strong_edge_coloring,
    brute_peel,
    brute_pieces,
    brute_square,
    disjoint_union,
    random_graph,
    record_calls,
    regular_root_girth5,
    relabel,
)


def search_outcome(search, g, budget):
    """Result of an exact search and the fewest nodes it runs in, by bisection."""
    low, high = 0, 1
    while True:
        try:
            result = search(g, budget, high)
            break
        except NodeLimitExceeded:
            low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        try:
            search(g, budget, mid)
            high = mid
        except NodeLimitExceeded:
            low = mid
    return result, high


class TestColorSquare:
    def test_sharp_blowup_line_graph_needs_ten(self, sharp_blowup_line):
        coloring = color_square(sharp_blowup_line)
        assert coloring.palette_size == 10
        assert verify_coloring(sharp_blowup_line, coloring)
        assert exact_chromatic(square(sharp_blowup_line), 10).value == 10

    def test_icosahedron_six(self, icosahedron):
        coloring = color_square(icosahedron)
        assert coloring.palette_size == 6
        assert verify_coloring(icosahedron, coloring)

    def test_c7_four(self):
        g = cycle(7)
        coloring = color_square(g)
        assert coloring.palette_size == 4
        assert exact_chromatic(square(g), 10).value == 4

    def test_line_petersen_within_ten(self, line_petersen):
        coloring = color_square(line_petersen)
        assert verify_coloring(line_petersen, coloring)
        assert coloring.palette_size <= 10

    def test_empty_graph(self):
        assert color_square(build_graph(0, [])).colors == ()

    def test_mixed_components_share_palette(self, icosahedron):
        edges = list(icosahedron.edges())
        offset = 12
        edges += [(offset + i, offset + (i + 1) % 7) for i in range(7)]
        g = build_graph(19, edges)
        coloring = color_square(g)
        assert verify_coloring(g, coloring)
        assert coloring.palette_size == 6

    def test_rejects_claw(self):
        with pytest.raises(NotClawFreeError):
            color_square(claw())

    def test_omega_five_uses_trivial_bound(self):
        from clawsq.corpus import cocktail_party

        g = cocktail_party(5)
        coloring = color_square(g)
        assert verify_coloring(g, coloring)
        assert coloring.palette_size <= palette_bound(5)

    def test_random_claw_free_all_within_bounds(self):
        for seed in range(15):
            g = gen_random_claw_free(18, 5, seed, strategy="line-graph")
            omega = max_clique(g)[0]
            coloring = color_square(g)
            assert verify_coloring(g, coloring)
            assert coloring.palette_size <= palette_bound(omega)


class TestOneVerification:
    def test_one_properness_check_per_color_square(self, monkeypatch, stress_family):
        peeling = gen_random_claw_free(60, 4, 1)
        assert classify(peeling, max_clique(peeling)[0]).kind == "reducible"
        base = stress_family[0][3]
        assert classify(base, max_clique(base)[0]).kind == "line_graph"
        calls = record_calls(monkeypatch, Coloring, "is_proper_on")
        for g in (peeling, base):
            calls.clear()
            color_square(g)
            assert [sq for _, sq in calls] == [square(g)]


class TestGreedyReduce:
    def test_octahedron_matches_oracle(self, octahedron_graph):
        coloring = greedy_reduce(octahedron_graph, 3)
        assert verify_coloring(octahedron_graph, coloring)
        # The square of the octahedron is K6, so 6 colors are forced.
        assert coloring.palette_size == 6
        assert exact_chromatic(square(octahedron_graph), 10).value == 6

    def test_single_vertex(self):
        coloring = greedy_reduce(build_graph(1, []), 3)
        assert coloring.colors == (0,)

    def test_two_disjoint_edges(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        coloring = greedy_reduce(g, 3)
        assert verify_coloring(g, coloring)
        assert coloring.palette_size == 2

    def test_rejects_oversized_clique(self):
        with pytest.raises(ValueError):
            greedy_reduce(complete(4), 3)

    def test_omega_four_run(self):
        g, seeds_used = None, 0
        g = gen_random_claw_free(20, 4, 3, strategy="line-graph")
        assert max_clique(g)[0] == 4
        coloring = greedy_reduce(g, 4)
        assert verify_coloring(g, coloring)
        assert coloring.palette_size <= 22

    def test_params_validation(self):
        # The engine is defined for omega 3 and 4 only.
        with pytest.raises(ValueError):
            greedy_reduce(gen_random_claw_free(20, 5, 0), 5)
        with pytest.raises(ValueError):
            greedy_reduce(path(4), 2)


class TestPeelMatchesReference:
    """The incremental engine deletes the same vertices, in the same graphs, as
    the engine that recomputes everything per peel, and colors the same."""

    @pytest.fixture
    def same_as_reference(self, monkeypatch):
        calls = record_calls(monkeypatch, graph, "delete_vertex")

        def check(g, omega):
            calls.clear()
            coloring = greedy_reduce(g, omega)
            engine_calls = list(calls)
            calls.clear()
            assert coloring == brute_greedy_reduce(g, omega)
            assert engine_calls == calls
            return len(calls)

        return check

    def test_corpus_components(self, corpus, same_as_reference):
        components = peeled = 0
        for entry in corpus:
            for comp in connected_components(entry.graph):
                sub, _ = induced_subgraph(entry.graph, comp)
                omega = max_clique(sub)[0]
                if omega in (3, 4):
                    peeled += same_as_reference(sub, omega)
                    components += 1
        assert components > 250 and peeled > 1000

    def test_random_line_graphs_and_blowups(self, same_as_reference):
        rng = random.Random(5)
        for i in range(60):
            strategy = "line-graph" if i % 2 == 0 else "blowup"
            n, omega, seed = rng.randint(10, 120), rng.choice((3, 4)), rng.randrange(10**6)
            g = gen_random_claw_free(n, omega, seed, strategy)
            same_as_reference(g, max(3, max_clique(g)[0]))

    def test_clique_number_drop_rethresholds_the_whole_component(self, same_as_reference):
        # A pendant edge at root vertex 0 makes the edges there the only K4.
        # The first peel deletes one of them, so the component's clique number
        # falls to 3 and every vertex, near or far, must meet the lower threshold.
        edges = regular_root_girth5(30, 3, 1) + [(0, 30)]
        g, _ = gen_line_graph(build_graph(31, edges))
        assert len(connected_components(g)) == 1 and max_clique(g)[0] == 4
        kprimes = [kprime for _, _, _, kprime in brute_peel(g)[1]]
        assert kprimes[0] == 19 and set(kprimes[1:]) == {9}
        assert same_as_reference(g, 4) == len(kprimes)

    def test_squared_cycles(self, same_as_reference):
        for n in (*range(7, 30), 64, 101):
            assert same_as_reference(squared_cycle(n), 3) > 0

    def test_disjoint_unions_with_interleaved_labels(self, same_as_reference):
        rng = random.Random(6)
        for _ in range(20):
            parts = [
                gen_random_claw_free(rng.randint(5, 40), rng.choice((3, 4)), rng.randrange(10**6))
                for _ in range(rng.randint(2, 3))
            ]
            g = disjoint_union(parts, rng)
            same_as_reference(g, max(3, max_clique(g)[0]))

    def test_no_whole_graph_work_between_peels(self, monkeypatch):
        log = []
        watched = ("delete_vertex", "square", "induced_subgraph", "connected_components", "max_clique")
        for name in watched:
            record_calls(monkeypatch, graph, name, log=log)
        greedy_reduce(gen_random_claw_free(150, 4, 1), 4)
        first = log.index("delete_vertex")
        last = len(log) - 1 - log[::-1].index("delete_vertex")
        assert last - first > 100
        assert set(log[first : last + 1]) == {"delete_vertex"}


class RowLog:
    """Adjacency rows that record which vertex's row is read, in order."""

    def __init__(self, rows):
        self.rows = rows
        self.read = []

    def __getitem__(self, x):
        self.read.append(x)
        return self.rows[x]


def mask_connected(adj, mask):
    """Whether the vertices of ``mask`` induce a connected graph."""
    seen = frontier = mask & -mask
    while frontier:
        reach = 0
        for x in graph.bits(frontier):
            reach |= adj[x]
        frontier = reach & mask & ~seen
        seen |= frontier
    return seen == mask


class TestPiecesMatchReference:
    """The two-sided split gives the pieces of the general merge it replaced."""

    @pytest.fixture
    def outcomes(self, monkeypatch):
        counts = Counter()
        pieces = coloring._pieces

        def checked(adj, comp, nbrs):
            log = RowLog(adj)
            found = pieces(log, comp, nbrs)
            assert sorted(found) == sorted(brute_pieces(adj, comp, nbrs))
            assert len(found) <= 2
            if mask_connected(adj, nbrs):
                # No search: only rows of N(v) are read, each at most once.
                assert len(set(log.read)) == len(log.read)
                assert all(nbrs >> x & 1 for x in log.read)
                counts["connected"] += 1
            else:
                counts["split" if len(found) == 2 else "meet"] += 1
            return found

        monkeypatch.setattr(coloring, "_pieces", checked)
        return counts

    def test_corpus_components(self, corpus, outcomes):
        for entry in corpus:
            for comp in connected_components(entry.graph):
                sub, _ = induced_subgraph(entry.graph, comp)
                omega = max_clique(sub)[0]
                if omega in (3, 4):
                    greedy_reduce(sub, omega)
        assert set(outcomes) == {"connected", "meet", "split"}

    def test_random_line_graphs(self, outcomes):
        for seed in (1, 2, 3):
            greedy_reduce(gen_random_claw_free(170, 3, seed), 3)
            greedy_reduce(gen_random_claw_free(150, 4, seed), 4)
        assert set(outcomes) == {"connected", "meet", "split"}

    def test_squared_cycles(self, outcomes):
        for n in (*range(7, 30), 64, 101, 150):
            greedy_reduce(squared_cycle(n), 3)
        assert outcomes["connected"] and outcomes["meet"]


def component_kinds(g):
    kinds = []
    for comp in connected_components(g):
        sub, _ = induced_subgraph(g, comp)
        kinds.append(classify(sub, max_clique(sub)[0]).kind)
    return sorted(kinds)


def claw_free_samples(rng, count):
    """Seeded claw-free graphs of clique number 2 to 5, some disconnected."""
    fixed = [
        gen_icosahedron(),
        squared_cycle(rng.randint(7, 40)),
        cycle(9),
        path(7),
        cocktail_party(3),
    ]
    drawn = [
        gen_random_claw_free(
            rng.randint(5, 60), rng.choice((3, 4, 5)), rng.randrange(10**6),
            rng.choice(("line-graph", "blowup")),
        )
        for _ in range(count)
    ]
    return fixed + drawn


class TestMetamorphic:
    def test_relabeled_input_same_bound_and_kinds(self):
        rng = random.Random(11)
        for g in claw_free_samples(rng, 40):
            h = relabel(g, rng.sample(range(g.n), g.n))
            coloring = color_square(h)
            assert verify_coloring(h, coloring)
            assert coloring.palette_size <= palette_bound(max_clique(g)[0])
            assert component_kinds(h) == component_kinds(g)

    def test_disjoint_union_within_largest_part_bound(self):
        rng = random.Random(12)
        samples = claw_free_samples(rng, 30)
        for _ in range(25):
            parts = rng.sample(samples, rng.randint(2, 3))
            g = disjoint_union(parts, rng if rng.random() < 0.5 else None)
            coloring = color_square(g)
            assert verify_coloring(g, coloring)
            assert coloring.palette_size <= max(palette_bound(max_clique(p)[0]) for p in parts)


@st.composite
def claw_free_parts(draw):
    """A random line graph of maximum degree 2 to 5, the line graph of a C5
    blow-up, a squared cycle or a cycle."""
    family = draw(st.sampled_from(("line-graph", "blowup", "squared-cycle", "cycle")))
    if family == "line-graph":
        cap = draw(st.sampled_from((2, 3, 4, 5)))
        return gen_random_claw_free(draw(st.integers(0, 30)), cap, draw(st.integers(0, 2**16)))
    if family == "blowup":
        sizes = draw(st.lists(st.integers(1, 3), min_size=5, max_size=5))
        return gen_line_graph(gen_blowup_c5(BlowupSpec(tuple(sizes))))[0]
    if family == "squared-cycle":
        return squared_cycle(draw(st.integers(5, 30)))
    return cycle(draw(st.integers(3, 30)))


class TestDisjointUnions:
    """Components are colored independently, so a union of claw-free parts is
    colored within the bound of its clique number, each part as it is alone."""

    @given(st.lists(claw_free_parts(), min_size=1, max_size=4))
    @settings(deadline=None, max_examples=100)
    def test_proper_on_the_square_within_the_bound(self, parts):
        g = disjoint_union(parts)
        coloring = color_square(g)
        assert brute_is_proper(brute_square(g), coloring.colors)
        assert coloring.palette_size <= palette_bound(max_clique(g)[0])

    @given(st.lists(claw_free_parts(), min_size=1, max_size=4))
    @settings(deadline=None, max_examples=100)
    def test_each_part_colored_as_alone(self, parts):
        colors = color_square(disjoint_union(parts)).colors
        start = 0
        for part in parts:
            block = Coloring(colors[start : start + part.n]).compacted()
            assert block == color_square(part)
            start += part.n


def color_classes(colors, size):
    """One vertex mask per color of a palette of ``size`` colors."""
    classes = [0] * size
    for x, c in enumerate(colors):
        if c != UNCOLORED:
            classes[c] |= 1 << x
    return classes


class TestReinsert:
    def test_case_ii_path_recolors_neighborhood(self, octahedron_graph):
        g = octahedron_graph
        colors = [UNCOLORED, *color_square(delete_vertex(g, 0)).colors]
        _reinsert_vertex(g, (1 << g.n) - 1, 0, "ii", 9, colors, color_classes(colors, 10))
        assert Coloring(colors).is_proper_on(square(g))

    def test_case_iii_path(self, octahedron_graph):
        g = octahedron_graph
        colors = [UNCOLORED, *color_square(delete_vertex(g, 0)).colors]
        _reinsert_vertex(g, (1 << g.n) - 1, 0, "iii", 9, colors, color_classes(colors, 10))
        assert Coloring(colors).is_proper_on(square(g))
        neighborhood = [colors[x] for x in g.neighbors(0)]
        assert len(set(neighborhood)) == len(neighborhood)

    def test_classes_follow_colors(self):
        # Reinsert each reducible vertex into a coloring of the graph without
        # it, and compare the class masks kept in place with those rebuilt
        # from the colors; some neighbors must change color on the way.
        g = gen_random_claw_free(40, 4, 3)
        sq = square(g)
        everyone = (1 << g.n) - 1
        recolored = 0
        for v in range(g.n):
            case = reduction_case(g, v, sq._adj, 19)
            if case is None:
                continue
            colors = list(color_square(delete_vertex(g, v)).colors)
            colors.insert(v, UNCOLORED)
            before = list(colors)
            classes = color_classes(colors, palette_bound(4))
            _reinsert_vertex(g, everyone, v, case, 19, colors, classes)
            assert classes == color_classes(colors, palette_bound(4))
            assert Coloring(colors).is_proper_on(sq)
            recolored += sum(a != b for a, b in zip(before, colors)) - 1
        assert recolored > 0

    def test_match_distinct_infeasible(self):
        assert _match_distinct([0, 1], [[3], [3]]) is None

    def test_match_distinct_uses_available_colors(self):
        matched = _match_distinct([7, 8, 9], [[0, 1], [1, 2], [0, 2]])
        assert sorted(matched) == [7, 8, 9]
        assert len(set(matched.values())) == 3
        assert matched[7] in (0, 1) and matched[8] in (1, 2) and matched[9] in (0, 2)


class TestStrongEdgeColoring:
    def test_star_needs_three(self):
        sec = strong_edge_color(claw(), 10)
        assert sec.palette_size == 3
        assert brute_is_strong_edge_coloring(sec, claw())

    def test_k4_all_edges_distinct(self):
        sec = strong_edge_color(complete(4), 6)
        assert sec.palette_size == 6
        assert len(set(sec.colors)) == 6
        assert brute_is_strong_edge_coloring(sec, complete(4))

    def test_k4_budget_five_is_infeasible(self):
        with pytest.raises(BudgetExhaustedError):
            strong_edge_color(complete(4), 5)

    def test_full_blowup_needs_twenty(self):
        f = gen_blowup_c5(BlowupSpec((2, 2, 2, 2, 2)))
        sec = strong_edge_color(f, 20)
        assert sec.palette_size == 20
        assert brute_is_strong_edge_coloring(sec, f)

    def test_petersen_within_ten(self, petersen_graph):
        sec = strong_edge_color(petersen_graph, 10)
        assert sec.palette_size <= 10
        assert brute_is_strong_edge_coloring(sec, petersen_graph)

    def test_node_limit_counts_the_greedy_descent(self, petersen_graph):
        # The Petersen graph's 15 edges fit 10 colors on the first descent,
        # which takes 16 nodes: one per colored edge plus the closing one.
        expected = strong_edge_color(petersen_graph, 10)
        assert strong_edge_color(petersen_graph, 10, node_limit=16) == expected
        with pytest.raises(NodeLimitExceeded):
            strong_edge_color(petersen_graph, 10, node_limit=15)

    def test_conflict_graph_matches_definition(self, petersen_graph):
        conflict, edges = edge_conflict_graph(petersen_graph)
        for i, (u, v) in enumerate(edges):
            for j in range(i + 1, len(edges)):
                x, y = edges[j]
                touching = len({u, v} & {x, y}) > 0
                joined = any(
                    petersen_graph.has_edge(a, b)
                    for a in (u, v)
                    for b in (x, y)
                )
                assert conflict.has_edge(i, j) == (touching or joined)


class TestBasePathMatchesReference:
    """Conflict graphs equal the all-pairs version; the search's first descent is DSATUR."""

    def assert_same(self, f):
        conflict, edges = edge_conflict_graph(f)
        expected, expected_edges = brute_edge_conflict_graph(f)
        assert edges == expected_edges
        assert conflict == expected and conflict.edge_count == expected.edge_count
        # A budget of max degree + 1 colors never binds, so the search returns
        # its first descent, the greedy DSATUR coloring.
        for x in (f, conflict):
            first_descent = _backtrack_within(x, max_degree(x) + 1, x.n + 1)
            assert first_descent == brute_dsatur_order_greedy(x)

    def test_random_graphs(self):
        rng = random.Random(20)
        for _ in range(60):
            n = rng.randint(0, 40)
            # Dense graphs on many vertices make conflict graphs too big for
            # the quadratic reference, so density falls as n grows.
            self.assert_same(random_graph(rng, n, rng.uniform(0.0, min(1.0, 8 / max(n, 1)))))
        for _ in range(20):
            self.assert_same(random_graph(rng, rng.randint(0, 14), rng.random()))

    def test_corpus_line_graph_roots(self, corpus):
        roots = 0
        for entry in corpus:
            for comp in connected_components(entry.graph):
                sub, _ = induced_subgraph(entry.graph, comp)
                omega = max_clique(sub)[0]
                # The base path recovers roots only for clique number 3 and 4.
                partition = krausz_partition(sub, omega) if omega in (3, 4) else None
                if partition is not None:
                    self.assert_same(root_graph(sub, partition).f)
                    roots += 1
        assert roots > 150

    def test_stress_family(self, stress_family):
        for _, _, _, g in stress_family:
            self.assert_same(root_graph(g, krausz_partition(g, max_clique(g)[0])).f)


class TestStressFamilyColoring:
    def test_within_strong_chromatic_index_budget(self, stress_family):
        for name, d, _, g in stress_family:
            coloring = color_square(g)
            assert verify_coloring(g, coloring), name
            assert coloring.palette_size <= (10 if d == 3 else 22), name


class TestBacktrackWithin:
    def test_deep_path_square_needs_no_recursion(self):
        # A recursive search takes one interpreter frame per colored vertex,
        # so 300 vertices under a limit of 200 would raise RecursionError.
        g = square(path(300))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            colors = _backtrack_within(g, 3, DEFAULT_NODE_LIMIT)
        finally:
            sys.setrecursionlimit(limit)
        assert Coloring(colors).is_proper_on(g) and max(colors) == 2
        assert colors == brute_backtrack_within(g, 3, DEFAULT_NODE_LIMIT)

    def test_matches_recursive_reference(self):
        # Same colors or None, and the same node count, so NodeLimitExceeded
        # fires at exactly the same limit.
        rng = random.Random(1)
        for _ in range(150):
            g = random_graph(rng, rng.randint(3, 12), rng.uniform(0.2, 0.9))
            for budget in range(2, 6):
                assert search_outcome(_backtrack_within, g, budget) == search_outcome(
                    brute_backtrack_within, g, budget
                )


class TestIcosahedronColoring:
    def test_antipodal_six(self, icosahedron):
        pairing = recognize_icosahedron(icosahedron)
        coloring = color_icosahedron(icosahedron, pairing)
        assert coloring.palette_size == 6
        for a, b in pairing:
            assert coloring.colors[a] == coloring.colors[b]
        assert verify_coloring(icosahedron, coloring)

    def test_relabeled_icosahedron(self):
        rng = random.Random(20240817)
        perm = list(range(12))
        rng.shuffle(perm)
        base = gen_icosahedron()
        g = build_graph(12, [(perm[u], perm[v]) for u, v in base.edges()])
        pairing = recognize_icosahedron(g)
        assert pairing is not None
        coloring = color_icosahedron(g, pairing)
        assert coloring.palette_size == 6
        assert verify_coloring(g, coloring)

    def test_rejects_non_icosahedron(self, octahedron_graph):
        with pytest.raises(InvalidPairingError):
            color_icosahedron(octahedron_graph, [(0, 1), (2, 3), (4, 5)])

    def test_rejects_wrong_pairing(self, icosahedron):
        pairs = [(v, v + 6) for v in range(6)]
        with pytest.raises(InvalidPairingError):
            color_icosahedron(icosahedron, pairs)


class TestSmallOmega:
    def test_c5_uses_five(self):
        coloring = color_small_omega(cycle(5))
        assert coloring.palette_size == 5

    def test_c6_uses_three(self):
        coloring = color_small_omega(cycle(6))
        assert coloring.palette_size == 3
        assert exact_chromatic(square(cycle(6)), 5).value == 3

    def test_p2_two(self):
        assert color_small_omega(path(2)).palette_size == 2

    def test_every_cycle_length(self):
        for n in range(4, 25):
            g = cycle(n)
            coloring = color_small_omega(g)
            assert verify_coloring(g, coloring), n
            expected = 3 if n % 3 == 0 else (5 if n == 5 else 4)
            assert coloring.palette_size == expected, n

    def test_every_path_length(self):
        for n in range(1, 12):
            g = path(n)
            coloring = color_small_omega(g)
            assert verify_coloring(g, coloring)
            assert coloring.palette_size == min(n, 3)

    def test_rejects_triangle(self):
        with pytest.raises(NotSmallOmegaError):
            color_small_omega(cycle(3))

    def test_rejects_degree_three(self):
        with pytest.raises(NotSmallOmegaError):
            color_small_omega(claw())

    def test_matches_reference_on_shuffled_unions(self):
        rng = random.Random(72)
        for _ in range(100):
            parts = [
                cycle(rng.randint(4, 13)) if rng.random() < 0.5 else path(rng.randint(1, 13))
                for _ in range(rng.randint(1, 5))
            ]
            g = disjoint_union(parts, rng)
            assert color_small_omega(g).colors == brute_color_small_omega(g).colors
        for bad in ([path(4), cycle(3)], [cycle(5), claw()]):
            g = disjoint_union(bad, rng)
            for color in (color_small_omega, brute_color_small_omega):
                with pytest.raises(NotSmallOmegaError):
                    color(g)


class TestTrivialGreedy:
    def test_k4(self):
        assert trivial_greedy_square(complete(4)).palette_size == 4

    def test_icosahedron_at_most_eleven(self, icosahedron):
        coloring = trivial_greedy_square(icosahedron)
        assert coloring.palette_size <= 11
        assert verify_coloring(icosahedron, coloring)

    def test_edgeless(self):
        assert trivial_greedy_square(build_graph(5, [])).palette_size == 1


class TestVerifyColoring:
    def test_distinct_on_c5(self):
        assert verify_coloring(cycle(5), Coloring([0, 1, 2, 3, 4]))

    def test_alternating_on_c5_fails(self):
        assert not verify_coloring(cycle(5), Coloring([0, 1, 0, 1, 0]))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            verify_coloring(cycle(5), Coloring([0, 1]))
