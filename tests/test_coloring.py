import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawsq import coloring, structure
from clawsq.analysis import find_claw, q_rows, run_lemma_suite
from clawsq.coloring import (
    DEFAULT_NODE_LIMIT,
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
    NodeLimitExceeded,
    NotClawFreeError,
    NotSmallOmegaError,
    SizeMismatchError,
)
from clawsq import graph
from clawsq.graph import (
    NO_COVER,
    UNCOLORED,
    Coloring,
    Graph,
    build_graph,
    connected_components,
    delete_vertex,
    induced_subgraph,
    max_clique,
    max_degree,
    neighborhood_covers,
    square,
    square_degrees,
)
from clawsq.oracle import brute_force_claw_free, exact_chromatic
from clawsq.structure import (
    classify,
    krausz_partition,
    recognize_icosahedron,
    reduction_case,
    reduction_thresholds,
    root_graph,
)

from helpers import (
    backtracking_base_root,
    base_pin_roots,
    brute_backtrack_within,
    brute_color_small_omega,
    brute_dsatur_order_greedy,
    brute_edge_conflict_graph,
    brute_greedy_reduce,
    brute_is_proper,
    brute_max_clique,
    brute_is_strong_edge_coloring,
    brute_peel,
    brute_pieces,
    brute_q_value,
    brute_square,
    brute_trivial_greedy_square,
    circular_interval_graph,
    disjoint_union,
    k2_join_cliques,
    random_graph,
    record_calls,
    regular_root_girth5,
    relabel,
    triangle_free_complement,
)


# Two subcubic roots from a scan of 100 000 seeded random roots of max
# degree 3 on at most 30 vertices: the DSATUR first descent on their conflict
# graphs takes 11 colors, one over the bound, so the search must backtrack.
DSATUR_OVER_TEN = (
    (22, [(0, 1), (0, 2), (1, 12), (2, 4), (2, 13), (3, 6), (3, 9), (3, 20), (4, 11),
          (4, 12), (5, 10), (5, 16), (5, 17), (6, 9), (6, 12), (7, 16), (7, 17), (7, 21),
          (8, 14), (8, 19), (8, 20), (9, 21), (10, 13), (10, 15), (11, 13), (11, 19),
          (14, 16), (14, 17), (15, 18), (15, 19), (18, 20), (18, 21)]),
    (23, [(0, 1), (0, 6), (0, 12), (1, 19), (1, 21), (2, 3), (2, 17), (2, 18), (3, 10),
          (3, 14), (4, 11), (4, 14), (4, 19), (5, 11), (5, 13), (5, 16), (6, 7), (6, 20),
          (7, 15), (7, 20), (8, 9), (8, 22), (9, 11), (9, 16), (10, 12), (10, 18),
          (12, 16), (13, 15), (13, 17), (14, 18), (15, 21), (17, 20), (19, 22), (21, 22)]),
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

    def test_large_clique_needs_no_recursion(self):
        # The clique search keeps its own stack, so a clique larger than the
        # default recursion limit neither overflows max_clique nor color_square.
        g = complete(1100)
        assert sys.getrecursionlimit() < g.n
        assert max_clique(g) == (1100, frozenset(range(1100)))
        coloring = color_square(g)
        assert coloring.palette_size == 1100
        assert verify_coloring(g, coloring)

    def test_spent_node_budget_passes_through(self, line_petersen):
        # Nothing in L(Petersen) peels, so the base step's strong edge
        # coloring runs out of nodes: the caller's limit, not a bug.
        with pytest.raises(NodeLimitExceeded):
            color_square(line_petersen, node_limit=1)

    def test_random_claw_free_all_within_bounds(self):
        for seed in range(15):
            g = gen_random_claw_free(18, 5, seed, strategy="line-graph")
            omega = max_clique(g)[0]
            coloring = color_square(g)
            assert verify_coloring(g, coloring)
            assert coloring.palette_size <= palette_bound(omega)


class TestOneCliqueSearch:
    def test_max_clique_only_for_omega_five(self, monkeypatch):
        # Neighborhood clique numbers capped at 4 settle omega up to 4; only
        # the component whose cap reads 5 runs the exact search.
        parts = [
            gen_random_claw_free(60, 4, 1),
            gen_random_claw_free(60, 3, 2),
            gen_random_claw_free(18, 5, 0, strategy="line-graph"),
            cycle(7),
        ]
        g = disjoint_union(parts, random.Random(4))
        calls = record_calls(monkeypatch, graph, "max_clique")
        color_square(g)
        searched = [sub for sub, in calls]
        assert {max_clique(sub)[0] for sub in parts} == {2, 3, 4, 5}
        assert len(connected_components(g)) == 4
        assert [max_clique(sub)[0] for sub in searched] == [5]


class TestOneNeighborhoodPass:
    # A fresh header of a session graph, so no table an earlier test built is read.
    def test_one_cover_per_vertex_and_no_clique_search(self, monkeypatch, stress_family):
        g = Graph(stress_family[0][3]._adj)
        assert len(connected_components(g)) == 1
        covers = record_calls(monkeypatch, graph, "_cover_walk")
        cliques = record_calls(monkeypatch, graph, "max_clique")
        peels = record_calls(monkeypatch, graph, "delete_vertex")
        color_square(g)
        assert peels == [] and cliques == []
        assert len(covers) == g.n

    def test_components_build_their_own_covers(self, monkeypatch, stress_family):
        parts = [stress_family[0][3], stress_family[2][3], cycle(7)]
        g = disjoint_union(parts, random.Random(5))
        covers = record_calls(monkeypatch, graph, "_cover_walk")
        cliques = record_calls(monkeypatch, graph, "max_clique")
        color_square(g)
        assert cliques == []
        # The claw check covers each vertex once, and its component's own
        # table once more.
        sizes = sorted(mask.bit_count() for _, mask in covers)
        assert sizes == sorted(2 * [g.degree(v) for v in range(g.n)])

    def test_no_table_outlives_a_call(self, monkeypatch, stress_family):
        g = Graph(stress_family[2][3]._adj)
        covers = record_calls(monkeypatch, graph, "_cover_walk")
        first = color_square(g)
        assert color_square(g) == first
        assert len(covers) == 2 * g.n
        assert g._covers is None and g._cliques is None and g._square_degrees is None


class TestTriangleFreeBase:
    def test_remainder_colored_without_a_subgraph(self, monkeypatch):
        # With no triangle left, the base remainder goes to color_small_omega
        # as it is: one component mask search each in color_square, _peel
        # and color_small_omega, none through the frozenset split, and two
        # subgraphs, color_square's and the base step's, each g itself when
        # it holds every vertex.
        calls = {
            name: record_calls(monkeypatch, graph, name)
            for name in ("_component_masks", "connected_components", "induced_subgraph")
        }
        assert color_square(cycle(7)).colors == (0, 1, 2, 0, 1, 2, 3)
        assert {name: len(log) for name, log in calls.items()} == {
            "_component_masks": 3,
            "connected_components": 0,
            "induced_subgraph": 2,
        }


class TestOneVerification:
    def test_one_properness_check_per_color_square(self, monkeypatch, stress_family):
        peeling = gen_random_claw_free(60, 4, 1)
        assert classify(peeling, max_clique(peeling)[0]).kind == "reducible"
        base = stress_family[0][3]
        assert classify(base, max_clique(base)[0]).kind == "line_graph"
        calls = record_calls(monkeypatch, Coloring, "is_proper_on")
        squares = record_calls(monkeypatch, graph, "square")
        for g in (peeling, base):
            calls.clear()
            squares.clear()
            color_square(g)
            assert [sq for _, sq in calls] == [square(g)]
            # Reducibility reads square rows on demand, so the one square
            # built is the final check's.
            assert squares == [(g,)]


class TestGreedyReduce:
    def test_octahedron_matches_oracle(self, octahedron_graph):
        coloring = greedy_reduce(octahedron_graph)
        assert verify_coloring(octahedron_graph, coloring)
        # The square of the octahedron is K6, so 6 colors are forced.
        assert coloring.palette_size == 6
        assert exact_chromatic(square(octahedron_graph), 10).value == 6

    def test_single_vertex(self):
        coloring = greedy_reduce(build_graph(1, []))
        assert coloring.colors == (0,)

    def test_two_disjoint_edges(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        coloring = greedy_reduce(g)
        assert verify_coloring(g, coloring)
        assert coloring.palette_size == 2

    def test_rejects_oversized_clique(self):
        # The engine reads the clique number off the graph and stops at 4.
        assert verify_coloring(complete(4), greedy_reduce(complete(4)))
        with pytest.raises(ValueError):
            greedy_reduce(complete(5))
        with pytest.raises(ValueError):
            greedy_reduce(disjoint_union([cycle(7), complete(5)], random.Random(1)))

    def test_clique_test_matches_brute_force(self):
        # The full mask and random sub-masks: each step grows a clique from
        # the part of the mask above its lowest vertex.
        rng = random.Random(8)
        pick = random.Random(9)
        for _ in range(80):
            g = random_graph(rng, rng.randint(0, 10), rng.random())
            for mask in [(1 << g.n) - 1] + [pick.getrandbits(g.n) for _ in range(6)]:
                sub, _ = induced_subgraph(g, graph.bits(mask))
                omega = brute_max_clique(sub)
                for size in range(2, 6):
                    assert graph.holds_clique(g._adj, mask, size) == (omega >= size)

    def test_reducibility_is_evaluated_only_near_the_next_pick(self, monkeypatch):
        # A case is worked out when its vertex could be the next pick, not
        # again for every vertex within distance 3 of each deletion.
        calls = record_calls(monkeypatch, coloring, "reduction_case")
        for g in (
            gen_random_claw_free(150, 4, 1),
            gen_random_claw_free(170, 3, 1),
            squared_cycle(160),
        ):
            calls.clear()
            greedy_reduce(g)
            assert 0 < len(calls) <= 3 * g.n

    def test_base_path_evaluates_nothing_it_can_rule_out(self, monkeypatch, stress_family):
        # Every square degree of these line graphs is above kprime, so no
        # vertex is ever dirty and the peel reads no reduction case.
        calls = record_calls(monkeypatch, coloring, "reduction_case")
        for *_, g in stress_family:
            rest, frames, bases = coloring._peel(Graph(g._adj))
            assert frames == [] and len(bases) == 1 and len(rest) == g.n
        assert calls == []

    def test_peel_square_degrees_stay_exact(self, monkeypatch, stress_family):
        # The peel updates its square degrees on each deletion instead of
        # recounting them; at every evaluation they must be the popcounts
        # of the current graph's square rows.
        original = coloring.reduction_case
        seen = []

        def checked(adj, sq, v, kprime, cap):
            seen.append(tuple(sq) == tuple(row.bit_count() for row in square(Graph(adj))._adj))
            return original(adj, sq, v, kprime, cap)

        monkeypatch.setattr(coloring, "reduction_case", checked)
        union = disjoint_union(
            [stress_family[0][3], squared_cycle(40), gen_random_claw_free(60, 4, 2)],
            random.Random(6),
        )
        for g in (
            gen_random_claw_free(150, 4, 1),
            gen_random_claw_free(170, 3, 1),
            squared_cycle(160),
            union,
        ):
            seen.clear()
            greedy_reduce(g)
            assert seen and all(seen)

    def test_peel_clique_numbers_stay_exact(self, monkeypatch, stress_family):
        # The peel updates its triangle and K4 masks on N(v) instead of
        # searching again; at every evaluation the thresholds must be those
        # of the clique number of v's component in the current graph. Every
        # clique lies in a closed neighborhood, so that number is one more
        # than the largest brute-force clique number of a neighborhood in
        # the component (the components are too large to enumerate).
        original = coloring.reduction_case
        by_neighborhood = {}
        by_graph = {}
        seen = []

        def omega_around(adj, v):
            if adj not in by_graph:
                cur = Graph(adj)
                by_graph[adj] = comps = []
                for comp in connected_components(cur):
                    best = 0
                    for u in comp:
                        sub, _ = induced_subgraph(cur, graph.bits(adj[u]))
                        if sub._adj not in by_neighborhood:
                            by_neighborhood[sub._adj] = brute_max_clique(sub)
                        best = max(best, by_neighborhood[sub._adj])
                    comps.append((comp, best + 1))
            return next(w for comp, w in by_graph[adj] if v in comp)

        def checked(adj, sq, v, kprime, cap):
            seen.append((kprime, cap) == reduction_thresholds(omega_around(adj, v)))
            return original(adj, sq, v, kprime, cap)

        monkeypatch.setattr(coloring, "reduction_case", checked)
        union = disjoint_union(
            [stress_family[0][3], squared_cycle(40), gen_random_claw_free(60, 4, 2)],
            random.Random(6),
        )
        for g in (
            gen_random_claw_free(150, 4, 1),
            gen_random_claw_free(170, 3, 1),
            squared_cycle(160),
            union,
        ):
            seen.clear()
            by_graph.clear()
            greedy_reduce(g)
            assert seen and all(seen)

    def test_omega_four_run(self):
        g, seeds_used = None, 0
        g = gen_random_claw_free(20, 4, 3, strategy="line-graph")
        assert max_clique(g)[0] == 4
        coloring = greedy_reduce(g)
        assert verify_coloring(g, coloring)
        assert coloring.palette_size <= 22

    def test_params_validation(self):
        # The engine is defined up to clique number 4; below 3 its base step
        # colors the paths and cycles.
        with pytest.raises(ValueError):
            greedy_reduce(gen_random_claw_free(20, 5, 0))
        assert greedy_reduce(path(4)) == color_small_omega(path(4))


class TestPeelMatchesReference:
    """The incremental engine deletes the same vertices, in the same graphs, as
    the engine that recomputes everything per peel, and colors the same."""

    @pytest.fixture
    def same_as_reference(self, monkeypatch):
        calls = record_calls(monkeypatch, graph, "delete_vertex")

        def check(g):
            calls.clear()
            coloring = greedy_reduce(g)
            engine_calls = list(calls)
            calls.clear()
            assert coloring == brute_greedy_reduce(g)
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
                    peeled += same_as_reference(sub)
                    components += 1
        assert components > 250 and peeled > 1000

    def test_random_line_graphs_and_blowups(self, same_as_reference):
        rng = random.Random(5)
        for i in range(60):
            strategy = "line-graph" if i % 2 == 0 else "blowup"
            n, omega, seed = rng.randint(10, 120), rng.choice((3, 4)), rng.randrange(10**6)
            g = gen_random_claw_free(n, omega, seed, strategy)
            same_as_reference(g)

    def test_clique_number_drop_rethresholds_the_whole_component(self, same_as_reference):
        # A pendant edge at root vertex 0 makes the edges there the only K4.
        # The first peel deletes one of them, so the component's clique number
        # falls to 3 and every vertex, near or far, must meet the lower threshold.
        edges = regular_root_girth5(30, 3, 1) + [(0, 30)]
        g, _ = gen_line_graph(build_graph(31, edges))
        assert len(connected_components(g)) == 1 and max_clique(g)[0] == 4
        kprimes = [kprime for _, _, _, kprime in brute_peel(g)[1]]
        assert kprimes[0] == 19 and set(kprimes[1:]) == {9}
        assert same_as_reference(g) == len(kprimes)

    def test_squared_cycles(self, same_as_reference):
        for n in (*range(7, 30), 64, 101):
            assert same_as_reference(squared_cycle(n)) > 0

    def test_unreducible_component_beside_a_peeling_one(self, same_as_reference):
        # Nothing in the line graph of a girth-5 cubic root is reducible: its
        # component is dropped only once each of its vertices has been
        # evaluated, and the other component's dirty marks stay its own.
        base, _ = gen_line_graph(build_graph(30, regular_root_girth5(30, 3, 1)))
        assert classify(base, 3).kind == "line_graph"
        for seed in range(3):
            g = disjoint_union([base, gen_random_claw_free(60, 3, seed)], random.Random(seed))
            assert same_as_reference(g) > 0

    def test_disjoint_unions_with_interleaved_labels(self, same_as_reference):
        rng = random.Random(6)
        for _ in range(20):
            parts = [
                gen_random_claw_free(rng.randint(5, 40), rng.choice((3, 4)), rng.randrange(10**6))
                for _ in range(rng.randint(2, 3))
            ]
            g = disjoint_union(parts, rng)
            same_as_reference(g)

    def test_no_whole_graph_work_between_peels(self, monkeypatch):
        log = []
        watched = ("delete_vertex", "square", "induced_subgraph", "connected_components", "max_clique")
        for name in watched:
            record_calls(monkeypatch, graph, name, log=log)
        greedy_reduce(gen_random_claw_free(150, 4, 1))
        first = log.index("delete_vertex")
        last = len(log) - 1 - log[::-1].index("delete_vertex")
        assert last - first > 100
        assert set(log[first : last + 1]) == {"delete_vertex"}


def component_within(g, allowed, v):
    """The vertices that v reaches in g through ``allowed``, a set holding v."""
    seen, queue = {v}, [v]
    for u in queue:
        for x in g.neighbors(u):
            if x in allowed and x not in seen:
                seen.add(x)
                queue.append(x)
    return seen


class TestPeelHandsOverTheBase:
    """_peel hands the base step its remainder in g's labels: the vertices in
    no frame, and the remainder's components with a triangle, each with its
    clique number, checked against a recomputation on g."""

    @staticmethod
    def check(g):
        rest, frames, bases = coloring._peel(g)
        assert rest == sorted(set(range(g.n)) - {v for v, _, _ in frames})
        left, based = set(rest), set()
        for w, comp in bases:
            assert comp == sorted(comp) and based.isdisjoint(comp)
            based.update(comp)
            # Connected in g[rest], with no edge to the rest of it.
            assert component_within(g, left, comp[0]) == set(comp)
            assert max_clique(induced_subgraph(g, comp)[0])[0] == w
            assert any(
                g.has_edge(a, b)
                for x in comp
                for a in g.neighbors(x)
                for b in g.neighbors(x)
                if a < b and a in left and b in left
            )
        small = left - based
        for x in small:
            nbrs = [a for a in g.neighbors(x) if a in left]
            assert based.isdisjoint(nbrs)
            assert not any(g.has_edge(a, b) for a in nbrs for b in nbrs if a < b)
        return len(frames), len(bases), len(small)

    def test_corpus(self, corpus):
        seen = Counter()
        for entry in corpus:
            g = entry.graph
            if max_clique(g)[0] <= 4 and find_claw(g) is None:
                seen.update(dict(zip(("peeled", "bases", "small"), self.check(g))))
        assert min(seen.values()) > 0

    def test_girth_five_line_graphs(self, stress_family):
        for _, _, _, g in stress_family:
            peeled, bases, small = self.check(g)
            assert (peeled, small) == (0, 0) and bases == len(connected_components(g))

    def test_disjoint_unions_with_interleaved_labels(self, stress_family):
        rng = random.Random(7)
        for _ in range(10):
            parts = [
                gen_random_claw_free(rng.randint(5, 40), rng.choice((3, 4)), rng.randrange(10**6))
                for _ in range(rng.randint(1, 3))
            ]
            parts += [stress_family[rng.randrange(len(stress_family))][3], cycle(7), path(4)]
            peeled, bases, small = self.check(disjoint_union(parts, rng))
            assert bases > 0 and small >= 11


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
                    greedy_reduce(sub)
        assert set(outcomes) == {"connected", "meet", "split"}

    def test_random_line_graphs(self, outcomes):
        for seed in (1, 2, 3):
            greedy_reduce(gen_random_claw_free(170, 3, seed))
            greedy_reduce(gen_random_claw_free(150, 4, seed))
        assert set(outcomes) == {"connected", "meet", "split"}

    def test_squared_cycles(self, outcomes):
        for n in (*range(7, 30), 64, 101, 150):
            greedy_reduce(squared_cycle(n))
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
    blow-up, a squared cycle, a cycle, a circular-interval graph, the
    complement of a triangle-free graph or K2 ∨ (K_s + K_t)."""
    family = draw(
        st.sampled_from(
            (
                "line-graph",
                "blowup",
                "squared-cycle",
                "cycle",
                "circular",
                "co-triangle-free",
                "k2-join",
            )
        )
    )
    if family == "k2-join":
        sizes = draw(st.lists(st.integers(0, 10), min_size=2, max_size=2))
        return k2_join_cliques(*sizes, draw(st.integers(0, 2**16)))
    if family == "circular":
        return circular_interval_graph(draw(st.integers(2, 40)), draw(st.integers(0, 2**16)))
    if family == "co-triangle-free":
        return triangle_free_complement(draw(st.integers(0, 16)), draw(st.integers(0, 2**16)))
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


class TestStructureTheoremFamilies:
    """Seeded circular-interval graphs, complements of triangle-free graphs
    and K2 ∨ (K_s + K_t), families of the claw-free structure theorem
    beyond the corpus, each checked against the brute-force references."""

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng: circular_interval_graph(rng.randint(4, 40), rng.randrange(10**6)),
            lambda rng: triangle_free_complement(rng.randint(4, 20), rng.randrange(10**6)),
            # s, t <= 10 keeps the brute-force q searches small
            lambda rng: k2_join_cliques(
                rng.randint(0, 10), rng.randint(0, 10), rng.randrange(10**6)
            ),
        ],
        ids=["circular-interval", "triangle-free-complement", "k2-join-two-cliques"],
    )
    def test_draws(self, draw):
        rng = random.Random(23)
        omegas = set()
        for _ in range(60):
            g = draw(rng)
            assert brute_force_claw_free(g)
            omega = max_clique(g)[0]
            coloring = color_square(g)
            assert brute_is_proper(brute_square(g), coloring.colors)
            assert coloring.palette_size <= palette_bound(omega)
            assert all(r.holds for r in run_lemma_suite(g))
            assert q_rows(g) == [
                {w: brute_q_value(g, v, w) for w in g.neighbors(v)} for v in range(g.n)
            ]
            omegas.add(min(omega, 5))
        assert {3, 4, 5} <= omegas


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
        degrees = [row.bit_count() for row in sq._adj]
        everyone = (1 << g.n) - 1
        recolored = 0
        for v in range(g.n):
            case = reduction_case(g._adj, degrees, v, 19, None)
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
        sec = strong_edge_color(claw())
        assert sec.palette_size == 3
        assert brute_is_strong_edge_coloring(sec, claw())

    def test_k4_all_edges_distinct(self):
        sec = strong_edge_color(complete(4))
        assert sec.palette_size == 6
        assert len(set(sec.colors)) == 6
        assert brute_is_strong_edge_coloring(sec, complete(4))

    def test_k4_budget_five_is_infeasible(self):
        conflict, _ = edge_conflict_graph(complete(4))
        assert _backtrack_within(conflict, 5, DEFAULT_NODE_LIMIT) is None

    def test_full_blowup_needs_twenty(self):
        f = gen_blowup_c5(BlowupSpec((2, 2, 2, 2, 2)))
        conflict, edges = edge_conflict_graph(f)
        sec = coloring.StrongEdgeColoring(
            edges, tuple(_backtrack_within(conflict, 20, DEFAULT_NODE_LIMIT))
        )
        assert sec.palette_size == 20
        assert brute_is_strong_edge_coloring(sec, f)

    def test_petersen_within_ten(self, petersen_graph):
        sec = strong_edge_color(petersen_graph)
        assert sec.palette_size <= 10
        assert brute_is_strong_edge_coloring(sec, petersen_graph)

    def test_node_limit_counts_the_greedy_descent(self, petersen_graph):
        # The Petersen graph's 15 edges fit 10 colors on the first descent,
        # which takes 16 nodes: one per colored edge plus the closing one.
        expected = strong_edge_color(petersen_graph)
        assert strong_edge_color(petersen_graph, node_limit=16) == expected
        with pytest.raises(NodeLimitExceeded):
            strong_edge_color(petersen_graph, node_limit=15)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_no_budget_for_an_edge(self, budget):
        conflict, _ = edge_conflict_graph(path(3))
        assert _backtrack_within(conflict, budget, DEFAULT_NODE_LIMIT) is None

    @pytest.mark.parametrize("budget", [10, 0, -1])
    def test_edgeless_root_needs_no_color(self, budget):
        f = build_graph(4, [])
        assert strong_edge_color(f) == coloring.StrongEdgeColoring((), ())
        conflict, _ = edge_conflict_graph(f)
        assert _backtrack_within(conflict, budget, DEFAULT_NODE_LIMIT) == []

    def test_node_limit_on_wide_roots(self):
        # The base-case golden pins, m = 1600 and 1602 edges: their first
        # descents fit palette_bound(max degree) in m + 1 nodes, as on the
        # Petersen graph.
        for name, f in base_pin_roots():
            m = f.edge_count
            palette = palette_bound(max_degree(f))
            assert strong_edge_color(f, node_limit=m + 1).palette_size <= palette, name
            with pytest.raises(NodeLimitExceeded):
                strong_edge_color(f, node_limit=m)

    @pytest.mark.parametrize("n, edges", DSATUR_OVER_TEN)
    def test_first_descent_over_the_bound(self, n, edges):
        f = build_graph(n, edges)
        conflict, _ = edge_conflict_graph(f)
        assert max(brute_dsatur_order_greedy(conflict)) + 1 == 11
        found, nodes = search_outcome(_backtrack_within, conflict, 10)
        assert (found, nodes) == search_outcome(brute_backtrack_within, conflict, 10)
        assert found is not None and nodes > f.edge_count + 1
        assert max_degree(f) == 3
        assert brute_is_strong_edge_coloring(strong_edge_color(f), f)
        # Their line graphs peel (26 and 22 frames), so color_square does not
        # reach this search on them; test_base_step_backtracks pins one that does.
        g, _ = gen_line_graph(f)
        colors = color_square(g)
        assert verify_coloring(g, colors) and colors.palette_size <= 10

    def test_base_step_backtracks(self):
        # Unlike the roots above, this one's line graph does not peel:
        # color_square reaches the search through the recovered root.
        g, _ = gen_line_graph(backtracking_base_root())
        outcome = classify(g, max_clique(g)[0])
        assert outcome.kind == "line_graph"
        conflict, _ = edge_conflict_graph(outcome.root.f)
        found, nodes = search_outcome(_backtrack_within, conflict, 10)
        assert (found, nodes) == search_outcome(brute_backtrack_within, conflict, 10)
        assert nodes == 3524
        assert max(brute_dsatur_order_greedy(conflict)) + 1 == 11
        assert search_outcome(_backtrack_within, conflict, 11)[1] == 25
        with pytest.raises(NodeLimitExceeded):
            color_square(g, node_limit=3523)
        colors = color_square(g, node_limit=3524)
        assert colors.palette_size == 10 and verify_coloring(g, colors)

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

    def test_small_roots_below_their_greedy_palette(self, petersen_graph):
        # Budgets under what the first descent uses, on the conflict graphs
        # of the Petersen graph, K4 and C5 blow-ups: the search must prove
        # them short through uncoloring, node for node as the reference does.
        roots = [(petersen_graph, 4), (complete(4), 5)]
        for spec in ((2, 1, 1, 1, 1), (2, 1, 2, 1, 1), (2, 2, 2, 1, 1), (2, 2, 2, 2, 1)):
            f = gen_blowup_c5(BlowupSpec(spec))
            roots.append((f, max(brute_dsatur_order_greedy(edge_conflict_graph(f)[0]))))
        for f, budget in roots:
            conflict, _ = edge_conflict_graph(f)
            outcome = search_outcome(_backtrack_within, conflict, budget)
            assert outcome == search_outcome(brute_backtrack_within, conflict, budget)
            assert outcome[0] is None

    def test_one_below_the_greedy_palette(self):
        # Random graphs on 13 to 20 vertices at one color fewer than their
        # DSATUR coloring: some searches backtrack to a coloring, others
        # exhaust the budget.
        rng = random.Random(13)
        backtracked = found = 0
        for i in range(200):
            n = 13 + i % 8
            g = random_graph(rng, n, rng.uniform(0.25, 0.75))
            budget = max(brute_dsatur_order_greedy(g))
            outcome = search_outcome(_backtrack_within, g, budget)
            assert outcome == search_outcome(brute_backtrack_within, g, budget)
            backtracked += outcome[1] > n + 1
            found += outcome[0] is not None
        assert backtracked >= 20 and found >= 15


class TestIcosahedronColoring:
    """The base step colors the icosahedron off classify's antipodal pairs, one color each."""

    @staticmethod
    def check_antipodal_six(g):
        coloring = color_square(g)
        assert coloring.palette_size == 6
        for a, b in recognize_icosahedron(g):
            assert coloring.colors[a] == coloring.colors[b]
        assert brute_is_proper(brute_square(g), coloring.colors)

    def test_antipodal_six(self, icosahedron):
        self.check_antipodal_six(icosahedron)

    def test_relabeled_icosahedron(self):
        rng = random.Random(20240817)
        perm = list(range(12))
        rng.shuffle(perm)
        self.check_antipodal_six(relabel(gen_icosahedron(), perm))

    def test_one_recognition_per_base(self, monkeypatch):
        # classify recognizes each icosahedron base, and the base step reads
        # its pairs, so no second recognition runs.
        rng = random.Random(30)
        twins = [relabel(gen_icosahedron(), rng.sample(range(12), 12)) for _ in range(2)]
        cases = [(gen_icosahedron(), 1), (disjoint_union([*twins, cycle(7)], rng), 2)]
        calls = record_calls(monkeypatch, structure, "recognize_icosahedron")
        for g, bases in cases:
            calls.clear()
            assert color_square(g).palette_size == 6
            assert len(calls) == bases


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

    def test_matches_square_graph_reference(self, corpus):
        rng = random.Random(29)
        graphs = [entry.graph for entry in corpus[::4]]
        graphs += [cocktail_party(k) for k in range(2, 9)]
        graphs += [gen_random_claw_free(rng.randint(5, 60), 5, seed) for seed in range(10)]
        graphs += [random_graph(rng, rng.randint(0, 30), rng.random()) for _ in range(40)]
        for g in graphs:
            assert trivial_greedy_square(g) == brute_trivial_greedy_square(g)


class TestSquareDegreeCap:
    def test_within_twice_omega_times_omega_minus_one(self):
        # palette_bound from ω = 5 on rests on Δ(G²) <= 2ω(ω-1), proved only
        # where N(v) has a two-clique cover; most of these vertices have none.
        graphs = [triangle_free_complement(n, seed) for n in range(6, 21, 2) for seed in range(5)]
        graphs += [cocktail_party(k) for k in range(2, 11)] + [gen_icosahedron()]
        graphs += [k2_join_cliques(s, t) for s in range(1, 7) for t in range(1, 7)]
        uncovered = 0
        for g in graphs:
            omega = max_clique(g)[0]
            assert all(d <= 2 * omega * (omega - 1) for d in square_degrees(g)), g
            uncovered += neighborhood_covers(g).count(NO_COVER)
        assert 2 * uncovered > sum(g.n for g in graphs)


class TestVerifyColoring:
    def test_distinct_on_c5(self):
        assert verify_coloring(cycle(5), Coloring([0, 1, 2, 3, 4]))

    def test_alternating_on_c5_fails(self):
        assert not verify_coloring(cycle(5), Coloring([0, 1, 0, 1, 0]))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            verify_coloring(cycle(5), Coloring([0, 1]))
