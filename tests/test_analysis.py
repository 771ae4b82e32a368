import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawsq import analysis, graph
from clawsq.analysis import (
    ClawWitness,
    LemmaReport,
    find_claw,
    q_value,
    ramsey_bound,
    run_lemma_suite,
    z_set,
)
from clawsq.corpus import (
    claw,
    cocktail_party,
    complete,
    cycle,
    gen_random_claw_free,
)
from clawsq.errors import NotClawFreeError, NotNeighborError, UnsupportedOmegaError
from clawsq.graph import (
    JOINED_COVER,
    NO_COVER,
    build_graph,
    max_clique,
    max_clique_within,
)
from clawsq.oracle import brute_force_claw_free

from helpers import (
    brute_degree_reports,
    brute_exterior_reports,
    brute_max_matching,
    brute_q_value,
    brute_second_neighborhood_reports,
    circular_interval_graph,
    has_claw_triples,
    k2_join_cliques,
    lemma_sweep_instances,
    open_edge_masks,
    random_graph,
    record_calls,
    relabel,
)


class TestFindClaw:
    def test_claw_itself(self):
        witness = find_claw(claw())
        assert witness.center == 0
        assert witness.leaves == (1, 2, 3)

    def test_icosahedron_is_claw_free(self, icosahedron):
        assert brute_force_claw_free(icosahedron)
        assert find_claw(icosahedron) is None

    def test_line_graph_is_claw_free(self, line_petersen):
        assert brute_force_claw_free(line_petersen)
        assert find_claw(line_petersen) is None

    def test_agrees_with_triple_enumeration(self):
        for seed in range(60):
            g = gen_random_claw_free(10 + seed % 5, 4, seed, strategy="line-graph")
            assert find_claw(g) is None
            assert not has_claw_triples(g)

    def test_embedded_claw_found(self):
        g = build_graph(6, [(0, 1), (0, 2), (0, 3), (4, 5), (3, 4)])
        witness = find_claw(g)
        assert witness is not None
        leaves = witness.leaves
        center = witness.center
        assert all(g.has_edge(center, leaf) for leaf in leaves)
        assert not any(
            g.has_edge(a, b) for a in leaves for b in leaves if a < b
        )

    def test_witness_is_lexicographically_first(self):
        # Centers that two cliques cover are skipped; the witness must still
        # be the first (center, leaves) triple in lexicographic order.
        rng = random.Random(2016)
        skipped = found = 0
        for seed in range(150):
            if seed % 2:
                g = random_graph(rng, rng.randint(4, 14), rng.choice((0.3, 0.5, 0.7)))
            else:
                # A claw-free line graph plus one vertex joined to three of it.
                base = gen_random_claw_free(10, 4, seed, strategy="line-graph")
                extra = [(u, base.n) for u in rng.sample(range(base.n), 3)]
                g = build_graph(base.n + 1, list(base.edges()) + extra)
            first = next(
                (
                    ClawWitness(v, leaves)
                    for v in range(g.n)
                    for leaves in combinations(g.neighbors(v), 3)
                    if not any(g.has_edge(x, y) for x, y in combinations(leaves, 2))
                ),
                None,
            )
            assert find_claw(g) == first
            if first is not None:
                found += 1
                skipped += any(
                    g.degree(v) >= 3 and graph._cover_walk(g._adj, g._adj[v])[0] != NO_COVER
                    for v in range(first.center)
                )
        assert found >= 100 and skipped >= 40

    def test_claw_free_iff_neighborhood_stability_two(self):
        # Independently: no claw exactly when every neighborhood has no
        # independent triple, via direct subset enumeration.
        import random
        from itertools import combinations

        rng = random.Random(13)
        for _ in range(120):
            n = rng.randint(1, 12)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < rng.choice((0.2, 0.5, 0.8))
            ]
            g = build_graph(n, edges)
            stability_ok = all(
                not any(
                    not g.has_edge(a, b) and not g.has_edge(a, c) and not g.has_edge(b, c)
                    for a, b, c in combinations(g.neighbors(v), 3)
                )
                for v in range(n)
            )
            assert (find_claw(g) is None) == stability_ok


# The lemma ids of each report family of run_lemma_suite.
DEGREE_LEMMAS = {"degree-below-ramsey", "neighborhood-clique-cap", "neighborhood-stability-cap"}
EXTERIOR_LEMMAS = {"exterior-size", "exterior-nonedges"}
SECOND_NEIGHBORHOOD_LEMMAS = {
    "second-neighborhood-z-sum",
    "second-neighborhood-z",
    "second-neighborhood-q-sum",
    "second-neighborhood-q",
    "z-covers-neighborhood",
    "half-degree-bound",
    "matching-weighted-degree-bound",
    "square-degree-cap",
    "max-square-degree",
}


def lemma_reports(g, family):
    """The reports of run_lemma_suite whose lemma id is in ``family``, in suite order."""
    return [r for r in run_lemma_suite(g) if r.lemma_id in family]


class TestRamseyBound:
    def test_small_values(self):
        assert ramsey_bound(3) == 6
        assert ramsey_bound(4) == 9
        assert ramsey_bound(2) == 3

    def test_table(self):
        assert [ramsey_bound(k) for k in range(2, 10)] == [3, 6, 9, 14, 18, 23, 28, 36]

    def test_binomial_fallback(self):
        assert ramsey_bound(10) == 55
        assert ramsey_bound(12) == 78

    def test_rejects_tiny_omega(self):
        with pytest.raises(UnsupportedOmegaError):
            ramsey_bound(1)


class TestDegreeLemma:
    def test_icosahedron(self, icosahedron):
        reports = lemma_reports(icosahedron, DEGREE_LEMMAS)
        assert len(reports) == 36
        assert all(r.holds for r in reports)
        degree_caps = [r for r in reports if r.lemma_id == "degree-below-ramsey"]
        assert all(r.lhs == 5 and r.rhs == 5 for r in degree_caps)

    def test_k4(self):
        reports = lemma_reports(complete(4), DEGREE_LEMMAS)
        assert all(r.holds for r in reports)
        caps = [r for r in reports if r.lemma_id == "degree-below-ramsey"]
        assert all(r.lhs == 3 and r.rhs == 8 for r in caps)

    def test_claw_input_rejected_with_witness(self):
        with pytest.raises(NotClawFreeError) as err:
            run_lemma_suite(claw())
        assert err.value.witness.center == 0


class TestExteriorNeighbors:
    def test_exterior_reports_on_samples(self):
        for seed in range(10):
            g = gen_random_claw_free(14, 4, seed, strategy="line-graph")
            assert all(r.holds for r in lemma_reports(g, EXTERIOR_LEMMAS))


class TestZSet:
    def test_clique_neighborhood_is_empty(self):
        g = complete(4)
        assert all(z_set(g, v) == frozenset() for v in range(4))

    def test_icosahedron_saturates(self, icosahedron):
        for v in range(12):
            assert z_set(icosahedron, v) == frozenset(icosahedron.neighbors(v))

    def test_fan_middle_vertex(self):
        # v=3 over the path 0-1-2: only the middle vertex has two
        # non-adjacent common neighbors with v.
        g = build_graph(4, [(0, 1), (1, 2), (3, 0), (3, 1), (3, 2)])
        assert z_set(g, 3) == frozenset({1})


class TestQValue:
    def test_clique_neighborhood_gives_zero(self):
        g = complete(4)
        for v in range(4):
            for w in g.neighbors(v):
                assert q_value(g, v, w) == 0

    def test_icosahedron_gives_one(self, icosahedron):
        for v in range(12):
            for w in icosahedron.neighbors(v):
                assert q_value(icosahedron, v, w) == 1

    def test_requires_adjacency(self):
        with pytest.raises(NotNeighborError):
            q_value(cycle(5), 0, 2)

    def test_positive_exactly_on_z(self, icosahedron, line_petersen, octahedron_graph):
        samples = [icosahedron, line_petersen, octahedron_graph] + [
            gen_random_claw_free(12, 4, seed, strategy="line-graph") for seed in range(8)
        ]
        for g in samples:
            for v in range(g.n):
                z = z_set(g, v)
                for w in g.neighbors(v):
                    assert (q_value(g, v, w) >= 1) == (w in z)

    def test_matches_reference(self, corpus):
        rng = random.Random(71)
        graphs = [entry.graph for entry in corpus] + [
            random_graph(rng, rng.randint(2, 20), rng.random()) for _ in range(100)
        ]
        for g in graphs:
            for v, w in g.edges():
                assert q_value(g, v, w) == brute_q_value(g, v, w), (g, v, w)

    def test_no_recursion_limit(self):
        # K_{1100 x 2}: N(0) ∩ N(2) is K_{1098 x 2}, whose complement is a
        # perfect matching on more vertices than the recursion limit.
        g = cocktail_party(1100)
        assert sys.getrecursionlimit() < g.n
        assert q_value(g, 0, 2) == 1098


class TestComplementMatching:
    def test_matches_brute_force(self, monkeypatch):
        # The blossom step must run and grow the greedy matching at least
        # once across the draws, or the comparison would test greedy alone.
        # Each draw seeds the graph, its density and the mask, which keeps
        # them spread out; about one draw in fifteen gains.
        gains = []
        blossom = analysis._blossom_matching

        def recorded(adj, mask, pairs):
            size = blossom(adj, mask, pairs)
            gains.append(size - len(pairs))
            return size

        monkeypatch.setattr(analysis, "_blossom_matching", recorded)

        @given(st.integers(1, 20), st.integers(0, 2**32))
        @settings(deadline=None, max_examples=150)
        def agrees(n, seed):
            rng = random.Random(seed)
            g = random_graph(rng, n, rng.random())
            mask = rng.getrandbits(n)
            full = (1 << n) - 1
            complement = [full & ~row & ~(1 << u) for u, row in enumerate(g._adj)]
            assert analysis._complement_matching(g._adj, mask) == brute_max_matching(
                complement, mask, {}
            )

        agrees()
        assert max(gains, default=0) > 0


class TestSecondNeighborhoodBounds:
    def test_icosahedron_is_tight(self, icosahedron):
        reports = lemma_reports(icosahedron, SECOND_NEIGHBORHOOD_LEMMAS)
        assert all(r.holds for r in reports)
        z_bounds = [r for r in reports if r.lemma_id == "second-neighborhood-z"]
        assert all(r.lhs == 5 and r.rhs == Fraction(5) for r in z_bounds)

    def test_k4_trivial(self):
        reports = lemma_reports(complete(4), SECOND_NEIGHBORHOOD_LEMMAS)
        assert all(r.holds for r in reports)
        assert all(
            r.lhs == 0 for r in reports if r.lemma_id == "second-neighborhood-z"
        )

    def test_blowup_line_graph_square_degree(self, sharp_blowup_line):
        reports = lemma_reports(sharp_blowup_line, SECOND_NEIGHBORHOOD_LEMMAS)
        assert all(r.holds for r in reports)
        top = [r for r in reports if r.lemma_id == "max-square-degree"]
        assert len(top) == 1 and top[0].lhs == 9 and top[0].rhs == 12

    def test_corollaries_gated_by_degree_and_omega(self, icosahedron):
        reports = lemma_reports(icosahedron, SECOND_NEIGHBORHOOD_LEMMAS)
        ids = {r.lemma_id for r in reports}
        # degree 5 = 2*omega - 1 triggers the saturation report, but the
        # matching-weighted degree bound stays out at omega 3
        assert "z-covers-neighborhood" in ids
        assert "half-degree-bound" in ids
        assert "matching-weighted-degree-bound" not in ids
        assert "square-degree-cap" not in ids

    def test_omega4_corollaries_fire(self):
        # Apex over the complement of C7: the apex has degree 7 = 2*4 - 1,
        # the graph is claw-free with clique number 4.
        comp_c7 = [
            (i, (i + d) % 7) for i in range(7) for d in (2, 3) if i < (i + d) % 7
        ]
        comp_c7 += [(i, (i + 2) % 7) for i in range(7) if i > (i + 2) % 7]
        comp_c7 += [(i, (i + 3) % 7) for i in range(7) if i > (i + 3) % 7]
        edges = sorted({tuple(sorted(e)) for e in comp_c7})
        edges += [(i, 7) for i in range(7)]
        g = build_graph(8, edges)
        assert brute_force_claw_free(g)
        assert max_clique(g)[0] == 4
        assert g.degree(7) == 7
        reports = lemma_reports(g, SECOND_NEIGHBORHOOD_LEMMAS)
        assert all(r.holds for r in reports)
        apex_ids = {r.lemma_id for r in reports if r.vertex == 7}
        assert "matching-weighted-degree-bound" in apex_ids
        assert "square-degree-cap" in apex_ids
        assert "z-covers-neighborhood" in apex_ids

    def test_rejects_claw(self):
        with pytest.raises(NotClawFreeError):
            run_lemma_suite(claw())


class TestLemmaSuite:
    def test_all_hold_on_samples(self, icosahedron, line_petersen, octahedron_graph):
        for g in (icosahedron, line_petersen, octahedron_graph):
            reports = run_lemma_suite(g)
            assert reports and all(r.holds for r in reports)

    def test_report_dict_shape(self, octahedron_graph):
        report = run_lemma_suite(octahedron_graph)[0]
        d = report.as_dict()
        assert set(d) == {"lemma", "vertex", "neighbor", "lhs", "rhs", "holds"}

    def test_holds_is_lhs_at_most_rhs(self):
        for lhs, rhs in ((2, 3), (3, 3), (4, 3), (Fraction(7, 2), 3), (3, Fraction(7, 2))):
            report = LemmaReport("exterior-size", 0, 1, lhs, rhs)
            assert report.holds is (lhs <= rhs)
            assert report.as_dict()["holds"] is (lhs <= rhs)


@pytest.fixture(scope="module")
def reference_reports(corpus):
    """(graph, omega, degree, exterior, second-neighborhood reports) from the references.

    Every corpus entry, 100 seeded random line graphs with clique number at
    most 3, 4 or 5, a relabelled copy of each of those, and the omega sweep.
    """
    rng = random.Random(89)
    randoms = [
        gen_random_claw_free(rng.randint(8, 40), (3, 4, 5)[seed % 3], seed)
        for seed in range(100)
    ]
    randoms += [relabel(g, rng.sample(range(g.n), g.n)) for g in randoms]
    cases = [(e.graph, max(e.known["omega"], 2)) for e in corpus]
    cases += [(g, max(max_clique(g)[0], 2)) for g in randoms]
    cases += [(g, omega) for _, g, omega in lemma_sweep_instances()]
    return [
        (
            g,
            omega,
            brute_degree_reports(g, omega),
            brute_exterior_reports(g, omega),
            brute_second_neighborhood_reports(g, omega),
        )
        for g, omega in cases
    ]


@pytest.fixture(scope="module")
def suite_reports(reference_reports):
    """The library's reports for each case of ``reference_reports``, in order.

    run_lemma_suite evaluates a graph at its own clique number; the smaller
    omegas of the sweep go to the evaluator behind it.
    """
    return [
        run_lemma_suite(g)
        if omega == max(max_clique(g)[0], 2)
        else analysis._lemma_reports(g, omega)
        for g, omega, *_ in reference_reports
    ]


class TestReportsMatchReference:
    @pytest.mark.parametrize(
        "lemmas, family",
        [(DEGREE_LEMMAS, 2), (EXTERIOR_LEMMAS, 3), (SECOND_NEIGHBORHOOD_LEMMAS, 4)],
        ids=["degree", "exterior", "second-neighborhood"],
    )
    def test_family(self, reference_reports, suite_reports, lemmas, family):
        for case, reports in zip(reference_reports, suite_reports):
            assert [r for r in reports if r.lemma_id in lemmas] == case[family], case[:2]

    def test_families_on_graphs_with_claws(self):
        # The sweep derives stability numbers and exterior non-edges from
        # claw-freeness, so the suite refuses exactly the graphs with a claw
        # and matches the references, which search, on the rest.
        rng = random.Random(97)
        refused = 0
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 16), rng.random())
            if not brute_force_claw_free(g):
                with pytest.raises(NotClawFreeError):
                    run_lemma_suite(g)
                refused += 1
                continue
            omega = max(max_clique(g)[0], 2)
            assert run_lemma_suite(g) == (
                brute_degree_reports(g, omega)
                + brute_exterior_reports(g, omega)
                + brute_second_neighborhood_reports(g, omega)
            )
        assert 0 < refused < 60

    def test_suite(self, reference_reports, suite_reports):
        for (g, omega, degree, exterior, second), reports in zip(reference_reports, suite_reports):
            assert reports == degree + exterior + second, (g, omega)

    def test_side_types(self, reference_reports, suite_reports):
        # Counts and caps are ints, and every other side a Fraction, except
        # the q-weighted sums of an isolated vertex, which are empty: int 0.
        rational = {
            "second-neighborhood-z-sum",
            "second-neighborhood-z",
            "second-neighborhood-q-sum",
            "second-neighborhood-q",
            "half-degree-bound",
            "matching-weighted-degree-bound",
            "square-degree-cap",
        }
        empty = {"second-neighborhood-q-sum", "second-neighborhood-q"}
        isolated = 0
        for (g, *_), reports in zip(reference_reports, suite_reports):
            for r in reports:
                assert type(r.lhs) is int, r
                alone = r.lemma_id in empty and g.degree(r.vertex) == 0
                isolated += alone
                expected = Fraction if r.lemma_id in rational and not alone else int
                assert type(r.rhs) is expected, r
        assert isolated


def joined_neighborhoods(g):
    """Counter of N(v) over the vertices whose neighborhood cover walk calls JOINED_COVER."""
    adj = g._adj
    return Counter(nv for nv in adj if graph._cover_walk(adj, nv)[0] == JOINED_COVER)


class TestLemmaSuiteCalls:
    def test_no_subgraphs_and_one_q_value_per_edge(self, monkeypatch, corpus):
        # One matching search per edge, none on an edge with an end whose
        # neighborhood is two cliques with no edge between them, and one
        # more on each neighborhood covered by two cliques an edge joins,
        # whose clique number it gives.
        subgraphs = record_calls(monkeypatch, graph, "induced_subgraph")
        searches = record_calls(monkeypatch, analysis, "_complement_matching")
        joined = 0
        for g in [entry.graph for entry in corpus[::25]] + [cocktail_party(6)]:
            searches.clear()
            run_lemma_suite(g)
            covered = joined_neighborhoods(g)
            assert Counter(mask for _, mask in searches) == open_edge_masks(g) + covered
            joined += covered.total()
        assert joined
        # no neighborhood of K_{6 x 2}, the last graph, has a cover, so
        # every one of its edges is searched, and nothing else
        assert len(searches) == g.edge_count
        assert subgraphs == []

    def test_clique_searches_only_on_uncovered_neighborhoods(self, monkeypatch, corpus):
        # A covered neighborhood's clique number comes off its cover, and
        # stability numbers follow from claw-freeness; an uncovered N(v) is
        # searched at most once, for a clique in g's own rows.
        searches = record_calls(monkeypatch, analysis, "max_clique_within")
        graphs = [entry.graph for entry in corpus[::25]]
        graphs += [k2_join_cliques(4, 3, seed) for seed in range(4)] + [cocktail_party(6)]
        searched = 0
        for g in graphs:
            searches.clear()
            run_lemma_suite(g)
            adj = g._adj
            uncovered = Counter(nv for nv in adj if graph._cover_walk(adj, nv)[0] == NO_COVER)
            masks = Counter(mask for _, mask in searches)
            assert all(masks[nv] <= uncovered[nv] for nv in masks), g
            assert all(rows is adj for rows, _ in searches), g
            searched += len(searches)
        assert searched


class TestNeighborhoodCliqueCap:
    def test_cover_reading_matches_search(self):
        # The cap's lhs comes off the cover for covered neighborhoods: the
        # larger side of a disjoint one, and |N(v)| minus the complement's
        # matching number for a joined one. Both families reach that case.
        families = {
            "k2-join": [
                k2_join_cliques(s, t, seed)
                for s in range(1, 6)
                for t in range(1, 6)
                for seed in range(3)
            ],
            "circular-interval": [
                circular_interval_graph(n, seed) for n in range(4, 41, 3) for seed in range(4)
            ],
        }
        for name, graphs in families.items():
            joined = 0
            for g in graphs:
                adj = g._adj
                reports = run_lemma_suite(g)
                caps = [r.lhs for r in reports if r.lemma_id == "neighborhood-clique-cap"]
                assert caps == [max_clique_within(adj, nv)[0] for nv in adj], (name, g)
                joined += sum(graph._cover_walk(adj, nv)[0] == JOINED_COVER for nv in adj)
            assert joined, name
