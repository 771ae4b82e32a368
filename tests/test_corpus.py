import json

import pytest

from clawsq.corpus import (
    BlowupSpec,
    cocktail_party,
    complete,
    cycle,
    default_corpus,
    gen_blowup_c5,
    gen_line_graph,
    gen_random_claw_free,
    octahedron,
    parse_dimacs,
    path,
    squared_cycle,
    write_corpus,
    write_dimacs,
    load_dimacs,
)
from clawsq.errors import (
    DimacsError,
    DuplicateEdgeError,
    GenerationExhaustedError,
    InvalidSpecError,
    SelfLoopError,
    VertexOutOfRangeError,
)
from clawsq.graph import build_graph, induced_subgraph, max_degree, square
from clawsq.oracle import brute_force_claw_free
from clawsq.structure import recognize_icosahedron

from helpers import brute_max_clique


class TestBlowup:
    def test_all_ones_is_c5(self):
        assert gen_blowup_c5(BlowupSpec((1, 1, 1, 1, 1))) == cycle(5)

    def test_sharp_sizes(self):
        spec = BlowupSpec((1, 1, 1, 2, 2))
        g = gen_blowup_c5(spec)
        assert g.n == 7 and g.edge_count == 10
        assert max_degree(g) == 3
        assert spec.degree_per_class == (3, 2, 3, 3, 3)

    def test_full_sizes(self):
        g = gen_blowup_c5(BlowupSpec((2, 2, 2, 2, 2)))
        assert g.n == 10 and g.edge_count == 20
        assert max_degree(g) == 4

    def test_rejects_bad_specs(self):
        with pytest.raises(InvalidSpecError):
            BlowupSpec((1, 1, 1, 1))
        with pytest.raises(InvalidSpecError):
            BlowupSpec((1, 1, 0, 1, 1))

    def test_sharpness_witness_square_complete(self, sharp_blowup_line):
        sq = square(sharp_blowup_line)
        assert sq.n == 10 and sq.edge_count == 45


class TestLineGraph:
    def test_star_gives_triangle(self):
        g, bijection = gen_line_graph(build_graph(4, [(0, 1), (0, 2), (0, 3)]))
        assert g == complete(3)
        assert bijection == ((0, 1), (0, 2), (0, 3))

    def test_p4_gives_p3(self):
        g, _ = gen_line_graph(path(4))
        assert g == path(3)

    def test_petersen(self, petersen_graph, line_petersen):
        assert line_petersen.n == 15
        assert all(line_petersen.degree(v) == 4 for v in range(15))
        assert brute_force_claw_free(line_petersen)


class TestIcosahedron:
    def test_counts(self, icosahedron):
        assert icosahedron.n == 12 and icosahedron.edge_count == 30
        assert all(icosahedron.degree(v) == 5 for v in range(12))

    def test_neighborhoods_are_five_cycles(self, icosahedron):
        for v in range(12):
            sub, _ = induced_subgraph(icosahedron, icosahedron.neighbors(v))
            assert sub.edge_count == 5
            assert all(sub.degree(u) == 2 for u in range(5))

    def test_recognized(self, icosahedron):
        assert recognize_icosahedron(icosahedron) is not None


class TestRandomGenerators:
    def test_deterministic(self):
        a = gen_random_claw_free(15, 4, 42, strategy="line-graph")
        b = gen_random_claw_free(15, 4, 42, strategy="line-graph")
        assert a == b

    def test_different_seeds_differ(self):
        a = gen_random_claw_free(15, 4, 1, strategy="line-graph")
        b = gen_random_claw_free(15, 4, 2, strategy="line-graph")
        assert a != b

    def test_line_graph_strategy(self):
        g = gen_random_claw_free(12, 3, 7, strategy="line-graph")
        assert g.n == 12
        assert brute_force_claw_free(g)
        assert brute_max_clique(g) <= 3

    def test_line_graph_strategy_keeps_omega_two(self):
        # A triangle in the root is a triangle in its line graph, so the
        # cap of 2 holds only when such draws are redrawn.
        for n in range(3, 30):
            for seed in range(20):
                g = gen_random_claw_free(n, 2, seed)
                assert g.n == n
                assert not any(set(g.neighbors(u)) & set(g.neighbors(v)) for u, v in g.edges())

    def test_blowup_strategy(self):
        g = gen_random_claw_free(30, 5, 11, strategy="blowup")
        assert brute_force_claw_free(g)
        assert g.n <= 30

    def test_blowup_order_never_exceeds_n(self):
        # The smallest blow-up, the five-cycle, has five edges.
        for n in range(5):
            with pytest.raises(GenerationExhaustedError):
                gen_random_claw_free(n, 4, 0, strategy="blowup")
        for n in range(5, 12):
            for seed in range(10):
                assert gen_random_claw_free(n, 4, seed, strategy="blowup").n <= n

    def test_rejection_strategy(self):
        g = gen_random_claw_free(10, 12, 5, strategy="rejection")
        assert g.n == 10
        assert brute_force_claw_free(g)

    def test_empty(self):
        assert gen_random_claw_free(0, 3, 0, strategy="line-graph").n == 0

    def test_rejects_unknown_strategy(self):
        with pytest.raises(InvalidSpecError):
            gen_random_claw_free(10, 3, 0, strategy="nope")

    def test_rejects_oversized_rejection(self):
        with pytest.raises(InvalidSpecError):
            gen_random_claw_free(500, 3, 0, strategy="rejection")


class TestDimacs:
    def test_parse_triangle(self):
        g = parse_dimacs("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        assert g == complete(3)

    def test_round_trip_normalizes(self):
        text = "c hello\np edge 4 3\ne 2 1\ne 3 2\ne 4 3\n"
        g = parse_dimacs(text)
        assert write_dimacs(g) == "p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
        assert parse_dimacs(write_dimacs(g)) == g

    def test_write_exact_format(self):
        assert (
            write_dimacs(complete(3))
            == "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"
        )

    def test_out_of_range_endpoint(self):
        with pytest.raises(VertexOutOfRangeError):
            parse_dimacs("p edge 3 1\ne 4 1\n")

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            parse_dimacs("p edge 3 2\ne 1 2\ne 2 1\n")

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            parse_dimacs("p edge 3 1\ne 2 2\n")

    def test_syntax_errors_carry_line_numbers(self):
        with pytest.raises(DimacsError) as err:
            parse_dimacs("p edge 3 1\nq 1 2\n")
        assert err.value.line == 2
        with pytest.raises(DimacsError):
            parse_dimacs("e 1 2\n")
        with pytest.raises(DimacsError):
            parse_dimacs("p edge 3 5\ne 1 2\n")
        with pytest.raises(DimacsError):
            parse_dimacs("")


class TestDefaultCorpus:
    def test_size_and_order_cap(self, corpus):
        assert len(corpus) >= 500
        assert all(e.graph.n <= 40 for e in corpus)

    def test_ids_unique(self, corpus):
        ids = [e.id for e in corpus]
        assert len(set(ids)) == len(ids)

    def test_known_fields_validated(self, corpus):
        assert all(e.known["claw_free"] for e in corpus)
        small = [e for e in corpus if e.graph.n <= 16]
        for entry in small[::10]:
            assert brute_max_clique(entry.graph) == entry.known["omega"]

    def test_required_families_present(self, corpus):
        generators = {e.generator for e in corpus}
        assert {
            "icosahedron",
            "octahedron",
            "cocktail-party",
            "line-blowup",
            "random-claw-free",
            "squared-cycle",
        } <= generators
        caps = {
            e.params.get("omega_target")
            for e in corpus
            if e.params.get("strategy") == "line-graph"
        }
        assert {3, 4, 5} <= caps

    def test_regeneration_is_bit_identical(self, corpus):
        again = default_corpus()
        assert [e.id for e in again] == [e.id for e in corpus]
        assert all(
            write_dimacs(a.graph) == write_dimacs(b.graph)
            for a, b in zip(corpus, again)
        )

    def test_write_corpus_round_trip(self, corpus, tmp_path):
        subset = corpus[:8]
        manifest_path = write_corpus(subset, tmp_path / "corpus")
        rows = json.loads(manifest_path.read_text())
        assert [r["id"] for r in rows] == [e.id for e in subset]
        assert set(rows[0]) == {"id", "file", "generator", "params", "seed", "known"}
        for row, entry in zip(rows, subset):
            loaded = load_dimacs(manifest_path.parent / row["file"])
            assert loaded == entry.graph


class TestNamedGraphs:
    def test_octahedron_is_line_of_k4(self):
        from iso_util import is_isomorphic

        lg, _ = gen_line_graph(complete(4))
        assert is_isomorphic(lg, octahedron())

    def test_squared_cycle_claw_free(self):
        for n in (7, 9, 12):
            assert brute_force_claw_free(squared_cycle(n))
            assert brute_max_clique(squared_cycle(n)) == 3

    def test_cocktail_party_claw_free(self):
        g = cocktail_party(4)
        assert brute_force_claw_free(g)
        assert brute_max_clique(g) == 4
