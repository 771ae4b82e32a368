import json
import random
import sys

import pytest

from clawsq import oracle
from clawsq.corpus import (
    BlowupSpec,
    cocktail_party,
    complete,
    cycle,
    decimal_at_most,
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
    GenerationExhaustedError,
    InvalidSpecError,
)
from clawsq.graph import build_graph, induced_subgraph, max_degree, square
from clawsq.oracle import brute_force_claw_free
from clawsq.structure import recognize_icosahedron

from helpers import brute_max_clique, record_calls


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

    def test_only_rejection_draws_are_claw_checked(self, monkeypatch):
        # A line graph has no claw, so only the rejection loop checks a draw.
        calls = record_calls(monkeypatch, oracle, "brute_force_claw_free")
        gen_random_claw_free(40, 4, 3, strategy="line-graph")
        gen_random_claw_free(30, 5, 11, strategy="blowup")
        assert calls == []
        g = gen_random_claw_free(10, 12, 5, strategy="rejection")
        assert calls[-1] == (g,)

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
        with pytest.raises(DimacsError) as err:
            parse_dimacs("p edge 3 1\ne 4 1\n")
        assert err.value.line == 2

    def test_duplicate_edge(self):
        with pytest.raises(DimacsError) as err:
            parse_dimacs("p edge 3 2\ne 1 2\ne 2 1\n")
        assert err.value.line == 3
        assert str(err.value) == "line 3: duplicate edge (2, 1)"
        with pytest.raises(DimacsError) as err:
            parse_dimacs("c x\np edge 4 3\ne 1 2\n\ne 3 4\ne 04 3\n")
        assert err.value.line == 6
        assert str(err.value) == "line 6: duplicate edge (4, 3)"

    def test_self_loop(self):
        with pytest.raises(DimacsError) as err:
            parse_dimacs("p edge 3 1\ne 2 2\n")
        assert err.value.line == 2
        assert str(err.value) == "line 2: self-loop at vertex 2"

    def test_vertex_count_above_maxsize(self):
        # build_graph's [0] * n would raise OverflowError past sys.maxsize
        with pytest.raises(DimacsError) as err:
            parse_dimacs(f"p edge {sys.maxsize + 1} 0\n")
        assert err.value.line == 1

    def test_numbers_past_the_int_digit_limit(self):
        # int() raises ValueError on a string of more than 4 300 digits.
        huge = "9" * 5001
        for text, message in (
            (f"p edge {huge} 0\n", f"line 1: vertex count above {sys.maxsize}"),
            (f"p edge 3 {huge}\n", f"line 1: edge count above {sys.maxsize}"),
            (f"p edge 3 1\ne {huge} 1\n", "line 2: endpoint outside 1..3"),
            (f"p edge 3 1\ne 1 {huge}\n", "line 2: endpoint outside 1..3"),
        ):
            with pytest.raises(DimacsError) as err:
                parse_dimacs(text)
            assert str(err.value) == message

    def test_zero_padding_of_any_length(self):
        pad = "0" * 5000
        g = parse_dimacs(f"p edge {pad}3 {pad}1\ne {pad}1 {pad}2\n")
        assert g == build_graph(3, [(0, 1)])
        with pytest.raises(DimacsError) as err:
            parse_dimacs(f"p edge 3 1\ne {pad}0 1\n")
        assert str(err.value) == "line 2: endpoint outside 1..3"

    @pytest.mark.parametrize(
        "digits, bound, value",
        [
            ("0", 0, 0),
            ("0005", 5, 5),
            ("6", 5, None),
            ("10", 9, None),
            ("0" * 5000 + "7", 9, 7),
            ("9" * 5001, sys.maxsize, None),
        ],
    )
    def test_decimal_at_most(self, digits, bound, value):
        assert decimal_at_most(digits, bound) == value

    def test_negative_count_and_non_ascii(self, tmp_path):
        with pytest.raises(DimacsError):
            parse_dimacs("p edge -3 0\n")
        with pytest.raises(DimacsError) as err:
            parse_dimacs("p edge 3 1\ne \uff11 \uff12\n")
        assert err.value.line == 2
        target = tmp_path / "bad.col"
        target.write_bytes("c caf\u00e9\np edge 2 1\ne 1 2\n".encode())
        with pytest.raises(DimacsError):
            load_dimacs(target)
        target.write_bytes(b"c x\np edge 2 1\ne 1 2\xff\n")
        with pytest.raises(DimacsError) as err:
            load_dimacs(target)
        assert err.value.line == 3
        assert str(err.value) == "line 3: non-ASCII character"

    @pytest.mark.parametrize("number", ["1_0", "+3", "-3"])
    def test_numbers_are_ascii_digits_only(self, number):
        # int() would read each of these as a count or an endpoint.
        for text, line in (
            (f"p edge {number} 0\n", 1),
            (f"p edge 3 {number}\n", 1),
            (f"p edge 12 1\ne {number} 1\n", 2),
            (f"p edge 12 1\ne 1 {number}\n", 2),
        ):
            with pytest.raises(DimacsError) as err:
                parse_dimacs(text)
            assert err.value.line == line

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p edge 3 0\np edge 3 0\n", "line 2: second problem line"),
            ("p edge 3\n", "line 1: problem line must read 'p edge <n> <m>'"),
            ("p edge 3 1\ne 1\n", "line 2: edge line must read 'e <u> <v>'"),
        ],
        ids=["second-problem-line", "short-problem-line", "short-edge-line"],
    )
    def test_malformed_line_shape(self, text, message):
        with pytest.raises(DimacsError) as err:
            parse_dimacs(text)
        assert str(err.value) == message

    def test_line_fault_reported_before_duplicate(self):
        with pytest.raises(DimacsError) as err:
            parse_dimacs("p edge 3 2\ne 1 2\ne 2 1\nq 1 2\n")
        assert str(err.value) == "line 4: unknown directive 'q'"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p edge 3 1\nq 1 2\ne \uff11 2\n", "line 2: unknown directive 'q'"),
            ("p edge 3 2\ne 1 2\ne 2 1\nc caf\u00e9\n", "line 4: non-ASCII character"),
            ("c x\nc caf\u00e9\np edge 2 1\ne 1 2\n", "line 2: non-ASCII character"),
        ],
        ids=["fault-before-non-ascii", "non-ascii-before-duplicate", "non-ascii-comment"],
    )
    def test_non_ascii_line_in_line_order(self, text, message):
        with pytest.raises(DimacsError) as err:
            parse_dimacs(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("width", [18, 19, 20])
    def test_endpoints_around_maxsize_digits(self, width):
        # sys.maxsize has 19 digits: shorter endpoints go to int() directly,
        # the others through decimal_at_most.
        padded, above = "2".rjust(width, "0"), "9" * width
        assert parse_dimacs(f"p edge 3 1\ne {padded} 1\n") == build_graph(3, [(0, 1)])
        assert parse_dimacs(f"p edge 3 1\ne 3 {padded}\n") == build_graph(3, [(1, 2)])
        for text in (f"p edge 3 1\ne {above} 1\n", f"p edge 3 1\ne 1 {above}\n",
                     f"p edge 3 1\ne {'0' * width} 1\n"):
            with pytest.raises(DimacsError) as err:
                parse_dimacs(text)
            assert str(err.value) == "line 2: endpoint outside 1..3"

    @pytest.mark.parametrize("comment", ["x\ne 1 2", "x\x0bp edge 9 9", "\u00e9", "x\n", "a\x1cb"])
    def test_write_rejects_comment_parse_would_misread(self, comment):
        with pytest.raises(ValueError):
            write_dimacs(path(2), (comment,))

    def test_every_written_text_parses_back(self):
        rng = random.Random(5)
        alphabet = [chr(i) for i in range(128)] + ["\u00e9", "\x85", "\u2028", "\uff11"]
        graphs = [path(2), complete(4), build_graph(3, []), cycle(5)]
        written = 0
        for _ in range(400):
            g = rng.choice(graphs)
            comments = tuple(
                "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
                for _ in range(rng.randint(0, 3))
            )
            try:
                text = write_dimacs(g, comments)
            except ValueError:
                continue
            written += 1
            assert parse_dimacs(text) == g, comments
        assert written > 100


class TestDimacsRandom:
    SEEDS = range(25)

    @staticmethod
    def draw(seed):
        """A random edge list on n vertices, and its DIMACS lines: edges in
        random orientation with zero-padded labels, between comment and
        blank lines."""
        rng = random.Random(seed)
        n = rng.randint(2, 14)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        if not pairs:
            pairs = [(0, 1)]
        rng.shuffle(pairs)
        lines = ["c random edge list", f"p edge {n} {len(pairs)}"]
        for u, v in pairs:
            if rng.random() < 0.5:
                u, v = v, u
            while rng.random() < 0.2:
                lines.append(rng.choice(["", "c note", "   "]))
            lines.append(f"e {'0' * rng.randint(0, 2)}{u + 1} {'0' * rng.randint(0, 2)}{v + 1}")
        return rng, n, pairs, lines

    def test_parses_to_the_same_graph(self):
        for seed in self.SEEDS:
            _, n, pairs, lines = self.draw(seed)
            assert parse_dimacs("\n".join(lines) + "\n") == build_graph(n, pairs), seed

    @pytest.mark.parametrize("fault", ["duplicate", "self-loop", "out-of-range"])
    def test_planted_fault_raises_at_its_line(self, fault):
        for seed in self.SEEDS:
            rng, n, _, lines = self.draw(seed)
            if fault == "duplicate":
                # after the edge line it repeats, so it is the first duplicate
                first = rng.choice([i for i, line in enumerate(lines) if line.startswith("e ")])
                u, v = (int(x) for x in lines[first].split()[1:])
                if rng.random() < 0.5:
                    u, v = v, u
                at = rng.randint(first + 1, len(lines))
                planted, message = f"e {u} {v}", f"duplicate edge ({u}, {v})"
            elif fault == "self-loop":
                x = rng.randint(1, n)
                at = rng.randint(2, len(lines))
                planted, message = f"e {x} {x}", f"self-loop at vertex {x}"
            else:
                u, v = rng.randint(1, n), n + rng.randint(1, 3)
                if rng.random() < 0.5:
                    u, v = v, u
                at = rng.randint(2, len(lines))
                planted, message = f"e {u} {v}", f"endpoint outside 1..{n}"
            lines.insert(at, planted)
            with pytest.raises(DimacsError) as err:
                parse_dimacs("\n".join(lines) + "\n")
            assert (err.value.line, str(err.value)) == (at + 1, f"line {at + 1}: {message}"), seed


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
