import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawsq import oracle
from clawsq.corpus import (
    BlowupSpec,
    claw,
    complete,
    cycle,
    gen_blowup_c5,
    gen_line_graph,
)
from clawsq.errors import NodeLimitExceeded
from clawsq.graph import build_graph, max_clique, square
from clawsq.oracle import brute_force_claw_free, exact_chromatic
from clawsq.analysis import find_claw

from helpers import brute_chromatic_tiny, exact_strong_chromatic_index


@st.composite
def tiny_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=0, max_value=max_n))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    return build_graph(n, edges)


class TestExactChromatic:
    def test_k10(self):
        result = exact_chromatic(complete(10), 10)
        assert result.value == 10
        assert result.witness.is_proper_on(complete(10))

    def test_icosahedron_square_is_six(self, icosahedron):
        result = exact_chromatic(square(icosahedron), 10)
        assert result.value == 6
        assert result.witness.is_proper_on(square(icosahedron))
        # certified from below by the closed neighborhood clique
        assert max_clique(square(icosahedron))[0] == 6

    def test_c7_square_is_four(self):
        result = exact_chromatic(square(cycle(7)), 10)
        assert result.value == 4
        assert result.witness.is_proper_on(square(cycle(7)))

    def test_value_above_upper_reports_none(self):
        result = exact_chromatic(complete(10), 5)
        assert result.value is None and result.witness is None

    def test_empty_graph(self):
        assert exact_chromatic(build_graph(0, []), 3).value == 0

    def test_nodes_explored_deterministic(self, icosahedron):
        a = exact_chromatic(square(icosahedron), 10)
        b = exact_chromatic(square(icosahedron), 10)
        assert a.nodes_explored == b.nodes_explored

    def test_nodes_explored_pinned(self, icosahedron):
        # Fixed by the branching rule (most saturated, ties to the lowest
        # index, new colors in order), not by how saturation is kept.
        ico = exact_chromatic(square(icosahedron), 10)
        assert (ico.value, ico.nodes_explored) == (6, 13)
        assert ico.witness.colors == (0, 1, 2, 3, 4, 5, 3, 4, 5, 1, 2, 0)
        c13 = exact_chromatic(square(cycle(13)), 13)
        assert (c13.value, c13.nodes_explored) == (4, 27)
        assert c13.witness.colors == (0, 1, 2) * 4 + (3,)

    def test_value_certified_by_exhaustion_below(self, icosahedron):
        # One fewer color admits no proper coloring: search at value-1
        # exhausts rather than timing out.
        assert exact_chromatic(square(cycle(7)), 3).value is None
        assert exact_chromatic(square(icosahedron), 5).value is None

    def test_node_limit(self):
        g = square(cycle(13))
        with pytest.raises(NodeLimitExceeded):
            exact_chromatic(g, 13, node_limit=3)

    @given(tiny_graphs())
    @settings(deadline=None, max_examples=40)
    def test_matches_assignment_enumeration(self, g):
        expected = brute_chromatic_tiny(g)
        result = exact_chromatic(g, 8)
        assert result.value == expected
        if result.value is not None and g.n:
            assert result.witness.palette_size == result.value


def test_oracle_imports_only_errors_and_graph():
    # The oracle checks the engine, so it may not share the engine's code.
    modules = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    inside = {m for m in modules if m.startswith(".") or m.partition(".")[0] == "clawsq"}
    assert inside == {".errors", ".graph"}


class TestExactStrongChromaticIndex:
    def test_k4_conflictgraph_complete(self):
        result = exact_strong_chromatic_index(complete(4), 10)
        assert result.value == 6

    def test_sharp_blowup_is_ten(self):
        f = gen_blowup_c5(BlowupSpec((1, 1, 1, 2, 2)))
        assert exact_strong_chromatic_index(f, 12).value == 10

    def test_full_blowup_is_twenty(self):
        f = gen_blowup_c5(BlowupSpec((2, 2, 2, 2, 2)))
        assert exact_strong_chromatic_index(f, 25).value == 20

    def test_petersen_regression(self, petersen_graph):
        # Frozen on first run of this oracle; the Petersen graph admits a
        # partition of its 15 edges into 5 induced matchings.
        assert exact_strong_chromatic_index(petersen_graph, 15).value == 5


class TestBruteForceClawFree:
    def test_claw(self):
        assert not brute_force_claw_free(claw())

    def test_c5(self):
        assert brute_force_claw_free(cycle(5))

    def test_line_k4(self):
        lg, _ = gen_line_graph(complete(4))
        assert brute_force_claw_free(lg)

    def test_agreement_with_find_claw_on_seeded_graphs(self):
        rng = random.Random(987654321)
        for _ in range(1000):
            n = rng.randint(1, 16)
            p = rng.choice((0.1, 0.2, 0.35, 0.5, 0.75))
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < p
            ]
            g = build_graph(n, edges)
            assert brute_force_claw_free(g) == (find_claw(g) is None)
