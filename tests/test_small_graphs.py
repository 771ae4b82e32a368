"""Every labelled graph on at most five vertices, 1 100 graphs in all.

A claw-free graph must get a proper square coloring between χ(G²) and
palette_bound(ω), every lemma report must hold, and ``classify`` must place
each component of clique number 3 or 4. A graph with a claw must be
refused with ``find_claw``'s witness, and ``find_claw`` must agree with
the definition-level check on every graph. Clique numbers, squares and
properness come from the brute-force references in ``helpers``.
"""

from collections import Counter
from itertools import combinations

import pytest

from clawsq.analysis import find_claw, run_lemma_suite
from clawsq.coloring import color_square, palette_bound
from clawsq.errors import NotClawFreeError
from clawsq.graph import build_graph, connected_components, induced_subgraph, square
from clawsq.oracle import brute_force_claw_free, exact_chromatic
from clawsq.structure import classify

from helpers import brute_is_proper, brute_max_clique, brute_square

# n -> (claw-free labelled graphs, their histogram of palette - χ(G²),
# components of clique number 3 or 4 classified); at n <= 5 every one of
# those components has a reducible vertex.
EXPECTED = {
    0: (1, {0: 1}, 0),
    1: (1, {0: 1}, 0),
    2: (2, {0: 2}, 0),
    3: (8, {0: 8}, 1),
    4: (60, {0: 60}, 23),
    5: (769, {0: 756, 1: 13}, 535),
}


def labelled_graphs(n):
    """Every graph on vertices 0..n-1, one per edge subset."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])


def test_count():
    assert sum(1 << n * (n - 1) // 2 for n in EXPECTED) == 1100


@pytest.mark.parametrize("n", sorted(EXPECTED))
def test_every_labelled_graph(n):
    gaps = Counter()
    classified = 0
    for g in labelled_graphs(n):
        witness = find_claw(g)
        assert (witness is None) == brute_force_claw_free(g)
        if witness is not None:
            with pytest.raises(NotClawFreeError) as refused:
                color_square(g)
            assert refused.value.witness == witness
            continue
        coloring = color_square(g)
        palette = coloring.palette_size
        chromatic = exact_chromatic(square(g), palette).value
        assert chromatic <= palette <= palette_bound(brute_max_clique(g))
        assert brute_is_proper(brute_square(g), coloring.colors)
        assert all(report.holds for report in run_lemma_suite(g))
        for comp in connected_components(g):
            sub, _ = induced_subgraph(g, comp)
            omega = brute_max_clique(sub)
            if omega in (3, 4):
                classify(sub, omega)
                classified += 1
        gaps[palette - chromatic] += 1
    assert (sum(gaps.values()), dict(gaps), classified) == EXPECTED[n]
