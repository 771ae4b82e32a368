"""Independent exact solvers used to validate the engine and derive constants.

The chromatic solver here shares no search code with the coloring engine:
it builds squares and line graphs through the graph primitives and runs its
own branch and bound, so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from .errors import DEFAULT_NODE_LIMIT, NodeLimitExceeded
from .graph import UNCOLORED, Coloring, Graph, bits, build_graph, max_clique, square


@dataclass
class ExactResult:
    """Outcome of an exact search; value None means the optimum exceeds ``upper``."""

    value: int | None
    witness: Coloring | None
    nodes_explored: int
    elapsed: float


class _NodeBudget:
    __slots__ = ("used", "limit")

    def __init__(self, limit):
        self.used = 0
        self.limit = limit

    def spend(self):
        self.used += 1
        if self.used > self.limit:
            raise NodeLimitExceeded(f"gave up after {self.limit} nodes")


def _decide_k_colorable(g: Graph, k: int, budget: _NodeBudget) -> list[int] | None:
    """Proper k-coloring of g, or None when exhaustive search rules one out.

    Branches on the most saturated uncolored vertex (ties to the lowest
    index) and introduces new colors in order, so node counts are
    reproducible across runs.
    """
    n = g.n
    if n == 0:
        return []
    if k <= 0:
        return None
    colors = [UNCOLORED] * n

    def saturation(u):
        return len({colors[w] for w in bits(g._adj[u]) if colors[w] != UNCOLORED})

    # One frame per colored vertex: the vertex, the colors still to try on
    # it, and the palette in use before it. Each descent spends one node.
    stack = []
    used = 0
    while True:
        budget.spend()
        v = None
        v_key = None
        for u in range(n):
            if colors[u] != UNCOLORED:
                continue
            key = (saturation(u), -u)
            if v is None or key > v_key:
                v, v_key = u, key
        if v is None:
            return colors
        taken = {colors[w] for w in bits(g._adj[v]) if colors[w] != UNCOLORED}
        options = iter([c for c in range(min(used + 1, k)) if c not in taken])
        stack.append((v, options, used))
        while stack:
            v, options, used = stack[-1]
            c = next(options, None)
            if c is not None:
                colors[v] = c
                used = max(used, c + 1)
                break
            colors[v] = UNCOLORED
            stack.pop()
        else:
            return None


def exact_chromatic(g: Graph, upper: int, node_limit: int = DEFAULT_NODE_LIMIT) -> ExactResult:
    """Exact chromatic number of g when it is at most ``upper``.

    Seeds the search with the maximum clique as a lower bound and tries
    increasing palette sizes; each success certifies the value because the
    previous size was exhausted (or matched the clique bound).
    """
    start = time.perf_counter()
    budget = _NodeBudget(node_limit)
    lower = max_clique(g)[0]
    if g.n > 0:
        lower = max(lower, 1)
    value = None
    witness = None
    for k in range(lower, upper + 1):
        found = _decide_k_colorable(g, k, budget)
        if found is not None:
            value = k
            witness = Coloring(found)
            break
    return ExactResult(value, witness, budget.used, time.perf_counter() - start)


def line_graph_of(f: Graph) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """Line graph of f plus the edge list indexing its vertices."""
    edges = tuple(sorted(f.edges()))
    position = {e: i for i, e in enumerate(edges)}
    pairs = []
    for u in range(f.n):
        incident = sorted(
            position[(min(u, w), max(u, w))] for w in bits(f._adj[u])
        )
        pairs.extend(combinations(incident, 2))
    return build_graph(len(edges), sorted(set(pairs))), edges


# Kept as the independent reference that pins the strong chromatic indices
# behind the palette bounds: 10 at maximum degree 3, 20 for the C5 blow-up.
def exact_strong_chromatic_index(
    f: Graph, upper: int, node_limit: int = DEFAULT_NODE_LIMIT
) -> ExactResult:
    """Exact least palette for a strong edge coloring of f (up to ``upper``).

    Definitional route: build the line graph, square it, and solve the
    vertex coloring exactly.
    """
    lg, _ = line_graph_of(f)
    return exact_chromatic(square(lg), upper, node_limit)


def brute_force_claw_free(g: Graph) -> bool:
    """Definition-level claw check: every center and leaf triple, no shortcuts."""
    for v in range(g.n):
        nbrs = g.neighbors(v)
        for x, y, z in combinations(nbrs, 3):
            if not (g.has_edge(x, y) or g.has_edge(x, z) or g.has_edge(y, z)):
                return False
    return True
