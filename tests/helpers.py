"""Brute-force reference implementations the tests check library code against.

Everything here recomputes from first principles (BFS, subset enumeration,
assignment enumeration) and deliberately shares no code path with the
library routines it validates.
"""

from collections import deque
from itertools import combinations, product

from clawsq.graph import bits, induced_subgraph
from clawsq.structure import (
    SHAPE_CLIQUE_PAIR,
    SHAPE_CLIQUE_PAIR_PLUS_EDGES,
    SHAPE_FIVE_CYCLE,
    SHAPE_OTHER,
    SHAPE_TWO_DISJOINT_EDGES,
    NeighborhoodShape,
)


def bfs_distances(g, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def brute_square_degree(g, v):
    dist = bfs_distances(g, v)
    return sum(1 for u, d in dist.items() if u != v and d <= 2)


def brute_max_clique(g):
    """Largest clique size by subset enumeration, growing until none exists."""
    best = 0
    for size in range(1, g.n + 1):
        if not any(
            all(g.has_edge(u, v) for u, v in combinations(subset, 2))
            for subset in combinations(range(g.n), size)
        ):
            break
        best = size
    return best


def greedy_clique(g):
    """Clique grown greedily from each start vertex; a lower bound only."""
    best = 0
    for start in range(g.n):
        clique = [start]
        for v in range(g.n):
            if v != start and all(g.has_edge(v, u) for u in clique):
                clique.append(v)
        best = max(best, len(clique))
    return best


def brute_chromatic_tiny(g, max_colors=8):
    """Minimum palette by enumerating every assignment; only for tiny graphs."""
    if g.n == 0:
        return 0
    edges = list(g.edges())
    for k in range(1, max_colors + 1):
        for assignment in product(range(k), repeat=g.n):
            if all(assignment[u] != assignment[v] for u, v in edges):
                return k
    return None


def has_claw_triples(g):
    """Claw presence by checking every center and leaf triple."""
    for v in range(g.n):
        for x, y, z in combinations(g.neighbors(v), 3):
            if not (g.has_edge(x, y) or g.has_edge(x, z) or g.has_edge(y, z)):
                return True
    return False


def _mask_is_clique(g, mask):
    for v in bits(mask):
        if g._adj[v] & mask != mask & ~(1 << v):
            return False
    return True


def _is_five_cycle(g):
    return (
        g.n == 5
        and g.edge_count == 5
        and all(g.degree(v) == 2 for v in range(5))
        and len(bfs_distances(g, 0)) == 5
    )


def brute_neighborhood_shape(g, v):
    """Neighborhood shape by trying all 2^(h-1) splits of an h-vertex N(v)."""
    nbrs = g.neighbors(v)
    h = len(nbrs)
    if h == 0:
        return NeighborhoodShape(SHAPE_CLIQUE_PAIR, (frozenset(), frozenset()))
    sub, old = induced_subgraph(g, nbrs)
    if _is_five_cycle(sub):
        return NeighborhoodShape(SHAPE_FIVE_CYCLE, None)

    full = (1 << h) - 1
    best_k = None
    best_partitions = []
    # Fix vertex 0 inside part A so each unordered split is seen once.
    for half in range(1 << (h - 1)):
        a_mask = (half << 1) | 1
        b_mask = full ^ a_mask
        if not _mask_is_clique(sub, a_mask) or not _mask_is_clique(sub, b_mask):
            continue
        k = sum((sub._adj[i] & b_mask).bit_count() for i in bits(a_mask))
        if best_k is None or k < best_k:
            best_k = k
            best_partitions = [a_mask]
        elif k == best_k:
            best_partitions.append(a_mask)

    if best_k is None:
        return NeighborhoodShape(SHAPE_OTHER, None)
    if len(best_partitions) > 1:
        return NeighborhoodShape(SHAPE_OTHER, None, ambiguous=True)
    if best_k > 2:
        return NeighborhoodShape(SHAPE_OTHER, None)

    a_mask = best_partitions[0]
    b_mask = full ^ a_mask
    crosses = tuple(
        sorted(
            tuple(sorted((old[i], old[j])))
            for i in bits(a_mask)
            for j in bits(sub._adj[i] & b_mask)
        )
    )
    if best_k == 2:
        (p1, q1), (p2, q2) = crosses
        if {p1, q1} & {p2, q2}:
            return NeighborhoodShape(SHAPE_OTHER, None)
    part_a = frozenset(old[i] for i in bits(a_mask))
    part_b = frozenset(old[i] for i in bits(b_mask))
    parts = tuple(sorted((part_a, part_b), key=lambda p: (len(p), sorted(p))))
    if best_k == 0:
        kind = (
            SHAPE_TWO_DISJOINT_EDGES
            if (len(part_a), len(part_b)) in ((2, 2),)
            else SHAPE_CLIQUE_PAIR
        )
        return NeighborhoodShape(kind, parts)
    return NeighborhoodShape(SHAPE_CLIQUE_PAIR_PLUS_EDGES, parts, crosses)
