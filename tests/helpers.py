"""Brute-force reference implementations the tests check library code against.

Everything here recomputes from first principles (BFS, subset enumeration,
assignment enumeration, all-pairs scans) and deliberately shares no code
path with the library routines it validates. Where the library replaced a
simple routine with a faster one, the simple one lives on here unchanged.
Also here: the girth-5 base-case stress family, a cubic root whose base
step backtracks, the peeling scaling family, seeded circular-interval
graphs, complements of triangle-free graphs and ``K2 ∨ (K_s + K_t)``,
the omega sweep of the lemma suite, relabelings and disjoint unions, the
coloring digest the golden file uses, the exact strong chromatic index
through the squared line graph, a call recorder for the tests that pin
how often a fact is checked, and a deliberately broken recoloring step.
"""

import hashlib
import random
import sys
from collections import Counter, deque
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from clawsq import graph
from clawsq.analysis import (
    LemmaReport,
    _second_degree_cap,
    q_value,
    ramsey_bound,
    z_set,
)
from clawsq.coloring import (
    _color_base_components,
    _cycle_pattern,
    _lowest,
    _match_distinct,
    _path_pattern,
    palette_bound,
)
from clawsq.corpus import cocktail_party, gen_line_graph, gen_random_claw_free, squared_cycle
from clawsq.errors import (
    DEFAULT_NODE_LIMIT,
    InternalBoundViolation,
    InvalidPartitionError,
    NodeLimitExceeded,
    NotNeighborError,
    NotSmallOmegaError,
)
from clawsq.graph import (
    UNCOLORED,
    Coloring,
    Graph,
    bits,
    build_graph,
    connected_components,
    induced_subgraph,
    max_clique,
    max_degree,
    square,
    square_row,
)
from clawsq.oracle import exact_chromatic
from clawsq.structure import NeighborhoodShape, RootGraph, find_reducible_vertex


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


def brute_square(g):
    """Square of g from a BFS at every vertex: the pairs at distance 1 or 2."""
    return build_graph(
        g.n,
        [(u, w) for u in range(g.n) for w, d in bfs_distances(g, u).items() if u < w and d <= 2],
    )


def brute_is_clique(g, vertices):
    """True when every pair of the given vertices is an edge of g."""
    return all(g.has_edge(u, v) for u, v in combinations(sorted(set(vertices)), 2))


def brute_complement(g):
    """Complement of g on the same vertices, by testing every pair."""
    pairs = combinations(range(g.n), 2)
    return build_graph(g.n, [(u, v) for u, v in pairs if not g.has_edge(u, v)])


def brute_exterior(g, v, w):
    """Neighbors of ``w`` outside the closed neighborhood of ``v``."""
    return frozenset(x for x in g.neighbors(w) if x != v and not g.has_edge(v, x))


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


def brute_neighborhood_shape(g, v):
    """Neighborhood shape by trying all 2^(h-1) splits of an h-vertex N(v)."""
    nbrs = g.neighbors(v)
    h = len(nbrs)
    if h == 0:
        return NeighborhoodShape((frozenset(), frozenset()))
    sub, old = induced_subgraph(g, nbrs)

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
        return NeighborhoodShape(None)
    if len(best_partitions) > 1:
        return NeighborhoodShape(None, ambiguous=True)
    if best_k > 2:
        return NeighborhoodShape(None)

    a_mask = best_partitions[0]
    b_mask = full ^ a_mask
    if best_k == 2:
        (p1, q1), (p2, q2) = [(i, j) for i in bits(a_mask) for j in bits(sub._adj[i] & b_mask)]
        if {p1, q1} & {p2, q2}:
            return NeighborhoodShape(None)
    part_a = frozenset(old[i] for i in bits(a_mask))
    part_b = frozenset(old[i] for i in bits(b_mask))
    return NeighborhoodShape(tuple(sorted((part_a, part_b), key=lambda p: (len(p), sorted(p)))))


# The frozenset Krausz partition the library replaced with masks, and root
# recovery as the library did it before, here on the enumerating
# neighborhood shape and the pairwise line-graph check, so comparing the two
# checks all three.
def brute_root_graph(g, partition):
    """Root graph from a Krausz partition through per-vertex clique lists.

    Raises InvalidPartitionError on a duplicate clique, a clique of fewer
    than two vertices, a vertex in more than two cliques, two vertices with
    the same pair of cliques, or a line graph of the result that is not g.
    """
    given = [frozenset(c) for c in partition]
    cliques = sorted(set(given), key=sorted)
    if len(cliques) != len(given):
        raise InvalidPartitionError("duplicate cliques in partition")
    membership = [[] for _ in range(g.n)]
    for i, c in enumerate(cliques):
        if len(c) < 2:
            raise InvalidPartitionError("cliques in the partition need at least two vertices")
        for u in c:
            g.check_vertex(u)
            membership[u].append(i)
    next_aux = len(cliques)
    edge_of_vertex = []
    for v in range(g.n):
        owners = membership[v]
        if len(owners) > 2:
            raise InvalidPartitionError("a vertex belongs to more than two cliques")
        if len(owners) == 2:
            e = (owners[0], owners[1])
        elif len(owners) == 1:
            e = (owners[0], next_aux)
            next_aux += 1
        else:
            e = (next_aux, next_aux + 1)
            next_aux += 2
        edge_of_vertex.append(tuple(sorted(e)))
    if len(set(edge_of_vertex)) != g.n:
        raise InvalidPartitionError("two vertices share the same pair of cliques")
    if line_graph_mismatch(g, edge_of_vertex):
        raise InvalidPartitionError("line graph reconstruction mismatch")
    return RootGraph(build_graph(next_aux, edge_of_vertex), tuple(edge_of_vertex))


def brute_krausz_root(g, omega):
    """(cliques, root) when the designated cliques of g form a Krausz partition, else None.

    Designates, for every vertex, the union of the vertex with each of its
    two covering cliques, as frozensets, sorted by their sorted members.
    None when some neighborhood has no covering pair, a clique would exceed
    omega vertices, or :func:`brute_root_graph` rejects the family.
    """
    designated = set()
    for v in range(g.n):
        shape = brute_neighborhood_shape(g, v)
        if shape.parts is None:
            return None
        for part in shape.parts:
            if not part:
                continue
            if len(part) > omega - 1:
                return None
            designated.add(part | {v})
    cliques = sorted(designated, key=sorted)
    try:
        return cliques, brute_root_graph(g, cliques)
    except InvalidPartitionError:
        return None


def random_graph(rng, n, p):
    """G(n, p) drawn from ``rng``."""
    return build_graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


def girth(n, edges):
    """Length of a shortest cycle by BFS from every vertex; None for a forest."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    best = None
    for s in range(n):
        dist = {s: 0}
        parent = {s: None}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    length = dist[u] + dist[w] + 1
                    if best is None or length < best:
                        best = length
    return best


def _on_short_cycle(adj, u, v):
    """True when uv is a loop, a repeated edge, or lies on a cycle of length 3 or 4."""
    if u == v or adj[u].count(v) > 1:
        return True
    # A cycle of length <= 4 through uv is a u-v path of length <= 3 avoiding uv.
    near = set(adj[u]) - {v}
    for _ in range(2):
        if v in near:
            return True
        near |= {w for x in near for w in adj[x] if w != u}
    return v in near


def regular_root_girth5(n, d, seed):
    """Edges of a random d-regular simple graph on n vertices with girth >= 5.

    Pairs the n*d half-edges at random, then repeatedly switches a bad edge
    (a loop, a repeat, or one on a 3- or 4-cycle) and a random other edge
    for two new edges, keeping the switch only when neither new edge is
    bad. A kept switch adds no short cycle, so the count of bad edges falls
    and the loop ends; draws that end disconnected are redrawn.
    """
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        while True:
            bad = [i for i, (u, v) in enumerate(edges) if _on_short_cycle(adj, u, v)]
            if not bad:
                break
            i = rng.choice(bad)
            j = rng.randrange(len(edges))
            (u, v), (x, y) = edges[i], edges[j]
            if j == i or {u, v} & {x, y}:
                continue
            if rng.random() < 0.5:
                x, y = y, x
            for a, b in ((u, v), (x, y)):
                adj[a].remove(b)
                adj[b].remove(a)
            for a, b in ((u, x), (v, y)):
                adj[a].append(b)
                adj[b].append(a)
            if _on_short_cycle(adj, u, x) or _on_short_cycle(adj, v, y):
                for a, b in ((u, x), (v, y)):
                    adj[a].remove(b)
                    adj[b].remove(a)
                for a, b in ((u, v), (x, y)):
                    adj[a].append(b)
                    adj[b].append(a)
                continue
            edges[i], edges[j] = (u, x), (v, y)
        if len(bfs_distances(build_graph(n, edges), 0)) == n:
            return sorted((min(u, v), max(u, v)) for u, v in edges)


# (name, root vertices, root degree, seed): line graphs of 120 to 200
# vertices in which no vertex is reducible, so color_square goes straight
# to the strong edge coloring of the recovered root.
STRESS_FAMILY = (
    ("cubic-80", 80, 3, 1),
    ("cubic-120", 120, 3, 2),
    ("quartic-60", 60, 4, 3),
    ("quartic-100", 100, 4, 4),
)


def stress_instances():
    """(name, root degree, root edges, line graph) for every STRESS_FAMILY entry."""
    out = []
    for name, n, d, seed in STRESS_FAMILY:
        edges = regular_root_girth5(n, d, seed)
        g, _ = gen_line_graph(build_graph(n, edges))
        out.append((name, d, edges, g))
    return out


def scaling_instances():
    """(name, graph) for the peeling scaling family and two base-case pins.

    Random line graphs with clique number 3 and 4 and a squared cycle, on 200
    and on 1600 vertices, every one of which peels through the inductive
    engine; then the line graphs of a 4-regular girth-5 root on 800
    vertices (n = 1600) and of a 3-regular one on 1068 vertices (n = 1602),
    in which nothing peels, so root recovery and the strong edge coloring
    search run on masks of about 1600 bits.
    """
    out = [
        (f"random-w{omega}-n200-s{seed}", gen_random_claw_free(200, omega, seed))
        for omega in (3, 4)
        for seed in (1, 2)
    ]
    out.append(("squared-cycle-n200", squared_cycle(200)))
    out += [
        (f"random-w{omega}-n1600-s1", gen_random_claw_free(1600, omega, 1))
        for omega in (3, 4)
    ]
    out.append(("squared-cycle-n1600", squared_cycle(1600)))
    out += [(name, gen_line_graph(f)[0]) for name, f in base_pin_roots()]
    return out


@lru_cache(maxsize=None)
def base_pin_roots():
    """(name, root) for the 4-regular girth-5 root on 800 vertices and the 3-regular one on 1068.

    The names carry the edge count, the vertex count of the line graph.
    """
    return tuple(
        (f"base-{name}-girth5-n{n * d // 2}-s1", build_graph(n, regular_root_girth5(n, d, 1)))
        for n, d, name in ((800, 4, "quartic"), (1068, 3, "cubic"))
    )


def backtracking_base_root():
    """A cubic root whose line graph reaches the base step, where the search backtracks.

    Drawn from connected random cubic roots (configuration model with
    rejection, seed 1). Its 24-vertex line graph has no reducible vertex,
    and the strong edge search on the recovered root needs 3 524 nodes to
    fit 10 colours; its first descent, 25 nodes, uses 11.
    """
    return build_graph(16, [
        (0, 1), (0, 4), (0, 7), (1, 8), (1, 13), (2, 4), (2, 6), (2, 7), (3, 4), (3, 8),
        (3, 15), (5, 10), (5, 11), (5, 14), (6, 14), (6, 15), (7, 12), (8, 11), (9, 10),
        (9, 11), (9, 14), (10, 12), (12, 13), (13, 15),
    ])


def chain(k):
    """k copies of :func:`backtracking_base_root`, each cut at edge (2, 6), joined in a ring.

    Copy i is shifted by 16·i, and vertex 6 of copy i is joined to vertex 2
    of copy i+1 (mod k), so the root stays cubic and connected and its line
    graph has 24k vertices. For k = 4 and 5 that line graph has no
    reducible vertex, so color_square's work is all the base step, where
    the strong edge search needs over a million nodes.
    """
    copy = [e for e in backtracking_base_root().edges() if e != (2, 6)]
    edges = [(u + 16 * i, v + 16 * i) for i in range(k) for u, v in copy]
    edges += [(6 + 16 * i, 2 + 16 * ((i + 1) % k)) for i in range(k)]
    return build_graph(16 * k, edges)


def circular_interval_graph(n, seed):
    """A seeded circular-interval graph on ``n`` points, for 2 <= n <= 40.

    The points 0..n-1 sit on a circle in order, and n arcs of 1 to
    ``longest`` consecutive points are drawn, ``longest`` being 2 to 6 and
    below n; two points are adjacent when some arc holds both. The points
    of N(v) on each side of v lie in the arc through v that reaches
    furthest that way, so two cliques cover N(v) and the graph is
    claw-free.
    """
    rng = random.Random(seed)
    longest = min(rng.randint(2, 6), n - 1)
    edges = set()
    for _ in range(n):
        start, size = rng.randrange(n), rng.randint(1, longest)
        arc = sorted((start + i) % n for i in range(size))
        edges.update(combinations(arc, 2))
    return build_graph(n, sorted(edges))


def triangle_free_complement(n, seed):
    """The complement of a seeded triangle-free graph on ``n`` vertices, for n <= 20.

    The pairs are offered in random order, each kept with one probability
    drawn per graph unless it closes a triangle. The complement of a
    triangle-free graph has no independent triple, so it is claw-free, and
    its clique number is the independence number of the triangle-free
    graph.
    """
    rng = random.Random(seed)
    keep = rng.random()
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    rows = [0] * n
    for u, v in pairs:
        if rng.random() < keep and not rows[u] & rows[v]:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return build_graph(n, [(u, v) for u, v in combinations(range(n), 2) if not rows[u] >> v & 1])


def k2_join_cliques(s, t, seed=None):
    """``K2 ∨ (K_s + K_t)``: two adjacent vertices joined to two disjoint cliques.

    Without a seed the K2 is {0, 1}, K_s is 2..s+1 and K_t the rest;
    with one, the labels are shuffled by it. N(x) for x in the K2 is the
    other end plus K_s + K_t, so it holds no independent triple, and every
    other neighborhood is a clique: the graph is claw-free, with clique
    number 2 + max(s, t), and q over the K2 is min(s, t).
    """
    n = s + t + 2
    label = list(range(n))
    if seed is not None:
        random.Random(seed).shuffle(label)
    cliques = (range(2, s + 2), range(s + 2, n))
    edges = [(0, 1)] + [(x, y) for x in (0, 1) for y in range(2, n)]
    edges += [pair for clique in cliques for pair in combinations(clique, 2)]
    return build_graph(n, [(label[x], label[y]) for x, y in edges])


def lemma_sweep_instances():
    """(name, graph, omega) for the lemma suite at every omega from 2 to the clique number.

    Seeded random line graphs with clique number 5 and the cocktail parties
    K_{k x 2} for k <= 10. At its own clique number no vertex of these
    graphs reaches degree 2*omega - 1, so the smaller omegas are what run the
    saturation, half-degree, matching-weighted and square-degree-cap reports.
    """
    graphs = [(f"random-w5-n60-s{seed}", gen_random_claw_free(60, 5, seed)) for seed in (1, 2, 3)]
    graphs += [(f"cocktail-{k}x2", cocktail_party(k)) for k in range(2, 11)]
    return [
        (f"{name}-omega{omega}", g, omega)
        for name, g in graphs
        for omega in range(2, max_clique(g)[0] + 1)
    ]


def coloring_digest(colors):
    """sha256 of a color sequence written as comma-separated decimals."""
    return hashlib.sha256(",".join(map(str, colors)).encode()).hexdigest()


def brute_edge_conflict_graph(f):
    """Edge conflict graph of f by testing every pair of edges."""
    edges = tuple(sorted(f.edges()))
    m = len(edges)
    reach = []
    for u, v in edges:
        reach.append(f._adj[u] | f._adj[v] | (1 << u) | (1 << v))
    rows = [0] * m
    for i in range(m):
        ui, vi = edges[i]
        for j in range(i + 1, m):
            uj, vj = edges[j]
            if reach[i] >> uj & 1 or reach[i] >> vj & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(tuple(rows)), edges


# The reference that pins the strong chromatic indices behind the palette
# bounds: 10 at maximum degree 3, 20 for the C5 blow-up.
def exact_strong_chromatic_index(f, upper, node_limit=DEFAULT_NODE_LIMIT):
    """Exact least palette for a strong edge coloring of f (up to ``upper``).

    Definitional route: build the line graph, square it, and solve the
    vertex coloring exactly.
    """
    lg, _ = gen_line_graph(f)
    return exact_chromatic(square(lg), upper, node_limit)


def brute_dsatur_order_greedy(g):
    """DSATUR colors by a linear scan for the most saturated vertex at every step."""
    n = g.n
    colors = [UNCOLORED] * n
    neighbor_colors = [set() for _ in range(n)]
    for _ in range(n):
        v = max(
            (u for u in range(n) if colors[u] == UNCOLORED),
            key=lambda u: (len(neighbor_colors[u]), g.degree(u), -u),
        )
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        colors[v] = c
        for u in bits(g._adj[v]):
            if colors[u] == UNCOLORED:
                neighbor_colors[u].add(c)
    return colors


def brute_backtrack_within(g, budget, node_limit):
    """Recursive most-saturated-first backtracking; the order the library keeps."""
    n = g.n
    if n == 0:
        return []
    colors = [UNCOLORED] * n
    nodes = 0

    def pick():
        best = None
        best_key = None
        for u in range(n):
            if colors[u] != UNCOLORED:
                continue
            sat = len({colors[w] for w in bits(g._adj[u]) if colors[w] != UNCOLORED})
            key = (sat, g.degree(u), -u)
            if best is None or key > best_key:
                best, best_key = u, key
        return best

    def walk(used):
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise NodeLimitExceeded(f"gave up after {node_limit} nodes")
        v = pick()
        if v is None:
            return True
        taken = {colors[w] for w in bits(g._adj[v]) if colors[w] != UNCOLORED}
        top = min(used + 1, budget)
        for c in range(top):
            if c in taken:
                continue
            colors[v] = c
            if walk(max(used, c + 1)):
                return True
            colors[v] = UNCOLORED
        return False

    return colors if walk(0) else None


def line_graph_mismatch(g, edge_of_vertex):
    """True when some pair of vertices shares a root endpoint exactly when not adjacent in g."""
    for u in range(g.n):
        eu = set(edge_of_vertex[u])
        for w in range(u + 1, g.n):
            shares = bool(eu & set(edge_of_vertex[w]))
            if shares != g.has_edge(u, w):
                return True
    return False


def brute_is_strong_edge_coloring(sec, f):
    """Definition check of a strong edge coloring of f, over all edge pairs.

    ``sec`` must list exactly the edges of f, and any two edges that share
    an endpoint or are joined by an edge of f must carry distinct colors.
    """
    if sorted(sec.edges) != sorted(f.edges()):
        return False
    m = len(sec.edges)
    for i in range(m):
        u, v = sec.edges[i]
        for j in range(i + 1, m):
            x, y = sec.edges[j]
            touching = len({u, v} & {x, y}) > 0
            joined = f.has_edge(u, x) or f.has_edge(u, y) or f.has_edge(v, x) or f.has_edge(v, y)
            if (touching or joined) and sec.colors[i] == sec.colors[j]:
                return False
    return True


def brute_is_proper(g, colors):
    """Total and proper, by walking every edge of g."""
    if UNCOLORED in colors:
        return False
    return all(colors[u] != colors[v] for u, v in g.edges())


def brute_max_matching(adj_masks, mask, memo):
    """Maximum matching size in the graph ``adj_masks`` restricted to ``mask``.

    The library's search before its greedy-and-blossom matching:
    exhaustive, memoized on vertex masks, over the rows it is given, and
    exponential, so only for small inputs.
    """
    if mask in memo:
        return memo[mask]
    best = 0
    rest = mask
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        partners = adj_masks[i] & mask & ~low
        if partners:
            without_i = mask ^ low
            best = brute_max_matching(adj_masks, without_i, memo)
            for j in bits(partners):
                cand = 1 + brute_max_matching(adj_masks, without_i & ~(1 << j), memo)
                if cand > best:
                    best = cand
            break
        mask ^= low
        rest ^= low
    memo[mask] = best
    return best


# The subgraph-building q_value the library replaced, on its own copy of the
# matching search, so comparing the two checks the search as well.
def brute_q_value(g: Graph, v: int, w: int) -> int:
    """Matching number of the complement of w's neighborhood inside N(v).

    The reference for the library's blossom matching: the induced subgraph
    on N(v) ∩ N(w), its complement by pair scans, and the exhaustive
    :func:`brute_max_matching` on it.
    """
    if not g.has_edge(v, w):
        raise NotNeighborError(f"{w} is not a neighbor of {v}")
    common = sorted(bits(g._adj[v] & g._adj[w]))
    sub, _ = induced_subgraph(g, common)
    comp = brute_complement(sub)
    full = (1 << comp.n) - 1
    return brute_max_matching(comp._adj, full, {})


def brute_report(lemma_id, vertex, neighbor, lhs, rhs) -> LemmaReport:
    """A report from plain numbers, each side wrapped in a new Fraction."""
    return LemmaReport(lemma_id, vertex, neighbor, Fraction(lhs), Fraction(rhs))


# The subgraph-building lemma report families the library replaced, which
# evaluate every quantity once per (vertex, neighbor) orientation. They share
# max_clique's search and q_value with the library, so comparing the two
# checks the masks and the grouped sums, not the searches.
def brute_degree_reports(g: Graph, omega: int) -> list[LemmaReport]:
    r = ramsey_bound(omega)
    reports = []
    for v in range(g.n):
        deg = g.degree(v)
        reports.append(brute_report("degree-below-ramsey", v, None, deg, r - 1))
        sub, _ = induced_subgraph(g, g.neighbors(v))
        reports.append(
            brute_report("neighborhood-clique-cap", v, None, max_clique(sub)[0], omega - 1)
        )
        reports.append(
            brute_report(
                "neighborhood-stability-cap", v, None, max_clique(brute_complement(sub))[0], 2
            )
        )
    return reports


def brute_exterior_reports(g: Graph, omega: int) -> list[LemmaReport]:
    reports = []
    for v in range(g.n):
        for w in g.neighbors(v):
            ext = brute_exterior(g, v, w)
            reports.append(brute_report("exterior-size", v, w, len(ext), omega - 1))
            nonedges = sum(
                1
                for x in ext
                for y in ext
                if x < y and not g.has_edge(x, y)
            )
            reports.append(brute_report("exterior-nonedges", v, w, nonedges, 0))
    return reports


def brute_second_neighborhood_reports(g: Graph, omega: int) -> list[LemmaReport]:
    reports = []
    sq = square(g)
    worst_v = 0
    worst = 0
    for v in range(g.n):
        deg = g.degree(v)
        sqd = sq.degree(v)
        if sqd > worst:
            worst, worst_v = sqd, v
        snn = sqd - deg
        nbrs = g.neighbors(v)
        z = z_set(g, v)
        ext = {w: len(brute_exterior(g, v, w)) for w in nbrs}
        zsum = sum(
            (Fraction(ext[w], 2) if w in z else Fraction(ext[w])) for w in nbrs
        )
        reports.append(brute_report("second-neighborhood-z-sum", v, None, snn, zsum))
        reports.append(
            brute_report(
                "second-neighborhood-z",
                v,
                None,
                snn,
                (Fraction(deg) - Fraction(len(z), 2)) * (omega - 1),
            )
        )
        qs = {w: q_value(g, v, w) for w in nbrs}
        qsum = sum(Fraction(ext[w], qs[w] + 1) for w in nbrs)
        reports.append(brute_report("second-neighborhood-q-sum", v, None, snn, qsum))
        reports.append(
            brute_report(
                "second-neighborhood-q",
                v,
                None,
                snn,
                (omega - 1) * sum(Fraction(1, qs[w] + 1) for w in nbrs),
            )
        )
        if deg >= 2 * omega - 1:
            reports.append(brute_report("z-covers-neighborhood", v, None, deg, len(z)))
            reports.append(
                brute_report(
                    "half-degree-bound", v, None, snn, Fraction(deg * (omega - 1), 2)
                )
            )
            if omega >= 4:
                denom = (deg + 2) // 2 + 2 - omega  # ceil((deg+1)/2) + 2 - omega
                reports.append(
                    brute_report(
                        "matching-weighted-degree-bound",
                        v,
                        None,
                        snn,
                        Fraction(deg * (omega - 1), denom),
                    )
                )
                reports.append(
                    brute_report(
                        "square-degree-cap", v, None, sqd, _second_degree_cap(omega)
                    )
                )
    reports.append(
        brute_report("max-square-degree", worst_v, None, worst, 2 * omega * (omega - 1))
    )
    return reports


# The square-graph greedy coloring the library replaced with color classes.
def brute_trivial_greedy_square(g: Graph) -> Coloring:
    """Greedy square coloring in non-increasing square-degree order, on the square graph."""
    sq = square(g)
    order = sorted(range(g.n), key=lambda v: (-sq.degree(v), v))
    colors = [UNCOLORED] * g.n
    for v in order:
        taken = {colors[u] for u in sq.neighbors(v) if colors[u] != UNCOLORED}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return Coloring(colors)


def brute_color_small_omega(g: Graph) -> Coloring:
    """Color the square of a disjoint union of paths and cycles with at most 5 colors.

    Raises NotSmallOmegaError on a triangle or a vertex of degree 3 or more.
    The coloring is returned unverified.
    """
    if max_degree(g) > 2:
        raise NotSmallOmegaError("a vertex of degree 3 or more is present")
    colors = [UNCOLORED] * g.n
    for comp in connected_components(g):
        members = sorted(comp)
        sub, old = induced_subgraph(g, members)
        size = sub.n
        if sub.edge_count == size and size > 0:
            if size == 3:
                raise NotSmallOmegaError("a triangle is present")
            # walk the cycle starting at the lowest vertex, toward its
            # lower-numbered neighbor
            start = 0
            prev, cur = start, min(sub.neighbors(start))
            order = [start]
            while cur != start:
                order.append(cur)
                a, b = sub.neighbors(cur)
                prev, cur = cur, (b if a == prev else a)
            pattern = _cycle_pattern(size)
        else:
            ends = [v for v in range(size) if sub.degree(v) <= 1]
            start = min(ends)
            order = [start]
            prev = None
            cur = start
            while len(order) < size:
                nxt = [u for u in sub.neighbors(cur) if u != prev]
                prev, cur = cur, nxt[0]
                order.append(cur)
            pattern = _path_pattern(size)
        for pos, local in enumerate(order):
            colors[old[local]] = pattern[pos]
    return Coloring(colors)


def record_calls(monkeypatch, owner, name, log=None):
    """Wrap ``owner.name`` for the test; returns the list of each call's arguments.

    ``from .graph import square`` gives every importing module its own
    binding, so a function is wrapped on ``owner`` and under every name a
    clawsq module binds it to; a method is wrapped on its class. When
    ``log`` is given, each call also appends ``name`` to it, so several
    recorders sharing one log show the order of calls across functions.
    """
    original = getattr(owner, name)
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        if log is not None:
            log.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    if isinstance(owner, type):
        return calls
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").partition(".")[0] != "clawsq":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, recorded)
    return calls


def brute_two_disjoint_cliques(g, v):
    """Whether N(v) induces the disjoint union of at most two cliques, by pair scans."""
    classes = []
    for x in g.neighbors(v):
        home = [c for c in classes if g.has_edge(x, c[0])]
        if home:
            home[0].append(x)
        else:
            classes.append([x])
    return len(classes) <= 2 and all(
        g.has_edge(x, y) == (cx is cy)
        for cx in classes
        for cy in classes
        for x in cx
        for y in cy
        if x != y
    )


def open_edge_masks(g):
    """Counter of N(v) ∩ N(w) over the edges vw where neither N(v) nor N(w)
    is two cliques with no edge between them.

    Only these edges need a matching search for q: at such an end, the
    common neighborhood lies inside one clique, so q = 0.
    """
    split = [brute_two_disjoint_cliques(g, v) for v in range(g.n)]
    adj = g._adj
    return Counter(adj[v] & adj[w] for v, w in g.edges() if not split[v] and not split[w])


def one_color_matching(match):
    """A broken ``_match_distinct``: every vertex it matches gets the same color."""

    def broken(items, options):
        matched = match(items, options)
        if matched is None:
            return None
        return dict.fromkeys(matched, min(matched.values(), default=0))

    return broken


def relabel(g, perm):
    """g with vertex v renamed perm[v]."""
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def disjoint_union(graphs, rng=None):
    """Disjoint union of the graphs, each after the previous; labels shuffled by ``rng`` when given."""
    edges = []
    n = 0
    for part in graphs:
        edges += [(n + u, n + v) for u, v in part.edges()]
        n += part.n
    union = build_graph(n, edges)
    if rng is None:
        return union
    return relabel(union, rng.sample(range(n), n))


# The reducibility test the library replaced: the square row of each
# neighbor of v in g - v, compared against the mask of the others.
def _brute_clique_in_deleted_square(g: Graph, vertices, v: int) -> bool:
    mask = 0
    for x in vertices:
        mask |= 1 << x
    keep = ~(1 << v)
    for x in vertices:
        need = mask & ~(1 << x)
        row = first = g._adj[x] & keep
        for u in bits(first):
            row |= g._adj[u]
        if row & keep & need != need:
            return False
    return True


def brute_reduction_case(
    g: Graph, v: int, sq_rows, kprime: int, neighbor_cap: int | None = None
) -> str | None:
    """The recoloring case that makes ``v`` reducible in g: "iii", "ii" or None.

    ``sq_rows`` holds the square rows of g. A vertex qualifies when its
    square degree is at most ``kprime``, every neighbor's square degree is
    at most ``neighbor_cap`` (when given), and the neighbors above the case
    threshold form a clique in the square of g with v deleted: above
    kprime+1 for case iii; above kprime+2 for case ii, which also needs a
    neighbor of square degree at most kprime+1. Case iii wins when both
    hold.
    """
    if sq_rows[v].bit_count() > kprime:
        return None
    nbrs = [(x, sq_rows[x].bit_count()) for x in bits(g._adj[v])]
    if neighbor_cap is not None and any(d > neighbor_cap for _, d in nbrs):
        return None
    if _brute_clique_in_deleted_square(g, [x for x, d in nbrs if d > kprime + 1], v):
        return "iii"
    if any(d <= kprime + 1 for _, d in nbrs) and _brute_clique_in_deleted_square(
        g, [x for x, d in nbrs if d > kprime + 2], v
    ):
        return "ii"
    return None


# The row-by-row deletion the library replaced.
def brute_delete_vertex(g: Graph, v: int) -> Graph:
    """Graph with ``v`` removed and higher indices shifted down by one."""
    g.check_vertex(v)
    low_mask = (1 << v) - 1
    rows = []
    for u in range(g.n):
        if u == v:
            continue
        mask = g._adj[u]
        rows.append((mask & low_mask) | (mask >> (v + 1)) << v)
    return Graph(tuple(rows))


def _brute_component_reduction(cur):
    """Locate one reducible vertex in some component, or None when all are base."""
    for comp in connected_components(cur):
        if len(comp) <= 2:
            continue
        sub, old = induced_subgraph(cur, comp)
        w = max_clique(sub)[0]
        if w <= 2:
            continue
        red = find_reducible_vertex(sub, w)
        if red is not None:
            return old[red.vertex], red.case, red.kprime
    return None


def brute_reinsert_vertex(gr, v, case, kprime, after, K):
    """Reinsertion on the graph v was deleted from, with ``after`` in the deleted graph's labels."""
    colors = list(after[:v]) + [UNCOLORED] + list(after[v:])
    threshold = kprime + 2 if case == "ii" else kprime + 1
    nbrs = gr.neighbors(v)
    rows = {x: square_row(gr, x) for x in (v, *nbrs)}
    s_vertices = [x for x in nbrs if rows[x].bit_count() <= threshold]
    s_mask = 1 << v
    for s in s_vertices:
        colors[s] = UNCOLORED
        s_mask |= 1 << s
    options = []
    for s in s_vertices:
        banned = {colors[u] for u in bits(rows[s] & ~s_mask)}
        options.append([c for c in range(K + 1) if c not in banned])
    matched = _match_distinct(s_vertices, options)
    if matched is None:
        raise InternalBoundViolation(
            f"no distinct-representative recoloring for N({v}); this contradicts "
            "the reduction guarantee"
        )
    for s, c in matched.items():
        colors[s] = c
    taken = {colors[u] for u in bits(rows[v])}
    free = next((c for c in range(K + 1) if c not in taken), None)
    if free is None:
        raise InternalBoundViolation(
            f"no color left for vertex {v}; its square degree exceeds the threshold"
        )
    colors[v] = free
    return colors


def brute_peel(g):
    """Peel by recomputing components, cliques and squares at every step.

    Returns the remaining graph and one (graph, vertex, case, kprime) frame
    per peel. ``delete_vertex`` is looked up on ``clawsq.graph`` at each
    call, so ``record_calls`` sees the reference's calls as it sees the
    engine's.
    """
    frames = []
    cur = g
    while True:
        found = _brute_component_reduction(cur)
        if found is None:
            break
        v, case, kprime = found
        frames.append((cur, v, case, kprime))
        cur = graph.delete_vertex(cur, v)
    return cur, frames


def brute_greedy_reduce(g, node_limit=DEFAULT_NODE_LIMIT):
    """The inductive engine with one graph copy and a full recomputation per peel.

    The base coloring, the distinct-representative matching and the
    reducibility test are the library's; the clique number, the peel loop,
    the reinsertion and the base remainder's components with a triangle,
    with their clique numbers, are recomputed from scratch where the engine
    keeps them incrementally.
    """
    cur, frames = brute_peel(g)

    def on_clique(v, others):
        return any(brute_is_clique(cur, c) for c in combinations(cur.neighbors(v), others))

    bases = []
    seen = set()
    for v in range(cur.n):
        if v in seen:
            continue
        comp = sorted(bfs_distances(cur, v))
        seen.update(comp)
        omega = next((w for w in (4, 3) if any(on_clique(x, w - 1) for x in comp)), 2)
        if omega > 2:
            bases.append((omega, comp))
    colors = _color_base_components(cur, list(range(cur.n)), bases, node_limit)
    K = palette_bound(max_clique(g)[0]) - 1
    for gr, v, case, kprime in reversed(frames):
        colors = brute_reinsert_vertex(gr, v, case, kprime, colors, K)
    return Coloring(colors)


# The split the library replaced: a general merge of one layer-synchronous
# search per component of N(v), written for any number of sides.
def brute_pieces(adj, comp: int, nbrs: int) -> list[int]:
    """Connected pieces of ``comp``, a component that just lost a vertex with neighbors ``nbrs``.

    Every piece holds a neighbor, and neighbors joined inside ``nbrs`` share
    a piece, so one breadth-first search starts from each component of the
    neighborhood and all advance a layer at a time: searches that meet
    merge, one that runs out of frontier has found its piece, and the last
    one left owns the rest. A connected neighborhood needs no search.
    """
    sides = []
    rest = nbrs
    while rest:
        seen = frontier = _lowest(rest)
        while frontier:
            reach = 0
            for x in bits(frontier):
                reach |= adj[x]
            frontier = reach & rest & ~seen
            seen |= frontier
        sides.append((seen, seen))
        rest &= ~seen
    done = []
    while len(sides) > 1:
        grown = []
        for seen, frontier in sides:
            reach = 0
            for x in bits(frontier):
                reach |= adj[x]
            frontier = reach & ~seen
            seen |= frontier
            apart = []
            for other_seen, other_frontier in grown:
                if other_seen & seen:
                    seen |= other_seen
                    frontier |= other_frontier
                else:
                    apart.append((other_seen, other_frontier))
            grown = apart + [(seen, frontier)]
        sides = [side for side in grown if side[1]]
        done += [seen for seen, frontier in grown if not frontier]
    if sides:
        covered = 0
        for piece in done:
            covered |= piece
        done.append(comp & ~covered)
    return done
