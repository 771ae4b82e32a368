"""Immutable simple graphs with bitmask adjacency rows, plus distance-2 helpers.

Vertices are dense 0-based indices; external formats are 1-based and get
translated at the I/O boundary. Adjacency rows are Python ints used as
bitsets, so graphs of any order work without a separate fallback
representation. Vertex sets travel as plain frozensets.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import (
    DuplicateEdgeError,
    SelfLoopError,
    SizeMismatchError,
    VertexOutOfRangeError,
)

UNCOLORED = -1


def bits(mask: int) -> Iterator[int]:
    """Yield the positions of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Undirected simple graph on vertices ``0..n-1``, immutable after construction.

    Use :func:`build_graph` to construct one with validation; the raw
    constructor trusts its arguments.
    """

    __slots__ = ("n", "edge_count", "_adj")

    def __init__(self, n: int, adj: tuple[int, ...], edge_count: int):
        self.n = n
        self._adj = adj
        self.edge_count = edge_count

    def check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexOutOfRangeError(f"vertex {v} not in range 0..{self.n - 1}")

    def adjacency_mask(self, v: int) -> int:
        """Neighbors of ``v`` as a bitmask."""
        self.check_vertex(v)
        return self._adj[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.adjacency_mask(v)))

    def degree(self, v: int) -> int:
        return self.adjacency_mask(v).bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return bool(self._adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as ordered pairs ``(u, v)`` with ``u < v``."""
        for u in range(self.n):
            high = self._adj[u] >> (u + 1) << (u + 1)
            for v in bits(high):
                yield (u, v)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self):
        return hash((self.n, self._adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from a vertex count and unordered index pairs.

    Rejects out-of-range indices, self-loops and duplicate pairs (in either
    orientation).
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    adj = [0] * n
    count = 0
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRangeError(f"edge ({u}, {v}) not in range 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if adj[u] >> v & 1:
            raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        count += 1
    return Graph(n, tuple(adj), count)


def square_row(g: Graph, v: int) -> int:
    """Neighbors of ``v`` in the square of g, as a bitmask."""
    first = g._adj[v]
    row = first
    for u in bits(first):
        row |= g._adj[u]
    return row & ~(1 << v)


def square(g: Graph) -> Graph:
    """Graph on the same vertices with edges between pairs at distance 1 or 2."""
    rows = tuple(square_row(g, v) for v in range(g.n))
    return Graph(g.n, rows, sum(row.bit_count() for row in rows) // 2)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``vertices`` plus the new-to-old index map."""
    old = sorted(set(vertices))
    for v in old:
        g.check_vertex(v)
    position = {v: i for i, v in enumerate(old)}
    rows = []
    total = 0
    for v in old:
        row = 0
        for u in bits(g._adj[v]):
            if u in position:
                row |= 1 << position[u]
        rows.append(row)
        total += row.bit_count()
    return Graph(len(old), tuple(rows), total // 2), tuple(old)


# The engine's peel loop calls delete_vertex once per peeled vertex, and
# perfbench counts peels by those calls.
def delete_vertex(g: Graph, v: int) -> Graph:
    """Graph with ``v`` removed and higher indices shifted down by one.

    Every row is shifted in one pass and v's own row dropped; the edge count
    falls by deg(v), so it is taken from g's rather than recounted.
    """
    g.check_vertex(v)
    low = (1 << v) - 1
    high = v + 1
    rows = [(mask & low) | (mask >> high) << v for mask in g._adj]
    del rows[v]
    return Graph(g.n - 1, tuple(rows), g.edge_count - g._adj[v].bit_count())


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Partition of the vertices by connectivity, ordered by smallest member."""
    seen = 0
    out = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = comp
        while frontier:
            grown = 0
            for u in bits(frontier):
                grown |= g._adj[u]
            frontier = grown & ~comp
            comp |= frontier
        seen |= comp
        out.append(frozenset(bits(comp)))
    return out


def max_degree(g: Graph) -> int:
    return max((row.bit_count() for row in g._adj), default=0)


def distance(g: Graph, u: int, v: int) -> int | None:
    """BFS distance between ``u`` and ``v``, or None when disconnected."""
    g.check_vertex(u)
    g.check_vertex(v)
    if u == v:
        return 0
    seen = 1 << u
    frontier = seen
    dist = 0
    while frontier:
        grown = 0
        for w in bits(frontier):
            grown |= g._adj[w]
        frontier = grown & ~seen
        dist += 1
        if frontier >> v & 1:
            return dist
        seen |= frontier
    return None


def max_clique(g: Graph) -> tuple[int, frozenset[int]]:
    """Exact maximum clique size with one witness."""
    size, witness = max_clique_within(g._adj, (1 << g.n) - 1)
    return size, frozenset(bits(witness))


def max_clique_within(rows, mask: int) -> tuple[int, int]:
    """Exact maximum clique inside ``mask`` of the graph with adjacency ``rows``.

    Branch and bound over bitmask candidate sets with a greedy coloring
    bound; returns the size and one witness as a mask. Deterministic, so
    the witness is stable across runs. ``rows`` are any symmetric loop-free
    bitmask rows, such as a graph's own or its complement's.
    """
    best_size = 0
    best_mask = 0

    def color_order(p_mask):
        # Greedy coloring of the candidates: bounds[i] is an upper bound on
        # any clique inside order[: i + 1].
        order = []
        bounds = []
        color = 0
        rest = p_mask
        while rest:
            color += 1
            cand = rest
            while cand:
                low = cand & -cand
                v = low.bit_length() - 1
                cand &= ~(rows[v] | low)
                rest ^= low
                order.append(v)
                bounds.append(color)
        return order, bounds

    def expand(r_size, r_mask, p_mask):
        nonlocal best_size, best_mask
        if not p_mask:
            if r_size > best_size:
                best_size = r_size
                best_mask = r_mask
            return
        order, bounds = color_order(p_mask)
        for i in range(len(order) - 1, -1, -1):
            if r_size + bounds[i] <= best_size:
                return
            v = order[i]
            vb = 1 << v
            expand(r_size + 1, r_mask | vb, p_mask & rows[v])
            p_mask &= ~vb

    expand(0, 0, mask)
    return best_size, best_mask


class Coloring:
    """Assignment of color indices to vertices ``0..n-1``.

    Entries equal to :data:`UNCOLORED` mark vertices not yet colored; a
    finished coloring has none.
    """

    __slots__ = ("colors",)

    def __init__(self, colors: Iterable[int]):
        self.colors = tuple(colors)

    def __len__(self):
        return len(self.colors)

    def __eq__(self, other):
        if not isinstance(other, Coloring):
            return NotImplemented
        return self.colors == other.colors

    def __hash__(self):
        return hash(self.colors)

    def __repr__(self):
        return f"Coloring(palette={self.palette_size}, n={len(self.colors)})"

    @property
    def palette_size(self) -> int:
        return max((c for c in self.colors if c != UNCOLORED), default=-1) + 1

    def is_total(self) -> bool:
        return UNCOLORED not in self.colors

    def is_proper_on(self, g: Graph) -> bool:
        """True when this is a total proper coloring of ``g``."""
        if len(self.colors) != g.n:
            raise SizeMismatchError(
                f"coloring has {len(self.colors)} entries for a {g.n}-vertex graph"
            )
        if not self.is_total():
            return False
        classes: dict[int, int] = {}
        for v, c in enumerate(self.colors):
            classes[c] = classes.get(c, 0) | 1 << v
        return not any(g._adj[v] & classes[c] for v, c in enumerate(self.colors))

    def compacted(self) -> "Coloring":
        """Renumber the colors actually used to ``0..k-1``, keeping order."""
        used = sorted({c for c in self.colors if c != UNCOLORED})
        remap = {c: i for i, c in enumerate(used)}
        remap[UNCOLORED] = UNCOLORED
        return Coloring(remap[c] for c in self.colors)
