"""Immutable simple graphs with bitmask adjacency rows, plus distance-2 helpers.

Vertices are dense 0-based indices; external formats are 1-based and get
translated at the I/O boundary. Adjacency rows are Python ints used as
bitsets, so graphs of any order work without a separate fallback
representation. Vertex sets travel as plain frozensets. Hot loops walk a
mask in place, lowest bit first (``low = m & -m``), and read one row per
bit; :func:`bits` is for callers that need the positions as a list. Each
neighborhood of a graph is read once for the claw check, the clique
numbers, the square degrees and the Krausz step: one walk over the rows of
N(v) (:func:`_cover_walk`) gives its two-clique cover and the OR of those
rows, and one builder (:func:`_build_tables`) turns that into three tables,
one small value per vertex, that :func:`neighborhood_covers`,
:func:`neighborhood_cliques` and :func:`square_degrees` return; these are
the only code that reads or writes them. Components come from one mask
search (:func:`_component_masks`). Every line graph comes from
:func:`line_graph`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .errors import (
    DuplicateEdgeError,
    SelfLoopError,
    SizeMismatchError,
    VertexOutOfRangeError,
)

UNCOLORED = -1


def bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, a list in increasing order, walked top-down.

    For callers that need the positions as a list; a loop that reads one row
    per bit walks the mask in place instead, lowest bit first.
    """
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    return out[::-1]


def reach(rows, mask: int) -> int:
    """OR of ``rows[x]`` over the set bits x of ``mask``: the neighbors of a set."""
    out = 0
    while mask:
        top = mask.bit_length() - 1
        out |= rows[top]
        mask ^= 1 << top
    return out


def split_at_lowest(rows, mask: int) -> tuple[int, int]:
    """``(A, B)`` with A = N[a] ∩ mask for the lowest vertex a of ``mask`` and B the rest.

    ``(0, 0)`` for an empty mask. When A and B are cliques they cover the
    mask, B is empty iff the mask is a clique, and edges between A and B
    may remain; :func:`cover_kind` checks which.
    """
    if not mask:
        return 0, 0
    low = mask & -mask
    side_a = (rows[low.bit_length() - 1] | low) & mask
    return side_a, mask ^ side_a


# What :func:`cover_kind` says of a mask's two-clique cover.
NO_COVER, JOINED_COVER, DISJOINT_COVER = 0, 1, 2


def cover_kind(rows, mask: int) -> int:
    """Whether the two sides :func:`split_at_lowest` gives ``mask`` cover it as cliques of ``rows``.

    NO_COVER when a side is not a clique; JOINED_COVER when both are and
    an edge joins them; DISJOINT_COVER when none does, so that the mask
    induces their disjoint union (an empty or one-clique mask included).
    The kind of :func:`_cover_walk`.
    """
    return _cover_walk(rows, mask)[0]


def _cover_walk(rows, mask: int) -> tuple[int, int, int]:
    """``(kind, A, near)``: :func:`cover_kind` of ``mask``, side A of its cover and the OR of its rows.

    One walk reads the row of every vertex of the mask once. Each side is
    walked in place: a member u is joined to the rest of its side when the
    side minus the row of u is u alone, and the rows of side B, ORed on the
    way, give the edges between the sides. The lowest vertex is joined to
    side A by its construction. After a side fails, the rows not yet read
    are ORed without a check, so ``near`` is always the neighbors of the
    whole mask; for a neighborhood N(v) that OR with N(v), less v, is v's
    square row.
    """
    if not mask:
        return DISJOINT_COVER, 0, 0
    low = mask & -mask
    near = rows[low.bit_length() - 1]
    side_a = (near | low) & mask
    side_b = mask ^ side_a
    rest = side_a ^ low
    while rest:
        bit = rest & -rest
        row = rows[bit.bit_length() - 1]
        near |= row
        rest ^= bit
        if side_a & ~row != bit:
            return NO_COVER, side_a, near | reach(rows, rest | side_b)
    joined = 0
    rest = side_b
    while rest:
        bit = rest & -rest
        row = rows[bit.bit_length() - 1]
        joined |= row
        rest ^= bit
        if side_b & ~row != bit:
            return NO_COVER, side_a, near | joined | reach(rows, rest)
    return (JOINED_COVER if joined & side_a else DISJOINT_COVER), side_a, near | joined


def holds_clique(rows, mask: int, size: int) -> bool:
    """True iff the vertices of ``mask`` hold a clique of ``size`` >= 2, each grown up from its lowest.

    The mask is walked in place from its lowest vertex x, so what is left of
    it is the part above x, and ``rows[x] & rest`` the candidates to grow.
    """
    size -= 1
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        up = rows[low.bit_length() - 1] & rest
        if up.bit_count() >= size and (size == 1 or holds_clique(rows, up, size)):
            return True
    return False


class Graph:
    """Undirected simple graph on vertices ``0..n-1``, immutable after construction.

    A graph is its adjacency rows; ``n`` and ``edge_count`` derive from
    them. Use :func:`build_graph` to construct one with validation; the raw
    constructor trusts its rows to be symmetric and loop-free. Three
    per-vertex tables derived from the rows are built together on the first
    call of :func:`neighborhood_covers`, :func:`neighborhood_cliques` or
    :func:`square_degrees`, and kept with the graph. Every new graph starts
    without them, so ``Graph(g._adj)`` is a header that shares g's rows but
    not its tables.
    """

    __slots__ = ("n", "_adj", "_covers", "_cliques", "_square_degrees")

    def __init__(self, adj: tuple[int, ...]):
        self.n = len(adj)
        self._adj = adj
        self._covers = None
        self._cliques = None
        self._square_degrees = None

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self._adj) // 2

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
        """Yield edges as pairs ``(u, v)`` with ``u < v``, in lexicographic order."""
        for u in range(self.n):
            high = self._adj[u] >> (u + 1) << (u + 1)
            for v in bits(high):
                yield (u, v)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self):
        return hash(self._adj)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count})"


def _build_tables(g: Graph) -> None:
    """Build g's cover, clique and square-degree tables in one walk over every neighborhood.

    :func:`_cover_walk` reads the rows of N(v) once for its cover and its
    square row. The clique number of N(v) capped at 4 is read off a
    disjoint cover (A, B), two disjoint cliques, as max(|A|, |B|); from a
    joined cover's max(|A|, |B|), or from 1 with no cover (such an N(v) has
    three or more vertices), :func:`holds_clique` grows it one size at a
    time up to 4. A component's clique number is one more than its largest
    value when that value is below 4, and at least 5 otherwise.
    """
    adj = g._adj
    kinds = bytearray(g.n)
    cliques = []
    degrees = []
    for v, row in enumerate(adj):
        kind, side_a, near = _cover_walk(adj, row)
        kinds[v] = kind
        degrees.append(((near | row) & ~(1 << v)).bit_count())
        size = 1 if kind == NO_COVER else max(side_a.bit_count(), (row ^ side_a).bit_count())
        if kind != DISJOINT_COVER:
            while size < 4 and holds_clique(adj, row, size + 1):
                size += 1
        cliques.append(min(size, 4))
    g._covers = bytes(kinds)
    g._cliques = tuple(cliques)
    g._square_degrees = tuple(degrees)


def neighborhood_covers(g: Graph) -> bytes:
    """:func:`cover_kind` of every neighborhood N(v), by vertex; built once per graph.

    A neighborhood with a cover holds no independent triple. Only the kinds
    are kept, since two masks per vertex would take about twice the memory
    of the rows; :func:`split_at_lowest` rebuilds a cover from two rows.
    """
    if g._covers is None:
        _build_tables(g)
    return g._covers


def neighborhood_cliques(g: Graph) -> tuple[int, ...]:
    """Clique number of every neighborhood N(v) capped at 4, by vertex; built once per graph.

    See :func:`_build_tables` for how the cover gives it.
    """
    if g._cliques is None:
        _build_tables(g)
    return g._cliques


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from a vertex count and unordered index pairs.

    Rejects out-of-range indices, self-loops and duplicate pairs (in either
    orientation).
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRangeError(f"edge ({u}, {v}) not in range 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if adj[u] >> v & 1:
            raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(tuple(adj))


def line_graph(n: int, edges: Sequence[tuple[int, int]]) -> Graph:
    """Line graph on ``edges``, distinct pairs of vertices below n: vertex i is ``edges[i]``.

    Each row ORs the incidence masks of the edge's two ends, less its own bit.
    """
    at = [0] * n
    for i, (a, b) in enumerate(edges):
        at[a] |= 1 << i
        at[b] |= 1 << i
    return Graph(tuple((at[a] | at[b]) & ~(1 << i) for i, (a, b) in enumerate(edges)))


def square_row(g: Graph, v: int) -> int:
    """Neighbors of ``v`` in the square of g, as a bitmask."""
    first = g._adj[v]
    return (first | reach(g._adj, first)) & ~(1 << v)


def square_degrees(g: Graph) -> tuple[int, ...]:
    """Square degree of every vertex, by vertex; built once per graph.

    The popcounts of the :func:`square_row` of each vertex, from the rows
    each cover walk ORs (:func:`_build_tables`). Only the counts are kept,
    not the rows, which would hold a second graph as large as the square.
    """
    if g._square_degrees is None:
        _build_tables(g)
    return g._square_degrees


def square(g: Graph) -> Graph:
    """Graph on the same vertices with edges between pairs at distance 1 or 2."""
    return Graph(tuple(square_row(g, v) for v in range(g.n)))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``vertices`` plus the new-to-old index map; g itself for all of them.

    A proper subgraph is a new graph, which builds its own neighborhood
    tables on first use. As the vertices are distinct and sorted, n of them
    are all of g exactly when the first is 0 and the last n - 1, so only
    the vertices of a proper subgraph are checked one by one.
    """
    old = sorted(set(vertices))
    if len(old) == g.n and (not old or (old[0] == 0 and old[-1] == g.n - 1)):
        return g, tuple(old)
    for v in old:
        g.check_vertex(v)
    position = {v: i for i, v in enumerate(old)}
    rows = []
    for v in old:
        row = 0
        for u in bits(g._adj[v]):
            if u in position:
                row |= 1 << position[u]
        rows.append(row)
    return Graph(tuple(rows)), tuple(old)


# The engine's peel loop calls delete_vertex once per peeled vertex, and
# perfbench counts peels by those calls.
def delete_vertex(g: Graph, v: int) -> Graph:
    """Graph with ``v`` removed and higher indices shifted down by one.

    Every row is shifted in one pass and v's own row dropped. A row with no
    bit at or below v just shifts down by one.
    """
    g.check_vertex(v)
    low = (1 << v) - 1
    high = v + 1
    upto = (1 << high) - 1
    rows = [
        mask >> 1 if not mask & upto else (mask & low) | (mask >> high) << v for mask in g._adj
    ]
    del rows[v]
    return Graph(tuple(rows))


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Partition of the vertices by connectivity, ordered by smallest member."""
    return [frozenset(bits(comp)) for comp in _component_masks(g)]


def _component_masks(g: Graph) -> list[int]:
    """The components of g as vertex masks, ordered by smallest member; one search each."""
    adj = g._adj
    unseen = (1 << g.n) - 1
    out = []
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            frontier = reach(adj, frontier) & ~comp
            comp |= frontier
        unseen ^= comp
        out.append(comp)
    return out


def max_degree(g: Graph) -> int:
    return max((row.bit_count() for row in g._adj), default=0)


def max_clique(g: Graph) -> tuple[int, frozenset[int]]:
    """Exact maximum clique size with one witness."""
    size, witness = max_clique_within(g._adj, (1 << g.n) - 1)
    return size, frozenset(bits(witness))


def max_clique_within(rows, mask: int) -> tuple[int, int]:
    """Exact maximum clique inside ``mask`` of the graph with adjacency ``rows``.

    Branch and bound over bitmask candidate sets with a greedy coloring
    bound; returns the size and one witness as a mask. Deterministic, so
    the witness is stable across runs. ``rows`` are any symmetric loop-free
    bitmask rows, such as a graph's own or its complement's. The search
    keeps its own stack, one frame per clique vertex, so depth is not
    bounded by the interpreter's recursion limit.
    """
    best_size = 0
    best_mask = 0

    def frame(r_size, r_mask, p_mask):
        # Greedy coloring of the candidates: bounds[i] is an upper bound on
        # any clique inside order[: i + 1], and i is the next to branch on.
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
        return [r_size, r_mask, p_mask, order, bounds, len(order) - 1]

    stack = [frame(0, 0, mask)] if mask else []
    while stack:
        top = stack[-1]
        r_size, r_mask, p_mask, order, bounds, i = top
        if i < 0 or r_size + bounds[i] <= best_size:
            stack.pop()
            continue
        v = order[i]
        vb = 1 << v
        top[2] = p_mask & ~vb
        top[5] = i - 1
        p_next = p_mask & rows[v]
        if p_next:
            stack.append(frame(r_size + 1, r_mask | vb, p_next))
        elif r_size + 1 > best_size:
            best_size = r_size + 1
            best_mask = r_mask | vb
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
