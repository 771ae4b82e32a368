"""Verified square colorings of claw-free graphs within clique-number bounds.

The engine peels reducible vertices off one at a time, colors the remaining
base components directly (paths and cycles, the icosahedron, or a line
graph via a strong edge coloring of its root), and then reinserts the
peeled vertices in reverse order, recoloring each neighborhood through a
system of distinct representatives. The strong edge coloring is one
saturation search whose first descent is the greedy DSATUR coloring and
whose node budget counts every node, that descent included. Its state is
vertex masks of the edge conflict graph: per color, the class and the
vertices that see it, and per saturation, the uncolored vertices that see
that many colors (:func:`_backtrack_within`).

Peeling is incremental (:func:`_peel`): live components, triangle and
K4 membership, read at the start off the neighborhood clique numbers that
the claw check's covers give, and square degrees, read off the graph's
square-degree table, are kept across steps and updated only near the
deleted vertex; a vertex's reduction case is worked out, from those
degrees and the rows of its neighborhood, only when it could be the next
pick, and each step records just (vertex, case, kprime); as the graph is
claw-free, a deletion splits its component into at most two pieces
(:func:`_pieces`).
The peel hands the base step the vertices left and, with its clique number,
each leftover component with a triangle, all in the input's labels; the
triangle-free rest is colored with one call.
Reinsertion works on the input graph with a mask of the vertices present,
so no graph is kept per step, and with one vertex mask per color (a color
class), so a color is free for a vertex exactly when its class misses the
vertex's square row.

:func:`color_square` is the one place a coloring is checked: it verifies
the final coloring against the square, and each component's palette
against its bound, whether or not Python runs with ``-O``, and raises
InternalBoundViolation when either fails. The building blocks it calls
(:func:`greedy_reduce`, :func:`color_small_omega`,
:func:`trivial_greedy_square`) return unverified colorings;
:func:`verify_coloring` checks one.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

from .analysis import require_claw_free
from .errors import (
    DEFAULT_NODE_LIMIT,
    InternalBoundViolation,
    NodeLimitExceeded,
    NotSmallOmegaError,
)
from .graph import (
    UNCOLORED,
    Coloring,
    Graph,
    _component_masks,
    bits,
    delete_vertex,
    holds_clique,
    induced_subgraph,
    max_clique,
    max_degree,
    neighborhood_cliques,
    reach,
    split_at_lowest,
    square,
    square_degrees,
    square_row,
)
from .structure import (
    classify,
    reduction_case,
    reduction_thresholds,
)

def palette_bound(omega: int) -> int:
    """Guaranteed palette size for a claw-free graph of this clique number.

    From ω = 5 on, greedy meets it if no square degree passes 2ω(ω-1). That
    holds at v when N(v) has a two-clique cover: |N(v)| <= 2(ω-1), and each
    N(x) - N[v] with x in N(v) is a clique (else a claw at x with v) of at
    most ω-1, so v's square degree is at most |N(v)|·ω <= 2ω(ω-1). Without
    such a cover it is open, and :func:`color_square` checks every palette.
    """
    if omega <= 2:
        return 5
    if omega == 3:
        return 10
    if omega == 4:
        return 22
    return 2 * omega * (omega - 1) + 1


def verify_coloring(g: Graph, coloring: Coloring) -> bool:
    """True iff the coloring is total and proper on the square of g."""
    return coloring.is_proper_on(square(g))


def trivial_greedy_square(g: Graph) -> Coloring:
    """Greedy square coloring in non-increasing square-degree order.

    Each vertex takes the smallest color whose class, a vertex mask, misses
    its square row. Uses at most one more color than the maximum square
    degree. That degree is at most 2*omega*(omega-1) at every vertex whose
    neighborhood has a two-clique cover (:func:`palette_bound`); for
    claw-free inputs in general it is not proved, so :func:`color_square`
    checks every palette.
    """
    rows = [square_row(g, v) for v in range(g.n)]
    order = sorted(range(g.n), key=lambda v: (-rows[v].bit_count(), v))
    colors = [UNCOLORED] * g.n
    classes = [0] * g.n  # no vertex has more than n - 1 square neighbors
    for v in order:
        c = next(c for c, cls in enumerate(classes) if not cls & rows[v])
        classes[c] |= 1 << v
        colors[v] = c
    return Coloring(colors)


def _path_pattern(length: int) -> list[int]:
    return [i % 3 for i in range(length)]


def _cycle_pattern(length: int) -> list[int]:
    # Squares of cycles: 3 colors when the length is a multiple of 3, all 5
    # distinct for the 5-cycle, otherwise 4 via blocks of 012 and 0123. Every
    # other length is at least 4, and at least 8 when it is 2 mod 3.
    if length == 5:
        return [0, 1, 2, 3, 4]
    if length % 3 == 0:
        return [i % 3 for i in range(length)]
    if length % 3 == 1:
        triples = (length - 4) // 3
    else:
        triples = (length - 8) // 3
    quads = (length - 3 * triples) // 4
    return [0, 1, 2] * triples + [0, 1, 2, 3] * quads


def color_small_omega(g: Graph) -> Coloring:
    """Color the square of a disjoint union of paths and cycles with at most 5 colors.

    Each component is walked in g's own labels: a path from its lowest end,
    a cycle (no end) from its lowest vertex toward that vertex's lower
    neighbor. Raises NotSmallOmegaError on a triangle or a vertex of degree
    3 or more. The coloring is returned unverified.
    """
    if max_degree(g) > 2:
        raise NotSmallOmegaError("a vertex of degree 3 or more is present")
    adj = g._adj
    colors = [UNCOLORED] * g.n
    for comp in _component_masks(g):
        size = comp.bit_count()
        cur = next((u for u in bits(comp) if adj[u].bit_count() <= 1), None)
        if cur is not None:
            pattern = _path_pattern(size)
        elif size == 3:
            raise NotSmallOmegaError("a triangle is present")
        else:
            cur = _lowest(comp).bit_length() - 1
            pattern = _cycle_pattern(size)
        came_from = 0
        for c in pattern:
            colors[cur] = c
            step = adj[cur] & ~came_from
            came_from = 1 << cur
            cur = (step & -step).bit_length() - 1
    return Coloring(colors)


@dataclass(frozen=True)
class StrongEdgeColoring:
    """Edge coloring where edges at distance at most one get distinct colors."""

    edges: tuple[tuple[int, int], ...]
    colors: tuple[int, ...]

    @property
    def palette_size(self) -> int:
        return max(self.colors, default=-1) + 1


def edge_conflict_graph(f: Graph) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """Graph on the edges of f, adjacent when they share or see an endpoint.

    Edge uv conflicts with every edge at a vertex of N(u) | N(v), a set that
    holds u and v themselves, so each row is the OR of two masks, the edges
    at a neighbor of u and those at a neighbor of v, each built once per
    vertex of f from per-vertex incidence masks.
    """
    edges = tuple(f.edges())
    incident = [0] * f.n
    for i, (u, v) in enumerate(edges):
        incident[u] |= 1 << i
        incident[v] |= 1 << i
    near = [reach(incident, row) for row in f._adj]
    rows = tuple((near[u] | near[v]) & ~(1 << i) for i, (u, v) in enumerate(edges))
    return Graph(rows), edges


def _backtrack_within(g: Graph, budget: int, node_limit: int) -> list[int] | None:
    """Find any proper coloring of g with at most ``budget`` colors.

    Backtracking over dynamically most-saturated vertices (then highest
    degree, then lowest index), each trying its smallest unseen color first,
    with new colors introduced in order (color symmetry breaking); so the
    first descent is the greedy DSATUR coloring. The search keeps its
    own stack, one frame per colored vertex, so depth is not bounded by
    the interpreter's recursion limit. A frame holds the vertex, where it
    was picked and the color it holds, from which the next color to try
    follows; a node's pick and coloring run inline in the loop, and only
    backtracking makes a call, to ``uncolor``.

    All state is vertex masks. Per color c, ``classes[c]`` holds the
    vertices colored c and ``sees[c]`` those with a neighbor colored c;
    ``levels[s]`` holds the uncolored vertices that see exactly s colors,
    their saturation. A pick is the lowest vertex of the fullest non-empty
    level within the highest degree tier that meets it. Coloring v with c
    moves N(v) minus ``sees[c]`` up one level; uncoloring v drops from
    ``sees[c]``, and moves down one level, the vertices of N(v) left with
    no neighbor in the class. Returns None when the search space is
    exhausted; raises NodeLimitExceeded past the node budget.
    """
    n = g.n
    if n == 0:
        return []
    rows = g._adj
    palette = max(budget, 0)
    colors = [UNCOLORED] * n
    classes = [0] * palette
    sees = [0] * palette
    levels = [0] * (palette + 1)
    levels[0] = uncolored = (1 << n) - 1
    by_degree: dict[int, int] = {}
    for v, row in enumerate(rows):
        d = row.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    # What the higher tiers miss lies in the lowest, so it needs no mask.
    tiers = [by_degree[d] for d in sorted(by_degree, reverse=True)][:-1]

    def uncolor(v, bit):
        """Take v's color away; v does not rejoin a level.

        The vertices of N(v) left with no neighbor in v's class drop from
        ``sees`` of that color and each move down one level.
        """
        nonlocal uncolored
        c = colors[v]
        colors[v] = UNCOLORED
        classes[c] ^= bit
        uncolored |= bit
        row = rows[v]
        lost = row & ~reach(rows, classes[c] & reach(rows, row))
        sees[c] ^= lost
        lost &= uncolored
        level = 1
        while lost:
            moved = levels[level] & lost
            if moved:
                levels[level] ^= moved
                levels[level - 1] |= moved
                lost ^= moved
            level += 1

    nodes = 0
    used = s = 0
    stack = []  # (v, bit, s, used, c) per colored vertex: its pick, then its color c
    while True:
        # A search node: colors 0..used-1 are in use, and no uncolored vertex sees more than s.
        nodes += 1
        if nodes > node_limit:
            raise NodeLimitExceeded(f"gave up after {node_limit} nodes")
        if not uncolored:
            return colors
        while not levels[s]:
            s -= 1
        pick = levels[s]
        for tier in tiers:
            if pick & tier:
                pick &= tier
                break
        bit = pick & -pick
        v = bit.bit_length() - 1
        levels[s] ^= bit
        c = 0
        top = min(used + 1, budget)
        while c < top and sees[c] >> v & 1:
            c += 1
        while c >= top:
            # No color left for v: it rejoins its level, where it was picked,
            # and the last colored vertex moves on to its next color. The
            # scan reads sees before that vertex is uncolored, which changes
            # sees on its neighbors alone.
            levels[s] |= bit
            if not stack:
                return None
            v, bit, s, used, c = stack.pop()
            top = min(used + 1, budget)
            c += 1
            while c < top and sees[c] >> v & 1:
                c += 1
            uncolor(v, bit)
        stack.append((v, bit, s, used, c))
        # Color v with c: the uncolored vertices of N(v) that did not see c
        # move up one level, scanning down from s, the fullest.
        colors[v] = c
        classes[c] |= bit
        uncolored ^= bit
        row = rows[v]
        rising = row & uncolored & ~sees[c]
        sees[c] |= row
        up = s
        while rising:
            moved = levels[up] & rising
            if moved:
                levels[up] ^= moved
                levels[up + 1] |= moved
                rising ^= moved
            up -= 1
        # Coloring v raised each saturation by at most one.
        used = max(used, c + 1)
        s = min(s + 1, palette)


def strong_edge_color(f: Graph, *, node_limit: int = DEFAULT_NODE_LIMIT) -> StrongEdgeColoring:
    """Strong edge coloring of f within palette_bound(max degree of f) colors.

    That palette always suffices: greedy needs at most 2Δ(Δ-1)+1 colors,
    which is the bound from Δ = 5 up and at most 5 below Δ = 3, and the
    strong chromatic index is at most 10 at Δ = 3 (Andersen 1992; Horák,
    He and Trotter 1993) and 22 at Δ = 4 (Cranston 2006). One saturation
    search on the edge conflict graph (:func:`_backtrack_within`); its
    first descent is the greedy DSATUR coloring, so when that fits the
    palette it is the result, found in m + 1 nodes for m edges; otherwise
    the search backtracks. Every node counts against ``node_limit``, the
    first descent included. Raises NodeLimitExceeded when the node budget
    runs out, and InternalBoundViolation when the search exhausts the
    palette, which contradicts those bounds.
    """
    palette = palette_bound(max_degree(f))
    conflict, edges = edge_conflict_graph(f)
    found = _backtrack_within(conflict, palette, node_limit)
    if found is None:
        raise InternalBoundViolation(
            f"no strong edge coloring with {palette} colors exists for a graph of "
            "this max degree; this contradicts the strong chromatic index bounds"
        )
    return StrongEdgeColoring(edges, tuple(found))


def _match_distinct(items, options):
    """Injective choice of one option per item via augmenting paths, or None."""
    owner: dict[int, int] = {}

    def try_assign(i, banned):
        for val in options[i]:
            if val in banned:
                continue
            banned.add(val)
            if val not in owner or try_assign(owner[val], banned):
                owner[val] = i
                return True
        return False

    for i in range(len(items)):
        if not try_assign(i, set()):
            return None
    return {items[i]: val for val, i in owner.items()}


def _reinsert_vertex(
    g: Graph, alive: int, v: int, case: str, kprime: int, colors: list, classes: list
) -> None:
    """Extend a proper square coloring of g[alive] minus v to all of g[alive], in place.

    ``alive`` is a vertex mask of g that holds v, and ``colors`` is indexed
    by the vertices of g; only its entries in ``alive`` other than v are
    read. ``classes[c]`` is the mask of the vertices of ``alive`` colored c,
    one entry per color of the palette, and is kept equal to ``colors`` on
    ``alive``. Recolors the low-square-degree part S of N(v) with pairwise
    distinct colors drawn from each vertex's available set (a system of
    distinct representatives), then gives v a color unseen in its square
    neighborhood. One pass over N(v) computes the square row of each
    neighbor, by a walk over that neighbor's row, picks S and gathers v's
    square row; a color is free for a vertex when its class misses the
    vertex's square row.
    """
    adj = g._adj
    threshold = kprime + 2 if case == "ii" else kprime + 1
    nbrs = adj[v] & alive
    v_row = nbrs
    s_rows = {}
    rest = nbrs
    while rest:
        bit = rest & -rest
        rest ^= bit
        x = bit.bit_length() - 1
        row = first = adj[x] & alive
        v_row |= first
        while first:
            low = first & -first
            row |= adj[low.bit_length() - 1]
            first ^= low
        row &= alive & ~bit
        if row.bit_count() <= threshold:
            s_rows[x] = row
    v_row &= ~(1 << v)
    for s in s_rows:
        classes[colors[s]] &= ~(1 << s)
        colors[s] = UNCOLORED
    palette = range(len(classes))
    options = [[c for c in palette if not row & classes[c]] for row in s_rows.values()]
    matched = _match_distinct(list(s_rows), options)
    if matched is None:
        raise InternalBoundViolation(
            f"no distinct-representative recoloring for N({v}); this contradicts "
            "the reduction guarantee"
        )
    for s, c in matched.items():
        colors[s] = c
        classes[c] |= 1 << s
    free = next((c for c in palette if not v_row & classes[c]), None)
    if free is None:
        raise InternalBoundViolation(
            f"no color left for vertex {v}; its square degree exceeds the threshold"
        )
    colors[v] = free
    classes[free] |= 1 << v


def _lowest(mask: int) -> int:
    return mask & -mask


def _pieces(adj, comp: int, nbrs: int) -> list[int]:
    """Connected pieces of ``comp``, a component that just lost a vertex v with neighbors ``nbrs``.

    The graph must be claw-free, so the neighbors that miss the lowest
    neighbor a are pairwise adjacent: two that are not form a claw at v with
    a. N(v) is then connected, and needs no search, unless B = N(v) - N[a]
    is non-empty with no edge to A = N[a] & N(v). Otherwise one search grows
    from each side a layer at a time, A first, claiming vertices neither has
    seen: when one reaches what the other holds, ``comp`` is one piece; when
    one runs out of frontier first, it holds a piece and the rest of
    ``comp`` is the other.
    """
    side_a, side_b = split_at_lowest(adj, nbrs)
    if not side_b or reach(adj, side_b) & side_a:
        return [comp]
    held = [side_a, side_b]
    frontiers = [side_a, side_b]
    seen = nbrs
    while True:
        for i in (0, 1):
            grown = reach(adj, frontiers[i])
            if grown & held[1 - i]:
                return [comp]
            frontiers[i] = grown & ~seen
            if not frontiers[i]:
                return [held[i], comp & ~held[i]]
            seen |= frontiers[i]
            held[i] |= frontiers[i]


def _peel(g: Graph) -> tuple[list[int], list[tuple[int, str, int]], list[tuple[int, list[int]]]]:
    """Delete reducible vertices of g, of clique number at most 4, until none is left.

    Returns, all in g's labels, the vertices left in increasing order, one
    frame (vertex, case, kprime) per deleted vertex in deletion order, and
    the bases: the components left that hold a triangle, each as (clique
    number, sorted vertices). Each step deletes the smallest vertex
    reducible by case iii, else by case ii, in the component with the
    smallest member that has one, under the thresholds of that component's
    clique number.

    The working state is kept in the labels of the current graph ``cur``,
    whose vertex i is ``orig[i]`` of g: the live components (clique number
    3 or 4, so more than two vertices, ordered by smallest member), the
    vertices on a triangle and those on a K4 (the clique number is at most
    4, so these give each component's clique number; both are read off g's
    :func:`neighborhood_cliques` table, a vertex being on a triangle when
    its neighborhood's value is at least 2 and on a K4 when it is at least
    3), the square degree of every vertex, which starts as g's
    :func:`square_degrees` table, and three case masks: ``iii`` and ``ii``
    cache the case of each clean vertex, and ``dirty`` holds the vertices
    whose cached case may be stale. No square rows are kept: a case is read
    off those degrees and the rows of ``cur`` around its vertex. Deleting v
    changes triangles and K4s only on N(v), and square degrees only within
    distance 2 of v: a vertex at distance exactly 2 loses v alone, so its
    degree drops by one, and only a neighbor of v can lose more. After the
    deletion, one walk over the row of each neighbor x of v counts x's
    square degree again and tells whether N(x) still has an edge: x leaves
    the triangle mask when it has none. A vertex of a K4 keeps a triangle
    through one deletion, so only an x still on a triangle can have left a
    K4, and only there does the one clique test left run. Only the
    component that held v can split.

    A vertex is marked dirty only where it can be reducible. At the start
    those are the vertices of a live component whose square degree is at
    most that component's kprime, as :func:`reduction_case` gives None
    above it. A deletion changes a vertex's case only within distance 3 of
    v, where every square degree that drops lies, or on all of a piece
    whose clique number, and with it kprime, drops. So it marks dirty the
    vertices of the live pieces within distance 3 of v; on a piece whose
    clique number drops it clears every cached case and marks dirty those
    at most its new kprime. To pick, the dirty vertices of the first live
    component are evaluated from the bottom until the lowest vertex left in
    ``iii | dirty`` is clean: that is the smallest case-iii vertex. When
    none is left, no vertex of the component is dirty, and ``ii`` gives the
    smallest case-ii vertex. A clean vertex's cached case is exact, so each
    pick is the one the masks would give if every case were recomputed
    after every deletion. A live component left
    with no reducible vertex is final, as no later deletion touches it.
    """
    cur = g
    orig = list(range(g.n))
    sq = list(square_degrees(g))
    tri = k4 = iii = ii = dirty = 0
    for x, size in enumerate(neighborhood_cliques(g)):
        if size >= 2:
            tri |= 1 << x
            if size >= 3:
                k4 |= 1 << x

    def omega_of(mask):
        return 4 if mask & k4 else 3 if mask & tri else 2

    def can_reduce(mask, w):
        """The vertices of ``mask`` with square degree at most kprime of clique number w."""
        kprime = reduction_thresholds(w)[0]
        return sum(1 << x for x in bits(mask) if sq[x] <= kprime)

    comps = []
    for comp in _component_masks(g):
        w = omega_of(comp)
        if w > 2:
            dirty |= can_reduce(comp, w)
            comps.append(comp)
    frames = []
    bases = []
    while comps:
        comp = comps[0]
        w = omega_of(comp)
        kprime, cap = reduction_thresholds(w)
        # Settle dirty vertices from the bottom until the lowest candidate is a clean case iii.
        while (pick := _lowest((iii | dirty) & comp)) & dirty:
            case = reduction_case(cur._adj, sq, pick.bit_length() - 1, kprime, cap)
            iii = iii | pick if case == "iii" else iii & ~pick
            ii = ii | pick if case == "ii" else ii & ~pick
            dirty ^= pick
        found = pick or _lowest(ii & comp)
        if not found:
            # Deletions in other components cannot make anything here reducible.
            bases.append((w, [orig[x] for x in bits(comp)]))
            del comps[0]
            continue
        v = found.bit_length() - 1
        frames.append((orig[v], "iii" if pick else "ii", kprime))
        adj = cur._adj
        nbrs = adj[v]
        # near: the vertices within distance 3 of v, where reducibility can change;
        # v has a neighbor, so they are the neighbors of v's closed square neighborhood,
        # gathered by a walk over N(v) and one over the vertices at distance exactly 2,
        # each of which loses only v from its square row.
        near = 0
        rest = nbrs
        while rest:
            low = rest & -rest
            near |= adj[low.bit_length() - 1]
            rest ^= low
        rest = near & ~nbrs & ~found
        near |= nbrs
        while rest:
            low = rest & -rest
            x = low.bit_length() - 1
            sq[x] -= 1
            near |= adj[x]
            rest ^= low
        cur = delete_vertex(cur, v)
        below = (1 << v) - 1
        high = v + 1
        del orig[v]
        del sq[v]
        comps = [(m & below) | (m >> high) << v for m in comps[1:]]
        comp, nbrs, near, tri, k4, iii, ii, dirty = (
            (m & below) | (m >> high) << v for m in (comp, nbrs, near, tri, k4, iii, ii, dirty)
        )
        adj = cur._adj
        # One walk per neighbor of v: its square degree and whether N(x) has an edge.
        rest = nbrs
        while rest:
            bit = rest & -rest
            rest ^= bit
            x = bit.bit_length() - 1
            row = left = adj[x]
            two = edge = 0
            while left:
                low = left & -left
                y_row = adj[low.bit_length() - 1]
                two |= y_row
                edge |= y_row & row
                left ^= low
            sq[x] = ((two | row) & ~bit).bit_count()
            if not edge:
                tri &= ~bit
            elif k4 & bit and not holds_clique(adj, row, 3):
                k4 ^= bit
        for piece in _pieces(adj, comp, nbrs):
            w_piece = omega_of(piece)
            if w_piece > 2:
                if w_piece < w:
                    # kprime dropped: no cached case on the piece holds any more.
                    iii &= ~piece
                    ii &= ~piece
                    dirty |= can_reduce(piece, w_piece)
                else:
                    dirty |= piece & near
                insort(comps, piece, key=_lowest)
    return orig, frames, bases


def _color_base_components(g: Graph, rest: list[int], bases, node_limit: int) -> list:
    """Colors of g[rest], indexed by g's vertices; ``rest`` and ``bases`` are :func:`_peel`'s.

    Each base is recognized by :func:`classify` alone and colored on its
    own: the icosahedron by classify's antipodal pairs, pair i color i, a
    line graph by the strong edge coloring of its root, read through the
    root's edge of each vertex. The other vertices of ``rest`` (paths,
    cycles, edges and single vertices) are colored by one
    :func:`color_small_omega` call on the subgraph they induce, which keeps
    vertex order, so each is colored as it would be alone. A spent node
    budget is the caller's limit, so NodeLimitExceeded passes through.
    """
    colors = [UNCOLORED] * g.n
    small = set(rest)
    for w, comp in bases:
        small.difference_update(comp)
        sub, old = induced_subgraph(g, comp)
        outcome = classify(sub, w, check_claw_free=False)
        if outcome.kind == "icosahedron":
            local = [UNCOLORED] * 12
            for i, (a, b) in enumerate(outcome.antipodal_pairs):
                local[a] = local[b] = i
        elif outcome.kind == "line_graph":
            sec = strong_edge_color(outcome.root.f, node_limit=node_limit)
            index = {e: i for i, e in enumerate(sec.edges)}
            local = [sec.colors[index[e]] for e in outcome.root.edge_of_vertex]
        else:
            raise InternalBoundViolation("a reducible component survived to the base step")
        for x, c in zip(old, local):
            colors[x] = c
    sub, old = induced_subgraph(g, small)
    for x, c in zip(old, color_small_omega(sub).colors):
        colors[x] = c
    return colors


def greedy_reduce(g: Graph, *, node_limit: int = DEFAULT_NODE_LIMIT) -> Coloring:
    """Inductive square coloring within palette_bound(omega) colors, unverified.

    For claw-free inputs, where a deletion splits a component into at most
    two pieces (:func:`_pieces`), of clique number omega at most 4; past 4
    raises ValueError. omega is one more than the largest value of g's
    :func:`neighborhood_cliques` table, which the peel reads too; it is
    built on first use, so a caller that has built it hands it over with g
    and no clique search runs. Iteratively deletes reducible vertices
    (explicit stack, no recursion), colors the base remainder in g's labels
    (:func:`_color_base_components`), then reinserts each vertex in reverse
    order, recoloring its neighborhood through distinct available colors;
    one vertex mask per color, updated on every assignment, gives the
    colors available. Neither claw-freeness nor the result is checked here;
    :func:`color_square` checks both.
    """
    omega = 1 + max(neighborhood_cliques(g), default=-1)
    if omega > 4:
        raise ValueError("the inductive engine is defined up to clique number 4, not 5 or more")
    rest, frames, bases = _peel(g)
    colors = _color_base_components(g, rest, bases, node_limit)
    classes = [0] * palette_bound(omega)
    alive = 0
    for x in rest:
        classes[colors[x]] |= 1 << x
        alive |= 1 << x
    for v, case, kprime in reversed(frames):
        alive |= 1 << v
        _reinsert_vertex(g, alive, v, case, kprime, colors, classes)
    return Coloring(colors)


def color_square(g: Graph, *, node_limit: int = DEFAULT_NODE_LIMIT) -> Coloring:
    """Proper coloring of the square of a claw-free graph within its bound.

    Components are colored independently from a shared palette: clique
    number up to 4 through the inductive engine, whose base step colors
    paths and cycles directly, and 5 and up through the greedy square
    coloring whose palette the maximum square degree caps. Raises
    NotClawFreeError, with the claw as its witness, on a claw, and
    InternalBoundViolation when a component's palette exceeds its bound or
    the final coloring is not proper on the square; these checks do not
    depend on ``-O``.

    The call works on a header of its own, ``Graph(g._adj)``, so the
    per-vertex tables (:func:`neighborhood_covers`,
    :func:`neighborhood_cliques` and :func:`square_degrees`) end with the
    call and g never holds them. The claw check builds all three in one
    walk per neighborhood, and every later step on the whole graph reads
    them; a component that is a proper subgraph builds its own tables. A component's clique number is one more
    than its largest capped neighborhood value, and only a component where
    that reaches 5 runs the exact :func:`max_clique`.
    """
    g = Graph(g._adj)
    require_claw_free(g)
    colors = [UNCOLORED] * g.n
    for comp in _component_masks(g):
        sub, old = induced_subgraph(g, bits(comp))
        w = 1 + max(neighborhood_cliques(sub))
        if w <= 4:
            local = greedy_reduce(sub, node_limit=node_limit)
        else:
            w = max_clique(sub)[0]
            local = trivial_greedy_square(sub)
        if local.palette_size > palette_bound(w):
            raise InternalBoundViolation(
                f"component palette {local.palette_size} exceeds the bound "
                f"{palette_bound(w)} for clique number {w}"
            )
        for i, c in enumerate(local.colors):
            colors[old[i]] = c
    result = Coloring(colors).compacted()
    if not verify_coloring(g, result):
        raise InternalBoundViolation("square coloring failed final verification")
    return result

