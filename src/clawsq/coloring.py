"""Verified square colorings of claw-free graphs within clique-number bounds.

The engine peels reducible vertices off one at a time, colors the remaining
base components directly (paths and cycles, the icosahedron, or a line
graph via a strong edge coloring of its root), and then reinserts the
peeled vertices in reverse order, recoloring each neighborhood through a
system of distinct representatives. The strong edge coloring is one
saturation search whose first descent is the greedy DSATUR coloring and
whose node budget counts every node, that descent included.

Peeling is incremental (:func:`_peel`): square rows, live components,
triangle and K4 membership and the reducible vertices of each case are
kept across steps and updated only near the deleted vertex, and each step
records just (vertex, case, kprime); as the graph is claw-free, a deletion
splits its component into at most two pieces (:func:`_pieces`). The base
step colors all triangle-free leftover components with one call.
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
:func:`verify_coloring` checks one. :func:`color_icosahedron` still checks
the pairing it is handed, because that comes from the caller.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

from .analysis import require_claw_free
from .errors import (
    DEFAULT_NODE_LIMIT,
    BudgetExhaustedError,
    InternalBoundViolation,
    InvalidPairingError,
    NodeLimitExceeded,
    NotSmallOmegaError,
)
from .graph import (
    UNCOLORED,
    Coloring,
    Graph,
    bits,
    connected_components,
    delete_vertex,
    distance,
    induced_subgraph,
    max_clique,
    max_degree,
    square,
    square_row,
)
from .structure import (
    RootGraph,
    classify,
    neighbor_degree_cap,
    reduction_case,
    reduction_threshold,
)

def palette_bound(omega: int) -> int:
    """Guaranteed palette size for a claw-free graph of this clique number."""
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

    Uses at most one more color than the maximum square degree, which for
    claw-free inputs stays within 2*omega*(omega-1)+1.
    """
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

    Each component is walked in g's own labels: a cycle (degree sum twice
    its size) from its lowest vertex toward that vertex's lower neighbor, a
    path from its lowest end. Raises NotSmallOmegaError on a triangle or a
    vertex of degree 3 or more. The coloring is returned unverified.
    """
    if max_degree(g) > 2:
        raise NotSmallOmegaError("a vertex of degree 3 or more is present")
    adj = g._adj
    colors = [UNCOLORED] * g.n
    for comp in connected_components(g):
        size = len(comp)
        if sum(adj[u].bit_count() for u in comp) == 2 * size:
            if size == 3:
                raise NotSmallOmegaError("a triangle is present")
            cur = min(comp)
            pattern = _cycle_pattern(size)
        else:
            cur = min(u for u in comp if adj[u].bit_count() <= 1)
            pattern = _path_pattern(size)
        came_from = 0
        for c in pattern:
            colors[cur] = c
            step = adj[cur] & ~came_from
            came_from = 1 << cur
            cur = (step & -step).bit_length() - 1
    return Coloring(colors)


def color_icosahedron(g: Graph, pairing) -> Coloring:
    """Six colors on the icosahedron, one per antipodal pair."""
    pairs = [tuple(p) for p in pairing]
    covered = sorted(v for p in pairs for v in p)
    if g.n != 12 or len(pairs) != 6 or covered != list(range(12)):
        raise InvalidPairingError("pairing must cover the 12 vertices in 6 pairs")
    for a, b in pairs:
        if distance(g, a, b) != 3:
            raise InvalidPairingError(f"vertices {a} and {b} are not antipodal")
    colors = [UNCOLORED] * 12
    for i, (a, b) in enumerate(sorted(pairs)):
        colors[a] = i
        colors[b] = i
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
    holds u and v themselves, so each row is an OR of per-vertex incidence
    masks.
    """
    edges = tuple(sorted(f.edges()))
    incident = [0] * f.n
    for i, (u, v) in enumerate(edges):
        incident[u] |= 1 << i
        incident[v] |= 1 << i
    rows = []
    for i, (u, v) in enumerate(edges):
        row = 0
        for w in bits(f._adj[u] | f._adj[v]):
            row |= incident[w]
        rows.append(row & ~(1 << i))
    count = sum(row.bit_count() for row in rows) // 2
    return Graph(len(edges), tuple(rows), count), edges


def _backtrack_within(g: Graph, budget: int, node_limit: int) -> list[int] | None:
    """Find any proper coloring of g with at most ``budget`` colors.

    Backtracking over dynamically most-saturated vertices (then highest
    degree, then lowest index), each trying its smallest unseen color first,
    with new colors introduced in order (color symmetry breaking); so the
    first descent is the greedy DSATUR coloring. The search keeps its
    own stack, one frame per colored vertex, so depth is not bounded by
    the interpreter's recursion limit. Every vertex keeps a count of its
    colored neighbors per color and its saturation, the number of colors
    with a nonzero count, both updated as neighbors are colored and
    uncolored; uncolored vertices sit in buckets by saturation, so a pick
    looks only at the fullest non-empty bucket. Returns None when the
    search space is exhausted; raises NodeLimitExceeded past the node
    budget.
    """
    n = g.n
    if n == 0:
        return []
    nbrs = [tuple(bits(row)) for row in g._adj]
    degree = [len(row) for row in nbrs]
    colors = [UNCOLORED] * n
    seen = [[0] * budget for _ in range(n)]
    saturation = [0] * n
    by_saturation = [set() for _ in range(max(budget, 0) + 1)]
    by_saturation[0].update(range(n))
    nodes = 0

    def resaturate(u, step):
        if colors[u] == UNCOLORED:
            by_saturation[saturation[u]].remove(u)
            by_saturation[saturation[u] + step].add(u)
        saturation[u] += step

    def recolor(v, c):
        """Give v color c, or take its color away when c is UNCOLORED."""
        old = colors[v]
        if old == UNCOLORED:
            by_saturation[saturation[v]].remove(v)
        else:
            for u in nbrs[v]:
                seen[u][old] -= 1
                if not seen[u][old]:
                    resaturate(u, -1)
        colors[v] = c
        if c == UNCOLORED:
            by_saturation[saturation[v]].add(v)
        else:
            for u in nbrs[v]:
                if not seen[u][c]:
                    resaturate(u, 1)
                seen[u][c] += 1

    def visit(used: int):
        """Count one search node; its frame, or None once every vertex is colored."""
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise NodeLimitExceeded(f"gave up after {node_limit} nodes")
        fullest = next((bucket for bucket in reversed(by_saturation) if bucket), None)
        if fullest is None:
            return None
        v = max(fullest, key=lambda u: (degree[u], -u))
        top = min(used + 1, budget)
        return v, used, iter([c for c in range(top) if not seen[v][c]])

    stack = [visit(0)]  # n > 0, so some vertex is uncolored
    while stack:
        v, used, choices = stack[-1]
        c = next(choices, None)
        if c is None:
            recolor(v, UNCOLORED)
            stack.pop()
            continue
        recolor(v, c)
        frame = visit(max(used, c + 1))
        if frame is None:
            return colors
        stack.append(frame)
    return None


def strong_edge_color(
    f: Graph, budget: int, node_limit: int = DEFAULT_NODE_LIMIT
) -> StrongEdgeColoring:
    """Strong edge coloring of f within ``budget`` colors by exact search.

    One saturation search on the edge conflict graph
    (:func:`_backtrack_within`). Its first descent is the greedy DSATUR
    coloring, so when that fits the budget it is the result, found in m + 1
    nodes for m edges; otherwise the search backtracks. Every node counts
    against ``node_limit``, the first descent included. Raises
    BudgetExhaustedError when the search proves the budget insufficient
    (impossible for max degree 3 with budget 10 and max degree 4 with
    budget 22) and NodeLimitExceeded when the node budget runs out first.
    """
    conflict, edges = edge_conflict_graph(f)
    found = _backtrack_within(conflict, budget, node_limit)
    if found is None:
        raise BudgetExhaustedError(
            f"no strong edge coloring with {budget} colors exists for this graph"
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
    neighbor, picks S and gathers v's square row; a color is free for a
    vertex when its class misses the vertex's square row.
    """
    adj = g._adj
    threshold = kprime + 2 if case == "ii" else kprime + 1
    nbrs = adj[v] & alive
    v_row = nbrs
    s_rows = {}
    for x in bits(nbrs):
        first = adj[x] & alive
        v_row |= first
        row = first
        for u in bits(first):
            row |= adj[u]
        row &= alive & ~(1 << x)
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


def _in_triangle(adj, x: int) -> bool:
    row = adj[x]
    return any(adj[y] & row for y in bits(row))


def _in_k4(adj, x: int) -> bool:
    row = adj[x]
    for y in bits(row):
        common = adj[y] & row
        # An edge inside N(x) & N(y) needs two vertices there.
        if common & (common - 1) and any(adj[z] & common for z in bits(common)):
            return True
    return False


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
    low = _lowest(nbrs)
    side_a = adj[low.bit_length() - 1] & nbrs | low
    side_b = nbrs & ~side_a
    if not side_b or any(adj[x] & side_a for x in bits(side_b)):
        return [comp]
    held = [side_a, side_b]
    frontiers = [side_a, side_b]
    seen = nbrs
    while True:
        for i in (0, 1):
            reach = 0
            for x in bits(frontiers[i]):
                reach |= adj[x]
            if reach & held[1 - i]:
                return [comp]
            frontiers[i] = reach & ~seen
            if not frontiers[i]:
                return [held[i], comp & ~held[i]]
            seen |= frontiers[i]
            held[i] |= frontiers[i]


def _peel(g: Graph, omega: int) -> tuple[Graph, list[int], list[tuple[int, str, int]], int, int]:
    """Delete reducible vertices of g, of clique number ``omega``, until none is left.

    Returns the remaining graph, the original label of each of its
    vertices, one frame (original label, case, kprime) per deleted vertex
    in deletion order, and the masks of the remaining vertices on a
    triangle and on a K4. Each step deletes the smallest vertex
    reducible by case iii, else by case ii, in the component with the
    smallest member that has one, under the thresholds of that component's
    clique number.

    The working state is kept in the labels of the current graph ``cur``:
    square rows, the live components (more than two vertices and clique
    number 3 or 4, ordered by smallest member), the vertices on a triangle
    and those on a K4 (the clique number is at most 4, so these give each
    component's clique number), and the vertices reducible by case iii and
    by case ii. Deleting v changes square rows beyond bit v, and triangles
    and K4s, only on N(v); it changes reducibility only within distance 3
    of v, or on all of a piece whose clique number, and with it the
    threshold, drops. Only the component that held v can split.
    """
    cur = g
    orig = list(range(g.n))
    rows = [square_row(g, x) for x in range(g.n)]
    tri = k4 = iii = ii = 0
    for x in range(g.n):
        if omega > 2 and _in_triangle(g._adj, x):
            tri |= 1 << x
            if omega > 3 and _in_k4(g._adj, x):
                k4 |= 1 << x

    def omega_of(mask):
        return 4 if mask & k4 else 3 if mask & tri else 2

    def examine(mask, w):
        nonlocal iii, ii
        kprime, cap = reduction_threshold(w), neighbor_degree_cap(w)
        for x in bits(mask):
            case = reduction_case(cur, x, rows, kprime, cap)
            bit = 1 << x
            iii = iii | bit if case == "iii" else iii & ~bit
            ii = ii | bit if case == "ii" else ii & ~bit

    comps = []
    for comp in connected_components(g):
        mask = 0
        for x in comp:
            mask |= 1 << x
        w = omega_of(mask)
        if len(comp) > 2 and w > 2:
            examine(mask, w)
            comps.append(mask)
    frames = []
    while comps:
        comp = comps[0]
        found = iii & comp or ii & comp
        if not found:
            # Deletions in other components cannot make anything here reducible.
            del comps[0]
            continue
        v = _lowest(found).bit_length() - 1
        w = omega_of(comp)
        frames.append((orig[v], "iii" if iii & comp else "ii", reduction_threshold(w)))
        adj = cur._adj
        nbrs = adj[v]
        # near: the vertices within distance 3 of v, where reducibility can change.
        near = frontier = 1 << v
        for _ in range(3):
            reach = 0
            for x in bits(frontier):
                reach |= adj[x]
            frontier = reach & ~near
            near |= frontier
        cur = delete_vertex(cur, v)
        low = (1 << v) - 1
        high = v + 1
        del orig[v], rows[v]
        rows = [(m & low) | (m >> high) << v for m in rows]
        comps = [(m & low) | (m >> high) << v for m in comps[1:]]
        comp, nbrs, near, tri, k4, iii, ii = (
            (m & low) | (m >> high) << v for m in (comp, nbrs, near, tri, k4, iii, ii)
        )
        adj = cur._adj
        for x in bits(nbrs):
            rows[x] = square_row(cur, x)
            bit = 1 << x
            if tri & bit and not _in_triangle(adj, x):
                tri ^= bit
            if k4 & bit and not _in_k4(adj, x):
                k4 ^= bit
        for piece in _pieces(adj, comp, nbrs):
            w_piece = omega_of(piece)
            if piece.bit_count() > 2 and w_piece > 2:
                examine(piece if w_piece < w else piece & near, w_piece)
                insort(comps, piece, key=_lowest)
    return cur, orig, frames, tri, k4


def _color_line_graph_base(sub: Graph, root: RootGraph, node_limit: int) -> list:
    # A base root has max degree 3 or 4, the line graph's clique number, and
    # its strong chromatic index is within that clique number's bound.
    delta = max_degree(root.f)
    budget = palette_bound(delta)
    try:
        sec = strong_edge_color(root.f, budget, node_limit)
    except (BudgetExhaustedError, NodeLimitExceeded) as exc:
        raise InternalBoundViolation(
            f"strong edge coloring within {budget} colors failed on a root graph "
            f"with max degree {delta}: {exc}"
        ) from exc
    index = {e: i for i, e in enumerate(sec.edges)}
    return [sec.colors[index[root.edge_of_vertex[x]]] for x in range(sub.n)]


def _color_base_components(cur: Graph, tri: int, k4: int, node_limit: int) -> list:
    """Colors of the base remainder ``cur``, indexed by its vertices.

    The components without a triangle in ``tri`` (paths, cycles, edges and
    single vertices) are colored together by one :func:`color_small_omega`
    call on the subgraph their union induces; that subgraph keeps their
    vertex order, so each is colored as it would be alone. Each other
    component is classified, at clique number 4 if it meets ``k4`` and 3
    if not, and colored on its own. :func:`_peel` returns the two masks.
    """
    colors = [UNCOLORED] * cur.n
    small = []
    for comp in connected_components(cur):
        mask = sum(1 << x for x in comp)
        if not mask & tri:
            small += comp
            continue
        sub, old = induced_subgraph(cur, comp)
        outcome = classify(sub, 4 if mask & k4 else 3, check_claw_free=False)
        if outcome.kind == "icosahedron":
            local = color_icosahedron(sub, outcome.antipodal_pairs).colors
        elif outcome.kind == "line_graph":
            local = _color_line_graph_base(sub, outcome.root, node_limit)
        else:
            raise InternalBoundViolation("a reducible component survived to the base step")
        for i, c in enumerate(local):
            colors[old[i]] = c
    if small:
        sub, old = induced_subgraph(cur, small)
        for i, c in enumerate(color_small_omega(sub).colors):
            colors[old[i]] = c
    return colors


def greedy_reduce(
    g: Graph, omega: int, *, node_limit: int = DEFAULT_NODE_LIMIT
) -> Coloring:
    """Inductive square coloring within palette_bound(omega) colors, unverified.

    For claw-free inputs, where a deletion splits a component into at most
    two pieces (:func:`_pieces`), of clique number at most ``omega``, which
    must be 3 or 4. Iteratively deletes reducible vertices (explicit stack,
    no recursion), colors the base remainder per component, then reinserts
    each vertex in reverse order, recoloring its neighborhood through
    distinct available colors; one vertex mask per color, updated on every
    assignment, gives the colors available. Neither claw-freeness nor the
    result is checked here; :func:`color_square` checks both.
    """
    if omega not in (3, 4):
        raise ValueError(f"the inductive engine is defined for omega 3 and 4, not {omega}")
    clique_number = max_clique(g)[0]
    if clique_number > omega:
        raise ValueError(f"clique number exceeds omega {omega}")
    cur, orig, frames, tri, k4 = _peel(g, clique_number)
    colors = [UNCOLORED] * g.n
    classes = [0] * palette_bound(omega)
    alive = 0
    for x, c in zip(orig, _color_base_components(cur, tri, k4, node_limit)):
        colors[x] = c
        classes[c] |= 1 << x
        alive |= 1 << x
    for v, case, kprime in reversed(frames):
        alive |= 1 << v
        _reinsert_vertex(g, alive, v, case, kprime, colors, classes)
    return Coloring(colors)


def color_square(g: Graph, *, node_limit: int = DEFAULT_NODE_LIMIT) -> Coloring:
    """Proper coloring of the square of a claw-free graph within its bound.

    Components are colored independently from a shared palette: paths and
    cycles directly, clique number 3 and 4 through the inductive engine,
    and clique number 5 and up through the greedy square coloring whose
    palette the maximum square degree caps. Raises NotClawFreeError, with
    the claw as its witness, on a claw, and InternalBoundViolation when a
    component's palette exceeds its bound or the final coloring is not
    proper on the square; these checks do not depend on ``-O``.
    """
    require_claw_free(g)
    colors = [UNCOLORED] * g.n
    for comp in connected_components(g):
        sub, old = induced_subgraph(g, comp)
        w = max_clique(sub)[0]
        if w <= 2:
            local = color_small_omega(sub)
        elif w <= 4:
            local = greedy_reduce(sub, w, node_limit=node_limit)
        else:
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

