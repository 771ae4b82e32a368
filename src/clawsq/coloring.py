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

Peeling is incremental (:func:`_peel`): live components and triangle and
K4 membership, read at the start off the neighborhood clique numbers that
the claw check's covers give, are kept across steps and updated only near
the deleted vertex, a vertex's reduction case is worked out, from the
square rows of its neighborhood, only when it could be the next pick, and
each step records just (vertex, case, kprime); as the graph is claw-free,
a deletion splits its component into at most two pieces (:func:`_pieces`).
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
    bits,
    connected_components,
    delete_vertex,
    holds_clique,
    induced_subgraph,
    max_clique,
    max_degree,
    neighborhood_cliques,
    reach,
    split_at_lowest,
    square,
    square_row,
)
from .structure import (
    classify,
    reduction_case,
    reduction_thresholds,
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

    Each vertex takes the smallest color whose class, a vertex mask, misses
    its square row. Uses at most one more color than the maximum square
    degree, which for claw-free inputs stays within 2*omega*(omega-1)+1.
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
    the interpreter's recursion limit.

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
    nodes = 0

    def shift(mask, s, step):
        """Move the vertices of ``mask`` one level by ``step``, scanning from level s against it.

        Every vertex of ``mask`` lies at level s or further against
        ``step``, and each moves once, as it leaves ``mask`` when it moves.
        """
        while mask:
            moved = levels[s] & mask
            if moved:
                levels[s] ^= moved
                levels[s + step] |= moved
                mask ^= moved
            s -= step

    def color(v, bit, c, s):
        """Give v, whose mask is ``bit``, color c; v has already left its level s, the fullest."""
        nonlocal uncolored
        colors[v] = c
        classes[c] |= bit
        uncolored ^= bit
        shift(rows[v] & uncolored & ~sees[c], s, 1)
        sees[c] |= rows[v]

    def uncolor(v, bit):
        """Take v's color away; v does not rejoin a level."""
        nonlocal uncolored
        c = colors[v]
        colors[v] = UNCOLORED
        classes[c] ^= bit
        uncolored |= bit
        row = rows[v]
        lost = row & ~reach(rows, classes[c] & reach(rows, row))
        sees[c] ^= lost
        shift(lost & uncolored, 1, -1)

    def visit(used: int, s: int):
        """Count one search node; its frame, or None once every vertex is colored.

        No uncolored vertex sees more than s colors.
        """
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise NodeLimitExceeded(f"gave up after {node_limit} nodes")
        if not uncolored:
            return None
        while not levels[s]:
            s -= 1
        pick = levels[s]
        for tier in tiers:
            if pick & tier:
                pick &= tier
                break
        bit = pick & -pick
        v = bit.bit_length() - 1
        top = min(used + 1, budget)
        return v, bit, s, used, (c for c in range(top) if not sees[c] >> v & 1)

    stack = [visit(0, 0)]  # n > 0, so some vertex is uncolored
    while stack:
        v, bit, s, used, choices = stack[-1]
        c = next(choices, None)
        if colors[v] == UNCOLORED:
            levels[s] ^= bit
        else:
            uncolor(v, bit)
        if c is None:
            # The others are as they were at the pick, so v still sees s colors.
            levels[s] |= bit
            stack.pop()
            continue
        color(v, bit, c, s)
        # Coloring v raised each saturation by at most one.
        frame = visit(max(used, c + 1), min(s + 1, palette))
        if frame is None:
            return colors
        stack.append(frame)
    return None


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
        row = (first | reach(adj, first)) & alive & ~(1 << x)
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
    3), and three case masks: ``iii`` and ``ii`` cache the case of each
    clean vertex, and ``dirty`` holds the vertices whose cached case may be
    stale. No square rows are kept: a case is read off the rows of ``cur``
    within distance 3 of its vertex. Deleting v changes triangles and K4s
    only on N(v). Only the component that held v can split.

    Every vertex of a live component starts dirty. A deletion changes a
    vertex's case only within distance 3 of v, or on all of a piece whose
    clique number, and with it the threshold, drops, so it marks exactly
    those vertices of the live pieces dirty. To pick, the dirty vertices of
    the first live component are evaluated from the bottom until the
    lowest vertex left in ``iii | dirty`` is clean: that is the smallest
    case-iii vertex. When none is left, no vertex of the component is
    dirty, and ``ii`` gives the smallest case-ii vertex. A clean vertex's
    cached case is exact, so each pick is the one the masks would give if
    every case were recomputed after every deletion. A live component left
    with no reducible vertex is final, as no later deletion touches it.
    """
    cur = g
    orig = list(range(g.n))
    tri = k4 = iii = ii = dirty = 0
    for x, size in enumerate(neighborhood_cliques(g)):
        if size >= 2:
            tri |= 1 << x
            if size >= 3:
                k4 |= 1 << x

    def omega_of(mask):
        return 4 if mask & k4 else 3 if mask & tri else 2

    comps = []
    for comp in connected_components(g):
        mask = 0
        for x in comp:
            mask |= 1 << x
        w = omega_of(mask)
        if w > 2:
            dirty |= mask
            comps.append(mask)
    frames = []
    bases = []
    while comps:
        comp = comps[0]
        w = omega_of(comp)
        kprime, cap = reduction_thresholds(w)
        # Settle dirty vertices from the bottom until the lowest candidate is a clean case iii.
        while (pick := _lowest((iii | dirty) & comp)) & dirty:
            case = reduction_case(cur, pick.bit_length() - 1, kprime, cap)
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
        # v has a neighbor, so they are the neighbors of v's closed square neighborhood.
        near = reach(adj, square_row(cur, v) | 1 << v)
        cur = delete_vertex(cur, v)
        low = (1 << v) - 1
        high = v + 1
        del orig[v]
        comps = [(m & low) | (m >> high) << v for m in comps[1:]]
        comp, nbrs, near, tri, k4, iii, ii, dirty = (
            (m & low) | (m >> high) << v for m in (comp, nbrs, near, tri, k4, iii, ii, dirty)
        )
        adj = cur._adj
        for x in bits(nbrs):
            bit = 1 << x
            if tri & bit and not holds_clique(adj, adj[x], 2):
                tri ^= bit
            if k4 & bit and not holds_clique(adj, adj[x], 3):
                k4 ^= bit
        for piece in _pieces(adj, comp, nbrs):
            w_piece = omega_of(piece)
            if w_piece > 2:
                dirty |= piece if w_piece < w else piece & near
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
    neighborhood tables (:func:`neighborhood_covers`, one cover check per
    vertex, and :func:`neighborhood_cliques`) end with the call and g
    never holds them. The claw check checks each cover once and every later
    step on the whole graph reads the result; a component that is a proper
    subgraph builds its own tables. A component's clique number is one more
    than its largest capped neighborhood value, and only a component where
    that reaches 5 runs the exact :func:`max_clique`.
    """
    g = Graph(g._adj)
    require_claw_free(g)
    colors = [UNCOLORED] * g.n
    for comp in connected_components(g):
        sub, old = induced_subgraph(g, comp)
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

