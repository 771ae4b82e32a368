"""Structural classification of connected claw-free graphs.

Dispatches every connected claw-free graph with clique number at least 3
into one of: a reducible vertex (small square degree with the recoloring
clique condition), the icosahedron, or a line graph witnessed by an edge
clique partition and a reconstructed root graph. Each outcome carries a
machine-checkable witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import require_claw_free
from .errors import (
    InvalidPartitionError,
    UnclassifiableGraphError,
    UnsupportedOmegaError,
)
from .graph import (
    DISJOINT_COVER,
    Graph,
    bits,
    cover_kind,
    line_graph,
    neighborhood_covers,
    split_at_lowest,
    square_degrees,
    square_row,
)


@dataclass(frozen=True)
class NeighborhoodShape:
    """Split of an induced neighborhood into two covering cliques.

    ``parts`` holds the two cliques (global vertex labels, possibly one
    empty) when the split with the fewest edges between them is unique and
    has at most two such edges, non-incident when there are two; otherwise
    None. ``ambiguous`` marks neighborhoods where several splits tie for
    the fewest edges between the parts, so that no covering pair is
    canonical.
    """

    parts: tuple[frozenset[int], frozenset[int]] | None
    ambiguous: bool = False


def _is_five_cycle(adj, mask: int) -> bool:
    """Whether the vertices in ``mask`` induce a five-cycle, with ``adj`` the rows of g.

    Five vertices that each have exactly two neighbors among them suffice:
    a simple 2-regular graph is a union of cycles of length at least 3, and
    on five vertices that leaves only the five-cycle.
    """
    return mask.bit_count() == 5 and all((adj[u] & mask).bit_count() == 2 for u in bits(mask))


def _complement_sides(adj, mask: int) -> list[tuple[int, int]] | None:
    """Color classes of each component of the complement of g[mask], as bitmasks of g.

    ``adj`` holds the rows of g. Components come in order of their lowest
    vertex, each with that vertex in its first class, so the lowest vertex
    of ``mask`` leads the first class of the first one. None when some
    component is not bipartite.
    """
    sides = []
    unseen = mask
    while unseen:
        frontier = unseen & -unseen
        classes = [frontier, 0]
        parity = 0
        unseen ^= frontier
        while frontier:
            reach = 0
            for u in bits(frontier):
                reach |= mask & ~(adj[u] | 1 << u)
            # Edges leave a BFS layer only for its own or a neighboring
            # layer, so an edge into the current class closes an odd cycle.
            if reach & classes[parity]:
                return None
            frontier = reach & unseen
            unseen ^= frontier
            parity ^= 1
            classes[parity] |= frontier
        sides.append((classes[0], classes[1]))
    return sides


def _split(a_mask: int, b_mask: int) -> NeighborhoodShape:
    """The shape with parts ``a_mask`` and ``b_mask``, smaller part first."""
    parts = (frozenset(bits(a_mask)), frozenset(bits(b_mask)))
    return NeighborhoodShape(tuple(sorted(parts, key=lambda p: (len(p), sorted(p)))))


def neighborhood_shape(g: Graph, v: int) -> NeighborhoodShape:
    """Split the induced neighborhood of ``v`` into two covering cliques.

    ``parts`` holds the two cliques :func:`_shape_masks` finds, as
    frozensets of g's labels with the smaller part first. Without a unique
    split it is None, with ``ambiguous`` set when several splits tie for
    the fewest edges between the parts. Only N(v)'s own cover is checked.
    """
    adj = g._adj
    nbrs = g.adjacency_mask(v)
    found = _shape_masks(adj, nbrs, cover_kind(adj, nbrs))
    if isinstance(found, bool):
        return NeighborhoodShape(None, ambiguous=found)
    return _split(*found)


def _shape_masks(adj, nbrs: int, kind: int) -> tuple[int, int] | bool:
    """The two covering cliques of the neighborhood ``nbrs`` as masks, or whether splits tie.

    A split of N(v) into two cliques A and B is a proper 2-coloring of the
    complement of G[N(v)], and every complement edge crosses it, so the
    number of G-edges between the parts is |A|·|B| minus the complement
    edge count. Bipartite sides of the complement components are therefore
    oriented, by a subset-sum over |A| that counts orientations up to two,
    to make the parts as unequal as possible; this is O(h²) for h = |N(v)|.
    A unique split with the fewest cross edges, at most two of them and
    non-incident when there are two, yields the parts (A, B), in no
    particular order; anything else yields a bool: True when several
    splits tie for the fewest cross edges, False otherwise. A five-cycle,
    whose complement is again an odd cycle, has no split. ``adj`` holds
    the rows of g, so the parts come out in g's labels.

    ``kind`` is ``cover_kind(adj, nbrs)``, which the caller has at hand.
    Fast path: when it is DISJOINT_COVER, with cliques A and B and no edge
    between them, the complement is K_{|A|,|B|} (edgeless when B is
    empty), whose unique split, with no cross edges, is (A, B).
    """
    if kind == DISJOINT_COVER:
        return split_at_lowest(adj, nbrs)
    h = nbrs.bit_count()
    sides = _complement_sides(adj, nbrs)
    if sides is None:
        return False

    # Bit a of once[i] is set when some orientation of components 0..i puts
    # a vertices in A, with the lowest neighbor kept in A; bit a of twice
    # when at least two orientations of all components do.
    once = [1 << sides[0][0].bit_count()]
    twice = 0
    for x_side, y_side in sides[1:]:
        x, y = x_side.bit_count(), y_side.bit_count()
        prev = once[-1]
        twice = (twice << x) | (twice << y) | ((prev << x) & (prev << y))
        once.append((prev << x) | (prev << y))
    size = min(bits(once[-1]), key=lambda a: a * (h - a))
    ties = [a for a in {size, h - size} if once[-1] >> a & 1]
    if len(ties) > 1 or twice >> ties[0] & 1:
        return True
    inner_edges = sum((adj[u] & nbrs).bit_count() for u in bits(nbrs)) // 2
    best_k = size * (h - size) - (h * (h - 1) // 2 - inner_edges)
    if best_k > 2:
        return False

    # Walk the unique orientation back from the last component.
    a_size = ties[0]
    a_mask = sides[0][0]
    for i in range(len(sides) - 1, 0, -1):
        x_side, y_side = sides[i]
        x = x_side.bit_count()
        pick = x_side if a_size >= x and once[i - 1] >> (a_size - x) & 1 else y_side
        a_mask |= pick
        a_size -= pick.bit_count()
    b_mask = nbrs ^ a_mask
    if best_k == 2:
        (p1, q1), (p2, q2) = [(i, j) for i in bits(a_mask) for j in bits(adj[i] & b_mask)]
        if {p1, q1} & {p2, q2}:
            return False
    return a_mask, b_mask


def recognize_icosahedron(g: Graph):
    """Antipodal pairing when g is the icosahedron, else None.

    Every connected graph whose neighborhoods all induce five-cycles is the
    icosahedron, so on 12 vertices that test alone forces g to be one
    icosahedron: 5-regular with 30 edges and connected, which therefore go
    unchecked. Each vertex then has one antipode, at distance 3: the one
    vertex outside its closed square neighborhood.
    """
    if g.n != 12 or not all(_is_five_cycle(g._adj, row) for row in g._adj):
        return None
    everyone = (1 << 12) - 1
    pairs = []
    for v in range(12):
        far = everyone & ~(square_row(g, v) | 1 << v)
        antipode = far.bit_length() - 1
        if v < antipode:
            pairs.append((v, antipode))
    return tuple(pairs)


def _krausz_root(g: Graph, omega: int):
    """(cliques, root) when the designated cliques of g form a Krausz partition, else None.

    Designates, for every vertex v, the union of v with each of its two
    covering cliques from :func:`_shape_masks`, as vertex masks; the kind
    of each neighborhood's cover comes from g's :func:`neighborhood_covers`
    table, which the claw check has usually built already. The two
    parts of v partition N(v), so every edge at v lies in one of v's
    designated cliques and no edge is left to cover. The cliques come as
    lists of their members in increasing order, the lists sorted. None when
    some neighborhood has no covering pair, a clique would exceed omega
    vertices, or :func:`root_graph` rejects the family, which happens
    exactly when some edge lies in more than one clique or some vertex in
    more than two. A root vertex is a clique or a fresh endpoint, so the
    root's max degree is at most omega.
    """
    adj = g._adj
    designated = set()
    for v, (row, kind) in enumerate(zip(adj, neighborhood_covers(g))):
        parts = _shape_masks(adj, row, kind)
        if isinstance(parts, bool):
            return None
        for part in parts:
            if not part:
                continue
            if part.bit_count() > omega - 1:
                return None
            designated.add(part | 1 << v)
    cliques = sorted(map(bits, designated))
    try:
        return cliques, root_graph(g, cliques)
    except InvalidPartitionError:
        return None


# Kept for perfbench/tracer.py, which times krausz_partition and fails to
# install when a listed name is missing; classify calls _krausz_root.
def krausz_partition(g: Graph, omega: int) -> list[frozenset[int]] | None:
    """Edge clique partition certifying that g is a line graph, or None.

    The cliques of :func:`_krausz_root`, which verifies them by building
    the root graph rather than assuming them.
    """
    found = _krausz_root(g, omega)
    return None if found is None else [frozenset(c) for c in found[0]]


@dataclass(frozen=True)
class RootGraph:
    """A graph f together with the map from vertices of g to edges of f."""

    f: Graph
    edge_of_vertex: tuple[tuple[int, int], ...]


def root_graph(g: Graph, partition) -> RootGraph:
    """Reconstruct the root graph from a Krausz partition of g.

    Root vertices are the cliques, sorted by their members in increasing
    order, plus one fresh endpoint per vertex of g that lies in fewer than
    two cliques (two for isolated vertices). The partition is not trusted:
    once every clique has two or more vertices of g and every vertex lies
    in at most two cliques, comparing the line graph of the result with g
    edge for edge rejects a non-edge inside a clique and an edge covered
    zero times or twice, so exactly the families that are not Krausz
    partitions raise InvalidPartitionError. The family is sorted once, as
    member lists, which puts duplicate cliques side by side and each
    clique's range in its ends; the root's rows are built from its edges
    directly, as the comparison has checked them.
    """
    cliques = sorted(sorted(set(c)) for c in partition)
    if any(a == b for a, b in zip(cliques, cliques[1:])):
        raise InvalidPartitionError("duplicate cliques in partition")
    membership: list[list[int]] = [[] for _ in range(g.n)]
    for i, c in enumerate(cliques):
        if len(c) < 2:
            raise InvalidPartitionError("cliques in the partition need at least two vertices")
        g.check_vertex(c[0])
        g.check_vertex(c[-1])
        for u in c:
            membership[u].append(i)
    next_aux = len(cliques)
    edge_of_vertex = []
    for owners in membership:
        if len(owners) > 2:
            raise InvalidPartitionError("a vertex belongs to more than two cliques")
        # Owners come in increasing order and fresh endpoints follow every
        # clique, so each pair comes out sorted.
        while len(owners) < 2:
            owners.append(next_aux)
            next_aux += 1
        edge_of_vertex.append(tuple(owners))
    if len(set(edge_of_vertex)) != g.n:
        raise InvalidPartitionError("two vertices share the same pair of cliques")
    if line_graph(next_aux, edge_of_vertex)._adj != g._adj:
        raise InvalidPartitionError("line graph reconstruction mismatch")
    rows = [0] * next_aux
    for a, b in edge_of_vertex:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return RootGraph(Graph(tuple(rows)), tuple(edge_of_vertex))


@dataclass(frozen=True)
class Reduction:
    """A vertex whose removal the inductive recoloring can undo.

    ``case`` records which recoloring case applies: "iii" when the
    neighbors with square degree above kprime+1 form a clique in the square
    of the deleted graph, "ii" when a neighbor xstar of square degree at
    most kprime+1 exists and the threshold moves to kprime+2.
    """

    vertex: int
    case: str
    xstar: int | None
    kprime: int


def _clique_in_deleted_square(adj, mask: int, v: int) -> bool:
    """Whether the neighbors of v in ``mask`` are pairwise within distance 2 in g - v.

    ``adj`` holds the rows of g. Two neighbors of v are within distance 2
    in g - v iff they are adjacent or share a neighbor other than v, so
    only the non-adjacent pairs are tested, each by one AND of rows. The
    mask is walked in place, so what is left of it is the part above the
    vertex just taken.
    """
    keep = ~(1 << v)
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        row = adj[low.bit_length() - 1] & keep
        far = rest & ~row
        while far:
            y = far & -far
            if not adj[y.bit_length() - 1] & row:
                return False
            far ^= y
    return True


def reduction_case(adj, sq, v: int, kprime: int, neighbor_cap: int | None) -> str | None:
    """The recoloring case that makes ``v`` reducible: "iii", "ii" or None.

    ``adj`` holds the rows of g and ``sq`` the square degree of each of its
    vertices, such as :func:`square_degrees` gives. A vertex qualifies when
    its square degree is at most ``kprime``, every neighbor's square degree
    is at most ``neighbor_cap`` (unless None), and the neighbors above the
    case threshold form a clique in the square of g with v deleted: above
    kprime+1 for case iii; above kprime+2 for case ii, which also needs a
    neighbor of square degree at most kprime+1. Case iii wins when both
    hold. One pass over N(v) sorts the neighbors into the masks above each
    threshold; the clique tests then work on pairs of rows of g.
    """
    if sq[v] > kprime:
        return None
    above_iii = above_ii = 0
    has_low = False
    rest = adj[v]
    while rest:
        bit = rest & -rest
        rest ^= bit
        d = sq[bit.bit_length() - 1]
        if neighbor_cap is not None and d > neighbor_cap:
            return None
        if d > kprime + 2:
            above_ii |= bit
            above_iii |= bit
        elif d > kprime + 1:
            above_iii |= bit
        else:
            has_low = True
    if _clique_in_deleted_square(adj, above_iii, v):
        return "iii"
    if has_low and _clique_in_deleted_square(adj, above_ii, v):
        return "ii"
    return None


def find_reducible_vertex(g: Graph, omega: int):
    """Smallest-index reducible vertex, preferring case iii over case ii.

    Applies :func:`reduction_case` to every vertex, under the thresholds
    of clique number ``omega`` (:func:`reduction_thresholds`), with the
    square degrees of g's :func:`square_degrees` table: the first case-iii
    vertex wins, otherwise the first case-ii one, with its smallest
    neighbor of square degree at most kprime+1 as xstar. Raises
    UnsupportedOmegaError below omega 3.
    """
    kprime, neighbor_cap = reduction_thresholds(omega)
    adj = g._adj
    sq = square_degrees(g)
    first_ii = None
    for v in range(g.n):
        case = reduction_case(adj, sq, v, kprime, neighbor_cap)
        if case == "iii":
            return Reduction(v, "iii", None, kprime)
        if case == "ii" and first_ii is None:
            first_ii = v
    if first_ii is None:
        return None
    xstar = next(x for x in bits(adj[first_ii]) if sq[x] <= kprime + 1)
    return Reduction(first_ii, "ii", xstar, kprime)


def reduction_thresholds(omega: int) -> tuple[int, int | None]:
    """``(kprime, neighbor_cap)`` for clique number ``omega``.

    kprime is the square-degree threshold under which a vertex can anchor a
    reduction; neighbor_cap caps its neighbors' square degrees, or is None
    when there is no cap.

    The omega >= 5 pair, (2*omega*(omega-1) - 4, 2*omega*(omega-1) - 3),
    caps every neighbor at kprime+1, so no neighbor is above either case
    threshold and :func:`reduction_case` gives "iii" or None, never "ii".
    The pair has no cited source, and it does not extend the omega 3 and 4
    values (9, 11 and 19, no cap). In the library only :func:`classify`
    reaches it, through :func:`find_reducible_vertex`, for ``clawsq
    analyze``; the engine peels at omega 3 and 4 alone. Citing or dropping
    it waits for the ``clawsq/3`` report schema (ROADMAP item 2's
    satellite).
    """
    if omega == 3:
        return 9, 11
    if omega == 4:
        return 19, None
    if omega >= 5:
        return 2 * omega * (omega - 1) - 4, 2 * omega * (omega - 1) - 3
    raise UnsupportedOmegaError(f"no reduction threshold for omega {omega}")


@dataclass(frozen=True)
class Classification:
    """Structural outcome for one connected claw-free graph."""

    kind: str  # "small_omega" | "reducible" | "icosahedron" | "line_graph"
    omega: int
    reduction: Reduction | None = None
    antipodal_pairs: tuple[tuple[int, int], ...] | None = None
    root: RootGraph | None = None


def classify(g: Graph, omega: int, *, check_claw_free: bool = True) -> Classification:
    """Dispatch a connected claw-free graph into its structural case.

    Prefers a reducible vertex; from omega 5 up only case iii occurs, as
    :func:`reduction_thresholds` caps every neighbor at kprime+1 there.
    Falls back to icosahedron recognition (omega 3 only) and then to
    line-graph recognition, which builds the root graph once. Raises
    UnclassifiableGraphError when nothing applies, which signals a bug or a
    violated precondition.
    """
    if check_claw_free:
        require_claw_free(g)
    if omega <= 2:
        return Classification("small_omega", omega)
    red = find_reducible_vertex(g, omega)
    if red is not None:
        return Classification("reducible", omega, reduction=red)
    if omega == 3:
        pairing = recognize_icosahedron(g)
        if pairing is not None:
            return Classification("icosahedron", omega, antipodal_pairs=pairing)
    found = _krausz_root(g, omega)
    if found is not None:
        return Classification("line_graph", omega, root=found[1])
    raise UnclassifiableGraphError(
        f"no structural case applies (n={g.n}, omega={omega}); "
        "the input may contain a claw, or this is a bug"
    )
