"""Claw detection and the quantitative neighborhood inequalities for claw-free graphs.

:func:`run_lemma_suite` is the one public entry to the inequalities: it
checks claw-freeness once and returns every instance as a
:class:`LemmaReport` that records both sides of the bound exactly. Sides are
integers or rationals (`fractions.Fraction`), never floating point, so
``holds``, which is ``lhs <= rhs``, is never a tolerance question. One sweep
over the adjacency rows computes every report. ω of N(v) comes off the
two cliques that cover N(v) when the cover table has them: the larger
side of a disjoint cover, and |N(v)| minus the matching number of the
complement (König) for a joined one. Only a neighborhood without a cover
is searched, for a clique in g's rows. The sweep assumes the
claw-freeness that :func:`run_lemma_suite` checks first, so no N(v) holds
an independent triple and every exterior N(w) - N[v] is a clique: the
stability numbers and the exterior non-edges follow, with no search. Each
exterior is counted once per directed edge by popcounts. q is computed at
most once per edge, since it is symmetric and Z(v) is where it is
positive. ν and q are matching numbers: a greedy matching grown by
Edmonds' blossom algorithm, polynomial and without recursion, and no
search at all on an edge whose cover table entry forces 0.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .errors import NotClawFreeError, NotNeighborError, UnsupportedOmegaError
from .graph import (
    DISJOINT_COVER,
    JOINED_COVER,
    NO_COVER,
    Graph,
    bits,
    max_clique_within,
    neighborhood_covers,
    split_at_lowest,
    square_degrees,
)

# Exact values of the Ramsey numbers R(k, 3) for small k; past the table the
# binomial upper bound C(k+1, 2) is used, which keeps every bound valid.
_RAMSEY_R3 = {2: 3, 3: 6, 4: 9, 5: 14, 6: 18, 7: 23, 8: 28, 9: 36}


@dataclass(frozen=True)
class ClawWitness:
    """An induced K_{1,3}: a center adjacent to three pairwise non-adjacent leaves."""

    center: int
    leaves: tuple[int, int, int]

    def as_dict(self) -> dict:
        return {"center": self.center, "leaves": list(self.leaves)}


@dataclass(slots=True)
class LemmaReport:
    """One evaluated inequality instance: holds iff lhs <= rhs.

    A slotted record, compared by value and not hashable. It is not frozen:
    a frozen dataclass sets each field through ``object.__setattr__``, and a
    corpus sweep builds one report per instance.
    """

    lemma_id: str
    vertex: int
    neighbor: int | None
    lhs: int | Fraction
    rhs: int | Fraction

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs

    def as_dict(self) -> dict:
        return {
            "lemma": self.lemma_id,
            "vertex": self.vertex,
            "neighbor": self.neighbor,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "holds": self.holds,
        }


def find_claw(g: Graph) -> ClawWitness | None:
    """First induced claw in lexicographic (center, leaves) order, or None.

    For each center the search walks non-adjacent leaf pairs inside the
    neighborhood with bitmask filters; a graph is claw-free iff this
    returns None. Only the centers whose neighborhood has no cover in g's
    :func:`neighborhood_covers` table, which this builds when g has none,
    are searched: a covered neighborhood has no independent triple, so
    skipping the rest keeps the first witness. Both leaf masks are walked
    in place, lowest first, so what is left of each is the part above the
    leaf just taken.
    """
    adj = g._adj
    for v, kind in enumerate(neighborhood_covers(g)):
        if kind != NO_COVER:
            continue
        rest_x = adj[v]
        while rest_x:
            low = rest_x & -rest_x
            rest_x ^= low
            x = low.bit_length() - 1
            rest_y = rest_x & ~adj[x]
            while rest_y:
                low = rest_y & -rest_y
                rest_y ^= low
                y = low.bit_length() - 1
                rest = rest_y & ~adj[y]
                if rest:
                    z = (rest & -rest).bit_length() - 1
                    return ClawWitness(v, (x, y, z))
    return None


def require_claw_free(g: Graph) -> None:
    witness = find_claw(g)
    if witness is not None:
        raise NotClawFreeError(
            f"claw with center {witness.center} and leaves {witness.leaves}",
            witness=witness,
        )


def ramsey_bound(omega: int) -> int:
    """R(omega, 3) from the exact table, or the binomial upper bound past it."""
    if omega < 2:
        raise UnsupportedOmegaError("omega must be at least 2")
    return _RAMSEY_R3.get(omega, comb(omega + 1, 2))


# Kept for perfbench/tracer.py, which times z_set and fails to install when a
# listed name is missing; the library reads Z(v) off q_rows.
def z_set(g: Graph, v: int) -> frozenset[int]:
    """Neighbors ``w`` of ``v`` with q(v, w) >= 1: N(v) ∩ N(w) is not a clique."""
    g.check_vertex(v)
    adj = g._adj
    return frozenset(w for w in bits(adj[v]) if _complement_matching(adj, adj[v] & adj[w]))


def _complement_matching(adj, mask: int) -> int:
    """Matching number of the complement of g[mask], with ``adj`` the rows of g.

    A greedy pass on masks matches each vertex, lowest first, with its
    lowest free complement neighbor. That matching is maximal, so an
    augmenting path joins two free vertices that each have a complement
    neighbor; with fewer than two of them it is maximum. Otherwise
    :func:`_blossom_matching` grows it to a maximum one.
    """
    free = todo = mask
    pairs = []
    while todo:
        low = todo & -todo
        u = low.bit_length() - 1
        partners = free & ~adj[u] & ~low
        if partners:
            other = partners & -partners
            free ^= low | other
            todo &= ~(low | other)
            pairs.append((u, other.bit_length() - 1))
        else:
            todo ^= low
    hungry = 0
    while free:
        low = free & -free
        free ^= low
        if mask & ~adj[low.bit_length() - 1] & ~low:
            hungry += 1
            if hungry == 2:
                return _blossom_matching(adj, mask, pairs)
    return len(pairs)


def _blossom_matching(adj, mask: int, pairs: list[tuple[int, int]]) -> int:
    """Size of a maximum matching of the complement of g[mask] that grows from ``pairs``.

    Edmonds' blossom algorithm (Edmonds 1965, "Paths, trees, and flowers")
    on local indices, with an explicit queue: one alternating-tree search
    from each free vertex, contracting an odd cycle into its base when the
    search closes one, and augmenting along the path when it reaches
    another free vertex. A vertex with no augmenting path from it never
    gets one later, so each is searched once. ``pairs`` is a matching of
    the complement, in g's labels.
    """
    verts = bits(mask)
    h = len(verts)
    local = {x: i for i, x in enumerate(verts)}
    nbrs = [[local[y] for y in bits(mask & ~adj[x] & ~(1 << x))] for x in verts]
    match = [-1] * h
    for x, y in pairs:
        match[local[x]], match[local[y]] = local[y], local[x]
    size = len(pairs)
    for root in range(h):
        if match[root] != -1 or not nbrs[root]:
            continue
        parent = [-1] * h  # the odd vertices' tree parents
        base = list(range(h))  # each vertex's blossom base
        outer = [False] * h
        outer[root] = True
        queue = deque([root])
        end = -1
        while queue and end == -1:
            v = queue.popleft()
            for to in nbrs[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or match[to] != -1 and parent[match[to]] != -1:
                    # v and to are both outer, so the edge closes an odd
                    # cycle, a blossom, whose base is the first base their
                    # paths to the root share.
                    on_path = [False] * h
                    x = v
                    while True:
                        x = base[x]
                        on_path[x] = True
                        if match[x] == -1:
                            break
                        x = parent[match[x]]
                    top = base[to]
                    while not on_path[top]:
                        top = base[parent[match[top]]]
                    inside = [False] * h
                    for x, child in ((v, to), (to, v)):
                        while base[x] != top:
                            inside[base[x]] = inside[base[match[x]]] = True
                            parent[x] = child
                            child = match[x]
                            x = parent[child]
                    for i in range(h):
                        if inside[base[i]]:
                            base[i] = top
                            if not outer[i]:
                                outer[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        end = to
                        break
                    outer[match[to]] = True
                    queue.append(match[to])
        while end != -1:
            v = parent[end]
            after = match[v]
            match[end], match[v] = v, end
            end = after
        if match[root] != -1:
            size += 1
    return size


def q_value(g: Graph, v: int, w: int) -> int:
    """Matching number of the complement of w's neighborhood inside N(v).

    That neighborhood is N(v) ∩ N(w), so q depends on the edge alone and
    q(v, w) = q(w, v); it is positive iff N(v) ∩ N(w) is not a clique, so
    ``z_set(g, v)`` = {w : q(v, w) >= 1}. :func:`_complement_matching`
    reads the complement straight off g's rows, in polynomial time and
    without recursion.
    """
    if not g.has_edge(v, w):
        raise NotNeighborError(f"{w} is not a neighbor of {v}")
    adj = g._adj
    return _complement_matching(adj, adj[v] & adj[w])


def q_rows(g: Graph) -> list[dict[int, int]]:
    """``rows[v][w] = q_value(g, v, w)`` for every edge, each row in increasing w.

    q is symmetric, so each edge's value is computed once and put in both
    rows. An edge with an endpoint whose neighborhood g's
    :func:`neighborhood_covers` table marks DISJOINT_COVER gets 0 without a
    search: that N(v) is two cliques with no edge between them, so
    N(v) ∩ N(w) lies inside the one that holds w, and its complement has
    no edge.
    """
    adj = g._adj
    kinds = neighborhood_covers(g)
    rows = [{} for _ in range(g.n)]
    for v, nv in enumerate(adj):
        row = rows[v]
        split = kinds[v] == DISJOINT_COVER
        for w in bits(nv >> v + 1 << v + 1):
            if split or kinds[w] == DISJOINT_COVER:
                q = 0
            else:
                q = _complement_matching(adj, nv & adj[w])
            row[w] = rows[w][v] = q
    return rows


def _second_degree_cap(omega: int) -> Fraction:
    # Max of three candidate caps on the square degree of a high-degree
    # vertex, evaluated with exact rationals; R may be replaced by any
    # upper bound without invalidating it.
    r = ramsey_bound(omega)
    t1 = Fraction(2 * omega - 1) + (Fraction(omega) - Fraction(1, 2)) * (omega - 1)
    t2 = Fraction(r - 2) + Fraction((r - 2) * (omega - 1)) / (Fraction(r - 1, 2) + 2 - omega)
    t3 = Fraction(r - 1) + Fraction((r - 1) * (omega - 1)) / (Fraction(r, 2) + 2 - omega)
    return max(t1, t2, t3)


def _lemma_reports(g: Graph, omega: int | None = None) -> list[LemmaReport]:
    """Every report of the suite at clique number ``omega``, from one sweep over g's rows.

    The clique number of each neighborhood comes first, read off g's
    :func:`neighborhood_covers` table: the larger side of a DISJOINT_COVER,
    |N(v)| - ν for a JOINED_COVER, whose complement is bipartite, with ν its
    matching number, and a clique search on a NO_COVER neighborhood alone.
    ``omega`` defaults to g's own, max(2, 1 + the largest of them). g must
    be claw-free, as :func:`run_lemma_suite` checks first: the stability
    numbers and the exterior non-edges are derived from that, not searched.

    Reports come in three families, each in vertex order:
    - per vertex: deg(v) <= R(omega,3)-1; no clique of size omega inside
      N(v); no independent triple inside it;
    - per edge (v, w): the exterior N(w) - N[v] is a clique of at most
      omega-1 vertices;
    - per vertex: the half-weighted bound through Z(v) (both the weighted
      sum and its closed form), the matching-weighted bound through q(w)
      (both forms), and, when deg(v) >= 2*omega-1: saturation of Z(v), the
      half-degree bound, and (only for omega >= 4, where the matching lower
      bound needs that much room) the matching-weighted degree bound and
      the square-degree cap. One extra report caps the maximum square
      degree globally.
    Each edge's exterior is computed once and read by both of its families.
    """
    adj = g._adj
    kinds = neighborhood_covers(g)
    cliques = []
    for nv, kind in zip(adj, kinds):
        if kind == DISJOINT_COVER:
            side_a, side_b = split_at_lowest(adj, nv)
            cliques.append(max(side_a.bit_count(), side_b.bit_count()))
        elif kind == JOINED_COVER:
            # the complement of N(v) is bipartite, so by König's theorem its
            # largest independent set, a clique of g, misses one vertex per
            # matching edge
            cliques.append(nv.bit_count() - _complement_matching(adj, nv))
        else:
            cliques.append(max_clique_within(adj, nv)[0])
    if omega is None:
        omega = max(2, 1 + max(cliques, default=-1))
    degree_cap = ramsey_bound(omega) - 1
    clique_cap = omega - 1
    cap = _second_degree_cap(omega) if omega >= 4 else None
    qs = q_rows(g)
    degree, exterior, second = [], [], []
    worst_v = 0
    worst = 0
    for v, (nv, clique, sqd) in enumerate(zip(adj, cliques, square_degrees(g))):
        deg = nv.bit_count()
        degree.append(LemmaReport("degree-below-ramsey", v, None, deg, degree_cap))
        degree.append(LemmaReport("neighborhood-clique-cap", v, None, clique, clique_cap))
        # an independent triple in N(v) would be a claw at v, so α is 1 on a clique, else 2
        stable = 0 if not nv else 1 if clique == deg else 2
        degree.append(LemmaReport("neighborhood-stability-cap", v, None, stable, 2))
        if sqd > worst:
            worst, worst_v = sqd, v
        snn = sqd - deg
        outside = ~(nv | 1 << v)
        counts = {}  # q -> how many neighbors w have q(v, w) = q
        exts = {}  # q -> the exterior sizes of those neighbors, summed
        for w, q in qs[v].items():
            ext = adj[w] & outside
            size = ext.bit_count()
            exterior.append(LemmaReport("exterior-size", v, w, size, clique_cap))
            # two non-adjacent members of ext would be a claw at w with v
            exterior.append(LemmaReport("exterior-nonedges", v, w, 0, 0))
            counts[q] = counts.get(q, 0) + 1
            exts[q] = exts.get(q, 0) + size
        z_size = deg - counts.get(0, 0)
        # Z(v) is where q >= 1, and its members' exteriors count half
        zsum = Fraction(sum(exts.values()) + exts.get(0, 0), 2)
        second.append(LemmaReport("second-neighborhood-z-sum", v, None, snn, zsum))
        zbound = Fraction((2 * deg - z_size) * (omega - 1), 2)
        second.append(LemmaReport("second-neighborhood-z", v, None, snn, zbound))
        if deg:  # one Fraction per side, over the lcm of the q + 1
            den = lcm(*(q + 1 for q in counts))
            qsum = Fraction(sum(ext * (den // (q + 1)) for q, ext in exts.items()), den)
            weight = sum(c * (den // (q + 1)) for q, c in counts.items())
            qbound = Fraction((omega - 1) * weight, den)
        else:
            qsum = qbound = 0
        second.append(LemmaReport("second-neighborhood-q-sum", v, None, snn, qsum))
        second.append(LemmaReport("second-neighborhood-q", v, None, snn, qbound))
        if deg >= 2 * omega - 1:
            second.append(LemmaReport("z-covers-neighborhood", v, None, deg, z_size))
            half = Fraction(deg * (omega - 1), 2)
            second.append(LemmaReport("half-degree-bound", v, None, snn, half))
            if omega >= 4:
                denom = (deg + 2) // 2 + 2 - omega  # ceil((deg+1)/2) + 2 - omega
                weighted = Fraction(deg * (omega - 1), denom)
                second.append(
                    LemmaReport("matching-weighted-degree-bound", v, None, snn, weighted)
                )
                second.append(LemmaReport("square-degree-cap", v, None, sqd, cap))
    second.append(
        LemmaReport("max-square-degree", worst_v, None, worst, 2 * omega * (omega - 1))
    )
    return degree + exterior + second


def run_lemma_suite(g: Graph) -> list[LemmaReport]:
    """All lemma reports for one graph at its clique number (at least 2).

    Checks claw-freeness once, raising NotClawFreeError with the claw as its
    witness, and then evaluates every report in one sweep (``_lemma_reports``),
    which assumes that claw-freeness and whose neighborhood clique numbers
    give the clique number.
    """
    require_claw_free(g)
    return _lemma_reports(g)
