"""Claw detection and the quantitative neighborhood inequalities for claw-free graphs.

:func:`run_lemma_suite` is the one public entry to the inequalities: it
checks claw-freeness once and returns every instance as a
:class:`LemmaReport` that records both sides of the bound exactly. Right-hand
sides stay rational (`fractions.Fraction`), never floating point, so "holds"
is never a tolerance question. The report families compute on masks of the
adjacency rows: clique and stability numbers of N(v) by one clique search,
exteriors by popcounts, and q once per edge, since it is symmetric and Z(v)
is where it is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import NotClawFreeError, NotNeighborError, UnsupportedOmegaError
from .graph import Graph, bits, max_clique_within, square_row

# Exact values of the Ramsey numbers R(k, 3) for small k; past the table the
# binomial upper bound C(k+1, 2) is used, which keeps every bound valid.
_RAMSEY_R3 = {2: 3, 3: 6, 4: 9, 5: 14, 6: 18, 7: 23, 8: 28, 9: 36}


@dataclass(frozen=True)
class ClawWitness:
    """An induced K_{1,3}: a center adjacent to three pairwise non-adjacent leaves."""

    center: int
    leaves: tuple[int, int, int]

    def vertices(self) -> frozenset[int]:
        return frozenset((self.center,) + self.leaves)


@dataclass(frozen=True)
class LemmaReport:
    """One evaluated inequality instance: holds iff lhs <= rhs."""

    lemma_id: str
    vertex: int
    neighbor: int | None
    lhs: Fraction
    rhs: Fraction
    holds: bool

    def as_dict(self) -> dict:
        return {
            "lemma": self.lemma_id,
            "vertex": self.vertex,
            "neighbor": self.neighbor,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "holds": self.holds,
        }


def _report(lemma_id, vertex, neighbor, lhs: Fraction, rhs: Fraction) -> LemmaReport:
    return LemmaReport(lemma_id, vertex, neighbor, lhs, rhs, lhs <= rhs)


class _Exact(dict):
    """The Fraction of each integer looked up, built on its first lookup.

    A report family makes one per call, so reports with equal integer sides
    share one immutable Fraction instead of each building its own.
    """

    def __missing__(self, value: int) -> Fraction:
        exact = self[value] = Fraction(value)
        return exact


def find_claw(g: Graph) -> ClawWitness | None:
    """First induced claw in lexicographic (center, leaves) order, or None.

    For each center the search walks non-adjacent leaf pairs inside the
    neighborhood with bitmask filters; a graph is claw-free iff this
    returns None.
    """
    adj = g._adj
    for v in range(g.n):
        nv = adj[v]
        if nv.bit_count() < 3:
            continue
        for x in bits(nv):
            higher = nv >> (x + 1) << (x + 1)
            for y in bits(higher & ~adj[x]):
                rest = nv & ~adj[x] & ~adj[y]
                rest = rest >> (y + 1) << (y + 1)
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
    """Neighbors of ``v`` with two non-adjacent common neighbors inside N(v)."""
    g.check_vertex(v)
    nv = g._adj[v]
    out = []
    for w in bits(nv):
        common = nv & g._adj[w]
        # w qualifies iff the common neighborhood is not a clique.
        for x in bits(common):
            if common & ~g._adj[x] & ~(1 << x):
                out.append(w)
                break
    return frozenset(out)


def _max_matching_mask(adj_masks, mask, memo):
    """Maximum matching size in the graph restricted to ``mask`` (exhaustive)."""
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
            best = _max_matching_mask(adj_masks, without_i, memo)
            for j in bits(partners):
                cand = 1 + _max_matching_mask(adj_masks, without_i & ~(1 << j), memo)
                if cand > best:
                    best = cand
            break
        # isolated vertices never matter; drop and continue
        mask ^= low
        rest ^= low
    memo[mask] = best
    return best


def q_value(g: Graph, v: int, w: int) -> int:
    """Matching number of the complement of w's neighborhood inside N(v).

    That neighborhood is N(v) ∩ N(w), so q depends on the edge alone and
    q(v, w) = q(w, v); it is positive iff N(v) ∩ N(w) is not a clique, so
    ``z_set(g, v)`` = {w : q(v, w) >= 1}. Neighborhoods are Ramsey-bounded,
    so an exhaustive matching search (with memoization on vertex masks)
    beats carrying a blossom implementation around. The search runs on the
    complement rows of the common neighborhood, kept as masks of g's own
    vertices.
    """
    if not g.has_edge(v, w):
        raise NotNeighborError(f"{w} is not a neighbor of {v}")
    adj = g._adj
    common = adj[v] & adj[w]
    anti = {u: common & ~adj[u] & ~(1 << u) for u in bits(common)}
    return _max_matching_mask(anti, common, {})


def q_rows(g: Graph) -> list[dict[int, int]]:
    """``rows[v][w] = q_value(g, v, w)`` for every edge, each row in increasing w.

    q is symmetric, so each edge's value is computed once and put in both rows.
    """
    rows = [{} for _ in range(g.n)]
    for v, w in g.edges():
        rows[v][w] = rows[w][v] = q_value(g, v, w)
    return rows


def _degree_reports(g: Graph, omega: int) -> list[LemmaReport]:
    """Per-vertex degree cap below the Ramsey number, plus neighborhood structure.

    Reports, for every vertex: deg(v) <= R(omega,3)-1; no clique of size
    omega inside the neighborhood; no independent triple inside it.
    """
    exact = _Exact()
    degree_cap = exact[ramsey_bound(omega) - 1]
    clique_cap = exact[omega - 1]
    stability_cap = exact[2]
    adj = g._adj
    full = (1 << g.n) - 1
    anti = [full & ~(row | 1 << u) for u, row in enumerate(adj)]
    reports = []
    for v, nv in enumerate(adj):
        reports.append(_report("degree-below-ramsey", v, None, exact[nv.bit_count()], degree_cap))
        clique = exact[max_clique_within(adj, nv)[0]]
        reports.append(_report("neighborhood-clique-cap", v, None, clique, clique_cap))
        stable = exact[max_clique_within(anti, nv)[0]]
        reports.append(_report("neighborhood-stability-cap", v, None, stable, stability_cap))
    return reports


def _exterior_reports(g: Graph, omega: int) -> list[LemmaReport]:
    """Per edge (v, w): the exterior N(w) - N[v] is a clique of at most omega-1 vertices."""
    exact = _Exact()
    size_cap = exact[omega - 1]
    zero = exact[0]
    adj = g._adj
    reports = []
    for v, nv in enumerate(adj):
        outside = ~(nv | 1 << v)
        for w in bits(nv):
            ext = adj[w] & outside
            size = ext.bit_count()
            # every edge inside the exterior is seen once from each end
            inner = sum((adj[x] & ext).bit_count() for x in bits(ext))
            reports.append(_report("exterior-size", v, w, exact[size], size_cap))
            nonedges = (size * (size - 1) - inner) // 2
            reports.append(_report("exterior-nonedges", v, w, exact[nonedges], zero))
    return reports


def _second_degree_cap(omega: int) -> Fraction:
    # Max of three candidate caps on the square degree of a high-degree
    # vertex, evaluated with exact rationals; R may be replaced by any
    # upper bound without invalidating it.
    r = ramsey_bound(omega)
    t1 = Fraction(2 * omega - 1) + (Fraction(omega) - Fraction(1, 2)) * (omega - 1)
    t2 = Fraction(r - 2) + Fraction((r - 2) * (omega - 1)) / (Fraction(r - 1, 2) + 2 - omega)
    t3 = Fraction(r - 1) + Fraction((r - 1) * (omega - 1)) / (Fraction(r, 2) + 2 - omega)
    return max(t1, t2, t3)


def _second_neighborhood_reports(g: Graph, omega: int) -> list[LemmaReport]:
    """Evaluate every second-neighborhood inequality that applies per vertex.

    Emitted per vertex: the half-weighted bound through Z(v) (both the
    weighted sum and its closed form), the matching-weighted bound through
    q(w) (both forms), and, when deg(v) >= 2*omega-1: saturation of Z(v),
    the half-degree bound, and (only for omega >= 4, where the matching
    lower bound needs that much room) the matching-weighted degree bound
    and the square-degree cap. One extra report caps the maximum square
    degree globally.
    """
    exact = _Exact()
    zero = exact[0]
    adj = g._adj
    cap = _second_degree_cap(omega) if omega >= 4 else None
    qs = q_rows(g)
    reports = []
    worst_v = 0
    worst = 0
    for v, nv in enumerate(adj):
        deg = nv.bit_count()
        sqd = square_row(g, v).bit_count()
        if sqd > worst:
            worst, worst_v = sqd, v
        snn = exact[sqd - deg]
        outside = ~(nv | 1 << v)
        counts = {}  # q -> how many neighbors w have q(v, w) = q
        exts = {}  # q -> the exterior sizes of those neighbors, summed
        for w, q in qs[v].items():
            counts[q] = counts.get(q, 0) + 1
            exts[q] = exts.get(q, 0) + (adj[w] & outside).bit_count()
        z_size = deg - counts.get(0, 0)
        # Z(v) is where q >= 1, and its members' exteriors count half
        zsum = Fraction(sum(exts.values()) + exts.get(0, 0), 2)
        reports.append(_report("second-neighborhood-z-sum", v, None, snn, zsum))
        zbound = Fraction((2 * deg - z_size) * (omega - 1), 2)
        reports.append(_report("second-neighborhood-z", v, None, snn, zbound))
        qsum = sum((Fraction(ext, q + 1) for q, ext in exts.items()), zero)
        reports.append(_report("second-neighborhood-q-sum", v, None, snn, qsum))
        qbound = (omega - 1) * sum((Fraction(c, q + 1) for q, c in counts.items()), zero)
        reports.append(_report("second-neighborhood-q", v, None, snn, qbound))
        if deg >= 2 * omega - 1:
            reports.append(
                _report("z-covers-neighborhood", v, None, exact[deg], exact[z_size])
            )
            reports.append(
                _report(
                    "half-degree-bound", v, None, snn, Fraction(deg * (omega - 1), 2)
                )
            )
            if omega >= 4:
                denom = (deg + 2) // 2 + 2 - omega  # ceil((deg+1)/2) + 2 - omega
                reports.append(
                    _report(
                        "matching-weighted-degree-bound",
                        v,
                        None,
                        snn,
                        Fraction(deg * (omega - 1), denom),
                    )
                )
                reports.append(_report("square-degree-cap", v, None, exact[sqd], cap))
    reports.append(
        _report(
            "max-square-degree", worst_v, None, exact[worst], exact[2 * omega * (omega - 1)]
        )
    )
    return reports


def run_lemma_suite(g: Graph, omega: int) -> list[LemmaReport]:
    """All lemma reports for one graph: degree caps, exteriors, second neighborhoods.

    Checks claw-freeness once, raising NotClawFreeError with the claw as its
    witness, and then evaluates the three report families.
    """
    require_claw_free(g)
    return (
        _degree_reports(g, omega)
        + _exterior_reports(g, omega)
        + _second_neighborhood_reports(g, omega)
    )
