"""Seeded random d-regular root graphs of girth at least 5, and their line graphs.

Stdlib only and independent of clawsq, so the benchmark's base-case inputs
do not come from the code under test. A root is drawn from the pairing
(configuration) model and then repaired by edge switches: every switch
replaces one bad edge (a loop, a repeated edge, or an edge on a cycle of
length 3 or 4) and one random edge by two new edges that are both good,
so the number of bad edges falls strictly and the loop ends.
"""

from __future__ import annotations

import random


def _bad(adj: list[list[int]], u: int, v: int) -> bool:
    """True when edge uv is a loop, repeated, or lies on a 3- or 4-cycle."""
    if u == v or adj[u].count(v) > 1:
        return True
    nu = set(adj[u]) - {v}
    nv = set(adj[v]) - {u}
    if nu & nv:
        return True
    for a in nu:
        if set(adj[a]) & (nv - {a}):
            return True
    return False


def _connected(n: int, adj: list[list[int]]) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def regular_girth5_root(n: int, d: int, seed: int) -> list[tuple[int, int]]:
    """Sorted edge list of a connected d-regular simple graph on n vertices, girth >= 5."""
    if d < 2 or n * d % 2 or n <= d * d:
        raise ValueError(f"no {d}-regular girth-5 root on {n} vertices from this generator")
    rng = random.Random(seed)
    for _ in range(100):
        points = [v for v in range(n) for _ in range(d)]
        rng.shuffle(points)
        edges = [[points[i], points[i + 1]] for i in range(0, len(points), 2)]
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        bad = {i for i, (u, v) in enumerate(edges) if _bad(adj, u, v)}
        for _ in range(200 * len(edges)):
            if not bad:
                break
            i = rng.choice(sorted(bad))
            j = rng.randrange(len(edges))
            if j == i:
                continue
            (u, v), (x, y) = edges[i], edges[j]
            if rng.random() < 0.5:
                x, y = y, x
            for a, b in ((u, v), (x, y)):
                adj[a].remove(b)
                adj[b].remove(a)
            for a, b in ((u, x), (v, y)):
                adj[a].append(b)
                adj[b].append(a)
            if _bad(adj, u, x) or _bad(adj, v, y):
                for a, b in ((u, x), (v, y)):
                    adj[a].remove(b)
                    adj[b].remove(a)
                for a, b in ((u, v), (x, y)):
                    adj[a].append(b)
                    adj[b].append(a)
                continue
            edges[i], edges[j] = [u, x], [v, y]
            bad.discard(i)
            bad.discard(j)
        if not bad and _connected(n, adj):
            return sorted((min(u, v), max(u, v)) for u, v in edges)
    raise RuntimeError(f"could not build a {d}-regular girth-5 root on {n} vertices")


def line_graph(root_edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Edges of the line graph; vertex i is root edge i."""
    incident: dict[int, list[int]] = {}
    for i, (u, v) in enumerate(root_edges):
        incident.setdefault(u, []).append(i)
        incident.setdefault(v, []).append(i)
    out = set()
    for ids in incident.values():
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                out.add((min(ids[a], ids[b]), max(ids[a], ids[b])))
    return sorted(out)
