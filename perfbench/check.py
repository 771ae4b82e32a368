"""Output checks that share no code with clawsq.

Graphs reach this module as plain edge lists (parsed here from the DIMACS
text the benchmark wrote, or generated by the benchmark itself), so a
coloring is judged against G² by a breadth-first walk to distance 2, never
through ``clawsq.square`` or ``verify_coloring``.
"""

from __future__ import annotations


def parse_edges(dimacs: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and 0-based edges of a DIMACS ``.col`` document."""
    n = 0
    edges = []
    for line in dimacs.splitlines():
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "p":
            n = int(fields[2])
        elif fields[0] == "e":
            edges.append((int(fields[1]) - 1, int(fields[2]) - 1))
    return n, edges


def adjacency(n: int, edges) -> list[frozenset[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return [frozenset(a) for a in adj]


def clique_number(adj: list[frozenset[int]]) -> int:
    """Largest clique size by Bron–Kerbosch with pivoting."""
    best = 0
    stack = [(0, frozenset(range(len(adj))), frozenset())]
    while stack:
        size, p, x = stack.pop()
        if not p:
            if not x:
                best = max(best, size)
            continue
        if size + len(p) <= best:
            continue
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in p - adj[pivot]:
            stack.append((size + 1, p & adj[v], x & adj[v]))
            p = p - {v}
            x = x | {v}
    return best


def palette_bound(omega: int) -> int:
    """The paper's palette bound for clique number ``omega``."""
    if omega <= 2:
        return 5
    if omega == 3:
        return 10
    if omega == 4:
        return 22
    return 2 * omega * (omega - 1) + 1


def coloring_problem(adj: list[frozenset[int]], omega: int, colors) -> str | None:
    """None when ``colors`` is a proper coloring of G² within the bound, else why not."""
    n = len(adj)
    if len(colors) != n:
        return f"{len(colors)} colors for {n} vertices"
    if any(not isinstance(c, int) or c < 0 for c in colors):
        return "a vertex is uncolored"
    if n and max(colors) + 1 > palette_bound(omega):
        return f"palette {max(colors) + 1} exceeds the bound {palette_bound(omega)}"
    for v in range(n):
        cv = colors[v]
        for u in adj[v]:
            if colors[u] == cv:
                return f"adjacent vertices {v} and {u} share color {cv}"
            for w in adj[u]:
                if w != v and colors[w] == cv:
                    return f"vertices {v} and {w} at distance 2 share color {cv}"
    return None
