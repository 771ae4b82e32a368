"""Instance generators, named graphs, DIMACS files, and the shipped corpus.

Every generator is pure given its parameters and seed (each call owns a
fresh ``random.Random``, documented 64-bit Mersenne Twister; no global
state), so corpus entries carry provenance sufficient to regenerate them
bit for bit.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    DimacsError,
    GenerationExhaustedError,
    InvalidSpecError,
)
from .graph import Graph, build_graph, line_graph, max_clique
from .oracle import brute_force_claw_free


# ---------------------------------------------------------------------------
# named graphs


def cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidSpecError("cycles need at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def claw() -> Graph:
    return build_graph(4, [(0, 1), (0, 2), (0, 3)])


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, edges)


def octahedron() -> Graph:
    """K_{2,2,2}: all pairs except the three antipodal ones."""
    return cocktail_party(3)


def cocktail_party(k: int) -> Graph:
    """K_{k x 2}: 2k vertices, all pairs except k disjoint ones."""
    non_edges = {(2 * i, 2 * i + 1) for i in range(k)}
    return build_graph(
        2 * k,
        [(i, j) for i in range(2 * k) for j in range(i + 1, 2 * k) if (i, j) not in non_edges],
    )


def squared_cycle(n: int) -> Graph:
    """Circulant C_n(1, 2); claw-free with clique number 3 for n >= 7."""
    if n < 5:
        raise InvalidSpecError("squared cycles need at least 5 vertices")
    edges = {tuple(sorted((i, (i + d) % n))) for i in range(n) for d in (1, 2)}
    return build_graph(n, sorted(edges))


def gen_icosahedron() -> Graph:
    """The icosahedron on a fixed labeling.

    0 is a hub over the ring 1..5, 11 a hub over the ring 6..10, and ring
    vertex i is joined to 5+i and to 5+(i mod 5)+1.
    """
    edges = [(0, i) for i in range(1, 6)]
    edges += [(i, i % 5 + 1) for i in range(1, 6)]
    edges += [(11, 5 + i) for i in range(1, 6)]
    edges += [(5 + i, 5 + i % 5 + 1) for i in range(1, 6)]
    for i in range(1, 6):
        edges.append((i, 5 + i))
        edges.append((i, 5 + i % 5 + 1))
    return build_graph(12, sorted(tuple(sorted(e)) for e in edges))


# ---------------------------------------------------------------------------
# generators


@dataclass(frozen=True)
class BlowupSpec:
    """Class sizes for a five-cycle blow-up."""

    sizes: tuple[int, int, int, int, int]

    def __post_init__(self):
        if len(self.sizes) != 5:
            raise InvalidSpecError("a blow-up spec takes exactly five class sizes")
        if any(s < 1 for s in self.sizes):
            raise InvalidSpecError("class sizes must be positive")

    @property
    def degree_per_class(self) -> tuple[int, ...]:
        s = self.sizes
        return tuple(s[(i - 1) % 5] + s[(i + 1) % 5] for i in range(5))

    @property
    def max_degree(self) -> int:
        return max(self.degree_per_class)


def gen_blowup_c5(spec: BlowupSpec) -> Graph:
    """Five independent classes joined completely between consecutive ones."""
    sizes = spec.sizes
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    classes = [list(range(offsets[i], offsets[i + 1])) for i in range(5)]
    edges = []
    for i in range(5):
        for u in classes[i]:
            for v in classes[(i + 1) % 5]:
                edges.append(tuple(sorted((u, v))))
    return build_graph(offsets[-1], sorted(set(edges)))


def gen_line_graph(f: Graph) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """Line graph of f and the ordered edge list serving as the bijection."""
    edges = tuple(f.edges())
    return line_graph(f.n, edges), edges


def _random_bounded_graph(m: int, cap: int, rng: random.Random) -> Graph:
    """Random graph with m edges and maximum degree at most cap."""
    nf = max(4, (2 * m + cap - 1) // cap + 1)
    for _ in range(60):
        pairs = [(i, j) for i in range(nf) for j in range(i + 1, nf)]
        rng.shuffle(pairs)
        deg = [0] * nf
        chosen = []
        for u, v in pairs:
            if deg[u] < cap and deg[v] < cap:
                chosen.append((u, v))
                deg[u] += 1
                deg[v] += 1
                if len(chosen) == m:
                    return build_graph(nf, chosen)
        nf += 1
    raise GenerationExhaustedError(f"could not place {m} edges under degree cap {cap}")


def gen_random_claw_free(
    n: int, omega_target: int, seed: int, strategy: str = "line-graph"
) -> Graph:
    """Seeded random claw-free graph; claw-freeness is verified before return.

    Strategies: "line-graph" returns the line graph of a random graph with
    n edges and maximum degree at most omega_target, redrawn while its
    clique number exceeds omega_target; "blowup" the line
    graph of a random five-cycle blow-up with degrees capped by
    omega_target (n is treated as an upper bound on the output order);
    "rejection" filters dense or sparse uniform graphs on n vertices by
    claw-freeness and clique number.
    """
    if n < 0 or (strategy == "rejection" and n > 200):
        raise InvalidSpecError(f"unsupported size {n} for strategy {strategy}")
    if omega_target < 2:
        raise InvalidSpecError("omega_target must be at least 2")
    rng = random.Random(seed)
    if strategy == "line-graph":
        if n == 0:
            return build_graph(0, [])
        # A line graph's cliques are its root's stars and triangles, so only
        # a cap of 2 is ever exceeded, by a triangle in the root.
        g, _ = gen_line_graph(_random_bounded_graph(n, omega_target, rng))
        while max_clique(g)[0] > omega_target:
            g, _ = gen_line_graph(_random_bounded_graph(n, omega_target, rng))
    elif strategy == "blowup":
        for _ in range(1000):
            spec = BlowupSpec(tuple(rng.randint(1, 3) for _ in range(5)))
            if spec.max_degree <= omega_target:
                f = gen_blowup_c5(spec)
                if f.edge_count <= n:
                    g, _ = gen_line_graph(f)
                    break
        else:
            raise GenerationExhaustedError("no blow-up fits the requested bounds")
    elif strategy == "rejection":
        g = None
        for _ in range(5000):
            p = rng.choice((0.10, 0.13, 0.88, 0.92))
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < p
            ]
            candidate = build_graph(n, edges)
            if brute_force_claw_free(candidate) and max_clique(candidate)[0] <= omega_target:
                g = candidate
                break
        if g is None:
            raise GenerationExhaustedError(
                f"rejection sampling found no claw-free graph on {n} vertices"
            )
    else:
        raise InvalidSpecError(f"unknown strategy {strategy!r}")
    if not brute_force_claw_free(g):
        raise GenerationExhaustedError("generator produced a claw; this is a bug")
    return g


# ---------------------------------------------------------------------------
# DIMACS .col

_MAXSIZE_DIGITS = len(str(sys.maxsize))


def decimal_at_most(digits: str, bound: int) -> int | None:
    """The value of ASCII decimal digits, or None above ``bound`` (at most ``sys.maxsize``).

    Only zero padding, of any length, lets a longer string fit, so ``int`` never meets its limit.
    """
    if len(digits) > _MAXSIZE_DIGITS:
        digits = digits.lstrip("0")
        if len(digits) > _MAXSIZE_DIGITS:
            return None
    value = int(digits or "0")
    return value if value <= bound else None


def parse_dimacs(text: str) -> Graph:
    """Parse a DIMACS .col document (1-based 'e u v' lines under one 'p edge' line).

    A line whose first field starts with 'c' is a comment. Every malformed
    document raises DimacsError, with the line number where one line is at
    fault. The rows are built after the last line is checked,
    so any line's fault comes before a duplicate edge, and that before a
    wrong edge count.
    """
    n = None
    m = None
    edges = []
    # split() and isdigit() would accept non-ASCII spaces and digits
    ascii_text = text.isascii()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not (ascii_text or raw.isascii()):
            raise DimacsError("non-ASCII character", line=lineno)
        fields = raw.split()
        if not fields:
            continue
        head = fields[0]
        if head == "e":
            if n is None:
                raise DimacsError("edge before problem line", line=lineno)
            if len(fields) != 3:
                raise DimacsError("edge line must read 'e <u> <v>'", line=lineno)
            a, b = fields[1], fields[2]
            if not (a.isdigit() and b.isdigit()):
                raise DimacsError("endpoints must be decimal digits", line=lineno)
            # Fewer digits than sys.maxsize cannot meet int()'s digit limit;
            # decimal_at_most's None (above n) becomes 0, also outside 1..n.
            u = int(a) if len(a) < _MAXSIZE_DIGITS else decimal_at_most(a, n) or 0
            v = int(b) if len(b) < _MAXSIZE_DIGITS else decimal_at_most(b, n) or 0
            if not (0 < u <= n and 0 < v <= n):
                raise DimacsError(f"endpoint outside 1..{n}", line=lineno)
            if u == v:
                raise DimacsError(f"self-loop at vertex {u}", line=lineno)
            edges.append((u - 1, v - 1, lineno))
        elif head[0] == "c":
            continue
        elif head == "p":
            if n is not None:
                raise DimacsError("second problem line", line=lineno)
            if len(fields) != 4 or fields[1] != "edge":
                raise DimacsError("problem line must read 'p edge <n> <m>'", line=lineno)
            # int() alone would also take a sign and "_" separators
            if not (fields[2].isdigit() and fields[3].isdigit()):
                raise DimacsError("problem line counts must be decimal digits", line=lineno)
            n = decimal_at_most(fields[2], sys.maxsize)
            m = decimal_at_most(fields[3], sys.maxsize)
            if n is None:
                raise DimacsError(f"vertex count above {sys.maxsize}", line=lineno)
            if m is None:
                raise DimacsError(f"edge count above {sys.maxsize}", line=lineno)
        else:
            raise DimacsError(f"unknown directive {head!r}", line=lineno)
    if n is None:
        raise DimacsError("missing problem line")
    rows = [0] * n
    for u, v, lineno in edges:
        if rows[u] >> v & 1:
            raise DimacsError(f"duplicate edge ({u + 1}, {v + 1})", line=lineno)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    if len(edges) != m:
        raise DimacsError(f"problem line promises {m} edges, found {len(edges)}")
    return Graph(tuple(rows))


def write_dimacs(g: Graph, comments: tuple[str, ...] = ()) -> str:
    """Serialize normalized DIMACS: sorted 1-based edges, LF endings.

    Each comment becomes one 'c' line; a comment that is not ASCII, or that
    ``str.splitlines`` would split, raises ValueError, because
    :func:`parse_dimacs` would reject it or read the rest as directives.
    """
    lines = []
    for c in comments:
        line = f"c {c}"
        if not line.isascii() or line.splitlines() != [line]:
            raise ValueError(f"comment {c!r} is not one line of ASCII")
        lines.append(line)
    lines.append(f"p edge {g.n} {g.edge_count}")
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def load_dimacs(path) -> Graph:
    """The graph in the DIMACS file at ``path``; a malformed file raises DimacsError.

    A byte outside ASCII is kept as a lone surrogate, so :func:`parse_dimacs`
    reports it as a non-ASCII character at its line.
    """
    return parse_dimacs(Path(path).read_text(encoding="ascii", errors="surrogateescape"))


# ---------------------------------------------------------------------------
# the shipped corpus


@dataclass
class CorpusEntry:
    """One corpus graph with enough provenance to regenerate it exactly."""

    id: str
    graph: Graph
    generator: str
    params: dict = field(default_factory=dict)
    seed: int | None = None
    known: dict = field(default_factory=dict)

    def manifest_row(self, filename: str) -> dict:
        return {
            "id": self.id,
            "file": filename,
            "generator": self.generator,
            "params": self.params,
            "seed": self.seed,
            "known": self.known,
        }


def _entry(id_, graph, generator, params=None, seed=None) -> CorpusEntry:
    # Known fields are computed, not assumed: definition-level claw check
    # plus the exact clique solver.
    known = {
        "claw_free": brute_force_claw_free(graph),
        "omega": max_clique(graph)[0],
    }
    return CorpusEntry(id_, graph, generator, params or {}, seed, known)


def default_corpus() -> list[CorpusEntry]:
    """The deterministic claw-free corpus the acceptance suite runs on.

    Mixes named instances, line graphs of random graphs with max degree 3,
    4 and 5, blown-up five-cycle line graphs, cocktail parties, squared
    cycles, and rejection-sampled graphs; more than 500 entries, all on at
    most 40 vertices.
    """
    entries: list[CorpusEntry] = []

    entries.append(_entry("icosahedron", gen_icosahedron(), "icosahedron"))
    entries.append(_entry("octahedron", octahedron(), "octahedron"))
    for k in range(3, 9):
        entries.append(_entry(f"cocktail-{k}", cocktail_party(k), "cocktail-party", {"k": k}))
    for n in range(4, 21):
        entries.append(_entry(f"cycle-{n}", cycle(n), "cycle", {"n": n}))
    for n in range(1, 13):
        entries.append(_entry(f"path-{n}", path(n), "path", {"n": n}))
    for n in range(7, 27):
        entries.append(_entry(f"squared-cycle-{n}", squared_cycle(n), "squared-cycle", {"n": n}))
    for n in range(2, 6):
        entries.append(_entry(f"complete-{n}", complete(n), "complete", {"n": n}))

    named_roots = {
        "k4": complete(4),
        "k5": complete(5),
        "k33": build_graph(6, [(i, j + 3) for i in range(3) for j in range(3)]),
        "petersen": petersen(),
        "icosahedron": gen_icosahedron(),
    }
    for name, root in sorted(named_roots.items()):
        lg, _ = gen_line_graph(root)
        entries.append(_entry(f"line-{name}", lg, "line-graph", {"of": name}))

    blowup_sizes = [
        (1, 1, 1, 1, 1),
        (1, 1, 1, 2, 2),
        (1, 1, 2, 1, 2),
        (1, 1, 2, 2, 2),
        (1, 2, 1, 2, 2),
        (2, 2, 2, 2, 2),
        (1, 2, 2, 2, 3),
        (2, 2, 3, 2, 3),
        (1, 1, 3, 1, 3),
        (2, 3, 2, 3, 2),
    ]
    for sizes in blowup_sizes:
        f = gen_blowup_c5(BlowupSpec(sizes))
        lg, _ = gen_line_graph(f)
        label = "".join(str(s) for s in sizes)
        entries.append(_entry(f"line-blowup-{label}", lg, "line-blowup", {"sizes": list(sizes)}))

    for cap in (3, 4, 5):
        for m in (8, 12, 16, 20, 25, 30, 35, 40):
            for seed in range(12):
                gid = f"rand-line-d{cap}-m{m}-s{seed}"
                g = gen_random_claw_free(m, cap, seed, strategy="line-graph")
                entries.append(
                    _entry(gid, g, "random-claw-free",
                           {"n": m, "omega_target": cap, "strategy": "line-graph"}, seed)
                )

    for cap in (4, 5):
        for seed in range(20):
            gid = f"rand-blowup-d{cap}-s{seed}"
            g = gen_random_claw_free(40, cap, seed, strategy="blowup")
            entries.append(
                _entry(gid, g, "random-claw-free",
                       {"n": 40, "omega_target": cap, "strategy": "blowup"}, seed)
            )

    for n in (8, 10, 12, 14):
        for seed in range(30):
            gid = f"rand-reject-n{n}-s{seed}"
            g = gen_random_claw_free(n, 12, seed, strategy="rejection")
            entries.append(
                _entry(gid, g, "random-claw-free",
                       {"n": n, "omega_target": 12, "strategy": "rejection"}, seed)
            )

    return entries


def write_corpus(entries, directory) -> Path:
    """Write one DIMACS file per entry plus a manifest; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = []
    for entry in entries:
        filename = f"{entry.id}.col"
        (directory / filename).write_text(
            write_dimacs(entry.graph, comments=(entry.id,)), encoding="ascii"
        )
        manifest.append(entry.manifest_row(filename))
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="ascii"
    )
    return manifest_path
