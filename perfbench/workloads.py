"""The benchmark's four workloads: seeded inputs, operations and output checks.

Each workload is a list of operations run in a seeded order, one at a time.
An operation is one library call or one in-process ``clawsq`` command; its
output is judged by ``check`` (never by clawsq's own verifier) and reduced
to a canonical payload for the determinism digest, with ``timings`` left
out of CLI reports.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
import rootgen


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` is not."""

    label: str
    vertices: int
    run: Callable[[], object]
    check: Callable[[object], tuple[str | None, str]]
    expect: str | None = None  # "peel" or "base": the layer this op must reach


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op]
    min_passes: int = 1


class Instance:
    """A graph as the checker sees it: its own edge list, or the DIMACS file it wrote.

    Adjacency and ω are rebuilt for every check, outside the timed ops, so
    the checker's memory does not grow with the number of passes.
    """

    def __init__(self, n: int, edges=None, path: Path | None = None):
        self.n = n
        self._edges = edges
        self._path = path

    def problem(self, colors) -> str | None:
        edges = self._edges
        if self._path is not None:
            _, edges = check.parse_edges(self._path.read_text(encoding="ascii"))
        adj = check.adjacency(self.n, edges)
        return check.coloring_problem(adj, check.clique_number(adj), colors)


def _cli(mods, argv: list[str]) -> Callable[[], CliResult]:
    def run() -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = mods[".cli"].main(argv)
        return CliResult(code, out.getvalue(), err.getvalue())

    return run


def _report(result) -> tuple[str | None, dict]:
    if not isinstance(result, CliResult):
        return f"raised {result!r}", {}
    try:
        report = json.loads(result.stdout)
    except ValueError:
        return f"exit {result.code}, stdout is not one JSON document", {}
    report.pop("timings", None)
    if result.code != 0:
        return f"exit {result.code}: {result.stderr.strip()[:200]}", report
    return None, report


def _payload(report: dict) -> str:
    return json.dumps(report, sort_keys=True)


def _check_color(inst: Instance):
    def judge(result):
        problem, report = _report(result)
        if problem is None:
            if report.get("verified") is not True:
                problem = "report is not verified"
            elif report.get("claw_free") is not True:
                problem = "report is not claw_free"
            else:
                problem = inst.problem(report.get("colors"))
        return problem, _payload(report)

    return judge


def _check_analyze(result):
    problem, report = _report(result)
    if problem is None and report.get("claw_free") is not True:
        problem = "analyze did not report claw_free"
    return problem, _payload(report)


def _check_lemmas(files: int):
    def judge(result):
        problem, report = _report(result)
        if problem is None:
            if report.get("failures") != []:
                problem = f"lemma failures: {report.get('failures')!r:.200}"
            elif report.get("problems") != [] or report.get("files") != files:
                problem = "verify-lemmas reported problems or skipped files"
        return problem, _payload(report)

    return judge


def _check_library(inst: Instance):
    def judge(result):
        colors = getattr(result, "colors", None)
        if colors is None:
            return f"raised {result!r}", ""
        return inst.problem(list(colors)), ",".join(map(str, colors))

    return judge


def _file_ops(mods, label: str, path: Path, n: int, oracle: bool = False) -> list[Op]:
    inst = Instance(n, path=path)
    color = ["color", str(path)] + (["--oracle"] if oracle else [])
    return [
        Op(f"{label}/color", inst.n, _cli(mods, color), _check_color(inst)),
        Op(f"{label}/analyze", inst.n, _cli(mods, ["analyze", str(path)]), _check_analyze),
    ]


def _write(mods, workdir: Path, name: str, g) -> list[Op]:
    """Write ``g`` as DIMACS and return its color and analyze operations."""
    path = workdir / f"{name}.col"
    path.write_text(mods[""].write_dimacs(g), encoding="ascii")
    return _file_ops(mods, name, path, g.n)


def corpus_batch(mods, seed: int, workdir: Path, size: float) -> Workload:
    """The batch user: color (with the oracle up to 20 vertices) and analyze every
    shipped corpus graph, then verify-lemmas. Fixed per-call cost dominates: CLI,
    DIMACS parse, claw checks, lemma suite, oracle. The seed only sets the order."""
    entries = mods[""].default_corpus()
    if size < 1:
        entries = entries[:: round(1 / size)]
    manifest = mods[""].write_corpus(entries, workdir)
    ops = []
    for e in entries:
        ops += _file_ops(mods, e.id, workdir / f"{e.id}.col", e.graph.n, e.graph.n <= 20)
    warmup = ops[::32]
    random.Random(seed).shuffle(ops)
    total = sum(e.graph.n for e in entries)
    lemmas = Op(
        "verify-lemmas",
        total,
        _cli(mods, ["verify-lemmas", str(manifest), "--jobs", "1"]),
        _check_lemmas(len(entries)),
    )
    return Workload(ops + [lemmas], warmup)


def _color_op(mods, label: str, g, edges, expect: str) -> Op:
    """color_square on g, checked against the benchmark's own copy of its edges."""
    inst = Instance(g.n, edges)
    return Op(label, g.n, lambda: mods[""].color_square(g), _check_library(inst), expect)


def _graph_op(mods, label: str, g, expect: str) -> Op:
    return _color_op(mods, label, g, list(g.edges()), expect)


def _peels(mods, g) -> bool:
    """True when some component of g has a reducible vertex, so color_square peels.

    About one random line graph in sixty of this size has none and would
    measure the base path instead; such draws are skipped.
    """
    lib = mods[""]
    for comp in lib.connected_components(g):
        sub, _ = lib.induced_subgraph(g, comp)
        w = lib.max_clique(sub)[0]
        if w >= 3 and lib.classify(sub, w, check_claw_free=False).kind == "reducible":
            return True
    return False


def peel_large(mods, seed: int, workdir: Path, size: float) -> Workload:
    """color_square on random omega 3 and 4 line graphs and a squared cycle of 150
    to 170 vertices: the peel-and-reinsert engine, barely the base path.

    One draw costs up to a third more or less than another, so a pass takes 24
    per omega to keep runs with different seeds comparable. The omega 3 graphs
    are larger so that both kinds take about as long and the median latency
    does not fall between two clusters.
    """
    rng = random.Random(seed)
    lib = mods[""]
    ops = []
    for omega, n in ((3, round(170 * size)), (4, round(150 * size))):
        for i in range(24):
            while True:
                s = rng.randrange(2**31)
                g = lib.gen_random_claw_free(n, omega, s)
                if _peels(mods, g):
                    break
            ops.append(_graph_op(mods, f"line-w{omega}-{i}-n{n}-s{s}", g, "peel"))
    n = round(160 * size)
    ops.append(_graph_op(mods, f"squared-cycle-n{n}", mods[".corpus"].squared_cycle(n), "peel"))
    warmup = [
        _graph_op(mods, "warm-line-w3", lib.gen_random_claw_free(40, 3, seed), "peel"),
        _graph_op(mods, "warm-line-w4", lib.gen_random_claw_free(40, 4, seed), "peel"),
        _graph_op(mods, "warm-squared-cycle", mods[".corpus"].squared_cycle(40), "peel"),
    ]
    rng.shuffle(ops)
    return Workload(ops, warmup)


def _regular_line_op(mods, label: str, roots: int, degree: int, seed: int) -> Op:
    root = rootgen.regular_girth5_root(roots, degree, seed)
    edges = rootgen.line_graph(root)
    return _color_op(mods, label, mods[""].build_graph(len(root), edges), edges, "base")


def base_large(mods, seed: int, workdir: Path, size: float) -> Workload:
    """color_square on line graphs of 3- and 4-regular roots of girth at least 5.

    Every square degree is at least 12 > 9 (omega 3) or 24 > 19 (omega 4), so
    nothing peels and all time goes to krausz_partition, root_graph and
    strong_edge_color, a path only 2 of the 524 corpus graphs reach.
    """
    rng = random.Random(seed)
    ops = []
    # (degree, root vertices): line graphs of 600 vertices. Two of one kind and
    # three of the other keep the median latency inside one cluster.
    for degree, roots in ((3, 400), (3, 400), (4, 300), (4, 300), (4, 300)):
        roots = max(2 * degree * degree, round(roots * size))
        s = rng.randrange(2**31)
        ops.append(_regular_line_op(mods, f"line-d{degree}-r{roots}-s{s}", roots, degree, s))
    warmup = [
        _regular_line_op(mods, "warm-line-d3", 40, 3, seed),
        _regular_line_op(mods, "warm-line-d4", 40, 4, seed),
    ]
    rng.shuffle(ops)
    return Workload(ops, warmup)


def dense_analyze(mods, seed: int, workdir: Path, size: float) -> Workload:
    """clawsq analyze on K_9x2 and K_10x2, whose neighborhoods (h = 16, 18) sit just
    under neighborhood_shape's enumeration cap, plus omega 5 line graphs, the only
    inputs that reach the exponential shape search and the omega >= 5 greedy path."""
    rng = random.Random(seed)
    lib = mods[""]
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    # Each cocktail party is analyzed several times per pass, K_9x2 six times
    # and K_10x2 twice: K_10x2 ops take 2 s each, too long for a fine host-speed
    # correction, and the sixteen cocktail ops in two passes put the tail
    # percentile near the median K_9x2 op instead of on the slowest random graph.
    for k, times in ((9, 6), (10, 2)) if size >= 1 else ((5, 6),):
        analyze = _write(mods, workdir, f"cocktail-{k}", mods[".corpus"].cocktail_party(k))[1]
        ops += [analyze] * times
    # Analyze every omega 5 graph but color only a quarter: coloring takes a
    # tenth of the time, and an even mix would put the median latency in the gap.
    n = round(100 * size)
    for i in range(24):
        s = rng.randrange(2**31)
        color, analyze = _write(
            mods, workdir, f"line-w5-{i}-n{n}-s{s}", lib.gen_random_claw_free(n, 5, s)
        )
        ops += [color, analyze] if i < 6 else [analyze]
    warmup = _write(mods, workdir, "warm-line-w5", lib.gen_random_claw_free(30, 5, seed))
    warmup.append(_write(mods, workdir, "warm-cocktail", mods[".corpus"].cocktail_party(4))[1])
    rng.shuffle(ops)
    return Workload(ops, warmup, min_passes=2)


WORKLOADS = {
    "corpus-batch": corpus_batch,
    "peel-large": peel_large,
    "base-large": base_large,
    "dense-analyze": dense_analyze,
}


def build(name: str, mods, seed: int, workdir: Path, size: float = 1.0) -> Workload:
    """Generate the workload's inputs from ``seed``; ``size`` < 1 shrinks them for tests."""
    return WORKLOADS[name](mods, seed, workdir, size)
