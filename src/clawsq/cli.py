"""Batch command line front end: analyze, color, verify-lemmas, generate.

Every command prints exactly one JSON document to stdout (schema
``clawsq/2``), on one line with sorted keys; diagnostics go to stderr.
Exit codes are stable across commands: 0 success, 1 input error, 2
claw-free precondition violated, 3 internal invariant or bound violation.

``color`` classifies nothing itself: ``color_square`` walks the paper's
induction once, and the report carries the coloring, not the structure.
``analyze`` alone reports the classification of each component.

A malformed graph file raises ``DimacsError`` from ``load_dimacs`` and
exits 1 with one line. A command that runs out of recursion depth or
memory exits 3 with one line. ``main`` catches no broader exception around
library calls, so a library bug is never reported as bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from .analysis import find_claw, q_rows, run_lemma_suite
from .coloring import color_square, palette_bound
from .corpus import (
    BlowupSpec,
    claw,
    cocktail_party,
    complete,
    cycle,
    decimal_at_most,
    default_corpus,
    gen_blowup_c5,
    gen_icosahedron,
    gen_line_graph,
    gen_random_claw_free,
    load_dimacs,
    octahedron,
    path,
    petersen,
    squared_cycle,
    write_corpus,
    write_dimacs,
)
from .errors import (
    DEFAULT_NODE_LIMIT,
    DimacsError,
    GenerationExhaustedError,
    InternalBoundViolation,
    InvalidSpecError,
    NodeLimitExceeded,
    NotClawFreeError,
    UnclassifiableGraphError,
)
from .graph import (
    DISJOINT_COVER,
    Graph,
    clique_number,
    connected_components,
    induced_subgraph,
    neighborhood_covers,
    square,
    square_degrees,
)
from .oracle import exact_chromatic
from .structure import _shape_masks, classify

SCHEMA = "clawsq/2"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CLAW = 2
EXIT_INTERNAL = 3


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which collides with the
    # claw-violation exit code; surface usage problems as input errors.
    def error(self, message):
        raise CliUsageError(message)


def _emit(report: dict) -> None:
    # No indent: with one, json.dumps skips its C encoder. Vertex-keyed maps
    # keep integer keys, so sort_keys orders them numerically.
    print(json.dumps(report, sort_keys=True))


def _classification_dict(sub: Graph, old: tuple[int, ...], omega: int) -> dict:
    outcome = classify(sub, omega, check_claw_free=False)
    info: dict = {"kind": outcome.kind, "omega": omega, "vertices": list(old)}
    if outcome.reduction is not None:
        red = outcome.reduction
        info["vertex"] = old[red.vertex]
        info["case"] = red.case
        info["xstar"] = None if red.xstar is None else old[red.xstar]
        info["kprime"] = red.kprime
    if outcome.antipodal_pairs is not None:
        info["antipodal_pairs"] = [[old[a], old[b]] for a, b in outcome.antipodal_pairs]
    if outcome.root is not None:
        info["root_n"] = outcome.root.f.n
        info["root_edges"] = list(outcome.root.f.edges())
        info["vertex_to_root_edge"] = dict(zip(old, outcome.root.edge_of_vertex))
    return info


def cmd_analyze(args) -> int:
    started = time.perf_counter()
    g = load_dimacs(args.path)
    witness = find_claw(g)
    # Each component's subgraph (g itself when it holds every vertex) copies
    # the tables the claw check built, so omega and classify read them.
    parts = []
    for comp in connected_components(g):
        sub, old = induced_subgraph(g, comp)
        parts.append((sub, old, clique_number(sub)))
    report = {
        "schema": SCHEMA,
        "command": "analyze",
        "input": str(args.path),
        "n": g.n,
        "m": g.edge_count,
        "omega": max((w for _, _, w in parts), default=0),
        "claw_free": witness is None,
        "claw": None if witness is None else witness.as_dict(),
        "square_degrees": list(square_degrees(g)),
        "z_sets": None,
        "q_values": None,
        "classification": None,
        # neighborhood_shape(g, v).ambiguous, without building the parts:
        # the claw check has built the cover table, and a disjoint cover
        # has a unique split.
        "ambiguous_neighborhoods": [
            v
            for v, (row, kind) in enumerate(zip(g._adj, neighborhood_covers(g)))
            if kind != DISJOINT_COVER and _shape_masks(g._adj, row, kind) is True
        ],
    }
    # q and Z stay null on a claw, as classification does (schema clawsq/2);
    # q_rows reads the same cover table and searches only the edges it
    # leaves open, each in polynomial time.
    if witness is None:
        qs = q_rows(g)
        report["z_sets"] = {v: [w for w, q in row.items() if q] for v, row in enumerate(qs)}
        report["q_values"] = dict(enumerate(qs))
        report["classification"] = [_classification_dict(*part) for part in parts]
    report["timings"] = {"elapsed_s": time.perf_counter() - started}
    _emit(report)
    if witness is not None and args.require_claw_free:
        return EXIT_CLAW
    return EXIT_OK


def cmd_color(args) -> int:
    started = time.perf_counter()
    g = load_dimacs(args.path)
    try:
        coloring = color_square(g, node_limit=args.node_limit)
    except NotClawFreeError as exc:
        _emit(
            {
                "schema": SCHEMA,
                "command": "color",
                "input": str(args.path),
                "claw_free": False,
                "claw": exc.witness.as_dict(),
            }
        )
        return EXIT_CLAW
    # Reads the tables color_square left on g; searches only from 5 up.
    omega = clique_number(g)
    report = {
        "schema": SCHEMA,
        "command": "color",
        "input": str(args.path),
        "n": g.n,
        "m": g.edge_count,
        "omega": omega,
        "claw_free": True,
        "palette": coloring.palette_size,
        "bound": palette_bound(omega),
        # color_square raises unless its coloring is proper within the bound
        "verified": True,
        "colors": list(coloring.colors),
        "oracle": None,
    }
    if args.oracle:
        # The coloring fits the palette, so the search finds chi(G^2) or runs out of nodes.
        result = exact_chromatic(square(g), coloring.palette_size, args.node_limit)
        report["oracle"] = {
            "chi_square": result.value,
            "nodes_explored": result.nodes_explored,
            "palette_gap": coloring.palette_size - result.value,
        }
    report["timings"] = {"elapsed_s": time.perf_counter() - started}
    _emit(report)
    return EXIT_OK


def _verify_manifest_row(base: Path, row: dict) -> dict:
    entry_path = base / row["file"]
    out = {"id": row.get("id", row["file"]), "file": row["file"]}
    try:
        g = load_dimacs(entry_path)
    except (DimacsError, OSError) as exc:
        out["error"] = f"input: {exc}"
        return out
    omega = clique_number(g)
    known = row.get("known", {})
    mismatches = []
    if "omega" in known and known["omega"] != omega:
        mismatches.append(f"omega recorded {known['omega']}, computed {omega}")
    try:
        reports = run_lemma_suite(g)
    except NotClawFreeError as exc:
        witness = exc.witness
        if known.get("claw_free"):
            mismatches.append(f"claw at center {witness.center}")
        out["claw"] = witness.as_dict()
        out["mismatches"] = mismatches
        return out
    if "claw_free" in known and not known["claw_free"]:
        mismatches.append("claw_free recorded false, no claw found")
    out["omega"] = omega
    out["reports_failed"] = [rep.as_dict() for rep in reports if rep.lhs > rep.rhs]
    out["mismatches"] = mismatches
    return out


def cmd_verify_lemmas(args) -> int:
    started = time.perf_counter()
    manifest_path = Path(args.manifest)
    try:
        rows = json.loads(manifest_path.read_text(encoding="ascii"))
    except UnicodeDecodeError as exc:
        raise CliUsageError(f"manifest is not ASCII: {exc}") from exc
    except RecursionError as exc:
        raise CliUsageError("manifest nests too deeply to parse") from exc
    except json.JSONDecodeError as exc:
        raise CliUsageError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(rows, list):
        raise CliUsageError("manifest must be a JSON array")
    if not rows:
        print("warning: empty manifest, nothing to verify", file=sys.stderr)
    for index, row in enumerate(rows):
        if not isinstance(row, dict) or not isinstance(row.get("file"), str):
            raise CliUsageError(f'manifest row {index}: not an object with a "file" string')
        if "\0" in row["file"]:
            raise CliUsageError(f'manifest row {index}: "file" contains a NUL character')
        known = row.get("known", {})
        if not isinstance(known, dict):
            raise CliUsageError(f'manifest row {index}: "known" is not an object')
        for key, kind, what in (("omega", int, "an integer"), ("claw_free", bool, "a boolean")):
            if key in known and type(known[key]) is not kind:
                raise CliUsageError(f'manifest row {index}: "known.{key}" is not {what}')
    results = [_verify_manifest_row(manifest_path.parent, row) for row in rows]
    claw_hit = any("claw" in r for r in results)
    failures = [
        {"id": r["id"], **f}
        for r in results
        for f in r.get("reports_failed", [])
    ]
    problems = [r for r in results if r.get("error") or r.get("mismatches")]
    report = {
        "schema": SCHEMA,
        "command": "verify-lemmas",
        "manifest": str(manifest_path),
        "files": len(results),
        "failures": failures,
        "problems": problems,
        "claw_found": claw_hit,
        "timings": {"elapsed_s": time.perf_counter() - started},
    }
    _emit(report)
    if any(r.get("error") for r in results):
        return EXIT_INPUT
    if claw_hit:
        return EXIT_CLAW
    if failures or any(r.get("mismatches") for r in results):
        return EXIT_INTERNAL
    return EXIT_OK


_NAMED_ROOTS = {
    "petersen": petersen,
    "k4": lambda: complete(4),
    "k5": lambda: complete(5),
    "octahedron": octahedron,
    "icosahedron": gen_icosahedron,
    "claw": claw,
}


def _natural(text: str, what: str) -> int:
    """``text``, ASCII decimal digits, as an integer up to ``sys.maxsize``, or CliUsageError.

    The one reader of every number on the command line: ``int`` alone would
    also take a sign, ``_`` separators, spaces and non-ASCII digits. The
    messages leave the text out, as it may be of any length.
    """
    if not (text.isascii() and text.isdigit()):
        raise CliUsageError(f"{what} must be a non-negative integer")
    value = decimal_at_most(text, sys.maxsize)
    if value is None:
        raise CliUsageError(f"{what} must be a non-negative integer of at most {sys.maxsize}")
    return value


def _at_least(least: int):
    """argparse type: an integer from ``least`` to ``sys.maxsize``, read by ``_natural``."""
    bound = "a non-negative integer" if least == 0 else f"an integer of at least {least}"

    def read(text: str) -> int:
        try:
            value = _natural(text, "the value")
        except CliUsageError:
            value = -1
        if value < least:
            raise argparse.ArgumentTypeError(f"must be {bound} up to {sys.maxsize}")
        return value

    return read


def _root_for(name: str) -> Graph:
    """A named root, a ``family:arg`` root when the prefix names a family, else a DIMACS file."""
    if name in _NAMED_ROOTS:
        return _NAMED_ROOTS[name]()
    kind, colon, arg = name.partition(":")
    makers = {
        "cycle": cycle,
        "path": path,
        "complete": complete,
        "cocktail": cocktail_party,
        "squared-cycle": squared_cycle,
    }
    if colon and kind in makers:
        return makers[kind](_natural(arg, f"the {kind} size"))
    if colon and kind == "blowup":
        sizes = tuple(_natural(s, "a class size") for s in arg.split(","))
        return gen_blowup_c5(BlowupSpec(sizes))
    return load_dimacs(name)


def cmd_generate(args) -> int:
    if args.kind == "corpus":
        if not args.out:
            raise CliUsageError("generate corpus requires --out DIRECTORY")
        entries = default_corpus()
        manifest = write_corpus(entries, args.out)
        _emit(
            {
                "schema": SCHEMA,
                "command": "generate",
                "kind": "corpus",
                "entries": len(entries),
                "manifest": str(manifest),
            }
        )
        return EXIT_OK

    if args.kind == "blowup-c5":
        if not args.sizes:
            raise CliUsageError("generate blowup-c5 requires --sizes a,b,c,d,e")
        sizes = tuple(_natural(s, "a class size") for s in args.sizes.split(","))
        g = gen_blowup_c5(BlowupSpec(sizes))
        params = {"sizes": list(sizes)}
    elif args.kind == "icosahedron":
        g = gen_icosahedron()
        params = {}
    elif args.kind == "line-graph":
        if not args.of:
            raise CliUsageError("generate line-graph requires --of NAME")
        g, _ = gen_line_graph(_root_for(args.of))
        params = {"of": args.of}
    else:  # "random", the last of the parser's choices
        g = gen_random_claw_free(args.n, args.omega, args.seed, strategy=args.strategy)
        params = {
            "n": args.n,
            "omega_target": args.omega,
            "strategy": args.strategy,
            "seed": args.seed,
        }

    text = write_dimacs(g)
    report = {
        "schema": SCHEMA,
        "command": "generate",
        "kind": args.kind,
        "params": params,
        "n": g.n,
        "m": g.edge_count,
    }
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
        report["file"] = str(args.out)
    else:
        report["dimacs"] = text
    _emit(report)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process and reused by every main call."""
    parser = _Parser(
        prog="clawsq",
        description=(
            "Analyze and color squares of claw-free graphs within "
            "clique-number palette bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural report for one DIMACS graph")
    p.add_argument("path")
    p.add_argument(
        "--require-claw-free",
        action="store_true",
        help="exit with status 2 when the input contains a claw",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("color", help="verified square coloring within the bound")
    p.add_argument("path")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="also compute the exact chromatic number of the square (exponential)",
    )
    p.add_argument(
        "--node-limit",
        type=_at_least(1),
        default=DEFAULT_NODE_LIMIT,
        help=(
            "node budget of the strong edge coloring's one saturation search, "
            "which counts every node, its greedy first descent included, and "
            "of --oracle's search; the clique searches run without a budget "
            "(default %(default)s)"
        ),
    )
    p.set_defaults(func=cmd_color)

    p = sub.add_parser(
        "verify-lemmas", help="evaluate every inequality over a corpus manifest"
    )
    p.add_argument("manifest")
    # perfbench still passes --jobs 1; ROADMAP item 10 deletes the option.
    p.add_argument(
        "--jobs",
        choices=["1"],
        help="kept for compatibility: rows run one after another, so only 1 is accepted",
    )
    p.set_defaults(func=cmd_verify_lemmas)

    p = sub.add_parser("generate", help="write named or random instances")
    p.add_argument(
        "kind", choices=["blowup-c5", "icosahedron", "line-graph", "random", "corpus"]
    )
    p.add_argument("--sizes", help="five comma-separated class sizes for blowup-c5")
    p.add_argument("--of", help="root graph for line-graph (name, family:arg, or file)")
    p.add_argument("--n", type=_at_least(0), default=12, help="target size for random")
    p.add_argument("--omega", type=_at_least(0), default=3, help="clique cap for random")
    p.add_argument("--seed", type=_at_least(0), default=0, help="generator seed")
    p.add_argument(
        "--strategy",
        choices=["line-graph", "blowup", "rejection"],
        default="line-graph",
        help="random generator strategy",
    )
    p.add_argument("--out", help="output file (or directory for corpus)")
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (
        CliUsageError,
        DimacsError,
        InvalidSpecError,
        GenerationExhaustedError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (
        InternalBoundViolation,
        UnclassifiableGraphError,
        NodeLimitExceeded,
    ) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (RecursionError, MemoryError) as exc:
        reason = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        print(f"internal error: resource exhausted ({reason})", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
