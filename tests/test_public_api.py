"""The names ``clawsq`` exports, pinned so that adding or deleting one is deliberate.

The names of ``clawsq.errors``, the exception types and the default node
budget, are pinned the same way.

The fields of every exported dataclass, and the parameter names and kinds
of every exported function, are pinned the same way.

Every exported function and class has a reader in the library or in the
benchmark, outside the tests, and so does every module-level definition of
the library, private ones included, outside its own body.
"""

import ast
import dataclasses
import inspect
import re
import types
from pathlib import Path

import clawsq
from clawsq import errors

PUBLIC_NAMES = [
    "BlowupSpec",
    "Classification",
    "ClawWitness",
    "Coloring",
    "CorpusEntry",
    "ExactResult",
    "Graph",
    "LemmaReport",
    "NeighborhoodShape",
    "Reduction",
    "RootGraph",
    "StrongEdgeColoring",
    "UNCOLORED",
    "brute_force_claw_free",
    "build_graph",
    "classify",
    "color_small_omega",
    "color_square",
    "connected_components",
    "default_corpus",
    "delete_vertex",
    "exact_chromatic",
    "find_claw",
    "find_reducible_vertex",
    "gen_blowup_c5",
    "gen_icosahedron",
    "gen_line_graph",
    "gen_random_claw_free",
    "greedy_reduce",
    "induced_subgraph",
    "krausz_partition",
    "max_clique",
    "neighborhood_shape",
    "palette_bound",
    "parse_dimacs",
    "q_value",
    "ramsey_bound",
    "recognize_icosahedron",
    "root_graph",
    "run_lemma_suite",
    "square",
    "strong_edge_color",
    "trivial_greedy_square",
    "verify_coloring",
    "write_corpus",
    "write_dimacs",
    "z_set",
]


def test_public_names_are_pinned():
    # Submodules are left out: which of them are attributes of the package
    # depends on what the process has imported so far.
    names = sorted(
        name
        for name, value in vars(clawsq).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


ERROR_NAMES = [
    "DEFAULT_NODE_LIMIT",
    "DimacsError",
    "DuplicateEdgeError",
    "GenerationExhaustedError",
    "InternalBoundViolation",
    "InvalidPartitionError",
    "InvalidSpecError",
    "NodeLimitExceeded",
    "NotClawFreeError",
    "NotNeighborError",
    "NotSmallOmegaError",
    "SelfLoopError",
    "SizeMismatchError",
    "UnclassifiableGraphError",
    "UnsupportedOmegaError",
    "VertexOutOfRangeError",
]


def test_error_names_are_pinned():
    assert sorted(name for name in vars(errors) if not name.startswith("_")) == ERROR_NAMES


DATACLASS_FIELDS = {
    "BlowupSpec": ["sizes"],
    "Classification": ["kind", "omega", "reduction", "antipodal_pairs", "root"],
    "ClawWitness": ["center", "leaves"],
    "CorpusEntry": ["id", "graph", "generator", "params", "seed", "known"],
    "ExactResult": ["value", "witness", "nodes_explored"],
    "LemmaReport": ["lemma_id", "vertex", "neighbor", "lhs", "rhs"],
    "NeighborhoodShape": ["parts", "ambiguous"],
    "Reduction": ["vertex", "case", "xstar", "kprime"],
    "RootGraph": ["f", "edge_of_vertex"],
    "StrongEdgeColoring": ["edges", "colors"],
}


def test_dataclass_fields_are_pinned():
    exported = {
        name: [f.name for f in dataclasses.fields(value)]
        for name, value in vars(clawsq).items()
        if isinstance(value, type) and dataclasses.is_dataclass(value)
    }
    assert exported == DATACLASS_FIELDS


# Each exported function's parameters as in its def line, without
# annotations or defaults; "*" marks where the keyword-only ones start.
SIGNATURES = {
    "brute_force_claw_free": "g",
    "build_graph": "n, edges",
    "classify": "g, omega, *, check_claw_free",
    "color_small_omega": "g",
    "color_square": "g, *, node_limit",
    "connected_components": "g",
    "default_corpus": "",
    "delete_vertex": "g, v",
    "exact_chromatic": "g, upper, node_limit",
    "find_claw": "g",
    "find_reducible_vertex": "g, omega",
    "gen_blowup_c5": "spec",
    "gen_icosahedron": "",
    "gen_line_graph": "f",
    "gen_random_claw_free": "n, omega_target, seed, strategy",
    "greedy_reduce": "g, *, node_limit",
    "induced_subgraph": "g, vertices",
    "krausz_partition": "g, omega",
    "max_clique": "g",
    "neighborhood_shape": "g, v",
    "palette_bound": "omega",
    "parse_dimacs": "text",
    "q_value": "g, v, w",
    "ramsey_bound": "omega",
    "recognize_icosahedron": "g",
    "root_graph": "g, partition",
    "run_lemma_suite": "g",
    "square": "g",
    "strong_edge_color": "f, *, node_limit",
    "trivial_greedy_square": "g",
    "verify_coloring": "g, coloring",
    "write_corpus": "entries, directory",
    "write_dimacs": "g, comments",
    "z_set": "g, v",
}


def parameter_line(fn) -> str:
    """``fn``'s parameter names, with "*" before the keyword-only ones.

    Any other kind (positional-only, ``*args``, ``**kwargs``) is spelled
    out beside its name, so it cannot pass for a plain parameter.
    """
    words = []
    for p in inspect.signature(fn).parameters.values():
        if p.kind is p.KEYWORD_ONLY and "*" not in words:
            words.append("*")
        plain = p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        words.append(p.name if plain else f"{p.name} ({p.kind.description})")
    return ", ".join(words)


def test_function_signatures_are_pinned():
    exported = {
        name: parameter_line(value)
        for name, value in vars(clawsq).items()
        if not name.startswith("_") and inspect.isfunction(value)
    }
    assert exported == SIGNATURES


REPO = Path(__file__).resolve().parent.parent
LIBRARY = sorted((REPO / "src" / "clawsq").glob("*.py"))
READERS = [p for p in LIBRARY if p.name != "__init__.py"]
READERS += sorted((REPO / "perfbench").glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def names_read(tree: ast.Module) -> list[set[str]]:
    """Per top-level statement, every name, attribute and word of a non-docstring string constant.

    Words of strings count because ``perfbench/tracer.py``'s ``LAYERS``
    names the functions it wraps in strings; a docstring that mentions a
    name does not read it.
    """
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    reads = []
    for stmt in tree.body:
        read = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in docstrings:
                    read.update(re.findall(r"\w+", node.value))
        reads.append(read)
    return reads


def test_every_export_has_a_reader():
    read = set().union(*(r for p in READERS for r in names_read(parse(p))))
    exported = [
        name
        for name, value in vars(clawsq).items()
        if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
    ]
    assert sorted(name for name in exported if name not in read) == []


def test_every_definition_has_a_reader():
    # A module-level def or class of the library, private or not, is read
    # when a top-level statement of the library or the benchmark other than
    # the definition itself names it.
    trees = {p: parse(p) for p in LIBRARY + READERS}
    statements = [stmt for p in READERS for stmt in trees[p].body]
    reads = [read for p in READERS for read in names_read(trees[p])]
    unread = [
        f"{p.name}:{stmt.name}"
        for p in LIBRARY
        for stmt in trees[p].body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not any(
            stmt.name in read for other, read in zip(statements, reads) if other is not stmt
        )
    ]
    assert unread == []
