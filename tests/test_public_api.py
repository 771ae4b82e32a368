"""The names ``clawsq`` exports, pinned so that adding or deleting one is deliberate.

The names of ``clawsq.errors``, the exception types and the default node
budget, are pinned the same way.

The fields of every exported dataclass, and the parameter names and kinds
of every exported function, are pinned the same way.
"""

import dataclasses
import inspect
import types

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
    "color_icosahedron",
    "color_small_omega",
    "color_square",
    "connected_components",
    "default_corpus",
    "delete_vertex",
    "exact_chromatic",
    "exact_strong_chromatic_index",
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
    "InvalidPairingError",
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
    "color_icosahedron": "g",
    "color_small_omega": "g",
    "color_square": "g, *, node_limit",
    "connected_components": "g",
    "default_corpus": "",
    "delete_vertex": "g, v",
    "exact_chromatic": "g, upper, node_limit",
    "exact_strong_chromatic_index": "f, upper, node_limit",
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
