"""The names ``clawsq`` exports, pinned so that adding or deleting one is deliberate.

The fields of every exported dataclass are pinned the same way.
"""

import dataclasses
import types

import clawsq

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
