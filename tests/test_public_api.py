"""The names ``clawsq`` exports, pinned so that adding or deleting one is deliberate."""

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
