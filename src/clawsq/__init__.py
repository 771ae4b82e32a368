"""Constructive square colorings of claw-free graphs within clique-number bounds.

The package couples a structural classifier for connected claw-free graphs
(reducible vertex, icosahedron, or line graph with a reconstructed root)
with an inductive coloring engine, exact validation oracles, corpus
generators, and a batch CLI.
"""

from .analysis import (
    ClawWitness,
    LemmaReport,
    check_degree_lemma,
    check_exterior_bounds,
    check_second_neighborhood_bounds,
    exterior_neighbors,
    find_claw,
    q_value,
    ramsey_bound,
    run_lemma_suite,
    z_set,
)
from .coloring import (
    StrongEdgeColoring,
    color_icosahedron,
    color_small_omega,
    color_square,
    greedy_reduce,
    palette_bound,
    strong_edge_color,
    trivial_greedy_square,
    verify_coloring,
)
from .corpus import (
    BlowupSpec,
    CorpusEntry,
    default_corpus,
    gen_blowup_c5,
    gen_icosahedron,
    gen_line_graph,
    gen_random_claw_free,
    parse_dimacs,
    write_corpus,
    write_dimacs,
)
from .graph import (
    UNCOLORED,
    Coloring,
    Graph,
    build_graph,
    connected_components,
    delete_vertex,
    induced_subgraph,
    max_clique,
    square,
    square_degree,
)
from .oracle import (
    ExactResult,
    brute_force_claw_free,
    exact_chromatic,
    exact_strong_chromatic_index,
)
from .structure import (
    Classification,
    NeighborhoodShape,
    Reduction,
    RootGraph,
    classify,
    classify_very_bad,
    find_reducible_vertex,
    is_good_vertex,
    krausz_partition,
    neighborhood_shape,
    recognize_icosahedron,
    root_graph,
)

__version__ = "0.1.0"
