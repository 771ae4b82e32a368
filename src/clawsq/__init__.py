"""Constructive square colorings of claw-free graphs within clique-number bounds.

The package couples a structural classifier for connected claw-free graphs
(reducible vertex, icosahedron, or line graph with a reconstructed root)
with an inductive coloring engine, exact validation oracles, corpus
generators, and a batch CLI.
"""

from .analysis import (
    ClawWitness,
    LemmaReport,
    find_claw,
    q_value,
    ramsey_bound,
    run_lemma_suite,
    z_set,
)
from .coloring import (
    StrongEdgeColoring,
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
)
from .oracle import ExactResult, brute_force_claw_free, exact_chromatic
from .structure import (
    Classification,
    NeighborhoodShape,
    Reduction,
    RootGraph,
    classify,
    find_reducible_vertex,
    krausz_partition,
    neighborhood_shape,
    recognize_icosahedron,
    root_graph,
)

__version__ = "0.1.0"
