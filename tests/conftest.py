import pytest
from helpers import stress_instances

from clawsq.corpus import (
    BlowupSpec,
    default_corpus,
    gen_blowup_c5,
    gen_icosahedron,
    gen_line_graph,
    octahedron,
    petersen,
)


@pytest.fixture(scope="session")
def corpus():
    return default_corpus()


@pytest.fixture(scope="session")
def stress_family():
    return stress_instances()


@pytest.fixture(scope="session")
def icosahedron():
    return gen_icosahedron()


@pytest.fixture(scope="session")
def petersen_graph():
    return petersen()


@pytest.fixture(scope="session")
def line_petersen(petersen_graph):
    g, _ = gen_line_graph(petersen_graph)
    return g


@pytest.fixture(scope="session")
def octahedron_graph():
    return octahedron()


@pytest.fixture(scope="session")
def sharp_blowup_line():
    """Line graph of the (1,1,1,2,2) five-cycle blow-up; its square is K10."""
    f = gen_blowup_c5(BlowupSpec((1, 1, 1, 2, 2)))
    g, _ = gen_line_graph(f)
    return g
