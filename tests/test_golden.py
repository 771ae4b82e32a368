"""Square colorings pinned by digest, so rewrites of hot code keep their output.

``golden_colorings.json`` holds ``coloring_digest(color_square(g).colors)``
for every corpus entry, every stress-family instance and the 200-vertex
members of the peeling scaling family. A change that alters a coloring on
purpose regenerates the file with
``PYTHONPATH=src:tests python tests/test_golden.py`` and says why.
"""

import json
from pathlib import Path

from helpers import coloring_digest, scaling_instances, stress_instances

from clawsq.coloring import color_square
from clawsq.corpus import default_corpus

GOLDEN = Path(__file__).with_name("golden_colorings.json")


def current_digests(corpus, stress, scaling):
    return {
        "corpus": {e.id: coloring_digest(color_square(e.graph).colors) for e in corpus},
        "scaling": {name: coloring_digest(color_square(g).colors) for name, g in scaling},
        "stress": {
            name: coloring_digest(color_square(g).colors) for name, _, _, g in stress
        },
    }


def test_colorings_match_golden(corpus, stress_family):
    golden = json.loads(GOLDEN.read_text())
    current = current_digests(corpus, stress_family, scaling_instances())
    assert current["stress"] == golden["stress"]
    assert current["scaling"] == golden["scaling"]
    changed = sorted(k for k, v in current["corpus"].items() if golden["corpus"].get(k) != v)
    assert not changed and current["corpus"].keys() == golden["corpus"].keys()


if __name__ == "__main__":
    digests = current_digests(default_corpus(), stress_instances(), scaling_instances())
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
