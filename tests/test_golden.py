"""Outputs pinned by digest, so rewrites of hot code keep them.

``golden_colorings.json`` holds ``coloring_digest(color_square(g).colors)``
for every corpus entry, every stress-family instance and every member of
``scaling_instances``: the 200- and 1600-vertex members of the peeling
scaling family, and two line graphs of girth-5 roots on about 1600
vertices that go straight to the base case. ``golden_reports.json`` holds the
sha256 of the ``as_dict`` list that ``run_lemma_suite`` returns for every
corpus entry and every stress-family instance (at the graph's clique
number, at least 2) and that its evaluator ``_lemma_reports`` returns for
every case of the omega sweep, and the sha256 of every corpus entry's ``clawsq analyze`` and ``clawsq color`` reports
without ``timings`` and with ``input`` cut to the file name, and of the
``clawsq color --oracle`` report of every corpus entry with at most 20
vertices, which pins the exact search's value and node count. A change that
alters any of these on purpose regenerates both files with
``PYTHONPATH=src:tests python tests/test_golden.py`` and says why.
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from helpers import (
    coloring_digest,
    lemma_sweep_instances,
    scaling_instances,
    stress_instances,
)

from clawsq.analysis import _lemma_reports, run_lemma_suite
from clawsq.cli import main
from clawsq.coloring import color_square
from clawsq.corpus import default_corpus, write_corpus

GOLDEN = Path(__file__).with_name("golden_colorings.json")
GOLDEN_REPORTS = Path(__file__).with_name("golden_reports.json")


def current_digests(corpus, stress, scaling):
    return {
        "corpus": {e.id: coloring_digest(color_square(e.graph).colors) for e in corpus},
        "scaling": {name: coloring_digest(color_square(g).colors) for name, g in scaling},
        "stress": {
            name: coloring_digest(color_square(g).colors) for name, _, _, g in stress
        },
    }


def text_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def lemma_digest(reports):
    return text_digest(json.dumps([r.as_dict() for r in reports]))


def lemma_digests(corpus, stress, sweep):
    return {
        "corpus": {e.id: lemma_digest(run_lemma_suite(e.graph)) for e in corpus},
        "stress": {name: lemma_digest(run_lemma_suite(g)) for name, _, _, g in stress},
        "sweep": {name: lemma_digest(_lemma_reports(g, omega)) for name, g, omega in sweep},
    }


def report_digests(command, corpus, directory, *flags):
    """Digest of each corpus entry's ``clawsq COMMAND FILE FLAGS`` report.

    The corpus is written to ``directory`` first.
    """
    write_corpus(corpus, directory)
    out = {}
    for entry in corpus:
        name = f"{entry.id}.col"
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main([command, str(Path(directory) / name), *flags]) == 0
        report = json.loads(buf.getvalue())
        del report["timings"]
        report["input"] = name
        out[entry.id] = text_digest(json.dumps(report, sort_keys=True, indent=2))
    return out


def oracle_digests(corpus, directory):
    """``report_digests`` of ``clawsq color --oracle`` on corpus entries of at most 20 vertices."""
    small = [entry for entry in corpus if entry.graph.n <= 20]
    return report_digests("color", small, directory, "--oracle")


def assert_same_digests(current, golden):
    changed = sorted(k for k, v in current.items() if golden.get(k) != v)
    assert not changed and current.keys() == golden.keys(), changed[:10]


def test_colorings_match_golden(corpus, stress_family):
    golden = json.loads(GOLDEN.read_text())
    current = current_digests(corpus, stress_family, scaling_instances())
    assert current["stress"] == golden["stress"]
    assert current["scaling"] == golden["scaling"]
    assert_same_digests(current["corpus"], golden["corpus"])


def test_lemma_reports_match_golden(corpus, stress_family):
    golden = json.loads(GOLDEN_REPORTS.read_text())["lemmas"]
    current = lemma_digests(corpus, stress_family, lemma_sweep_instances())
    assert current["stress"] == golden["stress"]
    assert_same_digests(current["sweep"], golden["sweep"])
    assert_same_digests(current["corpus"], golden["corpus"])


def test_analyze_reports_match_golden(corpus, tmp_path):
    golden = json.loads(GOLDEN_REPORTS.read_text())["analyze"]
    assert_same_digests(report_digests("analyze", corpus, tmp_path), golden)


def test_color_reports_match_golden(corpus, tmp_path):
    golden = json.loads(GOLDEN_REPORTS.read_text())["color"]
    assert_same_digests(report_digests("color", corpus, tmp_path), golden)


def test_color_oracle_reports_match_golden(corpus, tmp_path):
    golden = json.loads(GOLDEN_REPORTS.read_text())["color_oracle"]
    assert_same_digests(oracle_digests(corpus, tmp_path), golden)


if __name__ == "__main__":
    corpus, stress = default_corpus(), stress_instances()
    digests = current_digests(corpus, stress, scaling_instances())
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    with tempfile.TemporaryDirectory() as directory:
        reports = {
            "analyze": report_digests("analyze", corpus, directory),
            "color": report_digests("color", corpus, directory),
            "color_oracle": oracle_digests(corpus, directory),
            "lemmas": lemma_digests(corpus, stress, lemma_sweep_instances()),
        }
    GOLDEN_REPORTS.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
